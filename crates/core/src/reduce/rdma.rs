//! The RDMA reduce side, shared by Hadoop-A and OSU-IB (§III-B).
//!
//! One `RDMACopier` per ReduceTask connects a UCR endpoint to every
//! TaskTracker up front and receives for all of them: the endpoints share
//! one receive queue ([`EndpointSet`]), a connection is an entry in a table,
//! and only a connection that is writing a spill to disk has a task of its
//! own, for as long as the write takes. Packets stream into an
//! arrival-order queue; a priority-queue [`StreamingMerge`] extracts
//! globally sorted batches into the bounded `DataToReduceQueue`, which a
//! concurrently running reduce consumer drains — reduce is pipelined with
//! merge and shuffle (§III-B-4), unlike vanilla's barrier.
//!
//! The copier is the attempt's one shared object: it owns the shuffle state
//! and buffer budget, and its methods are the receive side (what the copier
//! task and its spill writers do) and the request side with the refill
//! policy (what the merge loop drives). The merge itself stays local to
//! [`run_reduce_rdma`].
//!
//! The shuffle buffer's budget bounds the bytes an attempt holds; the queues
//! that hold them are bounded by the rule that a queue gives back its burst
//! once drained. The arrival-order queue frees its buffer whenever a drain
//! empties it, and each merge source's packet FIFO shrinks back to one slot
//! (see [`crate::merge`]), so an attempt in Phase B no longer holds what
//! its Phase A pulled ahead of the merge.
//!
//! Engine differences (§III-C):
//! * **OSU-IB** — starts pulling data as soon as each map completes
//!   (overlapping the map wave), uses byte-budgeted packets
//!   (`osu_packet_bytes`), and its server serves from the PrefetchCache.
//! * **Hadoop-A** — fetches only segment *headers* during the map wave (the
//!   levitated-merge heap is built when all headers are in), then pulls
//!   fixed kv-count packets (`hadoop_a_kv_per_packet`) that the DataEngine
//!   reads from disk per request. With large kv-pairs (the Sort benchmark)
//!   those packets are enormous, exhausting the shuffle buffer and
//!   serialising fetches — the §IV-C pathology.
//!
//! # Refill
//!
//! Which sources to ask for their next packet is kept as a candidate set
//! (below the phase's fill level, not in flight, not fully delivered),
//! updated where one of those facts changes: a request goes out, a response
//! lands, a packet drains into the merge, a batch drops a source under the
//! watermark, a source is re-homed. A refill step walks that set in map
//! order and stops where the shuffle-buffer budget does, so the merge loop
//! costs what it sends rather than a sweep over every map per iteration.
//!
//! # Fault handling
//!
//! A verbs CQ never closes on peer death, so a dead TaskTracker cannot be
//! detected in-band the way vanilla's socket copiers detect it. The copier
//! therefore watches the runtime's `liveness-changed` signal out of band,
//! checks each connection's server against its [`NodeLiveness`] when it
//! fires, and reports a death to the merge loop. A connection is one
//! *incarnation* of a server: what still arrives from a dead one is ignored,
//! also after the attempt has reconnected to the restarted node.
//!
//! Because the server's cursor position for a partially-pulled segment dies
//! with the node (the re-executed map's server starts from offset zero), a
//! source that already delivered bytes cannot be resumed: the whole attempt
//! returns [`ReduceError::SourceLost`] and the runtime re-queues it.
//! Sources that were fully delivered before the death, and sources that had
//! delivered nothing yet (which are transparently re-homed onto the
//! re-executed map's TaskTracker), survive within the attempt.
//!
//! The completion log a reducer reads is a history: an attempt launched
//! after a node loss replays events whose TaskTracker has since died or
//! restarted without the output. A request acting on one is answered
//! [`ShufMsg::Unavailable`], and the source waits, requesting nothing, for
//! the map's next completion event; an answer from a TaskTracker the source
//! has been re-homed away from is ignored.
//!
//! [`NodeLiveness`]: crate::faults::NodeLiveness

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_net::{EndPoint, EndpointSet, UcrConnector};
use rmr_obs::Ev;

use crate::config::{JobConf, CPU_SORT_PER_RECORD_LEVEL, EVENT_POLL};
use crate::faults::NodeLiveness;
use crate::merge::{Emit, StreamingMerge};
use crate::proto::{PacketBudget, ShufMsg};
use crate::record::Segment;
use crate::reduce::common::{poll_events, ReduceCtx, ReduceError, ReduceSink, ReduceStats};
use crate::tasktracker::TtServerHandle;

/// Records per emitted merge batch.
const MERGE_BATCH_RECORDS: u64 = 16 * 1024;
/// DataToReduceQueue depth, in batches.
const REDUCE_QUEUE_DEPTH: usize = 8;

/// A TaskTracker index as the per-source and per-connection records keep it.
fn tt_u32(tt_idx: usize) -> u32 {
    u32::try_from(tt_idx).expect("TaskTracker index fits u32")
}

/// What a source's totals are before its first response says.
const UNKNOWN: u64 = u64::MAX;
/// A source's home before its map's completion event is seen.
const UNDISCOVERED: u32 = u32::MAX;

/// A [`SourceState::flags`] bit: the segment's last packet has arrived.
const FULLY_DELIVERED: u8 = 1;
/// A request is out.
const INFLIGHT: u8 = 1 << 1;
/// Holds less than the current phase's fill level: its fair share of the
/// shuffle buffer in Phase A (cleared by the refill step that finds it full —
/// buffers only grow and shares only shrink there), the merge's refill
/// watermark in Phase B ([`StreamingMerge::wants_refill`]).
const BELOW: u8 = 1 << 2;
/// Its home answered [`ShufMsg::Unavailable`]: nothing is requested until the
/// map's next completion event re-homes it.
const HOMELESS: u8 = 1 << 3;
/// Some of the segment, records or bytes, has arrived: the source can no
/// longer be re-homed.
const PULLED: u8 = 1 << 4;

/// One map's partition, as this attempt pulls it. A reducer keeps one per
/// map of the job, so the record is kept small: a `u32` home that is
/// [`UNDISCOVERED`] and totals that are [`UNKNOWN`] until they are known
/// instead of `Option`s, and its yes/no facts as bits of one byte.
#[derive(Clone)]
struct SourceState {
    /// The TaskTracker the map's output lives on, or [`UNDISCOVERED`].
    tt_idx: u32,
    flags: u8,
    total_records: u64,
    total_bytes: u64,
    /// Bytes sitting in [`ShufState::pending`] for this source.
    buffered_bytes: u64,
    delivered_bytes: u64,
    /// Shuffle-buffer bytes reserved for the in-flight request.
    reserved: u64,
}

const _: () = assert!(std::mem::size_of::<SourceState>() == 48);

impl SourceState {
    /// A source just discovered on TaskTracker `tt_idx` (or not yet, at
    /// [`UNDISCOVERED`]): nothing asked for, below its fill level.
    fn new(tt_idx: usize) -> Self {
        SourceState {
            tt_idx: tt_u32(tt_idx),
            flags: BELOW,
            total_records: UNKNOWN,
            total_bytes: UNKNOWN,
            buffered_bytes: 0,
            delivered_bytes: 0,
            reserved: 0,
        }
    }

    /// Whether any of the `flags` bits is set.
    fn has(&self, flags: u8) -> bool {
        self.flags & flags != 0
    }

    /// Sets or clears the `flags` bits.
    fn set(&mut self, flags: u8, on: bool) {
        if on {
            self.flags |= flags;
        } else {
            self.flags &= !flags;
        }
    }

    /// The TaskTracker the map's output lives on.
    fn tt(&self) -> usize {
        self.tt_idx as usize
    }

    /// Bytes a request reserves: the engine's per-packet estimate `est`,
    /// refined with what the server already said is left.
    fn request_bytes(&self, est: u64) -> u64 {
        if self.total_bytes == UNKNOWN {
            return est;
        }
        est.min(self.total_bytes.saturating_sub(self.delivered_bytes))
            .max(1)
    }
}

/// One connection of the attempt: an endpoint to one incarnation of one
/// TaskTracker. Indexed by the endpoint's tag in the attempt's
/// [`EndpointSet`].
struct Conn {
    tt_idx: u32,
    /// The server's liveness epoch when the connection was made.
    epoch: u64,
    /// The copier saw that incarnation die; nothing arriving on the
    /// connection counts any more.
    dead: bool,
    /// One of its packets is being written to the local spill file. The
    /// write holds up the connection's later packets (they wait in
    /// [`ShufState::backlogs`], their receive credits unreturned) and
    /// nobody else's.
    spilling: bool,
}

const _: () = assert!(std::mem::size_of::<Conn>() <= 24);

struct ShufState {
    /// Every connection the attempt has made, by endpoint tag.
    conns: Vec<Conn>,
    /// By endpoint tag, what arrived on a spilling connection while its
    /// spill is written. Only a spilling connection has an entry.
    backlogs: BTreeMap<u32, VecDeque<ShufMsg>>,
    /// By TaskTracker, the endpoint requests to it go out on: the latest
    /// connection made to it. A dead server keeps its entry until a
    /// reconnect replaces it (requests on it go nowhere).
    eps: Vec<Option<EndPoint<ShufMsg>>>,
    /// TaskTrackers with no entry in `eps` yet.
    unreached: usize,
    /// Indexed by `map_idx` (maps are `0..total_maps`); [`UNDISCOVERED`]
    /// until the map's completion event is seen.
    sources: Vec<SourceState>,
    /// Maps whose completion event has been seen.
    discovered: usize,
    /// Sources still waiting for their first response (no totals yet).
    missing: BTreeSet<usize>,
    /// Maps whose partial deliveries came from a since-lost incarnation.
    poisoned: BTreeSet<usize>,
    /// Refill candidates in map order: sources `below` their fill level that
    /// are neither in flight nor fully delivered. Kept current by
    /// [`Self::relist`] wherever one of those facts changes, so a refill step
    /// costs what it sends instead of a sweep over every map.
    cands: BTreeSet<usize>,
    /// The candidates whose next request reserves less than
    /// `est_packet_bytes` (the tail of their segment): all that can still fit
    /// once the budget is under one full estimate.
    tails: BTreeSet<usize>,
    /// The engine's size estimate for one data packet.
    est_packet_bytes: u64,
    /// Arrived-but-not-yet-merged packets in arrival order:
    /// (map_idx, packet, spilled-to-disk flag). Draining pops from the
    /// front, so the merge feed is O(packets) instead of a scan over every
    /// source per drain; a drain that empties it frees its buffer.
    pending: VecDeque<(u32, Segment, bool)>,
    shuffled_bytes: u64,
    last_arrival_s: f64,
    /// Unconsumed fetched bytes (buffered + inside the merge).
    resident_bytes: u64,
}

const _: () = assert!(std::mem::size_of::<(u32, Segment, bool)>() == 48);

impl ShufState {
    /// Nothing connected (room for a connection per server), no map
    /// discovered yet.
    fn new(servers: usize, total_maps: usize, est_packet_bytes: u64) -> Self {
        ShufState {
            conns: Vec::with_capacity(servers),
            backlogs: BTreeMap::new(),
            eps: vec![None; servers],
            unreached: servers,
            sources: vec![SourceState::new(UNDISCOVERED as usize); total_maps],
            discovered: 0,
            missing: BTreeSet::new(),
            poisoned: BTreeSet::new(),
            cands: BTreeSet::new(),
            tails: BTreeSet::new(),
            est_packet_bytes,
            pending: VecDeque::new(),
            shuffled_bytes: 0,
            last_arrival_s: 0.0,
            resident_bytes: 0,
        }
    }

    fn src(&mut self, map_idx: usize) -> &mut SourceState {
        let s = &mut self.sources[map_idx];
        (s.tt_idx != UNDISCOVERED)
            .then_some(s)
            .expect("unknown source")
    }

    /// Books a fresh connection to `tt_idx` as the one its requests use.
    /// Returns the endpoint it replaces, if any, for the caller to close.
    fn connected(
        &mut self,
        tt_idx: usize,
        epoch: u64,
        ep: EndPoint<ShufMsg>,
    ) -> Option<EndPoint<ShufMsg>> {
        assert_eq!(ep.tag() as usize, self.conns.len(), "tags count up");
        self.conns.push(Conn {
            tt_idx: tt_u32(tt_idx),
            epoch,
            dead: false,
            spilling: false,
        });
        let old = self.eps[tt_idx].replace(ep);
        if old.is_none() {
            self.unreached -= 1;
        }
        old
    }

    /// No endpoint to `tt`'s current incarnation: it is down, was never
    /// connected to, or restarted since.
    fn ep_dead(&self, liveness: &[Rc<NodeLiveness>], tt: usize) -> bool {
        let l = &liveness[tt];
        !l.alive()
            || self.eps[tt]
                .as_ref()
                .is_none_or(|ep| self.conns[ep.tag() as usize].epoch != l.epoch())
    }

    /// The discovered sources, in map order.
    fn known(&self) -> impl Iterator<Item = (usize, &SourceState)> {
        self.sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tt_idx != UNDISCOVERED)
    }

    /// Re-derives `map_idx`'s membership in the candidate sets; call after
    /// changing any field of the source.
    fn relist(&mut self, map_idx: usize) {
        let s = &self.sources[map_idx];
        assert_ne!(s.tt_idx, UNDISCOVERED, "unknown source");
        let cand = s.has(BELOW) && !s.has(INFLIGHT | FULLY_DELIVERED | HOMELESS);
        let tail = cand && s.request_bytes(self.est_packet_bytes) < self.est_packet_bytes;
        for (set, member) in [(&mut self.cands, cand), (&mut self.tails, tail)] {
            if member {
                set.insert(map_idx);
            } else {
                set.remove(&map_idx);
            }
        }
    }
}

/// The engine's data packet, decided once per attempt: what a request asks
/// its server for, the bytes one is expected to hold, and the merge
/// watermark (the records per source below which the merge wants more).
fn data_packets(conf: &JobConf, avg_record_bytes: u64) -> (PacketBudget, u64, u64) {
    let avg = avg_record_bytes.max(1);
    if conf.shuffle.byte_packets() {
        let bytes = conf.osu_packet_bytes;
        (PacketBudget::Bytes(bytes), bytes, (bytes / avg).max(16))
    } else {
        let kv = conf.hadoop_a_kv_per_packet;
        (PacketBudget::Records(kv), kv * avg, kv.max(16))
    }
}

/// What a request asks a source's server for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// The next data packet, if the shuffle buffer has room for it.
    Packet,
    /// The next data packet, overdrawing the buffer if it has none: a stalled
    /// merge, or a source still without totals, must not wait on space other
    /// sources hold (the packet spills on arrival if need be).
    Forced,
    /// Hadoop-A's header, also overdrawing: the first kv pair and the
    /// segment's totals.
    Header,
}

/// What became of one arrived message.
enum Arrival {
    /// Not a shuffle response.
    Ignored,
    /// Booked: the merge loop can use it (or, spilled on Hadoop-A, will
    /// refetch it).
    Ready,
    /// Booked, but this many bytes must reach the local spill file first.
    Spill(u64),
}

/// The attempt's `RDMACopier` and the one home of its shared state: the
/// shuffle state and buffer budget, the receive side that books what arrives
/// (spill writers included), and the request side with the refill policy
/// the merge loop drives.
struct Copier {
    /// The attempt this copier shuffles for: its job, partition and number,
    /// the TaskTracker it runs on, and every server with its liveness.
    ctx: ReduceCtx,
    /// The attempt's connections: one receive queue for all of them.
    endpoints: Rc<EndpointSet<ShufMsg>>,
    state: RefCell<ShufState>,
    /// Shuffle-buffer bytes reserved and not yet released.
    outstanding: Cell<u64>,
    /// Fired on every booked packet and every observed death.
    arrived: Notify,
    /// Set, then `stopped` fired, when the attempt is over.
    stop: Cell<bool>,
    stopped: Notify,
    /// A server died under a connection of this attempt (or answered that it
    /// lost an output this attempt pulled from).
    death_seen: Cell<bool>,
    /// Set when a request found its source's TaskTracker without an
    /// endpoint — e.g. a map re-executed on a node that was down when this
    /// attempt connected up front (so no death was ever *seen* here). Arms
    /// the same reconnect sweep a death does.
    no_ep: Cell<bool>,
    /// What a data request asks for ([`data_packets`]).
    budget: PacketBudget,
    spill_file: String,
}

/// Shuffle-buffer accounting against `conf.shuffle_buffer`: requests reserve
/// space, those that unblock a stalled merge may overdraft (deadlock
/// avoidance), and releases never exceed what was reserved.
impl Copier {
    fn available(&self) -> u64 {
        self.ctx.conf.shuffle_buffer - self.outstanding.get()
    }

    fn try_reserve(&self, bytes: u64) -> bool {
        let fits = bytes <= self.available();
        if fits {
            self.outstanding.set(self.outstanding.get() + bytes);
        }
        fits
    }

    fn release(&self, bytes: u64) {
        self.outstanding
            .set(self.outstanding.get().saturating_sub(bytes));
    }
}

/// The receive side.
impl Copier {
    /// A fresh attempt's copier: nothing connected, discovered or reserved.
    fn new(ctx: ReduceCtx) -> Self {
        let (budget, est_packet_bytes, _) = data_packets(&ctx.conf, ctx.spec.avg_record_bytes);
        let n_servers = ctx.servers.borrow().len();
        let total_maps = ctx.jt.borrow().total_maps();
        Copier {
            arrived: Notify::new_named(&format!("r{}-packet-arrived", ctx.reduce_idx)),
            endpoints: EndpointSet::new(),
            state: RefCell::new(ShufState::new(n_servers, total_maps, est_packet_bytes)),
            outstanding: Cell::new(0),
            stop: Cell::new(false),
            stopped: Notify::new_named(&format!("r{}-attempt-shutdown", ctx.reduce_idx)),
            death_seen: Cell::new(false),
            no_ep: Cell::new(false),
            budget,
            spill_file: format!("{}_r{}_shufspill", ctx.job, ctx.reduce_idx),
            ctx,
        }
    }

    /// Ends the receive side (idempotent).
    fn stop(&self) {
        self.stop.set(true);
        self.stopped.notify_all();
    }

    /// Connects to the incarnation of TaskTracker `tt_idx` that is up now
    /// and makes the connection the one requests to it use, closing the one
    /// it replaces. False if the server went away meanwhile.
    async fn connect(&self, tt_idx: usize, epoch: u64, server: UcrConnector<ShufMsg>) -> bool {
        let node = self.ctx.tt.node.id;
        let Some(ep) = server.try_connect_into(node, &self.endpoints).await else {
            return false;
        };
        let old = self.state.borrow_mut().connected(tt_idx, epoch, ep);
        if let Some(old) = old {
            self.endpoints.remove(old.tag());
        }
        true
    }

    /// [`Self::connect`]s to the server on TaskTracker `tt_idx` under its
    /// current liveness epoch.
    async fn reach(&self, tt_idx: usize) -> bool {
        let server = match &self.ctx.servers.borrow()[tt_idx] {
            TtServerHandle::Rdma(c) => c.clone(),
            _ => panic!("RDMA reducer needs RDMA servers"),
        };
        self.connect(tt_idx, self.ctx.liveness[tt_idx].epoch(), server)
            .await
    }

    /// Books one message that arrived on connection `tag` into the shuffle
    /// state. A packet that lands when the shuffle buffer is already full
    /// cannot stay in memory: it is spilled to the reducer's local disk and
    /// read back when the merge consumes it — this is what breaks Hadoop-A's
    /// stage overlap when its fixed-count packets are huge (§IV-C).
    fn book(&self, tag: u32, msg: ShufMsg) -> Arrival {
        let mut st = self.state.borrow_mut();
        let map_idx = match &msg {
            ShufMsg::Request { .. } => return Arrival::Ignored,
            ShufMsg::Response { map_idx, .. } | ShufMsg::Unavailable { map_idx, .. } => *map_idx,
        };
        // An answer from a TaskTracker the source has been re-homed away from
        // answers a request the re-home abandoned.
        if st.src(map_idx).tt_idx != st.conns[tag as usize].tt_idx {
            return Arrival::Ignored;
        }
        let ShufMsg::Response {
            packet,
            remaining_records,
            total_records,
            total_bytes,
            ..
        } = msg
        else {
            // The home does not hold the output (any more).
            let src = st.src(map_idx);
            self.release(src.reserved);
            src.reserved = 0;
            src.set(INFLIGHT, false);
            src.set(HOMELESS, true);
            let pulled = src.has(PULLED);
            st.relist(map_idx);
            if pulled {
                self.death_seen.set(true);
            }
            return Arrival::Ready;
        };
        st.shuffled_bytes += packet.bytes;
        st.last_arrival_s = self.ctx.cluster.sim.now().as_secs_f64();
        st.missing.remove(&map_idx);
        let src = st.src(map_idx);
        src.total_records = total_records;
        src.total_bytes = total_bytes;
        src.delivered_bytes += packet.bytes;
        if packet.records > 0 || packet.bytes > 0 {
            src.set(PULLED, true);
        }
        src.set(FULLY_DELIVERED, remaining_records == 0);
        // Reserved packets always fit (the budget was held for them); only
        // overdraft packets can overflow and spill.
        let covered = src.reserved >= packet.bytes;
        // Balance the reservation against what actually came.
        if src.reserved > packet.bytes {
            self.release(src.reserved - packet.bytes);
        }
        src.reserved = 0;
        src.set(INFLIGHT | HOMELESS, false);
        st.relist(map_idx);
        if packet.records == 0 {
            return Arrival::Ready;
        }
        let ctx = &self.ctx;
        let over = !covered && st.resident_bytes + packet.bytes > ctx.conf.shuffle_buffer;
        let bytes = packet.bytes;
        st.src(map_idx).buffered_bytes += bytes;
        st.resident_bytes += bytes;
        let m = u32::try_from(map_idx).expect("map index fits u32");
        st.pending.push_back((m, packet, over));
        if !over {
            return Arrival::Ready;
        }
        drop(st);
        ctx.cluster
            .sim
            .metrics()
            .add("reduce.shuffle_spill_bytes", bytes as f64);
        ctx.tt.obs().emit(|| Ev::Spill {
            node: ctx.tt.idx,
            job: ctx.job.0,
            reduce: ctx.reduce_idx,
            bytes,
        });
        if ctx.conf.shuffle.local_spill() {
            // OSU-IB reuses Hadoop's local spill machinery (§III-C-2:
            // minimal changes to the existing merge).
            Arrival::Spill(bytes)
        } else {
            // Hadoop-A's native-C merge has no reduce-side spill path: the
            // overflowing packet is dropped and later refetched from the
            // TaskTracker (charged at drain).
            Arrival::Ready
        }
    }

    /// A message has arrived on `ep`.
    fn on_message(self: &Rc<Self>, ep: EndPoint<ShufMsg>, msg: ShufMsg) {
        {
            let mut st = self.state.borrow_mut();
            let conn = &st.conns[ep.tag() as usize];
            if conn.dead {
                return;
            }
            if conn.spilling {
                st.backlogs.entry(ep.tag()).or_default().push_back(msg);
                return;
            }
        }
        ep.replenish();
        match self.book(ep.tag(), msg) {
            Arrival::Ignored => {}
            Arrival::Ready => self.arrived.notify_all(),
            Arrival::Spill(bytes) => {
                self.state.borrow_mut().conns[ep.tag() as usize].spilling = true;
                let copier = Rc::clone(self);
                let tag = Component::ShuffleSpill {
                    reduce: self.ctx.reduce_idx as u32,
                };
                let group = &self.ctx.tt.group;
                group.spawn_named(tag, copier.spill(ep, bytes)).detach();
            }
        }
    }

    /// Writes `bytes` of a packet from `ep`'s connection to the spill file,
    /// then works through what arrived on the connection meanwhile, in
    /// order — for as long as it takes, this is the connection's own copier.
    async fn spill(self: Rc<Self>, ep: EndPoint<ShufMsg>, mut bytes: u64) {
        let fs = &self.ctx.tt.node.fs;
        loop {
            let w = fs.writer(&self.spill_file).expect("shuffle spill file");
            w.append(bytes).await.expect("shuffle spill write");
            self.arrived.notify_all();
            bytes = loop {
                let next = {
                    let mut st = self.state.borrow_mut();
                    let tag = ep.tag();
                    let live = !self.stop.get() && !st.conns[tag as usize].dead;
                    let mut backlog = st.backlogs.remove(&tag).unwrap_or_default();
                    let next = backlog.pop_front().filter(|_| live);
                    if next.is_some() && !backlog.is_empty() {
                        st.backlogs.insert(tag, backlog);
                    }
                    st.conns[tag as usize].spilling = next.is_some();
                    next
                };
                let Some(msg) = next else { return };
                ep.replenish();
                match self.book(ep.tag(), msg) {
                    Arrival::Ignored => {}
                    Arrival::Ready => self.arrived.notify_all(),
                    Arrival::Spill(bytes) => break bytes,
                }
            };
        }
    }

    /// The runtime signalled a liveness change: finds the connections whose
    /// server incarnation is gone and tells the merge loop.
    fn sweep_deaths(&self) {
        let mut died = false;
        for conn in self.state.borrow_mut().conns.iter_mut() {
            let l = &self.ctx.liveness[conn.tt_idx as usize];
            let gone = !l.alive() || l.epoch() != conn.epoch;
            if gone && !conn.dead {
                conn.dead = true;
                died = true;
            }
        }
        if died {
            self.death_seen.set(true);
            self.arrived.notify_all();
        }
    }

    /// The copier task: receives for every connection of the attempt until
    /// stopped. The CQ never closes, so death is out of band.
    async fn run(self: Rc<Self>) {
        let liveness_changed = &self.ctx.liveness_changed;
        let mut stopped = self.stopped.notified();
        let mut changed = liveness_changed.notified();
        while !self.stop.get() {
            let next = self.endpoints.recv();
            match select2(next, select2(&mut changed, &mut stopped)).await {
                Either::Left((ep, msg)) => self.on_message(ep, msg),
                Either::Right(Either::Left(())) => {
                    changed = liveness_changed.notified();
                    self.sweep_deaths();
                }
                Either::Right(Either::Right(())) => break,
            }
        }
    }
}

/// The request side and its refill policy.
impl Copier {
    /// Books map `map_idx`'s completion event on TaskTracker `tt_idx`: a new
    /// source, or a re-execution after a node loss (the log repeats the
    /// map). Returns whether to ask the source's home for data.
    fn discover(&self, map_idx: usize, tt_idx: usize) -> bool {
        let mut st = self.state.borrow_mut();
        match &mut st.sources[map_idx] {
            s if s.tt_idx == UNDISCOVERED => {
                *s = SourceState::new(tt_idx);
                st.discovered += 1;
                st.missing.insert(map_idx);
                st.relist(map_idx);
                true
            }
            // Already fully pulled from the old incarnation; the re-execution
            // serves other reducers.
            s if s.has(FULLY_DELIVERED) => false,
            // Partial data from a lost incarnation cannot be resumed (the new
            // server's cursor starts over): the attempt must restart.
            s if s.has(PULLED) => {
                st.poisoned.insert(map_idx);
                false
            }
            // Nothing delivered yet: re-home cleanly, dropping any request
            // that was in flight to the old home (`book` ignores its answer).
            s => {
                self.release(s.reserved);
                s.reserved = 0;
                s.set(INFLIGHT | HOMELESS, false);
                s.tt_idx = tt_u32(tt_idx);
                st.relist(map_idx);
                true
            }
        }
    }

    /// Sends `map_idx`'s server a request for what `ask` names, unless the
    /// source is in flight, fully delivered or homeless, its TaskTracker has
    /// no endpoint (which sets `no_ep`), or an [`Ask::Packet`] finds no room
    /// in the shuffle buffer.
    fn request(&self, map_idx: usize, ask: Ask) {
        let mut st = self.state.borrow_mut();
        let src = &st.sources[map_idx];
        assert_ne!(src.tt_idx, UNDISCOVERED, "unknown source");
        if src.has(INFLIGHT | FULLY_DELIVERED | HOMELESS) {
            return;
        }
        let Some(ep) = st.eps[src.tt()].clone() else {
            self.no_ep.set(true);
            return;
        };
        let (budget, est) = match ask {
            // A header reserves one average record.
            Ask::Header => (PacketBudget::Records(1), self.ctx.spec.avg_record_bytes),
            Ask::Packet | Ask::Forced => (self.budget, st.est_packet_bytes),
        };
        let src = st.src(map_idx);
        let est = src.request_bytes(est);
        let reserved = if self.try_reserve(est) {
            est
        } else if ask != Ask::Packet {
            0 // overdraft: the packet will spill on arrival if needed
        } else {
            return;
        };
        src.reserved = reserved;
        src.set(INFLIGHT, true);
        let server = src.tt();
        st.relist(map_idx);
        drop(st);
        let ctx = &self.ctx;
        ctx.tt.obs().emit(|| Ev::ShuffleRequest {
            node: ctx.tt.idx,
            server,
            job: ctx.job.0,
            map_idx,
            reduce: ctx.reduce_idx,
        });
        ep.send_nowait(ShufMsg::Request {
            job: ctx.job,
            map_idx,
            reduce: ctx.reduce_idx,
            attempt: ctx.attempt,
            budget,
        });
    }

    /// One refill step: requests the next packet from each candidate, in map
    /// order, for as long as the shuffle-buffer budget covers the request.
    /// With at least one full estimate free every candidate fits; below that
    /// only segment tails can, so the walk narrows to them and ends when
    /// nothing is free — its cost follows the requests sent, not the number
    /// of maps. `fair_share` (Phase A) retires candidates that already hold
    /// their share of the buffer.
    fn refill(&self, fair_share: Option<u64>) {
        // Phase A's fault sweep is re-armed (`no_ep`) by a request that finds
        // its source's TaskTracker without an endpoint, whether or not the
        // budget would have covered it. While some TaskTracker has none, walk
        // every candidate so that request is attempted.
        let walk_all = fair_share.is_some() && self.state.borrow().unreached > 0;
        let mut from = 0usize;
        loop {
            let map_idx = {
                let mut st = self.state.borrow_mut();
                let free = self.available();
                let set = if free >= st.est_packet_bytes || walk_all {
                    &st.cands
                } else if free > 0 {
                    &st.tails
                } else {
                    break;
                };
                let Some(&m) = set.range(from..).next() else {
                    break;
                };
                from = m + 1;
                if fair_share.is_some_and(|share| st.src(m).buffered_bytes >= share) {
                    st.src(m).set(BELOW, false);
                    st.relist(m);
                    continue;
                }
                m
            };
            self.request(map_idx, Ask::Packet);
        }
    }

    /// The fatal-source check, made once a fault touched the attempt (a
    /// death seen, a map poisoned) or `armed()` holds. `Err` names the
    /// TaskTracker of a source that cannot be resumed: not fully delivered,
    /// and its partial bytes came from an endpoint that no longer serves
    /// them (the node died, or it restarted and lost its MapOutputStore —
    /// which it may also have answered — or the map has already been
    /// re-homed away from a lost incarnation). `Ok(true)`: checked, none.
    fn check_sources(&self, armed: impl FnOnce() -> bool) -> Result<bool, usize> {
        let st = self.state.borrow();
        if !self.death_seen.get() && st.poisoned.is_empty() && !armed() {
            return Ok(false);
        }
        let mut pending = st.known().filter(|(_, s)| !s.has(FULLY_DELIVERED));
        let lost = pending.find_map(|(m, s)| {
            let gone = st.poisoned.contains(&m)
                || (s.has(PULLED) && (s.has(HOMELESS) || st.ep_dead(&self.ctx.liveness, s.tt())));
            gone.then(|| s.tt())
        });
        lost.map_or(Ok(true), Err)
    }

    /// Reconnects to the (live) homes of still-pending sources whose
    /// endpoint died — a restarted node, or a re-execution landing on a
    /// TaskTracker that was down when the attempt connected up front.
    async fn reconnect(&self) {
        let liveness = &self.ctx.liveness;
        let need: BTreeSet<usize> = {
            let st = self.state.borrow();
            st.known()
                .filter(|(_, s)| {
                    !s.has(FULLY_DELIVERED)
                        && st.ep_dead(liveness, s.tt())
                        && liveness[s.tt()].alive()
                })
                .map(|(_, s)| s.tt())
                .collect()
        };
        for tt in need {
            self.reach(tt).await;
        }
    }

    /// Ends discovery: builds the merge over every source's totals, and from
    /// here on a source's fill level is the merge's `watermark`.
    fn start_merge(&self, watermark: u64) -> StreamingMerge {
        let mut merge = {
            let mut st = self.state.borrow_mut();
            st.cands.clear();
            st.tails.clear();
            let expected = st
                .sources
                .iter_mut()
                .map(|s| {
                    assert_ne!(s.tt_idx, UNDISCOVERED, "every map discovered");
                    s.set(BELOW, false);
                    assert_ne!(s.total_records, UNKNOWN, "every source has its totals");
                    s.total_records
                })
                .collect();
            StreamingMerge::with_watermark(expected, watermark)
        };
        self.note_low(&mut merge);
        merge
    }

    /// Mirrors the merge's newly-low sources into the candidate set. Runs
    /// right after the merge state changes them, before any await.
    fn note_low(&self, merge: &mut StreamingMerge) {
        let mut st = self.state.borrow_mut();
        for m in merge.newly_low() {
            st.src(m).set(BELOW, true);
            st.relist(m);
        }
    }

    /// Moves the arrived packets into the merge in arrival order (per-source
    /// FIFO order is preserved, and cross-source append order does not
    /// affect the merge result), then pays for those that overflowed the
    /// buffer: OSU-IB reads them back from its local spill file, Hadoop-A
    /// refetches each from its TaskTracker. The emptied queue gives its
    /// buffer back.
    async fn drain(&self, merge: &mut StreamingMerge) {
        let mut spilled = 0u64;
        let mut refetch = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            while let Some((m, pkt, was_spilled)) = st.pending.pop_front() {
                let m = m as usize;
                let s = st.src(m);
                s.buffered_bytes = s.buffered_bytes.saturating_sub(pkt.bytes);
                if was_spilled {
                    spilled += pkt.bytes;
                    refetch.push((s.tt(), m, pkt.bytes));
                }
                merge.append(m, pkt);
                if s.has(BELOW) && !merge.wants_refill(m) {
                    s.set(BELOW, false);
                    st.relist(m);
                }
            }
            st.pending.shrink_to_fit();
        }
        if spilled == 0 {
            return;
        }
        let ctx = &self.ctx;
        let fs = &ctx.tt.node.fs;
        if ctx.conf.shuffle.local_spill() {
            if fs.exists(&self.spill_file) {
                let mut r = fs.reader(&self.spill_file).expect("spill file");
                let want = spilled.min(r.remaining().unwrap_or(0));
                if want > 0 {
                    r.read_exact(want).await.expect("spill readback");
                }
            }
            return;
        }
        // The DataEngine reads the map output from disk again and the bytes
        // cross the wire again. A packet whose working set exceeds the merge
        // memory returns multiple times before it is fully consumed (evict →
        // refetch thrash): the amplification is the ratio of the resident set
        // the priority queue needs (one packet per live source) to the memory
        // that can hold it. (Map output files persist on the simulated disk
        // across a kill, so this stays a pure timing charge even when the
        // source node has since died.)
        let est = self.state.borrow().est_packet_bytes;
        let live = merge.source_count() as u64;
        let amp = ((live * est.min(4 << 20)) / ctx.conf.shuffle_buffer.max(1)).clamp(1, 5);
        let (cluster, me) = (&ctx.cluster, ctx.tt.node.id);
        for (tt_idx, map_idx, bytes) in refetch {
            let bytes = bytes * amp;
            let tt_node = &cluster.workers[tt_idx];
            let file = format!("{}_map_{map_idx}.out", ctx.job);
            if tt_node.fs.exists(&file) {
                let mut r = tt_node.fs.reader(&file).expect("map output");
                let want = bytes.min(r.remaining().unwrap_or(0));
                if want > 0 {
                    r.read_exact(want).await.expect("refetch read");
                }
            }
            cluster.net.transfer(tt_node.id, me, bytes).await;
        }
    }
}

/// Runs one Hadoop-A or OSU-IB ReduceTask to completion, branching on the
/// job's [`ShuffleKind`](crate::ShuffleKind) capabilities. `Err` means a
/// shuffle source with partial deliveries died under the attempt; the
/// caller re-queues the whole task.
///
/// The copier is built here, outside the returned future, so the future
/// holds the attempt's context once: inside the copier.
pub fn run_reduce_rdma(ctx: ReduceCtx) -> impl Future<Output = Result<ReduceStats, ReduceError>> {
    run_attempt(Rc::new(Copier::new(ctx)))
}

/// The attempt itself: connect, Phase A (discovery and overlapped fetch),
/// Phase B (merge pipelined with reduce).
async fn run_attempt(copier: Rc<Copier>) -> Result<ReduceStats, ReduceError> {
    let ctx = &copier.ctx;
    let sim = ctx.cluster.sim.clone();
    let kind = ctx.conf.shuffle;
    let (_, _, watermark) = data_packets(&ctx.conf, ctx.spec.avg_record_bytes);
    let n_servers = ctx.servers.borrow().len();
    let total_maps = ctx.jt.borrow().total_maps();

    // Connect an endpoint to every live TaskTracker up front (§III-B-1: "one
    // RDMACopier sends such information to all available TaskTrackers").
    // Dead servers are skipped; if a source later lands on one (restart or
    // re-execution), the Phase A reconnect pass picks it up.
    for tt_i in 0..n_servers {
        if ctx.liveness[tt_i].alive() {
            copier.reach(tt_i).await;
        }
    }
    // The receive side lives in the TaskTracker's task group (so the node's
    // death also reaps it) and is stopped when the attempt ends.
    let tag = Component::RdmaCopier {
        reduce: ctx.reduce_idx as u32,
    };
    let run = Rc::clone(&copier).run();
    ctx.tt.group.spawn_named(tag, run).detach();

    // ---- Phase A: discover map completions; OSU overlaps data shuffle
    // with the map wave, Hadoop-A only pulls headers. ----
    let mut cursor = 0usize;
    loop {
        for (map_idx, tt_idx) in poll_events(&ctx.cluster, &ctx.jt, &ctx.tt.node, &mut cursor).await
        {
            if copier.discover(map_idx, tt_idx) {
                let ask = if kind.eager_fetch() {
                    Ask::Packet
                } else {
                    Ask::Header
                };
                copier.request(map_idx, ask);
            }
        }
        // Fault sweep — skipped entirely on the fault-free path. `no_ep`
        // also arms it: a source can live on a TaskTracker this attempt has
        // no endpoint for without ever witnessing a death (the node was down
        // at connect time and a re-executed map landed on it post-restart).
        match copier.check_sources(|| copier.no_ep.replace(false)) {
            Err(tt_idx) => {
                copier.stop();
                return Err(ReduceError::SourceLost { tt_idx });
            }
            Ok(true) => copier.reconnect().await,
            Ok(false) => {}
        }
        let discovered = copier.state.borrow().discovered;
        // Keep the pipeline fed while maps are still finishing (OSU): pull
        // each discovered source up to its fair share of the shuffle buffer,
        // overlapping the data movement with the map wave (§III-B-4).
        if kind.eager_fetch() {
            copier.refill(Some(ctx.conf.shuffle_buffer / discovered.max(8) as u64));
        }
        // Done discovering once every map reported and every source has its
        // totals (needed to build the merge).
        if discovered == total_maps {
            let missing: Vec<usize> = copier.state.borrow().missing.iter().copied().collect();
            if missing.is_empty() {
                break;
            }
            for m in missing {
                copier.request(m, Ask::Forced);
            }
        }
        // Wake on the next poll tick or on any packet arrival (the copier also
        // fires the arrival notify when it observes a server death).
        let n = copier.arrived.notified();
        rmr_des::sync::select2(sim.sleep(EVENT_POLL), n).await;
    }

    // ---- Phase B: priority-queue merge pipelined with reduce. ----
    // No new sources appear past this point, and every non-fully-delivered
    // source has delivered at least a header — so a server death in Phase B
    // either touches only fully-delivered sources (harmless) or fails the
    // attempt; there is no Phase B re-home/reconnect path.
    let mut merge = copier.start_merge(watermark);

    // DataToReduceQueue + reduce consumer (overlap of merge and reduce).
    // The consumer lives in the TaskTracker's group so the node's own death
    // tears it down with the attempt.
    let (out_tx, out_rx) = bounded_named::<Segment>(
        &format!("r{}-data-to-reduce-queue", ctx.reduce_idx),
        REDUCE_QUEUE_DEPTH,
    );
    let consumer = {
        let ctx2 = ctx.clone();
        ctx.tt.group.clone().spawn_named(
            Component::ReduceConsumer {
                reduce: ctx.reduce_idx as u32,
            },
            async move {
                let (cluster, node) = (&ctx2.cluster, &ctx2.tt.node);
                let mut sink = ReduceSink::open(cluster, &ctx2.spec, node, ctx2.reduce_idx).await;
                while let Some(seg) = out_rx.recv().await {
                    sink.consume(seg).await;
                }
                sink.finish().await
            },
        )
    };

    // Cached counter handles: the loop body runs per batch/stall, and a
    // handle bump skips the registry lookup entirely.
    let metrics = sim.metrics();
    let c_loop_iters = metrics.counter("rdma.loop_iters");
    let c_emits = metrics.counter("rdma.emits");
    let c_emit_records = metrics.counter("rdma.emit_records");
    let c_stalls = metrics.counter("rdma.stalls");
    let mut lost_tt: Option<usize> = None;
    loop {
        c_loop_iters.incr();
        if let Err(tt) = copier.check_sources(|| false) {
            lost_tt = Some(tt);
            break;
        }
        copier.drain(&mut merge).await;
        // Refill ahead of need.
        copier.refill(None);
        match merge.emit(MERGE_BATCH_RECORDS) {
            Emit::Data(seg) => {
                copier.note_low(&mut merge);
                c_emits.incr();
                c_emit_records.add(seg.records as f64);
                ctx.tt.obs().emit(|| Ev::MergeBatch {
                    node: ctx.tt.idx,
                    job: ctx.job.0,
                    reduce: ctx.reduce_idx,
                    records: seg.records,
                    bytes: seg.bytes,
                });
                copier.release(seg.bytes);
                {
                    let mut st = copier.state.borrow_mut();
                    st.resident_bytes = st.resident_bytes.saturating_sub(seg.bytes);
                }
                let k = (merge.source_count().max(2)) as f64;
                ctx.tt
                    .node
                    .compute(seg.records as f64 * k.log2() * CPU_SORT_PER_RECORD_LEVEL)
                    .await;
                out_tx.send(seg).await.expect("reduce consumer died");
            }
            Emit::Stalled(dry) => {
                c_stalls.incr();
                // Arm the waiter BEFORE re-checking: packets can land during
                // the awaits above (spill readback, CPU charges), and an
                // edge-triggered notification created after the arrival
                // would never fire (lost wakeup ⇒ deadlock).
                let waiter = copier.arrived.notified();
                // Same ordering for deaths: the fatal sweep must run after
                // arming so a death signalled during the awaits above either
                // shows up here or wakes the waiter.
                if let Err(tt) = copier.check_sources(|| false) {
                    lost_tt = Some(tt);
                    break;
                }
                if !copier.state.borrow().pending.is_empty() {
                    continue; // drain them and retry
                }
                for m in dry {
                    // Forced: a stalled merge must not deadlock on buffer
                    // space held by other sources.
                    copier.request(m, Ask::Forced);
                }
                waiter.await;
            }
            Emit::Done => break,
        }
    }
    drop(out_tx);
    let merge_end_s = sim.now().as_secs_f64();
    // Always join the consumer so the sink closes cleanly; on failure its
    // partial part-file is deleted by the next attempt's ReduceSink::open.
    let (in_records, in_bytes, out_bytes) = consumer.await;
    copier.stop();
    if let Some(tt_idx) = lost_tt {
        return Err(ReduceError::SourceLost { tt_idx });
    }

    let st = copier.state.borrow();
    Ok(ReduceStats {
        shuffle_end_s: st.last_arrival_s,
        merge_end_s,
        reduce_end_s: sim.now().as_secs_f64(),
        shuffled_bytes: st.shuffled_bytes,
        reduced_records: in_records,
        reduced_bytes: in_bytes,
        output_bytes: out_bytes,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, NodeSpec};
    use crate::jobtracker::JobTracker;
    use crate::mapoutput::MapOutputStore;
    use crate::runtime::JobId;
    use crate::spec::JobSpec;
    use crate::tasktracker::TaskTracker;
    use rmr_hdfs::HdfsConfig;
    use rmr_net::{ucr_listen, FabricParams, PrivateEndPoint, UcrListener};
    use rmr_obs::Recorder;

    /// The receive side of a reducer on worker 2 with maps 0 and 1
    /// discovered on TaskTrackers 0 and 1, and a fake server per TaskTracker
    /// for the test to answer from. Map 0 has nothing reserved (whatever
    /// does not fit `shuffle_buffer` overflows); map 1 has a request for
    /// `RESERVED` bytes out.
    struct Rig {
        sim: Sim,
        copier: Rc<Copier>,
        servers: Vec<UcrListener<ShufMsg>>,
    }

    const RESERVED: u64 = 100;

    fn rig(shuffle_buffer: u64) -> Rig {
        let sim = Sim::new(5);
        let cluster = Cluster::build(
            &sim,
            FabricParams::ib_verbs_qdr(),
            &vec![NodeSpec::westmere_compute(); 3],
            HdfsConfig::default(),
        );
        let conf = JobConf {
            shuffle_buffer,
            ..JobConf::osu_ib()
        };
        let source = |tt_idx, reserved| SourceState {
            flags: BELOW | if reserved > 0 { INFLIGHT } else { 0 },
            reserved,
            ..SourceState::new(tt_idx)
        };
        let servers: Vec<UcrListener<ShufMsg>> = (0..2)
            .map(|tt| ucr_listen(&cluster.net, cluster.workers[tt].id))
            .collect();
        let connectors = servers.iter().map(|s| TtServerHandle::Rdma(s.connector()));
        let node = cluster.workers[2].clone();
        let outputs = MapOutputStore::new();
        let tt = TaskTracker::new(&sim, 2, node, &conf, outputs, false, Recorder::off());
        let ctx = ReduceCtx {
            cluster,
            spec: JobSpec::sort("/in", "/out", 100),
            jt: Rc::new(RefCell::new(JobTracker::new(vec![], 1, 0.0))),
            servers: Rc::new(RefCell::new(connectors.collect())),
            liveness: Rc::new(vec![NodeLiveness::new(), NodeLiveness::new()]),
            liveness_changed: Notify::new(),
            tt,
            job: JobId(0),
            reduce_idx: 0,
            attempt: 0,
            conf: Rc::new(conf),
        };
        let copier = Rc::new(Copier::new(ctx));
        copier.outstanding.set(RESERVED);
        copier.state.borrow_mut().sources = vec![source(0, 0), source(1, RESERVED)];
        Rig {
            sim,
            copier,
            servers,
        }
    }

    impl Rig {
        /// Connects the copier to both servers (under liveness epoch 0),
        /// starts it, and returns the server ends.
        async fn connect(&self) -> Vec<PrivateEndPoint<ShufMsg>> {
            let mut server_ends = Vec::new();
            for (tt, server) in self.servers.iter().enumerate() {
                assert!(self.copier.reach(tt).await);
                server_ends.push(server.accept().await.expect("connected"));
            }
            let run = Rc::clone(&self.copier).run();
            let tag = Component::RdmaCopier { reduce: 0 };
            self.sim.spawn_named(tag, run).detach();
            self.sim.yield_now().await; // it is up and watching
            server_ends
        }
    }

    /// A packet of `bytes` of map `map_idx`'s segment; `last` ends it.
    fn packet(map_idx: usize, bytes: u64, last: bool) -> ShufMsg {
        ShufMsg::Response {
            map_idx,
            reduce: 0,
            packet: Segment::synthetic(bytes / 100, bytes),
            remaining_records: if last { 0 } else { 1 },
            total_records: 1 << 20,
            total_bytes: 100 << 20,
            from_cache: true,
        }
    }

    #[test]
    fn the_attempt_future_holds_the_context_once() {
        // Boxed once per reduce attempt, the future holds the context only
        // inside its copier: 928 B, where a second, dead copy made 1 584 B.
        let rig = rig(1 << 20);
        let attempt = run_reduce_rdma(rig.copier.ctx.clone());
        let size = std::mem::size_of_val(&attempt);
        assert!(size <= 1024, "attempt future is {size} B");
    }

    #[test]
    fn a_spill_holds_up_its_own_connection_only() {
        const BIG: u64 = 4 << 20;
        let rig = rig(1 << 20);
        // What the merge loop would see at each `arrived`:
        // (delivered from map 0, from map 1, conn 0 spilling, its backlog,
        // bytes in the spill file).
        let seen = Rc::new(RefCell::new(Vec::new()));
        {
            let (copier, seen) = (Rc::clone(&rig.copier), Rc::clone(&seen));
            rig.sim
                .spawn_named("merge-loop", async move {
                    loop {
                        copier.arrived.notified().await;
                        let st = copier.state.borrow();
                        let delivered = |m: usize| st.sources[m].delivered_bytes;
                        seen.borrow_mut().push((
                            delivered(0),
                            delivered(1),
                            st.conns[0].spilling,
                            st.backlogs.get(&0).map_or(0, VecDeque::len),
                            copier.ctx.tt.node.fs.size(&copier.spill_file).unwrap_or(0),
                        ));
                    }
                })
                .detach();
        }
        let sim = rig.sim.clone();
        sim.spawn(async move {
            let servers = rig.connect().await;
            // TaskTracker 0 streams an overflowing packet and a small one
            // behind it; TaskTracker 1 answers while the first is still
            // being spilled (4 MiB take the disk tens of milliseconds).
            servers[0].send_nowait(packet(0, BIG, false));
            servers[0].send_nowait(packet(0, 100, true));
            rig.sim.sleep(SimDuration::from_millis(5)).await;
            let t = rig.sim.now();
            servers[1].send(packet(1, 100, true)).await;
            assert!(rig.sim.now().saturating_since(t) < SimDuration::from_millis(1));
        })
        .detach();
        sim.run();
        assert_eq!(
            *seen.borrow(),
            [
                // TaskTracker 1's packet is booked on arrival, mid-write; the
                // second packet of TaskTracker 0 waits, its credit unreturned.
                (BIG, RESERVED, true, 1, 0),
                // The write is done: the packet behind it follows at once —
                // and, overflowing too, keeps the connection held.
                (BIG + 100, RESERVED, true, 0, BIG),
                (BIG + 100, RESERVED, false, 0, BIG + 100),
            ]
        );
    }

    #[test]
    fn a_drain_that_empties_the_arrival_queue_frees_it() {
        let rig = rig(1 << 20);
        let sim = rig.sim.clone();
        sim.block_on(sim.spawn(async move {
            let servers = rig.connect().await;
            for bytes in [100, 200, 300] {
                servers[0].send(packet(0, bytes, false)).await;
            }
            servers[1].send(packet(1, 100, false)).await;
            rig.sim.yield_now().await;
            let queued = || {
                let st = rig.copier.state.borrow();
                (st.pending.len(), st.pending.capacity())
            };
            assert!(matches!(queued(), (4, cap) if cap >= 4));
            let mut merge = StreamingMerge::new(vec![1 << 20, 1 << 20]);
            rig.copier.drain(&mut merge).await;
            assert_eq!(queued(), (0, 0), "no buffer held once drained");
            rig.copier.stop();
        }));
    }

    #[test]
    fn a_dead_incarnations_messages_do_not_count() {
        let rig = rig(1 << 20);
        let sim = rig.sim.clone();
        let copier = Rc::clone(&rig.copier);
        // The TaskTracker's own daemons (its prefetcher pool).
        let idle = sim.live_tasks();
        sim.block_on(sim.spawn(async move {
            let servers = rig.connect().await;
            let ctx = &rig.copier.ctx;
            let delivered = || {
                let st = rig.copier.state.borrow();
                (st.sources[0].delivered_bytes, st.shuffled_bytes)
            };
            let dead = || -> Vec<bool> {
                let st = rig.copier.state.borrow();
                st.conns.iter().map(|c| c.dead).collect()
            };
            // TaskTracker 0 restarts under the connection.
            ctx.liveness[0].kill();
            ctx.liveness[0].restart();
            ctx.liveness_changed.notify_all();
            rig.sim.yield_now().await;
            assert!(rig.copier.death_seen.get());
            assert_eq!(dead(), [true, false]);
            assert!(rig.copier.state.borrow().ep_dead(&ctx.liveness, 0));
            assert!(!rig.copier.state.borrow().ep_dead(&ctx.liveness, 1));
            // What the old incarnation still had on the wire arrives on
            // the old connection and is ignored...
            servers[0].send(packet(0, 100, false)).await;
            assert_eq!(delivered(), (0, 0));
            // ...also once the attempt has a connection to the new one:
            // a connection is an incarnation, not a TaskTracker.
            let restarted = ucr_listen(&ctx.cluster.net, servers[0].local());
            assert!(rig.copier.connect(0, 1, restarted.connector()).await);
            let new_end = restarted.accept().await.expect("reconnected");
            assert!(!rig.copier.state.borrow().ep_dead(&ctx.liveness, 0));
            servers[0].send(packet(0, 100, false)).await;
            assert_eq!(delivered(), (0, 0));
            new_end.send(packet(0, 300, false)).await;
            rig.sim.yield_now().await;
            assert_eq!(delivered(), (300, 300));
            // Another transition elsewhere marks only its own connection:
            // the restarted node's new one stays live.
            ctx.liveness[1].kill();
            ctx.liveness_changed.notify_all();
            rig.sim.yield_now().await;
            assert_eq!(dead(), [true, true, false]);
            rig.copier.stop();
        }));
        assert_eq!(
            sim.live_tasks(),
            idle,
            "the copier stopped; no task per connection"
        );
        assert_eq!(copier.state.borrow().conns.len(), 3);
    }
}
