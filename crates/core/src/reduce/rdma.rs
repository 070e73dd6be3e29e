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
//! Because the server-side `SegmentCursor` for a partially-pulled segment
//! dies with the node (the re-executed map's server starts from offset
//! zero), a source that already delivered bytes cannot be resumed: the whole
//! attempt returns [`ReduceError::SourceLost`] and the runtime re-queues it.
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
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_net::{EndPoint, EndpointSet, UcrConnector};
use rmr_obs::{Ev, Recorder};

use crate::cluster::NodeHandle;
use crate::config::{JobConf, CPU_SORT_PER_RECORD_LEVEL, EVENT_POLL};
use crate::faults::NodeLiveness;
use crate::merge::{Emit, StreamingMerge};
use crate::proto::{PacketBudget, ShufMsg};
use crate::record::Segment;
use crate::reduce::common::{poll_events, ReduceCtx, ReduceError, ReduceSink, ReduceStats};
use crate::runtime::JobId;
use crate::tasktracker::TtServerHandle;

/// Records per emitted merge batch.
const MERGE_BATCH_RECORDS: u64 = 16 * 1024;
/// DataToReduceQueue depth, in batches.
const REDUCE_QUEUE_DEPTH: usize = 8;

struct SourceState {
    tt_idx: usize,
    total_records: Option<u64>,
    total_bytes: Option<u64>,
    /// Bytes sitting in [`ShufState::pending`] for this source.
    buffered_bytes: u64,
    delivered_records: u64,
    delivered_bytes: u64,
    fully_delivered: bool,
    inflight: bool,
    /// Shuffle-buffer bytes reserved for the in-flight request.
    reserved: u64,
    /// Holds less than the current phase's fill level: its fair share of the
    /// shuffle buffer in Phase A (cleared by the refill step that finds it
    /// full — buffers only grow and shares only shrink there), the merge's
    /// refill watermark in Phase B ([`StreamingMerge::wants_refill`]).
    below: bool,
    /// Its home answered [`ShufMsg::Unavailable`]: nothing is requested until
    /// the map's next completion event re-homes it.
    homeless: bool,
}

impl SourceState {
    /// Bytes a request reserves: the engine's per-packet estimate `est`,
    /// refined with what the server already said is left.
    fn request_bytes(&self, est: u64) -> u64 {
        match self.total_bytes {
            Some(t) => est.min(t.saturating_sub(self.delivered_bytes)).max(1),
            None => est,
        }
    }
}

/// One connection of the attempt: an endpoint to one incarnation of one
/// TaskTracker. Indexed by the endpoint's tag in the attempt's
/// [`EndpointSet`].
struct Conn {
    tt_idx: usize,
    /// The server's liveness epoch when the connection was made.
    epoch: u64,
    /// The copier saw that incarnation die; nothing arriving on the
    /// connection counts any more.
    dead: bool,
    /// One of its packets is being written to the local spill file. The
    /// write holds up the connection's later packets (they wait in
    /// `backlog`, their receive credits unreturned) and nobody else's.
    spilling: bool,
    backlog: VecDeque<ShufMsg>,
}

struct ShufState {
    /// Every connection the attempt has made, by endpoint tag.
    conns: Vec<Conn>,
    /// By TaskTracker, the endpoint requests to it go out on: the latest
    /// connection made to it. A dead server keeps its entry until a
    /// reconnect replaces it (requests on it go nowhere).
    eps: Vec<Option<EndPoint<ShufMsg>>>,
    /// TaskTrackers with no entry in `eps` yet.
    unreached: usize,
    /// Indexed by `map_idx` (maps are `0..total_maps`); `None` until the
    /// map's completion event is seen.
    sources: Vec<Option<SourceState>>,
    /// Sources still waiting for their first response (no totals yet).
    missing: BTreeSet<usize>,
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
    /// source per drain.
    pending: VecDeque<(usize, Segment, bool)>,
    shuffled_bytes: u64,
    last_arrival_s: f64,
    /// Unconsumed fetched bytes (buffered + inside the merge).
    resident_bytes: u64,
    /// Bytes spilled to local disk because the buffer overflowed.
    spilled_bytes: u64,
}

impl ShufState {
    /// Nothing connected (room for a connection per server), no map
    /// discovered yet.
    fn new(servers: usize, total_maps: usize, est_packet_bytes: u64) -> Self {
        ShufState {
            conns: Vec::with_capacity(servers),
            eps: vec![None; servers],
            unreached: servers,
            sources: (0..total_maps).map(|_| None).collect(),
            missing: BTreeSet::new(),
            cands: BTreeSet::new(),
            tails: BTreeSet::new(),
            est_packet_bytes,
            pending: VecDeque::new(),
            shuffled_bytes: 0,
            last_arrival_s: 0.0,
            resident_bytes: 0,
            spilled_bytes: 0,
        }
    }

    fn src(&mut self, map_idx: usize) -> &mut SourceState {
        self.sources[map_idx].as_mut().expect("unknown source")
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
            tt_idx,
            epoch,
            dead: false,
            spilling: false,
            backlog: VecDeque::new(),
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
            .filter_map(|(m, s)| Some((m, s.as_ref()?)))
    }

    /// Re-derives `map_idx`'s membership in the candidate sets; call after
    /// changing any field of the source.
    fn relist(&mut self, map_idx: usize) {
        let s = self.sources[map_idx].as_ref().expect("unknown source");
        let cand = s.below && !s.inflight && !s.fully_delivered && !s.homeless;
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

/// Shuffle-buffer accounting: prefetch requests reserve space; requests that
/// unblock a stalled merge may overdraft (deadlock avoidance), and releases
/// never exceed what was reserved.
struct MemBudget {
    capacity: u64,
    outstanding: Cell<u64>,
}

impl MemBudget {
    fn available(&self) -> u64 {
        self.capacity - self.outstanding.get()
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

/// Finds an unrecoverable source: one that is not fully delivered and whose
/// partial bytes came from an endpoint that no longer serves them (the node
/// died, or it restarted and lost its MapOutputStore — which it may also have
/// answered — or the map has already been re-homed away from a lost
/// incarnation — `poisoned`).
fn lost_source(
    st: &ShufState,
    poisoned: &BTreeSet<usize>,
    liveness: &[Rc<NodeLiveness>],
) -> Option<usize> {
    st.known().find_map(|(m, s)| {
        if s.fully_delivered {
            return None;
        }
        if poisoned.contains(&m) {
            return Some(s.tt_idx);
        }
        let pulled = s.delivered_records > 0 || s.delivered_bytes > 0;
        if pulled && (s.homeless || st.ep_dead(liveness, s.tt_idx)) {
            return Some(s.tt_idx);
        }
        None
    })
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

/// The attempt's `RDMACopier`: everything the receive side shares between
/// the copier task and the spill writers it starts.
struct Copier {
    /// The attempt's connections: one receive queue for all of them.
    endpoints: Rc<EndpointSet<ShufMsg>>,
    state: Rc<RefCell<ShufState>>,
    mem: Rc<MemBudget>,
    /// Fired on every booked packet and every observed death.
    arrived: Notify,
    /// Set, then `stopped` fired, when the attempt is over.
    stop: Cell<bool>,
    stopped: Notify,
    /// Server deaths seen under a connection of this attempt (a server
    /// answering that it lost an output this attempt pulled from counts).
    deaths_seen: Cell<u64>,
    sim: Sim,
    node: NodeHandle,
    conf: Rc<JobConf>,
    obs: Recorder,
    /// The TaskTracker's group: the receive side dies with the node.
    group: TaskGroup,
    my_idx: usize,
    job: JobId,
    reduce_idx: usize,
    spill_file: String,
    spill_task: Rc<str>,
}

impl Copier {
    /// Ends the receive side (idempotent).
    fn stop(&self) {
        self.stop.set(true);
        self.stopped.notify_all();
    }

    /// Connects to the incarnation of TaskTracker `tt_idx` that is up now
    /// and makes the connection the one requests to it use, closing the one
    /// it replaces. False if the server went away meanwhile.
    async fn connect(&self, tt_idx: usize, epoch: u64, server: UcrConnector<ShufMsg>) -> bool {
        let Some(ep) = server.try_connect_into(self.node.id, &self.endpoints).await else {
            return false;
        };
        let old = self.state.borrow_mut().connected(tt_idx, epoch, ep);
        if let Some(old) = old {
            self.endpoints.remove(old.tag());
        }
        true
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
            self.mem.release(src.reserved);
            (src.reserved, src.inflight, src.homeless) = (0, false, true);
            let pulled = src.delivered_records > 0 || src.delivered_bytes > 0;
            st.relist(map_idx);
            if pulled {
                self.deaths_seen.set(self.deaths_seen.get() + 1);
            }
            return Arrival::Ready;
        };
        st.shuffled_bytes += packet.bytes;
        st.last_arrival_s = self.sim.now().as_secs_f64();
        st.missing.remove(&map_idx);
        let src = st.src(map_idx);
        src.total_records = Some(total_records);
        src.total_bytes = Some(total_bytes);
        src.delivered_records += packet.records;
        src.delivered_bytes += packet.bytes;
        src.fully_delivered = remaining_records == 0;
        // Reserved packets always fit (the budget was held for them); only
        // overdraft packets can overflow and spill.
        let covered = src.reserved >= packet.bytes;
        // Balance the reservation against what actually came.
        if src.reserved > packet.bytes {
            self.mem.release(src.reserved - packet.bytes);
        }
        src.reserved = 0;
        src.inflight = false;
        src.homeless = false;
        st.relist(map_idx);
        if packet.records == 0 {
            return Arrival::Ready;
        }
        let over = !covered && st.resident_bytes + packet.bytes > self.conf.shuffle_buffer;
        let bytes = packet.bytes;
        st.src(map_idx).buffered_bytes += bytes;
        st.resident_bytes += bytes;
        st.pending.push_back((map_idx, packet, over));
        if !over {
            return Arrival::Ready;
        }
        st.spilled_bytes += bytes;
        drop(st);
        self.sim
            .metrics()
            .add("reduce.shuffle_spill_bytes", bytes as f64);
        self.obs.emit(|| Ev::Spill {
            node: self.my_idx,
            job: self.job.0,
            reduce: self.reduce_idx,
            bytes,
        });
        if self.conf.shuffle.local_spill() {
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
            let conn = &mut st.conns[ep.tag() as usize];
            if conn.dead {
                return;
            }
            if conn.spilling {
                conn.backlog.push_back(msg);
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
                self.group
                    .spawn_daemon(Rc::clone(&self.spill_task), copier.spill(ep, bytes))
                    .detach();
            }
        }
    }

    /// Writes `bytes` of a packet from `ep`'s connection to the spill file,
    /// then works through what arrived on the connection meanwhile, in
    /// order — for as long as it takes, this is the connection's own copier.
    async fn spill(self: Rc<Self>, ep: EndPoint<ShufMsg>, mut bytes: u64) {
        loop {
            let w = self
                .node
                .fs
                .writer(&self.spill_file)
                .expect("shuffle spill file");
            w.append(bytes).await.expect("shuffle spill write");
            self.arrived.notify_all();
            bytes = loop {
                let next = {
                    let mut st = self.state.borrow_mut();
                    let conn = &mut st.conns[ep.tag() as usize];
                    if self.stop.get() || conn.dead {
                        conn.backlog.clear();
                    }
                    let next = conn.backlog.pop_front();
                    conn.spilling = next.is_some();
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
    fn sweep_deaths(&self, liveness: &[Rc<NodeLiveness>]) {
        let mut died = 0;
        for conn in self.state.borrow_mut().conns.iter_mut() {
            let l = &liveness[conn.tt_idx];
            let gone = !l.alive() || l.epoch() != conn.epoch;
            if gone && !conn.dead {
                conn.dead = true;
                died += 1;
            }
        }
        if died > 0 {
            self.deaths_seen.set(self.deaths_seen.get() + died);
            self.arrived.notify_all();
        }
    }

    /// The copier task: receives for every connection of the attempt until
    /// stopped. The CQ never closes, so death is out of band.
    async fn run(self: Rc<Self>, liveness: Rc<Vec<Rc<NodeLiveness>>>, liveness_changed: Notify) {
        let mut stopped = self.stopped.notified();
        let mut changed = liveness_changed.notified();
        while !self.stop.get() {
            let next = self.endpoints.recv();
            match select2(next, select2(&mut changed, &mut stopped)).await {
                Either::Left((ep, msg)) => self.on_message(ep, msg),
                Either::Right(Either::Left(())) => {
                    changed = liveness_changed.notified();
                    self.sweep_deaths(&liveness);
                }
                Either::Right(Either::Right(())) => break,
            }
        }
    }
}

/// Runs one Hadoop-A or OSU-IB ReduceTask to completion, branching on the
/// job's [`ShuffleKind`](crate::ShuffleKind) capabilities. `Err` means a
/// shuffle source with partial deliveries died under the attempt; the
/// caller re-queues the whole task.
pub async fn run_reduce_rdma(ctx: ReduceCtx) -> Result<ReduceStats, ReduceError> {
    let sim = ctx.cluster.sim.clone();
    let conf = Rc::clone(&ctx.conf);
    let kind = conf.shuffle;
    let node = ctx.tt.node.clone();
    let obs = ctx.tt.obs().clone();
    let my_idx = ctx.tt.idx;
    let liveness = Rc::clone(&ctx.liveness);

    let packet_budget = || {
        if kind.byte_packets() {
            PacketBudget::Bytes(conf.osu_packet_bytes)
        } else {
            PacketBudget::Records(conf.hadoop_a_kv_per_packet)
        }
    };
    let est_packet_bytes = if kind.byte_packets() {
        conf.osu_packet_bytes
    } else {
        conf.hadoop_a_kv_per_packet * ctx.spec.avg_record_bytes.max(1)
    };

    let n_servers = ctx.servers.borrow().len();
    let state = Rc::new(RefCell::new(ShufState::new(
        n_servers,
        ctx.total_maps,
        est_packet_bytes,
    )));
    let arrived = Notify::new_named(&format!("r{}-packet-arrived", ctx.reduce_idx));
    let mem = Rc::new(MemBudget {
        capacity: conf.shuffle_buffer,
        outstanding: Cell::new(0),
    });
    // Set when a request could not be sent because the source's TaskTracker
    // has no endpoint — e.g. a map re-executed on a node that was down when
    // this attempt connected up front (so no death was ever *seen* here).
    // Arms the same reconnect sweep a death does.
    let no_ep = Rc::new(Cell::new(false));

    // The receive side. Attempt-scoped: it lives in the TaskTracker's task
    // group (so the node's death also reaps it) and is stopped when the
    // attempt ends.
    let copier = Rc::new(Copier {
        endpoints: EndpointSet::new(),
        state: Rc::clone(&state),
        mem: Rc::clone(&mem),
        arrived: arrived.clone(),
        stop: Cell::new(false),
        stopped: Notify::new_named(&format!("r{}-attempt-shutdown", ctx.reduce_idx)),
        deaths_seen: Cell::new(0),
        sim: sim.clone(),
        node: node.clone(),
        conf: Rc::clone(&conf),
        obs: obs.clone(),
        group: ctx.tt.group.clone(),
        my_idx,
        job: ctx.job,
        reduce_idx: ctx.reduce_idx,
        spill_file: format!("{}_r{}_shufspill", ctx.job, ctx.reduce_idx),
        spill_task: format!("r{}-shuffle-spill", ctx.reduce_idx).into(),
    });
    let connect = |tt_i: usize| {
        let server = match &ctx.servers.borrow()[tt_i] {
            TtServerHandle::Rdma(c) => c.clone(),
            _ => panic!("RDMA reducer needs RDMA servers"),
        };
        copier.connect(tt_i, liveness[tt_i].epoch(), server)
    };

    // Connect an endpoint to every live TaskTracker up front (§III-B-1: "one
    // RDMACopier sends such information to all available TaskTrackers").
    // Dead servers are skipped; if a source later lands on one (restart or
    // re-execution), the Phase A reconnect pass picks it up.
    for tt_i in 0..n_servers {
        if liveness[tt_i].alive() {
            connect(tt_i).await;
        }
    }
    ctx.tt
        .group
        .spawn_daemon(
            format!("r{}-rdma-copier", ctx.reduce_idx),
            Rc::clone(&copier).run(Rc::clone(&liveness), ctx.liveness_changed.clone()),
        )
        .detach();

    // Sends the next packet request for `map_idx`. `forced` bypasses the
    // memory budget (stall recovery); otherwise the request is skipped when
    // the buffer has no room. Returns false (no request) when the source's
    // TaskTracker has no live endpoint.
    let send_request = {
        let state = Rc::clone(&state);
        let mem = Rc::clone(&mem);
        let obs = obs.clone();
        let no_ep = Rc::clone(&no_ep);
        let job = ctx.job;
        let reduce_idx = ctx.reduce_idx;
        let attempt = ctx.attempt;
        move |map_idx: usize, budget: PacketBudget, est: u64, forced: bool| -> bool {
            let mut st = state.borrow_mut();
            let src = st.sources[map_idx].as_ref().expect("unknown source");
            if src.inflight || src.fully_delivered || src.homeless {
                return false;
            }
            let Some(ep) = st.eps[src.tt_idx].clone() else {
                no_ep.set(true);
                return false;
            };
            let src = st.src(map_idx);
            let est = src.request_bytes(est);
            let reserved = if mem.try_reserve(est) {
                est
            } else if forced {
                0 // overdraft: the packet will spill on arrival if needed
            } else {
                return false;
            };
            src.reserved = reserved;
            src.inflight = true;
            let server = src.tt_idx;
            st.relist(map_idx);
            drop(st);
            obs.emit(|| Ev::ShuffleRequest {
                node: my_idx,
                server,
                job: job.0,
                map_idx,
                reduce: reduce_idx,
            });
            ep.send_nowait(ShufMsg::Request {
                job,
                map_idx,
                reduce: reduce_idx,
                attempt,
                budget,
            });
            true
        }
    };

    // One refill step: requests the next packet from each candidate, in map
    // order, for as long as the shuffle-buffer budget covers the request.
    // With at least one full estimate free every candidate fits; below that
    // only segment tails can, so the walk narrows to them and ends when
    // nothing is free — its cost follows the requests sent, not the number
    // of maps. `fair_share` (Phase A) retires candidates that already hold
    // their share of the buffer.
    let refill = |fair_share: Option<u64>| {
        // Phase A's fault sweep is re-armed (`no_ep`) by a request that finds
        // its source's TaskTracker without an endpoint, whether or not the
        // budget would have covered it. While some TaskTracker has none, walk
        // every candidate so that request is attempted.
        let walk_all = fair_share.is_some() && state.borrow().unreached > 0;
        let mut from = 0usize;
        loop {
            let map_idx = {
                let mut st = state.borrow_mut();
                let free = mem.available();
                let set = if free >= est_packet_bytes || walk_all {
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
                    st.src(m).below = false;
                    st.relist(m);
                    continue;
                }
                m
            };
            send_request(map_idx, packet_budget(), est_packet_bytes, false);
        }
    };

    // ---- Phase A: discover map completions; OSU overlaps data shuffle
    // with the map wave, Hadoop-A only pulls headers. ----
    let mut cursor = 0usize;
    let mut discovered = 0usize;
    // Maps whose partial deliveries came from a since-lost incarnation.
    let mut poisoned: BTreeSet<usize> = BTreeSet::new();
    loop {
        for (map_idx, tt_idx) in poll_events(&ctx.cluster, &ctx.jt, &node, &mut cursor).await {
            // A repeated completion event for the same map means it was
            // re-executed after a node loss: dedup so `discovered` counts
            // unique maps.
            let want_request = {
                let mut st = state.borrow_mut();
                match &mut st.sources[map_idx] {
                    slot @ None => {
                        *slot = Some(SourceState {
                            tt_idx,
                            total_records: None,
                            total_bytes: None,
                            buffered_bytes: 0,
                            delivered_records: 0,
                            delivered_bytes: 0,
                            fully_delivered: false,
                            inflight: false,
                            reserved: 0,
                            below: true,
                            homeless: false,
                        });
                        discovered += 1;
                        st.missing.insert(map_idx);
                        st.relist(map_idx);
                        true
                    }
                    Some(s) => {
                        if s.fully_delivered {
                            // Already fully pulled from the old incarnation;
                            // the re-execution serves other reducers.
                            false
                        } else if s.delivered_records > 0 || s.delivered_bytes > 0 {
                            // Partial data from a lost incarnation cannot be
                            // resumed (the new server's cursor starts over):
                            // the attempt must restart.
                            poisoned.insert(map_idx);
                            false
                        } else {
                            // Nothing delivered yet: re-home cleanly, dropping
                            // any request that was in flight to the old home
                            // (`Copier::book` ignores its answer).
                            if s.reserved > 0 {
                                mem.release(s.reserved);
                                s.reserved = 0;
                            }
                            (s.inflight, s.homeless) = (false, false);
                            s.tt_idx = tt_idx;
                            st.relist(map_idx);
                            true
                        }
                    }
                }
            };
            if want_request {
                if kind.eager_fetch() {
                    send_request(map_idx, packet_budget(), est_packet_bytes, false);
                } else {
                    // Header only: first kv pair + segment metadata.
                    send_request(
                        map_idx,
                        PacketBudget::Records(1),
                        ctx.spec.avg_record_bytes,
                        true,
                    );
                }
            }
        }
        // Fault sweep — skipped entirely on the fault-free path. `no_ep`
        // also arms it: a source can live on a TaskTracker this attempt has
        // no endpoint for without ever witnessing a death (the node was down
        // at connect time and a re-executed map landed on it post-restart).
        if copier.deaths_seen.get() > 0 || !poisoned.is_empty() || no_ep.replace(false) {
            if let Some(tt_idx) = lost_source(&state.borrow(), &poisoned, &liveness) {
                copier.stop();
                return Err(ReduceError::SourceLost { tt_idx });
            }
            // Reconnect to the (live) homes of still-pending sources whose
            // endpoint died — a restarted node, or a re-execution landing on
            // a TaskTracker that was down when we connected up front.
            let need: BTreeSet<usize> = {
                let st = state.borrow();
                st.known()
                    .filter(|(_, s)| {
                        !s.fully_delivered
                            && st.ep_dead(&liveness, s.tt_idx)
                            && liveness[s.tt_idx].alive()
                    })
                    .map(|(_, s)| s.tt_idx)
                    .collect()
            };
            for tt in need {
                connect(tt).await;
            }
        }
        // Keep the pipeline fed while maps are still finishing (OSU): pull
        // each discovered source up to its fair share of the shuffle buffer,
        // overlapping the data movement with the map wave (§III-B-4).
        if kind.eager_fetch() {
            refill(Some(conf.shuffle_buffer / discovered.max(8) as u64));
        }
        // Done discovering once every map reported and every source has its
        // totals (needed to build the merge).
        if discovered == ctx.total_maps {
            let missing: Vec<usize> = state.borrow().missing.iter().copied().collect();
            if missing.is_empty() {
                break;
            }
            for m in missing {
                send_request(m, packet_budget(), est_packet_bytes, true);
            }
        }
        // Wake on the next poll tick or on any packet arrival (the copier also
        // fires the arrival notify when it observes a server death).
        let n = arrived.notified();
        rmr_des::sync::select2(sim.sleep(EVENT_POLL), n).await;
    }

    // ---- Phase B: priority-queue merge pipelined with reduce. ----
    // No new sources appear past this point, and every non-fully-delivered
    // source has delivered at least a header — so a server death in Phase B
    // either touches only fully-delivered sources (harmless) or fails the
    // attempt; there is no Phase B re-home/reconnect path.
    let watermark = if kind.byte_packets() {
        (conf.osu_packet_bytes / ctx.spec.avg_record_bytes.max(1)).max(16)
    } else {
        conf.hadoop_a_kv_per_packet.max(16)
    };
    let mut merge = {
        let mut st = state.borrow_mut();
        // The fill level is the merge's watermark from here on.
        st.cands.clear();
        st.tails.clear();
        let expected = st
            .sources
            .iter_mut()
            .map(|s| {
                let s = s.as_mut().expect("every map discovered");
                s.below = false;
                s.total_records.expect("every source has its totals")
            })
            .collect();
        StreamingMerge::with_watermark(expected, watermark)
    };
    // Mirrors the merge's newly-low sources into the candidate set. Runs
    // right after the merge state changes them, before any await.
    let note_low = {
        let state = Rc::clone(&state);
        move |merge: &mut StreamingMerge| {
            let mut st = state.borrow_mut();
            for m in merge.newly_low() {
                st.src(m).below = true;
                st.relist(m);
            }
        }
    };
    note_low(&mut merge);

    // DataToReduceQueue + reduce consumer (overlap of merge and reduce).
    // The consumer lives in the TaskTracker's group so the node's own death
    // tears it down with the attempt.
    let (out_tx, out_rx) = bounded_named::<Segment>(
        &format!("r{}-data-to-reduce-queue", ctx.reduce_idx),
        REDUCE_QUEUE_DEPTH,
    );
    let consumer = {
        let ctx2 = ctx.clone();
        let node2 = node.clone();
        let conf2 = Rc::clone(&conf);
        ctx.tt.group.clone().spawn_named(
            format!("r{}-reduce-consumer", ctx.reduce_idx),
            async move {
                let mut sink =
                    ReduceSink::open(&ctx2.cluster, &conf2, &ctx2.spec, &node2, ctx2.reduce_idx)
                        .await;
                while let Some(seg) = out_rx.recv().await {
                    sink.consume(seg).await;
                }
                sink.finish().await
            },
        )
    };

    // Moves pending packets into the merge in arrival order (per-source
    // FIFO order is preserved, and cross-source append order does not affect
    // the merge result). Returns the total spilled bytes drained plus, for
    // Hadoop-A, the refetch charge list: (tt_idx, map_idx, bytes) per
    // spilled packet.
    let spill_readback = {
        let state = Rc::clone(&state);
        move |merge: &mut StreamingMerge| -> (u64, Vec<(usize, usize, u64)>) {
            let mut st = state.borrow_mut();
            let mut spilled = 0u64;
            let mut refetch = Vec::new();
            while let Some((m, pkt, was_spilled)) = st.pending.pop_front() {
                let s = st.src(m);
                s.buffered_bytes = s.buffered_bytes.saturating_sub(pkt.bytes);
                if was_spilled {
                    spilled += pkt.bytes;
                    refetch.push((s.tt_idx, m, pkt.bytes));
                }
                merge.append(m, pkt);
                if s.below && !merge.wants_refill(m) {
                    s.below = false;
                    st.relist(m);
                }
            }
            (spilled, refetch)
        }
    };

    let spill_file = &copier.spill_file;
    let metrics = sim.metrics().clone();
    // Cached counter handles: the loop body runs per batch/stall, and a
    // handle bump skips the registry lookup entirely.
    let c_loop_iters = metrics.counter("rdma.loop_iters");
    let c_emits = metrics.counter("rdma.emits");
    let c_emit_records = metrics.counter("rdma.emit_records");
    let c_stalls = metrics.counter("rdma.stalls");
    let mut lost_tt: Option<usize> = None;
    loop {
        c_loop_iters.incr();
        if copier.deaths_seen.get() > 0 || !poisoned.is_empty() {
            if let Some(tt) = lost_source(&state.borrow(), &poisoned, &liveness) {
                lost_tt = Some(tt);
                break;
            }
        }
        let (spilled, refetch) = spill_readback(&mut merge);
        if spilled > 0 {
            if kind.local_spill() {
                // Read the spilled packets back from local disk.
                if node.fs.exists(spill_file) {
                    let mut r = node.fs.reader(spill_file).expect("spill file");
                    let want = spilled.min(r.remaining().unwrap_or(0));
                    if want > 0 {
                        r.read_exact(want).await.expect("spill readback");
                    }
                }
            } else {
                // Refetch each dropped packet from its TaskTracker: the
                // DataEngine reads the map output from disk again and the
                // bytes cross the wire again. A packet whose working set
                // exceeds the merge memory returns multiple times before
                // it is fully consumed (evict → refetch thrash): the
                // amplification is the ratio of the resident set the
                // priority queue needs (one packet per live source) to
                // the memory that can hold it. (Map output files persist on
                // the simulated disk across a kill, so this stays a pure
                // timing charge even when the source node has since died.)
                let live = merge.source_count() as u64;
                let amp = ((live * est_packet_bytes.min(4 << 20)) / conf.shuffle_buffer.max(1))
                    .clamp(1, 5);
                for (tt_idx, map_idx, bytes) in refetch {
                    let bytes = bytes * amp;
                    let tt_node = &ctx.cluster.workers[tt_idx];
                    let file = format!("{}_map_{map_idx}.out", ctx.job);
                    if tt_node.fs.exists(&file) {
                        let mut r = tt_node.fs.reader(&file).expect("map output");
                        let want = bytes.min(r.remaining().unwrap_or(0));
                        if want > 0 {
                            r.read_exact(want).await.expect("refetch read");
                        }
                    }
                    ctx.cluster.net.transfer(tt_node.id, node.id, bytes).await;
                    metrics.add("rdma.refetch_bytes", bytes as f64);
                }
            }
        }
        // Refill ahead of need.
        refill(None);
        match merge.emit(MERGE_BATCH_RECORDS) {
            Emit::Data(seg) => {
                note_low(&mut merge);
                c_emits.incr();
                c_emit_records.add(seg.records as f64);
                obs.emit(|| Ev::MergeBatch {
                    node: my_idx,
                    job: ctx.job.0,
                    reduce: ctx.reduce_idx,
                    records: seg.records,
                    bytes: seg.bytes,
                });
                mem.release(seg.bytes);
                {
                    let mut st = state.borrow_mut();
                    st.resident_bytes = st.resident_bytes.saturating_sub(seg.bytes);
                }
                let k = (merge.source_count().max(2)) as f64;
                node.compute(seg.records as f64 * k.log2() * CPU_SORT_PER_RECORD_LEVEL)
                    .await;
                out_tx.send(seg).await.expect("reduce consumer died");
            }
            Emit::Stalled(dry) => {
                c_stalls.incr();
                // Arm the waiter BEFORE re-checking: packets can land during
                // the awaits above (spill readback, CPU charges), and an
                // edge-triggered notification created after the arrival
                // would never fire (lost wakeup ⇒ deadlock).
                let waiter = arrived.notified();
                // Same ordering for deaths: the fatal sweep must run after
                // arming so a death signalled during the awaits above either
                // shows up here or wakes the waiter.
                if copier.deaths_seen.get() > 0 || !poisoned.is_empty() {
                    if let Some(tt) = lost_source(&state.borrow(), &poisoned, &liveness) {
                        lost_tt = Some(tt);
                        break;
                    }
                }
                let has_undrained = !state.borrow().pending.is_empty();
                if has_undrained {
                    continue; // drain them and retry
                }
                for m in dry {
                    // Forced: a stalled merge must not deadlock on buffer
                    // space held by other sources.
                    send_request(m, packet_budget(), est_packet_bytes, true);
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

    let st = state.borrow();
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
    use rmr_hdfs::HdfsConfig;
    use rmr_net::{ucr_listen, FabricParams, PrivateEndPoint, UcrListener};

    /// The receive side of a reducer on worker 2 with maps 0 and 1
    /// discovered on TaskTrackers 0 and 1, and a fake server per TaskTracker
    /// for the test to answer from. Map 0 has nothing reserved (whatever
    /// does not fit `shuffle_buffer` overflows); map 1 has a request for
    /// `RESERVED` bytes out.
    struct Rig {
        sim: Sim,
        copier: Rc<Copier>,
        servers: Vec<UcrListener<ShufMsg>>,
        liveness: Rc<Vec<Rc<NodeLiveness>>>,
        changed: Notify,
        cluster: Cluster,
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
        let conf = Rc::new(JobConf {
            shuffle_buffer,
            ..JobConf::osu_ib()
        });
        let source = |tt_idx, reserved| {
            Some(SourceState {
                tt_idx,
                total_records: None,
                total_bytes: None,
                buffered_bytes: 0,
                delivered_records: 0,
                delivered_bytes: 0,
                fully_delivered: false,
                inflight: reserved > 0,
                reserved,
                below: true,
                homeless: false,
            })
        };
        let mut state = ShufState::new(2, 2, conf.osu_packet_bytes);
        state.sources = vec![source(0, 0), source(1, RESERVED)];
        let state = Rc::new(RefCell::new(state));
        let copier = Rc::new(Copier {
            endpoints: EndpointSet::new(),
            state,
            mem: Rc::new(MemBudget {
                capacity: shuffle_buffer,
                outstanding: Cell::new(RESERVED),
            }),
            arrived: Notify::new(),
            stop: Cell::new(false),
            stopped: Notify::new(),
            deaths_seen: Cell::new(0),
            sim: sim.clone(),
            node: cluster.workers[2].clone(),
            conf,
            obs: Recorder::off(),
            group: sim.group(),
            my_idx: 2,
            job: JobId(0),
            reduce_idx: 0,
            spill_file: "j0_r0_shufspill".into(),
            spill_task: "r0-shuffle-spill".into(),
        });
        let servers = (0..2)
            .map(|tt| ucr_listen(&cluster.net, cluster.workers[tt].id))
            .collect();
        Rig {
            sim,
            copier,
            servers,
            liveness: Rc::new(vec![NodeLiveness::new(), NodeLiveness::new()]),
            changed: Notify::new(),
            cluster,
        }
    }

    impl Rig {
        /// Connects the copier to both servers (under liveness epoch 0),
        /// starts it, and returns the server ends.
        async fn connect(&self) -> Vec<PrivateEndPoint<ShufMsg>> {
            let mut server_ends = Vec::new();
            for (tt, server) in self.servers.iter().enumerate() {
                assert!(self.copier.connect(tt, 0, server.connector()).await);
                server_ends.push(server.accept().await.expect("connected"));
            }
            let run = Rc::clone(&self.copier).run(Rc::clone(&self.liveness), self.changed.clone());
            self.sim.spawn_daemon("copier", run).detach();
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
                .spawn_daemon("merge-loop", async move {
                    loop {
                        copier.arrived.notified().await;
                        let st = copier.state.borrow();
                        let delivered = |m: usize| st.sources[m].as_ref().unwrap().delivered_bytes;
                        seen.borrow_mut().push((
                            delivered(0),
                            delivered(1),
                            st.conns[0].spilling,
                            st.conns[0].backlog.len(),
                            copier.node.fs.size(&copier.spill_file).unwrap_or(0),
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
    fn a_dead_incarnations_messages_do_not_count() {
        let rig = rig(1 << 20);
        let sim = rig.sim.clone();
        let copier = Rc::clone(&rig.copier);
        sim.spawn(async move {
            let servers = rig.connect().await;
            let delivered = || {
                let st = rig.copier.state.borrow();
                (
                    st.sources[0].as_ref().unwrap().delivered_bytes,
                    st.shuffled_bytes,
                )
            };
            // TaskTracker 0 restarts under the connection.
            rig.liveness[0].kill();
            rig.liveness[0].restart();
            rig.changed.notify_all();
            rig.sim.yield_now().await;
            assert_eq!(rig.copier.deaths_seen.get(), 1);
            assert!(rig.copier.state.borrow().ep_dead(&rig.liveness, 0));
            assert!(!rig.copier.state.borrow().ep_dead(&rig.liveness, 1));
            // What the old incarnation still had on the wire arrives on
            // the old connection and is ignored...
            servers[0].send(packet(0, 100, false)).await;
            assert_eq!(delivered(), (0, 0));
            // ...also once the attempt has a connection to the new one:
            // a connection is an incarnation, not a TaskTracker.
            let restarted = ucr_listen(&rig.cluster.net, servers[0].local());
            assert!(rig.copier.connect(0, 1, restarted.connector()).await);
            let new_end = restarted.accept().await.expect("reconnected");
            assert!(!rig.copier.state.borrow().ep_dead(&rig.liveness, 0));
            servers[0].send(packet(0, 100, false)).await;
            assert_eq!(delivered(), (0, 0));
            new_end.send(packet(0, 300, false)).await;
            rig.sim.yield_now().await;
            assert_eq!(delivered(), (300, 300));
            // Another transition elsewhere is not a death seen twice.
            rig.liveness[1].kill();
            rig.changed.notify_all();
            rig.sim.yield_now().await;
            assert_eq!(rig.copier.deaths_seen.get(), 2);
            rig.copier.stop();
        })
        .detach();
        sim.run();
        assert_eq!(
            sim.live_tasks(),
            0,
            "the copier stopped; no task per connection"
        );
        assert_eq!(copier.state.borrow().conns.len(), 3);
    }
}
