//! The RDMA reduce side, shared by Hadoop-A and OSU-IB (§III-B).
//!
//! An `RDMACopier` connects UCR endpoints to every TaskTracker up front.
//! Packets stream into per-source buffers; a priority-queue
//! [`StreamingMerge`] extracts globally sorted batches into the bounded
//! `DataToReduceQueue`, which a concurrently running reduce consumer drains
//! — reduce is pipelined with merge and shuffle (§III-B-4), unlike
//! vanilla's barrier.
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
//! detected in-band the way vanilla's socket copiers detect it. Each copier
//! therefore watches its server's [`NodeLiveness`] signal out of band and
//! reports the death to the merge loop. Because the server-side
//! `SegmentCursor` for a partially-pulled segment dies with the node (the
//! re-executed map's server starts from offset zero), a source that already
//! delivered bytes cannot be resumed: the whole attempt returns
//! [`ReduceError::SourceLost`] and the runtime re-queues it. Sources that
//! were fully delivered before the death, and sources that had delivered
//! nothing yet (which are transparently re-homed onto the re-executed map's
//! TaskTracker), survive within the attempt.
//!
//! [`NodeLiveness`]: crate::faults::NodeLiveness

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_net::EndPoint;
use rmr_obs::Ev;

use crate::merge::{Emit, StreamingMerge};
use crate::proto::{PacketBudget, ShufMsg};
use crate::record::Segment;
use crate::reduce::common::{poll_events, ReduceCtx, ReduceError, ReduceSink, ReduceStats};
use crate::tasktracker::TtServerHandle;

/// Records per emitted merge batch.
const MERGE_BATCH_RECORDS: u64 = 16 * 1024;
/// DataToReduceQueue depth, in batches.
const REDUCE_QUEUE_DEPTH: usize = 8;

/// The capability knobs that distinguish the two RDMA designs. The engine
/// implementations pick a preset; the pipeline below branches on these
/// capabilities, never on an engine identity.
#[derive(Debug, Clone, Copy)]
pub struct RdmaVariant {
    /// Packets are byte-budgeted (`osu_packet_bytes`) rather than fixed
    /// kv-count (`hadoop_a_kv_per_packet`).
    pub byte_packets: bool,
    /// Pull data eagerly during the map wave (vs headers only, building the
    /// levitated-merge heap when all headers are in).
    pub eager_fetch: bool,
    /// Overflowing packets spill to the reducer's local disk (vs dropped
    /// and refetched from the TaskTracker).
    pub local_spill: bool,
    /// Stripe every shuffle message across the fabric's rails (multi-rail
    /// HCAs). A no-op on single-rail fabrics, so seed variants keep it off.
    pub striped: bool,
}

impl RdmaVariant {
    /// OSU-IB: byte-budgeted packets, eager overlap, local spill.
    pub fn osu_ib() -> Self {
        RdmaVariant {
            byte_packets: true,
            eager_fetch: true,
            local_spill: true,
            striped: false,
        }
    }

    /// Hadoop-A: fixed kv-count packets, header-first merge, drop-and-
    /// refetch on overflow.
    pub fn hadoop_a() -> Self {
        RdmaVariant {
            byte_packets: false,
            eager_fetch: false,
            local_spill: false,
            striped: false,
        }
    }

    /// Multi-rail OSU-IB: the same pipeline, but every reducer↔server QP
    /// stripes its wire bytes across the fabric's rails.
    pub fn multi_rail() -> Self {
        RdmaVariant {
            striped: true,
            ..RdmaVariant::osu_ib()
        }
    }
}

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

struct ShufState {
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
    fn src(&mut self, map_idx: usize) -> &mut SourceState {
        self.sources[map_idx].as_mut().expect("unknown source")
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
        let cand = s.below && !s.inflight && !s.fully_delivered;
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
/// died, or it restarted and lost its MapOutputStore, or the map has already
/// been re-homed away from a lost incarnation — `poisoned`).
fn lost_source(
    st: &ShufState,
    poisoned: &BTreeSet<usize>,
    ep_dead: &dyn Fn(usize) -> bool,
) -> Option<usize> {
    st.known().find_map(|(m, s)| {
        if s.fully_delivered {
            return None;
        }
        if poisoned.contains(&m) {
            return Some(s.tt_idx);
        }
        if (s.delivered_records > 0 || s.delivered_bytes > 0) && ep_dead(s.tt_idx) {
            return Some(s.tt_idx);
        }
        None
    })
}

/// Runs one Hadoop-A or OSU-IB ReduceTask to completion, branching on
/// `variant`'s capabilities. `Err` means a shuffle source with partial
/// deliveries died under the attempt; the caller re-queues the whole task.
pub async fn run_reduce_rdma(
    ctx: ReduceCtx,
    variant: RdmaVariant,
) -> Result<ReduceStats, ReduceError> {
    let sim = ctx.cluster.sim.clone();
    let conf = Rc::clone(&ctx.conf);
    let node = ctx.tt.node.clone();
    let obs = ctx.tt.obs().clone();
    let my_idx = ctx.tt.idx;

    // Endpoints keyed by TaskTracker index. Unlike the fault-free design a
    // plain vector no longer works: a dead server has no endpoint, and a
    // restarted one needs a fresh connection (tracked by liveness epoch).
    let eps: Rc<RefCell<BTreeMap<usize, Rc<EndPoint<ShufMsg>>>>> =
        Rc::new(RefCell::new(BTreeMap::new()));
    let ep_epochs: Rc<RefCell<BTreeMap<usize, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let ep_dead = {
        let ep_epochs = Rc::clone(&ep_epochs);
        let liveness = Rc::clone(&ctx.liveness);
        move |tt: usize| -> bool {
            let l = &liveness[tt];
            !l.alive() || ep_epochs.borrow().get(&tt).is_none_or(|e| *e != l.epoch())
        }
    };

    let packet_budget = || {
        if variant.byte_packets {
            PacketBudget::Bytes(conf.osu_packet_bytes)
        } else {
            PacketBudget::Records(conf.hadoop_a_kv_per_packet)
        }
    };
    let est_packet_bytes = if variant.byte_packets {
        conf.osu_packet_bytes
    } else {
        conf.hadoop_a_kv_per_packet * ctx.spec.avg_record_bytes.max(1)
    };

    let state = Rc::new(RefCell::new(ShufState {
        sources: (0..ctx.total_maps).map(|_| None).collect(),
        missing: BTreeSet::new(),
        cands: BTreeSet::new(),
        tails: BTreeSet::new(),
        est_packet_bytes,
        pending: VecDeque::new(),
        shuffled_bytes: 0,
        last_arrival_s: 0.0,
        resident_bytes: 0,
        spilled_bytes: 0,
    }));
    let arrived = Notify::new_named(&format!("r{}-packet-arrived", ctx.reduce_idx));
    let mem = Rc::new(MemBudget {
        capacity: conf.shuffle_buffer,
        outstanding: Cell::new(0),
    });

    // Attempt-scoped shutdown for the copier daemons (they live in the
    // TaskTracker's task group, so the node's death also reaps them), and a
    // counter the copiers bump when they see their server die.
    let stop_flag = Rc::new(Cell::new(false));
    let stop_note = Notify::new_named(&format!("r{}-attempt-shutdown", ctx.reduce_idx));
    let deaths_seen = Rc::new(Cell::new(0u64));
    // Set when a request could not be sent because the source's TaskTracker
    // has no endpoint — e.g. a map re-executed on a node that was down when
    // this attempt connected up front (so no death was ever *seen* here).
    // Arms the same reconnect sweep a death does.
    let no_ep = Rc::new(Cell::new(false));
    let stop_copiers = {
        let flag = Rc::clone(&stop_flag);
        let note = stop_note.clone();
        move || {
            flag.set(true);
            note.notify_all();
        }
    };

    // Receiver: one task per endpoint, buffering packets. A packet that
    // lands when the shuffle buffer is already full cannot stay in memory:
    // it is spilled to the reducer's local disk and read back when the
    // merge consumes it — this is what breaks Hadoop-A's stage overlap when
    // its fixed-count packets are huge (§IV-C). Each copier also watches its
    // server's liveness: the CQ never closes, so death is out of band.
    let spawn_copier = {
        let state = Rc::clone(&state);
        let arrived = arrived.clone();
        let sim = sim.clone();
        let mem = Rc::clone(&mem);
        let node = node.clone();
        let conf = Rc::clone(&conf);
        let obs = obs.clone();
        let group = ctx.tt.group.clone();
        let liveness = Rc::clone(&ctx.liveness);
        let stop_flag = Rc::clone(&stop_flag);
        let stop_note = stop_note.clone();
        let deaths_seen = Rc::clone(&deaths_seen);
        let (job_id, reduce_idx) = (ctx.job, ctx.reduce_idx);
        let spill_file = format!("{}_r{}_shufspill", ctx.job, ctx.reduce_idx);
        move |tt_i: usize, ep: Rc<EndPoint<ShufMsg>>, ep_epoch: u64| {
            let state = Rc::clone(&state);
            let arrived = arrived.clone();
            let sim2 = sim.clone();
            let mem = Rc::clone(&mem);
            let node2 = node.clone();
            let conf = Rc::clone(&conf);
            let obs2 = obs.clone();
            let live = Rc::clone(&liveness[tt_i]);
            let stop_flag = Rc::clone(&stop_flag);
            let stop_note = stop_note.clone();
            let deaths_seen = Rc::clone(&deaths_seen);
            let spill_file = spill_file.clone();
            let copier_name = format!("r{reduce_idx}-rdma-copier-tt{tt_i}");
            group
                .spawn_daemon(copier_name, async move {
                    loop {
                        if stop_flag.get() {
                            break;
                        }
                        let stopped = stop_note.notified();
                        let death = live.changed.notified();
                        let msg = match select2(ep.recv(), select2(death, stopped)).await {
                            Either::Left(Some(msg)) => msg,
                            Either::Left(None) => break,
                            Either::Right(Either::Left(())) => {
                                if live.alive() && live.epoch() == ep_epoch {
                                    continue; // not our death (e.g. a later restart's kill)
                                }
                                deaths_seen.set(deaths_seen.get() + 1);
                                arrived.notify_all();
                                break;
                            }
                            Either::Right(Either::Right(())) => break,
                        };
                        let ShufMsg::Response {
                            map_idx,
                            packet,
                            remaining_records,
                            total_records,
                            total_bytes,
                            ..
                        } = msg
                        else {
                            continue;
                        };
                        let spill = {
                            let mut st = state.borrow_mut();
                            st.shuffled_bytes += packet.bytes;
                            st.last_arrival_s = sim2.now().as_secs_f64();
                            st.missing.remove(&map_idx);
                            let src = st.src(map_idx);
                            src.total_records = Some(total_records);
                            src.total_bytes = Some(total_bytes);
                            src.delivered_records += packet.records;
                            src.delivered_bytes += packet.bytes;
                            src.fully_delivered = remaining_records == 0;
                            // Reserved packets always fit (the budget was held for
                            // them); only overdraft packets can overflow and spill.
                            let covered = src.reserved >= packet.bytes;
                            // Balance the reservation against what actually came.
                            if src.reserved > packet.bytes {
                                mem.release(src.reserved - packet.bytes);
                            }
                            src.reserved = 0;
                            src.inflight = false;
                            st.relist(map_idx);
                            let over =
                                !covered && st.resident_bytes + packet.bytes > conf.shuffle_buffer;
                            if packet.records > 0 {
                                st.src(map_idx).buffered_bytes += packet.bytes;
                                st.resident_bytes += packet.bytes;
                                if over {
                                    st.spilled_bytes += packet.bytes;
                                }
                                let bytes = packet.bytes;
                                st.pending.push_back((map_idx, packet, over));
                                over.then_some(bytes)
                            } else {
                                None
                            }
                        };
                        if let Some(bytes) = spill {
                            sim2.metrics()
                                .add("reduce.shuffle_spill_bytes", bytes as f64);
                            obs2.emit(|| Ev::Spill {
                                node: my_idx,
                                job: job_id.0,
                                reduce: reduce_idx,
                                bytes,
                            });
                            if variant.local_spill {
                                // OSU-IB reuses Hadoop's local spill machinery
                                // (§III-C-2: minimal changes to the existing merge).
                                let w = node2.fs.writer(&spill_file).expect("shuffle spill file");
                                w.append(bytes).await.expect("shuffle spill write");
                            }
                            // Hadoop-A's native-C merge has no reduce-side spill
                            // path: the overflowing packet is dropped and later
                            // refetched from the TaskTracker (charged at drain).
                        }
                        arrived.notify_all();
                    }
                })
                .detach();
        }
    };

    // Connect an endpoint to every live TaskTracker up front (§III-B-1: "one
    // RDMACopier sends such information to all available TaskTrackers").
    // Dead servers are skipped; if a source later lands on one (restart or
    // re-execution), the Phase A reconnect pass picks it up.
    let n_servers = ctx.servers.borrow().len();
    {
        let mut connected: Vec<(usize, Rc<EndPoint<ShufMsg>>, u64)> = Vec::new();
        for tt_i in 0..n_servers {
            if !ctx.liveness[tt_i].alive() {
                continue;
            }
            let epoch = ctx.liveness[tt_i].epoch();
            let connector = match &ctx.servers.borrow()[tt_i] {
                TtServerHandle::Rdma(c) => c.clone(),
                _ => panic!("RDMA reducer needs RDMA servers"),
            };
            if let Some(ep) = connector
                .try_connect_striped(node.id, variant.striped)
                .await
            {
                connected.push((tt_i, Rc::new(ep), epoch));
            }
        }
        for (tt_i, ep, epoch) in connected {
            eps.borrow_mut().insert(tt_i, Rc::clone(&ep));
            ep_epochs.borrow_mut().insert(tt_i, epoch);
            spawn_copier(tt_i, ep, epoch);
        }
    }

    // Sends the next packet request for `map_idx`. `forced` bypasses the
    // memory budget (stall recovery); otherwise the request is skipped when
    // the buffer has no room. Returns false (no request) when the source's
    // TaskTracker has no live endpoint.
    let send_request = {
        let state = Rc::clone(&state);
        let eps = Rc::clone(&eps);
        let mem = Rc::clone(&mem);
        let obs = obs.clone();
        let no_ep = Rc::clone(&no_ep);
        let job = ctx.job;
        let reduce_idx = ctx.reduce_idx;
        let attempt = ctx.attempt;
        move |map_idx: usize, budget: PacketBudget, est: u64, forced: bool| -> bool {
            let mut st = state.borrow_mut();
            let src = st.src(map_idx);
            if src.inflight || src.fully_delivered {
                return false;
            }
            let ep = match eps.borrow().get(&src.tt_idx) {
                Some(e) => Rc::clone(e),
                None => {
                    no_ep.set(true);
                    return false;
                }
            };
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
        let walk_all = fair_share.is_some() && eps.borrow().len() < n_servers;
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
                            // any request that was in flight to the dead node.
                            if s.reserved > 0 {
                                mem.release(s.reserved);
                                s.reserved = 0;
                            }
                            s.inflight = false;
                            s.tt_idx = tt_idx;
                            st.relist(map_idx);
                            true
                        }
                    }
                }
            };
            if want_request {
                if variant.eager_fetch {
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
        if deaths_seen.get() > 0 || !poisoned.is_empty() || no_ep.replace(false) {
            if let Some(tt_idx) = lost_source(&state.borrow(), &poisoned, &ep_dead) {
                stop_copiers();
                return Err(ReduceError::SourceLost { tt_idx });
            }
            // Reconnect to the (live) homes of still-pending sources whose
            // endpoint died — a restarted node, or a re-execution landing on
            // a TaskTracker that was down when we connected up front.
            let need: BTreeSet<usize> = state
                .borrow()
                .known()
                .filter(|(_, s)| {
                    !s.fully_delivered && ep_dead(s.tt_idx) && ctx.liveness[s.tt_idx].alive()
                })
                .map(|(_, s)| s.tt_idx)
                .collect();
            for tt in need {
                let epoch = ctx.liveness[tt].epoch();
                let connector = match &ctx.servers.borrow()[tt] {
                    TtServerHandle::Rdma(c) => c.clone(),
                    _ => panic!("RDMA reducer needs RDMA servers"),
                };
                if let Some(ep) = connector
                    .try_connect_striped(node.id, variant.striped)
                    .await
                {
                    let ep = Rc::new(ep);
                    eps.borrow_mut().insert(tt, Rc::clone(&ep));
                    ep_epochs.borrow_mut().insert(tt, epoch);
                    spawn_copier(tt, ep, epoch);
                }
            }
        }
        // Keep the pipeline fed while maps are still finishing (OSU): pull
        // each discovered source up to its fair share of the shuffle buffer,
        // overlapping the data movement with the map wave (§III-B-4).
        if variant.eager_fetch {
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
        // Wake on the next poll tick or on any packet arrival (copiers also
        // fire the arrival notify when they observe a server death).
        let n = arrived.notified();
        rmr_des::sync::select2(sim.sleep(conf.event_poll), n).await;
    }

    // ---- Phase B: priority-queue merge pipelined with reduce. ----
    // No new sources appear past this point, and every non-fully-delivered
    // source has delivered at least a header — so a server death in Phase B
    // either touches only fully-delivered sources (harmless) or fails the
    // attempt; there is no Phase B re-home/reconnect path.
    let watermark = if variant.byte_packets {
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

    let spill_file = format!("{}_r{}_shufspill", ctx.job, ctx.reduce_idx);
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
        if deaths_seen.get() > 0 || !poisoned.is_empty() {
            if let Some(tt) = lost_source(&state.borrow(), &poisoned, &ep_dead) {
                lost_tt = Some(tt);
                break;
            }
        }
        let (spilled, refetch) = spill_readback(&mut merge);
        if spilled > 0 {
            if variant.local_spill {
                // Read the spilled packets back from local disk.
                if node.fs.exists(&spill_file) {
                    let mut r = node.fs.reader(&spill_file).expect("spill file");
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
                node.compute(seg.records as f64 * k.log2() * conf.costs.sort_per_record_level)
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
                if deaths_seen.get() > 0 || !poisoned.is_empty() {
                    if let Some(tt) = lost_source(&state.borrow(), &poisoned, &ep_dead) {
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
    let (in_records, _in_bytes, out_bytes) = consumer.await;
    stop_copiers();
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
        output_bytes: out_bytes,
    })
}
