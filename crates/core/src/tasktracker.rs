//! The TaskTracker: task slots and the server side of all three shuffle
//! engines.
//!
//! TaskTrackers are cluster-lifetime services: one starts per worker when
//! the [`crate::runtime::Runtime`] comes up and it serves the map outputs
//! of *every* job submitted to that runtime, so all serving state is keyed
//! by [`JobId`].
//!
//! * Vanilla: an HTTP servlet pool (`tasktracker.http.threads`) streams whole
//!   partitions over socket connections, reading from local disk through the
//!   OS page cache.
//! * Hadoop-A: verbs endpoints; each request pulls a fixed kv-count packet
//!   that the DataEngine reads from disk — no cache of its own (§III-C-1).
//! * OSU-IB: the paper's `RDMAListener` adds every accepted UCR endpoint to
//!   the TaskTracker's end-point list, one `RDMAReceiver` pulls requests
//!   from all of them into the `DataRequestQueue`, and a pool of
//!   light-weight `RDMAResponder`s serves them — from the `PrefetchCache` on
//!   a hit, straight from disk on a miss (then re-caching at demand
//!   priority). An endpoint leaves the list when its reducer closes it, so a
//!   TaskTracker holds connection state for live reduce attempts only.
//!
//! Which flavour of server runs (and whether the cache is live) is decided
//! by the runtime's [`ShuffleKind`](crate::config::ShuffleKind).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_des::Counter;
use rmr_net::{
    listen, ucr_listen_into, EndPoint, EndpointSet, ListenerHandle, Network, UcrConnector,
};
use rmr_obs::{Ev, Recorder};
use rmr_store::FileReader;

use crate::cluster::NodeHandle;
use crate::config::{JobConf, CPU_SERDE_PER_BYTE};
use crate::faults::NodeLiveness;
use crate::mapoutput::MapOutputStore;
use crate::prefetch::{PrefetchCache, PrefetchRequest, Prefetcher, Priority};
use crate::proto::{PacketBudget, ShufMsg};
use crate::record::{Segment, SegmentCursor};
use crate::runtime::JobId;

/// `tasktracker.http.threads`: the vanilla server's servlet pool.
const HTTP_THREADS: u64 = 40;
/// RDMAResponder pool size (the verbs designs' server side).
const RESPONDER_THREADS: usize = 8;
/// MapOutputPrefetcher daemon pool size.
const PREFETCHER_THREADS: usize = 4;

/// Server address of one TaskTracker's shuffle service.
#[derive(Clone)]
pub enum TtServerHandle {
    /// Vanilla: HTTP over sockets.
    Http(ListenerHandle<ShufMsg>),
    /// Hadoop-A and OSU-IB: UCR endpoints over verbs.
    Rdma(UcrConnector<ShufMsg>),
}

/// Where one reduce partition's serving stands: the partition itself stays
/// in the map-output registry, and each request resumes a cursor over it
/// from here. A default slot is a partition nobody has asked for yet.
#[derive(Default)]
struct ServeSlot {
    /// The reduce attempt being served. A newer attempt rewinds the slot
    /// (the retried reducer re-fetches from the head); an older attempt's
    /// request is stale.
    attempt: u32,
    /// The cursor's [`SegmentCursor::position`]: records and bytes served.
    rec_pos: u64,
    byte_pos: u64,
    /// The partition's sequential disk reader, once a request missed the
    /// cache. Taken out while a read is in flight (the `RefCell` must not
    /// stay borrowed across the await) and put back after it. Boxed: a
    /// reader (48 B) is twice the rest of the slot, and most slots of a
    /// cached or drained map hold none.
    reader: Option<Box<FileReader>>,
}

const _: () = assert!(std::mem::size_of::<ServeSlot>() <= 32);

/// What a TaskTracker keeps per (job, map) it has served from: a slot per
/// reduce partition, all allocated at the map's first request, so a request
/// finds its state in one search.
struct MapServe {
    /// How many of the map's partitions have been fully served; at the
    /// partition count the cached copy is released (its useful life is
    /// over).
    served: usize,
    slots: Box<[ServeSlot]>,
}

type ServeState = BTreeMap<(JobId, usize), MapServe>;

/// One TaskTracker.
pub struct TaskTracker {
    /// Worker index.
    pub idx: usize,
    /// The host's resources.
    pub node: NodeHandle,
    /// Global map-output registry (this TT serves only its own entries).
    pub outputs: MapOutputStore,
    /// The PrefetchCache (OSU-IB), shared by every job on the runtime.
    pub cache: PrefetchCache,
    /// The MapOutputPrefetcher daemon pool. In a `RefCell` because a node
    /// restart replaces the pool (the old daemons died with the group).
    pub prefetcher: RefCell<Prefetcher>,
    /// Map slots (shared by all concurrent jobs).
    pub map_slots: Semaphore,
    /// Reduce slots (shared by all concurrent jobs).
    pub reduce_slots: Semaphore,
    /// Every task running *on* this node — the heartbeat daemon, shuffle
    /// servers, prefetcher pool, and task attempts — joins this group, so
    /// `kill_node` is one `abort()`.
    pub group: TaskGroup,
    /// Out-of-band failure detection: whether this node is up, and under
    /// which restart epoch (RDMA reducers check it when the runtime signals a
    /// change; a verbs CQ does not close on peer death).
    pub liveness: Rc<NodeLiveness>,
    sim: Sim,
    /// Observability bus handle (off by default; near-zero cost when off).
    obs: Recorder,
    /// Whether the serve path consults the PrefetchCache (the design decides).
    cache_enabled: bool,
    /// Per-(job, map) serve slots: cursor positions and disk readers.
    serving: RefCell<ServeState>,
    /// `tt.cache_hit_bytes` / `tt.disk_serve_bytes`, shared by every
    /// TaskTracker of the simulation.
    c_cache_hit_bytes: Counter,
    c_disk_serve_bytes: Counter,
}

impl TaskTracker {
    /// Creates a TaskTracker on `node`, sized by `conf`'s cluster-wide
    /// `tasktracker.*` keys (slots, cache capacity). `cache_enabled` turns
    /// the serve path's PrefetchCache on (`ShuffleKind::server_cache` ANDed
    /// with `mapred.local.caching.enabled`).
    pub fn new(
        sim: &Sim,
        idx: usize,
        node: NodeHandle,
        conf: &JobConf,
        outputs: MapOutputStore,
        cache_enabled: bool,
        obs: Recorder,
    ) -> Rc<Self> {
        let cache_bytes = if cache_enabled {
            conf.prefetch_cache_bytes
        } else {
            0
        };
        let cache = PrefetchCache::new(cache_bytes);
        cache.set_obs(&obs, idx);
        let group = sim.group();
        let prefetcher = Prefetcher::spawn_in(sim, &group, &node.fs, &cache, PREFETCHER_THREADS);
        Rc::new(TaskTracker {
            idx,
            map_slots: Semaphore::new(conf.map_slots as u64),
            reduce_slots: Semaphore::new(conf.reduce_slots as u64),
            node,
            outputs,
            cache,
            prefetcher: RefCell::new(prefetcher),
            group,
            liveness: NodeLiveness::new(),
            sim: sim.clone(),
            obs,
            cache_enabled,
            serving: RefCell::new(BTreeMap::new()),
            c_cache_hit_bytes: sim.metrics().counter("tt.cache_hit_bytes"),
            c_disk_serve_bytes: sim.metrics().counter("tt.disk_serve_bytes"),
        })
    }

    /// The observability bus handle this TaskTracker (and code running on
    /// it, e.g. reduce attempts) emits to.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Open serving-side state: `(serve slots of served maps, disk readers)`
    /// — exposed for `Runtime::dump()` snapshots. A reader out on a read in
    /// flight is not counted.
    pub fn serve_state_counts(&self) -> (usize, usize) {
        let serving = self.serving.borrow();
        let slots = serving.values().flat_map(|m| &m.slots[..]);
        let readers = slots.clone().filter(|s| s.reader.is_some()).count();
        (slots.count(), readers)
    }

    /// Called when a map completes on this TT: kicks the prefetcher
    /// (§III-B-3: "caches intermediate map output as soon as it gets
    /// available").
    pub fn on_map_output(&self, job: JobId, map_idx: usize) {
        if self.cache_enabled {
            if let Some(info) = self.outputs.get(job, map_idx) {
                self.prefetcher.borrow().request(PrefetchRequest {
                    job,
                    map_idx,
                    file: info.file.clone(),
                    bytes: info.total_bytes,
                    priority: Priority::Prefetch,
                });
            }
        }
    }

    /// Serves one shuffle request, charging disk/cache/CPU, and returns the
    /// response message — [`ShufMsg::Unavailable`] if this TaskTracker does
    /// not hold the output.
    pub async fn serve(
        &self,
        job: JobId,
        map_idx: usize,
        reduce: usize,
        attempt: u32,
        budget: PacketBudget,
    ) -> ShufMsg {
        let serve_t0_ns = self.obs.now_ns();
        // The store is cluster-wide; this server holds only what it ran.
        let Some(info) = (self.outputs.get(job, map_idx)).filter(|i| i.tt_idx == self.idx) else {
            return ShufMsg::Unavailable { map_idx, reduce };
        };
        let total = info.parts.get(reduce);
        let (total_records, total_bytes) = (total.records, total.bytes);
        // The one search for this request's state. The reader comes out with
        // the packet; whoever ends up holding it puts it back below.
        let (packet, remaining_records, mut reader, done) = {
            let mut serving = self.serving.borrow_mut();
            let map = serving.entry((job, map_idx)).or_insert_with(|| MapServe {
                served: 0,
                slots: (0..info.parts.len())
                    .map(|_| ServeSlot::default())
                    .collect(),
            });
            let slot = &mut map.slots[reduce];
            if attempt > slot.attempt {
                // A newer reduce attempt re-fetches from the segment head:
                // rewind the cursor the dead attempt advanced (and drop its
                // reader, which is mid-file). If the old attempt had fully
                // drained the partition, undo its `served` credit so the
                // cache release stays accurate.
                if slot.rec_pos == total.records && total.records > 0 {
                    map.served = map.served.saturating_sub(1);
                }
                *slot = ServeSlot {
                    attempt,
                    ..ServeSlot::default()
                };
            } else if attempt < slot.attempt {
                // Stale request from a superseded (dead) attempt: answer
                // empty-and-complete without touching the live cursor.
                return ShufMsg::Response {
                    map_idx,
                    reduce,
                    packet: Segment::synthetic(0, 0),
                    remaining_records: 0,
                    total_records,
                    total_bytes,
                    from_cache: false,
                };
            }
            let mut cursor = SegmentCursor::resume(total, (slot.rec_pos, slot.byte_pos));
            let packet = match budget {
                PacketBudget::Bytes(b) => cursor.take_bytes(b),
                PacketBudget::Records(n) => cursor.take_records(n),
            };
            (slot.rec_pos, slot.byte_pos) = cursor.position();
            let remaining_records = cursor.remaining_records();
            let reader = slot.reader.take();
            // This partition is fully shipped; once every reducer has
            // drained its partition the cached file has no future readers.
            let done = remaining_records == 0 && packet.records > 0 && {
                map.served += 1;
                map.served >= map.slots.len()
            };
            if done {
                // The map's readers go with it, this request's own included:
                // a last packet that misses is read through a new reader.
                for slot in map.slots.iter_mut() {
                    slot.reader = None;
                }
            }
            (packet, remaining_records, reader, done)
        };
        if done {
            self.cache.remove((job, map_idx));
            reader = None;
        }

        // Where do the bytes come from?
        let mut from_cache = false;
        if packet.bytes > 0 {
            if self.cache_enabled && self.cache.lookup((job, map_idx)) {
                from_cache = true;
                self.c_cache_hit_bytes.add(packet.bytes as f64);
                self.obs.emit(|| Ev::CacheHit {
                    node: self.idx,
                    job: job.0,
                    map_idx,
                    bytes: packet.bytes,
                });
            } else {
                if self.cache_enabled {
                    self.obs.emit(|| Ev::CacheMiss {
                        node: self.idx,
                        job: job.0,
                        map_idx,
                        bytes: packet.bytes,
                    });
                }
                // Read from disk (through the page cache) with a sequential
                // per-(job, map, reduce) stream.
                let disk = reader.get_or_insert_with(|| {
                    Box::new(self.node.fs.reader(&info.file).expect("map output file"))
                });
                disk.read_exact(packet.bytes)
                    .await
                    .expect("map output shorter than index");
                self.c_disk_serve_bytes.add(packet.bytes as f64);
                if self.cache_enabled {
                    // Demand miss: stage the whole file at high priority so
                    // successive requests hit (§III-B-3).
                    self.prefetcher.borrow().request(PrefetchRequest {
                        job,
                        map_idx,
                        file: info.file.clone(),
                        bytes: info.total_bytes,
                        priority: Priority::Demand,
                    });
                }
            }
        }
        if let Some(reader) = reader {
            // Back into its slot — unless the job's serve state was dropped
            // while the read was in flight.
            if let Some(map) = self.serving.borrow_mut().get_mut(&(job, map_idx)) {
                map.slots[reduce].reader = Some(reader);
            }
        }
        if packet.bytes > 0 {
            // Response staging cost (building the packet buffers).
            self.node
                .compute(CPU_SERDE_PER_BYTE * packet.bytes as f64)
                .await;
        }

        self.obs.emit(|| Ev::ShuffleResponse {
            node: self.idx,
            job: job.0,
            map_idx,
            reduce,
            bytes: packet.bytes,
            records: packet.records,
            from_cache,
            serve_ns: self
                .obs
                .now_ns()
                .unwrap_or(0)
                .saturating_sub(serve_t0_ns.unwrap_or(0)),
        });

        ShufMsg::Response {
            map_idx,
            reduce,
            packet,
            remaining_records,
            total_records,
            total_bytes,
            from_cache,
        }
    }

    /// Drops all serve state of a finished job (commit-time cleanup).
    pub fn cleanup_job(&self, job: JobId) {
        self.serving.borrow_mut().retain(|(j, _), _| *j != job);
        self.cache.remove_job(job);
    }

    /// Drops *all* serving state and the whole PrefetchCache — node death.
    /// The in-heap state dies with the process; per-job hit/miss counters
    /// survive because `JobResult` reads them at commit.
    pub fn clear_serve_state(&self) {
        self.serving.borrow_mut().clear();
        self.cache.clear();
    }

    /// Spawns a fresh prefetcher pool into the (restarted) node's group.
    /// The old pool's daemons were aborted with the previous incarnation.
    pub fn respawn_prefetcher(&self) {
        *self.prefetcher.borrow_mut() = Prefetcher::spawn_in(
            &self.sim,
            &self.group,
            &self.node.fs,
            &self.cache,
            PREFETCHER_THREADS,
        );
    }
}

/// Vanilla: HTTP servlets. Each accepted connection is handled by a task;
/// concurrency is bounded by the servlet thread pool. A request streams
/// the whole partition in pieces of its budget (the vanilla reducer asks
/// for [`STREAM_CHUNK`](crate::config::STREAM_CHUNK)), reading each piece
/// from disk before sending it.
pub(crate) fn start_http_server(tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
    let listener = listen::<ShufMsg>(net, tt.node.id);
    let handle = listener.handle();
    let tt_id = tt.node.id.0;
    let servlets = Semaphore::new_named(&format!("tt{tt_id}-http-servlets"), HTTP_THREADS);
    let tt = Rc::clone(tt);
    let group = tt.group.clone();
    group
        .clone()
        .spawn_named(Component::HttpListener { tt: tt_id }, async move {
            while let Some(conn) = listener.accept().await {
                let tt = Rc::clone(&tt);
                let servlets = servlets.clone();
                group
                    .spawn_named(Component::HttpConn { tt: tt_id }, async move {
                        while let Some(msg) = conn.recv().await {
                            let ShufMsg::Request {
                                job,
                                map_idx,
                                reduce,
                                attempt,
                                budget,
                            } = msg
                            else {
                                continue;
                            };
                            let _permit = servlets.acquire(1).await;
                            // Stream the partition in chunks: read, then send.
                            loop {
                                let resp = tt.serve(job, map_idx, reduce, attempt, budget).await;
                                // The last packet ends the stream, and so
                                // does `Unavailable`.
                                let last = !matches!(
                                    &resp,
                                    ShufMsg::Response {
                                        remaining_records: 1..,
                                        ..
                                    }
                                );
                                if conn.send(resp).await.is_err() {
                                    return; // reducer hung up
                                }
                                if last {
                                    break;
                                }
                            }
                        }
                    })
                    .detach();
            }
        })
        .detach();
    TtServerHandle::Http(handle)
}

/// One `DataRequestQueue` entry. Hadoop-A's reducers ask every map for its
/// header as soon as it completes, so thousands of these can wait at one
/// TaskTracker; the indices are `u32` to keep an entry at 48 bytes.
struct DataRequest {
    ep: EndPoint<ShufMsg>,
    job: JobId,
    map_idx: u32,
    reduce: u32,
    attempt: u32,
    budget: PacketBudget,
}

const _: () = assert!(std::mem::size_of::<DataRequest>() == 48);

/// Hadoop-A and OSU-IB: `RDMAListener` + the one `RDMAReceiver` +
/// `DataRequestQueue` + `RDMAResponder` pool (§III-B-1).
pub(crate) fn start_rdma_server(tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
    // RDMAListener: the server end of every connection joins this list as
    // it is established, and leaves it when the reducer closes its end.
    let endpoints = EndpointSet::<ShufMsg>::new();
    let connector = ucr_listen_into(net, tt.node.id, &endpoints);
    let tt_id = tt.node.id.0;

    let (req_tx, req_rx) = channel_named::<DataRequest>(&format!("tt{tt_id}-data-request-queue"));

    // RDMAResponder pool.
    for i in 0..RESPONDER_THREADS {
        let rx = req_rx.clone();
        let tt = Rc::clone(tt);
        let tag = Component::RdmaResponder {
            tt: tt_id,
            thread: i as u32,
        };
        tt.group
            .clone()
            .spawn_named(tag, async move {
                while let Some(req) = rx.recv().await {
                    let (map_idx, reduce) = (req.map_idx as usize, req.reduce as usize);
                    let resp = tt
                        .serve(req.job, map_idx, reduce, req.attempt, req.budget)
                        .await;
                    req.ep.send(resp).await;
                }
            })
            .detach();
    }

    // RDMAReceiver: one task for the whole list. It owns the list, so the
    // node's death (the group's abort) closes every endpoint with it.
    tt.group
        .spawn_named(Component::RdmaReceiver { tt: tt_id }, async move {
            loop {
                let (ep, msg) = endpoints.recv().await;
                ep.replenish();
                if let ShufMsg::Request {
                    job,
                    map_idx,
                    reduce,
                    attempt,
                    budget,
                } = msg
                {
                    let _ = req_tx.send_now(DataRequest {
                        ep,
                        job,
                        map_idx: u32::try_from(map_idx).expect("map index fits u32"),
                        reduce: u32::try_from(reduce).expect("reduce index fits u32"),
                        attempt,
                        budget,
                    });
                }
            }
        })
        .detach();
    TtServerHandle::Rdma(connector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, NodeSpec};
    use crate::config::ShuffleKind;
    use crate::mapoutput::{MapOutputInfo, Partitions};
    use rmr_hdfs::HdfsConfig;
    use rmr_net::FabricParams;

    const J: JobId = JobId(0);

    fn setup(kind: ShuffleKind, caching: bool) -> (Sim, Cluster, Rc<TaskTracker>, TtServerHandle) {
        let sim = Sim::new(7);
        let cluster = Cluster::build(
            &sim,
            if kind.uses_rdma() {
                FabricParams::ib_verbs_qdr()
            } else {
                FabricParams::ipoib_qdr()
            },
            &[NodeSpec::westmere_compute(), NodeSpec::westmere_compute()],
            HdfsConfig::default(),
        );
        let outputs = MapOutputStore::new();
        let tt = TaskTracker::new(
            &sim,
            0,
            cluster.workers[0].clone(),
            &JobConf::default(),
            outputs.clone(),
            kind.server_cache() && caching,
            Recorder::off(),
        );
        let server = kind.start_server(&tt, &cluster.net);
        (sim, cluster, tt, server)
    }

    fn register_output(sim: &Sim, tt: &Rc<TaskTracker>, map_idx: usize, part_bytes: u64) {
        // Write the file so disk reads have something to charge.
        let fs = tt.node.fs.clone();
        let file = format!("j0_map_{map_idx}.out");
        let bytes_total = part_bytes * 2; // two partitions
        let f2 = file.clone();
        let fs2 = fs.clone();
        sim.block_on(sim.spawn(async move {
            let w = fs2.writer(&f2).unwrap();
            w.append(bytes_total).await.unwrap();
        })); // flush the write
        tt.outputs.insert(MapOutputInfo {
            job: J,
            map_idx,
            tt_idx: 0,
            node: tt.node.id,
            file,
            total_bytes: bytes_total,
            total_records: bytes_total / 100,
            parts: Partitions::Even {
                records: 2 * (part_bytes / 100),
                bytes: bytes_total,
                n: 2,
            },
        });
    }

    /// Serves one request of reduce attempt `attempt` for partition
    /// `reduce` of map 0, `budget` bytes at most; returns the packet's
    /// records, the records the answer says are left, and whether the map's
    /// copy was cached right after the answer (a miss re-stages it later).
    fn serve_once(
        sim: &Sim,
        tt: &Rc<TaskTracker>,
        reduce: usize,
        attempt: u32,
        budget: u64,
    ) -> (u64, u64, bool) {
        let tt = Rc::clone(tt);
        sim.block_on(sim.spawn(async move {
            let resp = tt
                .serve(J, 0, reduce, attempt, PacketBudget::Bytes(budget))
                .await;
            let ShufMsg::Response {
                packet,
                remaining_records,
                ..
            } = resp
            else {
                panic!("the output is held here")
            };
            let cached = tt.cache.contains((J, 0));
            (packet.records, remaining_records, cached)
        }))
    }

    /// The serve rules a retried reducer relies on: a newer attempt rewinds
    /// a drained partition and takes back its drain credit, a late request
    /// of the superseded attempt is answered empty and complete without
    /// moving the live cursor, and the map's cached copy goes exactly once,
    /// when its last partition drains.
    #[test]
    fn retried_reducers_rewind_and_the_cache_copy_goes_once() {
        let (sim, _cluster, tt, _server) = setup(ShuffleKind::OsuIb, true);
        register_output(&sim, &tt, 0, 1 << 20);
        let staged = || tt.cache.insert((J, 0), 2 << 20, Priority::Prefetch);
        assert!(staged());
        let part = (1 << 20) / 100;
        let (all, half) = (u64::MAX, 512 << 10);

        // Attempt 0 drains partition 0: one of two partitions done.
        assert_eq!(serve_once(&sim, &tt, 0, 0, all), (part, 0, true));
        // Attempt 1 starts partition 0 over from its head.
        let (first, left, _) = serve_once(&sim, &tt, 0, 1, half);
        assert!(first > 0 && left > 0 && first + left == part);
        // A late request of attempt 0 gets the empty, complete answer ...
        assert_eq!(serve_once(&sim, &tt, 0, 0, all), (0, 0, true));
        // ... and attempt 1 goes on where it was. Partition 0 drained twice
        // counts once: the copy stays until partition 1 drains too.
        let drained = serve_once(&sim, &tt, 0, 1, all);
        assert_eq!(drained, (left, 0, true), "released before partition 1");
        let last = serve_once(&sim, &tt, 1, 0, all);
        assert_eq!(last, (part, 0, false), "released at the last drain");
        // Requests after the release release nothing more.
        assert!(staged());
        assert_eq!(serve_once(&sim, &tt, 1, 0, all), (0, 0, true));
        assert_eq!(serve_once(&sim, &tt, 0, 1, all), (0, 0, true));
        assert_eq!(serve_once(&sim, &tt, 0, 0, all), (0, 0, true));
    }

    #[test]
    fn http_server_streams_full_partition() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::Vanilla, false);
        register_output(&sim, &tt, 0, 4 << 20);
        let TtServerHandle::Http(handle) = server else {
            panic!("expected http")
        };
        let client_node = cluster.workers[1].id;
        let got = sim.block_on(sim.spawn(async move {
            let conn = handle.connect(client_node).await;
            conn.send(ShufMsg::Request {
                job: J,
                map_idx: 0,
                reduce: 1,
                attempt: 0,
                budget: PacketBudget::Bytes(u64::MAX),
            })
            .await
            .unwrap();
            let mut bytes = 0;
            let mut recs = 0;
            loop {
                let Some(ShufMsg::Response {
                    packet,
                    remaining_records,
                    ..
                }) = conn.recv().await
                else {
                    panic!("conn closed early")
                };
                bytes += packet.bytes;
                recs += packet.records;
                if remaining_records == 0 {
                    break;
                }
            }
            (recs, bytes)
        }));
        assert_eq!(got, ((4 << 20) / 100, 4 << 20));
    }

    #[test]
    fn rdma_server_serves_fixed_count_packets() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::HadoopA, false);
        register_output(&sim, &tt, 3, 1 << 20);
        let TtServerHandle::Rdma(connector) = server else {
            panic!("expected rdma")
        };
        let client_node = cluster.workers[1].id;
        let got = sim.block_on(sim.spawn(async move {
            let ep = connector.connect(client_node).await;
            ep.send(ShufMsg::Request {
                job: J,
                map_idx: 3,
                reduce: 0,
                attempt: 0,
                budget: PacketBudget::Records(1000),
            })
            .await;
            let Some(ShufMsg::Response { packet, .. }) = ep.recv().await else {
                panic!("no response")
            };
            packet.records
        }));
        assert_eq!(got, 1000);
    }

    /// A request for an output this TaskTracker does not hold — no map ran
    /// it, or another TaskTracker did — is answered `Unavailable`.
    #[test]
    fn servers_answer_for_outputs_they_do_not_hold() {
        for kind in [ShuffleKind::Vanilla, ShuffleKind::HadoopA] {
            let (sim, cluster, tt, server) = setup(kind, false);
            tt.outputs.insert(MapOutputInfo {
                job: J,
                map_idx: 1,
                tt_idx: 1,
                node: cluster.workers[1].id,
                file: "j0_map_1.out".into(),
                total_bytes: 100,
                total_records: 1,
                parts: Partitions::Even {
                    records: 1,
                    bytes: 100,
                    n: 1,
                },
            });
            let client = cluster.workers[1].id;
            let answers = sim.block_on(sim.spawn(async move {
                let mut answers = Vec::new();
                for map_idx in [2, 1] {
                    let req = ShufMsg::Request {
                        job: J,
                        map_idx,
                        reduce: 0,
                        attempt: 0,
                        budget: PacketBudget::Bytes(u64::MAX),
                    };
                    let answer = match &server {
                        TtServerHandle::Http(h) => {
                            let conn = h.connect(client).await;
                            conn.send(req).await.expect("connected");
                            conn.recv().await
                        }
                        TtServerHandle::Rdma(c) => {
                            let ep = c.connect(client).await;
                            ep.send(req).await;
                            ep.recv().await
                        }
                    };
                    let unavailable = matches!(answer, Some(ShufMsg::Unavailable { map_idx: m, .. }) if m == map_idx);
                    answers.push(unavailable);
                }
                answers
            }));
            assert_eq!(answers, [true, true], "{kind:?}");
        }
    }

    #[test]
    fn osu_cache_hits_after_prefetch() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::OsuIb, true);
        register_output(&sim, &tt, 0, 1 << 20);
        tt.on_map_output(J, 0); // trigger prefetch
        sim.run(); // let the prefetcher stage the file
        assert!(tt.cache.contains((J, 0)), "prefetcher staged the output");
        let TtServerHandle::Rdma(connector) = server else {
            panic!("expected rdma")
        };
        let client_node = cluster.workers[1].id;
        let hit = sim.block_on(sim.spawn(async move {
            let ep = connector.connect(client_node).await;
            ep.send(ShufMsg::Request {
                job: J,
                map_idx: 0,
                reduce: 0,
                attempt: 0,
                budget: PacketBudget::Bytes(256 << 10),
            })
            .await;
            let Some(ShufMsg::Response { from_cache, .. }) = ep.recv().await else {
                panic!("no response")
            };
            from_cache
        }));
        assert!(hit, "served from PrefetchCache");
    }

    #[test]
    fn osu_miss_reads_disk_and_recaches() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::OsuIb, true);
        register_output(&sim, &tt, 0, 1 << 20);
        // No on_map_output: cache cold.
        let TtServerHandle::Rdma(connector) = server else {
            panic!("expected rdma")
        };
        let client_node = cluster.workers[1].id;
        let first_hit = sim.block_on(sim.spawn(async move {
            let ep = connector.connect(client_node).await;
            ep.send(ShufMsg::Request {
                job: J,
                map_idx: 0,
                reduce: 0,
                attempt: 0,
                budget: PacketBudget::Bytes(64 << 10),
            })
            .await;
            let Some(ShufMsg::Response { from_cache, .. }) = ep.recv().await else {
                panic!()
            };
            from_cache
        }));
        assert!(!first_hit, "cold cache misses");
        // The demand request staged the file for future hits.
        assert!(tt.cache.contains((J, 0)), "demand miss re-cached");
    }
}
