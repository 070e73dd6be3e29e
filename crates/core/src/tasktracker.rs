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

/// What a TaskTracker keeps per (job, map, reduce) it has served from: one
/// entry, so a request finds its cursor and its reader in one search.
struct ServeEntry {
    /// The reduce attempt being served. A newer attempt rewinds the entry
    /// (the retried reducer re-fetches from the head); an older attempt's
    /// request is stale.
    attempt: u32,
    cursor: SegmentCursor,
    /// The partition's sequential disk reader, once a request missed the
    /// cache. Taken out while a read is in flight (the `RefCell` must not
    /// stay borrowed across the await) and put back after it. Boxed: a
    /// reader is three times the rest of the entry, and most entries of a
    /// cached or drained map hold none.
    reader: Option<Box<FileReader>>,
}

type ServeState = BTreeMap<(JobId, usize, usize), ServeEntry>;

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
    /// Per-(job, map, reduce) serve cursors and disk readers.
    serving: RefCell<ServeState>,
    /// How many reduce partitions of each map have been fully served; at
    /// the map's partition count the cached copy is released (its useful
    /// life is over).
    served_parts: RefCell<BTreeMap<(JobId, usize), usize>>,
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
            served_parts: RefCell::new(BTreeMap::new()),
            c_cache_hit_bytes: sim.metrics().counter("tt.cache_hit_bytes"),
            c_disk_serve_bytes: sim.metrics().counter("tt.disk_serve_bytes"),
        })
    }

    /// The observability bus handle this TaskTracker (and code running on
    /// it, e.g. reduce attempts) emits to.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Open serving-side state: `(segment cursors, disk readers)` — exposed
    /// for `Runtime::dump()` snapshots. A reader out on a read in flight is
    /// not counted.
    pub fn serve_state_counts(&self) -> (usize, usize) {
        let serving = self.serving.borrow();
        let readers = serving.values().filter(|e| e.reader.is_some()).count();
        (serving.len(), readers)
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
        let key = (job, map_idx, reduce);
        let total = info.parts[reduce].clone();
        let (total_records, total_bytes) = (total.records, total.bytes);
        let fresh = || ServeEntry {
            attempt,
            cursor: SegmentCursor::new(total.clone()),
            reader: None,
        };
        // The one search for this request's state. The reader comes out with
        // the packet; whoever ends up holding it puts it back below.
        let (packet, remaining_records, mut reader) = {
            let mut serving = self.serving.borrow_mut();
            let ent = serving.entry(key).or_insert_with(fresh);
            if attempt > ent.attempt {
                // A newer reduce attempt re-fetches from the segment head:
                // rewind the cursor the dead attempt advanced (and drop its
                // reader, which is mid-file). If the old attempt had fully
                // drained the partition, undo its served_parts credit so the
                // cache release stays accurate.
                if ent.cursor.remaining_records() == 0 && total.records > 0 {
                    let mut served = self.served_parts.borrow_mut();
                    if let Some(e) = served.get_mut(&(job, map_idx)) {
                        *e = e.saturating_sub(1);
                    }
                }
                *ent = fresh();
            } else if attempt < ent.attempt {
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
            let packet = match budget {
                PacketBudget::Bytes(b) => ent.cursor.take_bytes(b),
                PacketBudget::Records(n) => ent.cursor.take_records(n),
            };
            (packet, ent.cursor.remaining_records(), ent.reader.take())
        };
        if remaining_records == 0 && packet.records > 0 {
            // This partition is fully shipped; once every reducer has
            // drained its partition the cached file has no future readers.
            let done = {
                let mut served = self.served_parts.borrow_mut();
                let e = served.entry((job, map_idx)).or_insert(0);
                *e += 1;
                *e >= info.parts.len()
            };
            if done {
                self.cache.remove((job, map_idx));
                // The map's readers go with it, this request's own included:
                // a last packet that misses is read through a new reader.
                reader = None;
                let parts = (job, map_idx, 0)..=(job, map_idx, usize::MAX);
                for (_, ent) in self.serving.borrow_mut().range_mut(parts) {
                    ent.reader = None;
                }
            }
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
            // Back into its entry — unless the job's serve state was dropped
            // while the read was in flight.
            if let Some(ent) = self.serving.borrow_mut().get_mut(&key) {
                ent.reader = Some(reader);
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
        self.serving.borrow_mut().retain(|(j, _, _), _| *j != job);
        self.served_parts.borrow_mut().retain(|(j, _), _| *j != job);
        self.cache.remove_job(job);
    }

    /// Drops *all* serving state and the whole PrefetchCache — node death.
    /// The in-heap state dies with the process; per-job hit/miss counters
    /// survive because `JobResult` reads them at commit.
    pub fn clear_serve_state(&self) {
        self.serving.borrow_mut().clear();
        self.served_parts.borrow_mut().clear();
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
        .spawn_daemon(format!("tt{tt_id}-http-listener"), async move {
            while let Some(conn) = listener.accept().await {
                let tt = Rc::clone(&tt);
                let servlets = servlets.clone();
                group
                    .spawn_daemon(format!("tt{tt_id}-http-conn"), async move {
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
        tt.group
            .clone()
            .spawn_daemon(format!("tt{tt_id}-rdma-responder-{i}"), async move {
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
        .spawn_daemon(format!("tt{tt_id}-rdma-receiver"), async move {
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
    use crate::mapoutput::MapOutputInfo;
    use crate::record::Segment;
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
        sim.spawn(async move {
            let w = fs2.writer(&f2).unwrap();
            w.append(bytes_total).await.unwrap();
        })
        .detach();
        sim.run(); // flush the write
        tt.outputs.insert(MapOutputInfo {
            job: J,
            map_idx,
            tt_idx: 0,
            node: tt.node.id,
            file,
            total_bytes: bytes_total,
            total_records: bytes_total / 100,
            parts: vec![
                Segment::synthetic(part_bytes / 100, part_bytes),
                Segment::synthetic(part_bytes / 100, part_bytes),
            ],
        });
    }

    #[test]
    fn http_server_streams_full_partition() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::Vanilla, false);
        register_output(&sim, &tt, 0, 4 << 20);
        let TtServerHandle::Http(handle) = server else {
            panic!("expected http")
        };
        let client_node = cluster.workers[1].id;
        let got = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
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
            got2.set((recs, bytes));
        })
        .detach();
        sim.run();
        assert_eq!(got.get(), ((4 << 20) / 100, 4 << 20));
    }

    #[test]
    fn rdma_server_serves_fixed_count_packets() {
        let (sim, cluster, tt, server) = setup(ShuffleKind::HadoopA, false);
        register_output(&sim, &tt, 3, 1 << 20);
        let TtServerHandle::Rdma(connector) = server else {
            panic!("expected rdma")
        };
        let client_node = cluster.workers[1].id;
        let got = Rc::new(std::cell::Cell::new(0u64));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
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
            got2.set(packet.records);
        })
        .detach();
        sim.run();
        assert_eq!(got.get(), 1000);
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
                parts: vec![Segment::synthetic(1, 100)],
            });
            let client = cluster.workers[1].id;
            let answers = Rc::new(std::cell::RefCell::new(Vec::new()));
            let seen = Rc::clone(&answers);
            sim.spawn(async move {
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
                    seen.borrow_mut().push(unavailable);
                }
            })
            .detach();
            sim.run();
            assert_eq!(*answers.borrow(), [true, true], "{kind:?}");
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
        let hit = Rc::new(std::cell::Cell::new(false));
        let hit2 = Rc::clone(&hit);
        sim.spawn(async move {
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
            hit2.set(from_cache);
        })
        .detach();
        sim.run();
        assert!(hit.get(), "served from PrefetchCache");
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
        let first_hit = Rc::new(std::cell::Cell::new(true));
        let fh = Rc::clone(&first_hit);
        sim.spawn(async move {
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
            fh.set(from_cache);
        })
        .detach();
        sim.run();
        assert!(!first_hit.get(), "cold cache misses");
        // The demand request staged the file for future hits.
        assert!(tt.cache.contains((J, 0)), "demand miss re-cached");
    }
}
