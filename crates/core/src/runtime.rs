//! The persistent cluster runtime: a long-lived JobTracker-side control
//! plane that schedules task attempts from *multiple concurrent jobs* onto
//! shared per-node task slots.
//!
//! [`Runtime::start`] brings the cluster services up once — a TaskTracker
//! and its shuffle server on every worker, a heartbeat daemon per
//! TaskTracker — and they then serve every job submitted over the runtime's
//! lifetime. [`Runtime::submit`] enqueues a job (splits computed, a
//! per-job `JobTracker` created); each heartbeat walks the unfinished jobs
//! in submission order, ranked by queue under [`SchedulePolicy::Capacity`],
//! handing the node's free slots to jobs until slots or work run out.
//! [`crate::job::run_job`] survives as a thin single-job wrapper over this
//! module. Node kill/restart and fault plans live in its `lifecycle` child.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_net::NodeId;
use rmr_obs::{
    AttemptOutcome, Ev, JobSnapshot, JobState, NodeSnapshot, Recorder, RuntimeSnapshot, TaskFlavor,
};

use crate::cluster::Cluster;
use crate::combine::NodeCombiner;
use crate::config::{JobConf, ShuffleKind, EVENT_POLL};
use crate::faults::NodeLiveness;
use crate::jobtracker::{JobTracker, MapTaskDesc};
use crate::mapoutput::{MapOutputInfo, MapOutputStore};
use crate::maptask::run_map;
use crate::reduce::common::{ReduceCtx, ReduceError, ReduceStats};
use crate::spec::JobSpec;
use crate::tasktracker::{TaskTracker, TtServerHandle};

mod lifecycle;

/// Heartbeat RPC payload size on the wire.
const HEARTBEAT_BYTES: u64 = 1024;
/// `tasktracker.heartbeat` interval.
const HEARTBEAT: SimDuration = SimDuration::from_secs(3);
/// Fixed wall-clock cost of launching a task attempt (JVM spawn +
/// localisation; Hadoop 0.20 has no JVM reuse by default).
const TASK_LAUNCH_OVERHEAD: SimDuration = SimDuration::from_millis(1_200);
/// `mapred.reduce.slowstart.completed.maps`.
const REDUCE_SLOWSTART: f64 = 0.05;

/// Identifier of one submitted job, unique within a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// Snapshot of the runtime's job-keyed state sizes (see
/// [`Runtime::state_footprint`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StateFootprint {
    /// Jobs still running (in the `jobs` map).
    pub in_flight_jobs: usize,
    /// Finished jobs whose results nobody has joined yet.
    pub unjoined_finished: usize,
    /// Map outputs retained across all TaskTracker stores.
    pub tt_outputs: usize,
    /// Jobs the PrefetchCaches still track admission stats for.
    pub tt_cache_jobs: usize,
    /// Shuffle-serving cursors across TaskTrackers: a slot per reduce
    /// partition of every map served from.
    pub tt_serve_cursors: usize,
    /// Open shuffle-serving disk readers across TaskTrackers.
    pub tt_serve_readers: usize,
    /// Reducer connections the TaskTrackers' RDMA servers still hold an
    /// endpoint for (released when the reducer closes its end).
    pub tt_endpoints: usize,
    /// TaskTrackers currently killed (blacklisted until restart).
    pub down_nodes: usize,
}

impl StateFootprint {
    /// Total job-keyed entries held anywhere (plus down nodes: a drained
    /// cluster has everything back up).
    pub fn total(&self) -> usize {
        self.in_flight_jobs
            + self.unjoined_finished
            + self.tt_outputs
            + self.tt_cache_jobs
            + self.tt_serve_cursors
            + self.tt_serve_readers
            + self.tt_endpoints
            + self.down_nodes
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// How heartbeats divide a node's free slots among concurrent jobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Oldest job first: a job ahead in the queue takes every slot it can
    /// use before the next job sees any (Hadoop's default JobQueue).
    #[default]
    Fifo,
    /// Hadoop capacity scheduler: jobs are submitted to queues
    /// ([`JobConf::queue`]), each with a guaranteed share of the cluster's
    /// slot pools; slots a queue is not using spill over to queues with
    /// demand (work conservation).
    Capacity(CapacityPlan),
}

/// One queue's guaranteed share of the cluster slot pools, in per-mille
/// (integer math keeps scheduling decisions exactly reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueShare {
    /// Queue (tenant) id, matched against [`JobConf::queue`].
    pub queue: u32,
    /// Guaranteed fraction of each slot pool, per-mille (300 = 30%).
    pub share_mille: u32,
}

/// Capacity-scheduler configuration: per-queue guarantees. Queues absent
/// from `shares` have no guarantee — their jobs run purely on spillover
/// slots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CapacityPlan {
    /// Guaranteed shares, one entry per queue.
    pub shares: Vec<QueueShare>,
}

impl CapacityPlan {
    /// A plan from `(queue, share_mille)` pairs.
    pub fn new(shares: &[(u32, u32)]) -> Self {
        CapacityPlan {
            shares: shares
                .iter()
                .map(|&(queue, share_mille)| QueueShare { queue, share_mille })
                .collect(),
        }
    }

    /// A no-op that returns `self`; it stays because `benchmark/` calls it.
    pub fn with_preemption(self) -> Self {
        self
    }

    /// `queue`'s guaranteed slot count out of a pool of `pool` slots.
    pub fn guaranteed(&self, queue: u32, pool: usize) -> usize {
        self.shares
            .iter()
            .find(|s| s.queue == queue)
            .map(|s| pool * s.share_mille as usize / 1000)
            .unwrap_or(0)
    }
}

/// Results of one job run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// The engine that ran it.
    pub shuffle: ShuffleKind,
    /// Job execution time, seconds (submission to last reduce commit).
    pub duration_s: f64,
    /// Virtual time the job was submitted.
    pub start_s: f64,
    /// Virtual time the last map finished.
    pub map_phase_end_s: f64,
    /// Virtual time the job finished.
    pub end_s: f64,
    /// Map task count.
    pub maps: usize,
    /// Reduce task count.
    pub reduces: usize,
    /// Input bytes read from HDFS.
    pub input_bytes: u64,
    /// Intermediate bytes shuffled.
    pub shuffled_bytes: u64,
    /// Output bytes written to HDFS.
    pub output_bytes: u64,
    /// PrefetchCache hits this job saw across TaskTrackers (OSU-IB).
    pub cache_hits: u64,
    /// PrefetchCache misses.
    pub cache_misses: u64,
    /// Map attempts that failed (fault injection) and were re-executed.
    pub failed_map_attempts: usize,
    /// Reduce attempts that failed and were re-executed.
    pub failed_reduce_attempts: usize,
    /// Seconds between submission and the first task attempt launching
    /// (time spent queued behind other jobs).
    pub queue_wait_s: f64,
    /// Fraction of the cluster's slot-seconds this job's attempts occupied
    /// while it was in the system (slot-seconds used / (duration × workers ×
    /// slots per worker)).
    pub slot_occupancy: f64,
    /// Raw slot-seconds all attempts consumed (fairness accounting input).
    pub slot_secs: f64,
    /// The capacity queue (tenant) the job was submitted to.
    pub queue: u32,
    /// Per-reducer phase stats.
    pub reduce_stats: Vec<ReduceStats>,
}

/// One unfinished job in the system: its scheduler and progress counters.
struct ActiveJob {
    id: JobId,
    conf: Rc<JobConf>,
    spec: JobSpec,
    jt: Rc<RefCell<JobTracker>>,
    input_bytes: u64,
    submit_s: f64,
    first_launch_s: Cell<Option<f64>>,
    map_phase_end_s: Cell<f64>,
    /// Slot-seconds consumed by every attempt (failed ones included).
    slot_secs: Cell<f64>,
    reduce_stats: RefCell<Vec<Option<ReduceStats>>>,
    /// Fired when the job's result lands in [`RtInner::finished`].
    done: Notify,
}

struct RtInner {
    sim: Sim,
    cluster: Cluster,
    /// Cluster-wide configuration: the shuffle design every job runs, and
    /// the `tasktracker.*` keys (slots, cache sizing).
    conf: JobConf,
    /// The in-node combiner stage in front of `outputs`, for jobs that set
    /// [`JobConf::node_combine`].
    combiner: NodeCombiner,
    policy: SchedulePolicy,
    tts: Vec<Rc<TaskTracker>>,
    /// Per-TaskTracker shuffle-server handles. `RefCell`: a node restart
    /// installs a fresh server in the dead one's slot.
    servers: Rc<RefCell<Vec<TtServerHandle>>>,
    /// Per-TaskTracker liveness state, shared with every ReduceCtx.
    liveness: Rc<Vec<Rc<NodeLiveness>>>,
    /// Fired after every liveness transition of any node (see
    /// [`ReduceCtx::liveness_changed`]).
    liveness_changed: Notify,
    outputs: MapOutputStore,
    /// Jobs still in the system, by id: ids count up at submission, so key
    /// order is submission order. A finished job's scheduling state is
    /// dropped at completion: the entry moves to [`RtInner::finished`] as a
    /// bare result, so map sizes stay bounded across long job sequences.
    jobs: RefCell<BTreeMap<u32, Rc<ActiveJob>>>,
    /// Results of finished jobs, awaiting pickup. [`Runtime::join`]
    /// *consumes* the entry; [`Runtime::poll`] peeks.
    finished: RefCell<BTreeMap<u32, JobResult>>,
    next_id: Cell<u32>,
    /// Task failures a [`crate::FaultPlan`] armed, as (job ordinal = `JobId.0`,
    /// task kind, task index): the next attempt of that task consumes its
    /// entry and fails.
    armed: RefCell<BTreeSet<(u32, TaskFlavor, usize)>>,
    /// Running attempts per queue as `(maps, reduces)`, maintained by
    /// [`Attempt`]s so aborted attempt futures (node kills) release their
    /// count on drop. Entries are removed at zero, so a drained cluster
    /// holds no ledger state.
    queue_used: RefCell<BTreeMap<u32, (usize, usize)>>,
    /// Wakes parked heartbeat daemons when work arrives.
    work: Notify,
    /// Observability bus (off unless built via [`Runtime::with_obs`]).
    obs: Recorder,
}

/// The persistent cluster runtime. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<RtInner>,
}

impl Runtime {
    /// Starts cluster services (TaskTrackers, shuffle servers, heartbeat
    /// daemons) under `conf`'s cluster-wide keys, scheduling FIFO. The
    /// engine is `conf.shuffle`'s.
    pub fn start(cluster: &Cluster, conf: JobConf) -> Runtime {
        Runtime::with_policy(cluster, conf, SchedulePolicy::Fifo)
    }

    /// [`Runtime::start`] with an explicit scheduling policy.
    pub fn with_policy(cluster: &Cluster, conf: JobConf, policy: SchedulePolicy) -> Runtime {
        Runtime::with_obs(cluster, conf, policy, Recorder::off())
    }

    /// [`Runtime::with_policy`] with an observability recorder attached.
    /// Every layer (runtime scheduling, TaskTracker serving, prefetch cache,
    /// reduce engines) emits to `obs`; pass [`Recorder::off`] for the
    /// zero-overhead default.
    pub fn with_obs(
        cluster: &Cluster,
        conf: JobConf,
        policy: SchedulePolicy,
        obs: Recorder,
    ) -> Runtime {
        let sim = cluster.sim.clone();
        let outputs = MapOutputStore::new();
        let cache_on = conf.shuffle.server_cache() && conf.caching_enabled;
        let mut tts = Vec::new();
        let mut servers = Vec::new();
        for (i, w) in cluster.workers.iter().enumerate() {
            let tt = TaskTracker::new(
                &sim,
                i,
                w.clone(),
                &conf,
                outputs.clone(),
                cache_on,
                obs.clone(),
            );
            servers.push(conf.shuffle.start_server(&tt, &cluster.net));
            tts.push(tt);
        }
        let liveness: Rc<Vec<Rc<NodeLiveness>>> =
            Rc::new(tts.iter().map(|tt| Rc::clone(&tt.liveness)).collect());
        let inner = Rc::new(RtInner {
            sim: sim.clone(),
            cluster: cluster.clone(),
            conf,
            combiner: NodeCombiner::new(cluster.clone(), obs.clone()),
            policy,
            tts,
            servers: Rc::new(RefCell::new(servers)),
            liveness,
            liveness_changed: Notify::new_named("liveness-changed"),
            outputs,
            jobs: RefCell::new(BTreeMap::new()),
            finished: RefCell::new(BTreeMap::new()),
            next_id: Cell::new(0),
            armed: RefCell::new(BTreeSet::new()),
            queue_used: RefCell::new(BTreeMap::new()),
            work: Notify::new(),
            obs,
        });
        for tt in &inner.tts {
            spawn_heartbeat(&inner, tt);
        }
        Runtime { inner }
    }

    /// Submits a job: computes its input splits, creates its JobTracker,
    /// and queues it for scheduling at the next heartbeats. Returns
    /// immediately with the job's id.
    pub fn submit(&self, conf: JobConf, spec: JobSpec) -> JobId {
        let inner = &self.inner;
        assert_eq!(
            conf.shuffle, inner.conf.shuffle,
            "job's shuffle engine must match the runtime's"
        );
        let id = JobId(inner.next_id.get());
        inner.next_id.set(id.0 + 1);
        let conf = Rc::new(conf);

        // Input splits with locality info. The input names either a single
        // file or a directory prefix whose files are all scanned (TeraGen
        // and RandomWriter write one part file per worker).
        let input_files: Vec<String> = if inner.cluster.hdfs.exists(&spec.input) {
            vec![spec.input.clone()]
        } else {
            let prefix = format!("{}/", spec.input.trim_end_matches('/'));
            let files: Vec<String> = inner
                .cluster
                .hdfs
                .list()
                .into_iter()
                .filter(|p| p.starts_with(&prefix))
                .collect();
            assert!(!files.is_empty(), "job input missing: {}", spec.input);
            files
        };
        let mut splits = Vec::new();
        for f in &input_files {
            splits.extend(
                inner
                    .cluster
                    .hdfs
                    .split_locations(f)
                    .expect("job input missing"),
            );
        }
        let input_bytes: u64 = splits.iter().map(|(b, _)| b.size).sum();
        let descs: Vec<MapTaskDesc> = splits
            .into_iter()
            .enumerate()
            .map(|(idx, (block, locations))| MapTaskDesc {
                idx,
                block,
                locations,
            })
            .collect();

        let jt = Rc::new(RefCell::new(JobTracker::new(
            descs,
            conf.num_reduces,
            REDUCE_SLOWSTART,
        )));
        jt.borrow_mut().set_locality_delay(conf.locality_delay);

        let job = Rc::new(ActiveJob {
            id,
            conf: Rc::clone(&conf),
            spec,
            jt,
            input_bytes,
            submit_s: inner.sim.now().as_secs_f64(),
            first_launch_s: Cell::new(None),
            map_phase_end_s: Cell::new(0.0),
            slot_secs: Cell::new(0.0),
            reduce_stats: RefCell::new(vec![None; conf.num_reduces]),
            done: Notify::new(),
        });
        inner.jobs.borrow_mut().insert(id.0, Rc::clone(&job));
        inner.obs.emit(|| Ev::JobQueued {
            job: id.0,
            queue: job.conf.queue,
        });
        inner.obs.emit(|| Ev::JobState {
            job: id.0,
            state: JobState::Submitted,
        });
        if job.jt.borrow().job_done() {
            // Degenerate empty job (no maps, no reduces): no heartbeat will
            // ever touch it, so commit it here.
            inner.finalize(&job);
        }
        inner.work.notify_all();
        id
    }

    /// Returns `id`'s result if the job has finished (non-consuming peek).
    pub fn poll(&self, id: JobId) -> Option<JobResult> {
        if self.inner.jobs.borrow().contains_key(&id.0) {
            return None;
        }
        Some(
            self.inner
                .finished
                .borrow()
                .get(&id.0)
                .expect("unknown or already-joined job id")
                .clone(),
        )
    }

    /// Waits until `id` finishes and returns its result, *consuming* the
    /// runtime's stored copy — each job is joined once, and the runtime
    /// holds no per-job state afterwards.
    pub async fn join(&self, id: JobId) -> JobResult {
        loop {
            let done = match self.inner.jobs.borrow().get(&id.0) {
                Some(job) => job.done.notified(),
                None => break,
            };
            done.await;
        }
        self.inner
            .finished
            .borrow_mut()
            .remove(&id.0)
            .expect("unknown or already-joined job id")
    }

    /// Jobs submitted but not yet finished.
    pub fn active_jobs(&self) -> usize {
        self.inner.jobs.borrow().len()
    }

    /// Sizes of the runtime's job-keyed state — a leak canary for long job
    /// sequences. Every field must return to zero once all jobs are joined;
    /// a long-lived runtime whose footprint grows with jobs-ever-run cannot
    /// survive a 1k-node sweep.
    pub fn state_footprint(&self) -> StateFootprint {
        let inner = &self.inner;
        let mut fp = StateFootprint {
            in_flight_jobs: inner.jobs.borrow().len(),
            unjoined_finished: inner.finished.borrow().len(),
            ..StateFootprint::default()
        };
        for tt in &inner.tts {
            fp.tt_outputs += tt.outputs.len();
            fp.tt_cache_jobs += tt.cache.tracked_jobs();
            let (cursors, readers) = tt.serve_state_counts();
            fp.tt_serve_cursors += cursors;
            fp.tt_serve_readers += readers;
            if !tt.liveness.alive() {
                fp.down_nodes += 1;
            }
        }
        for server in inner.servers.borrow().iter() {
            if let TtServerHandle::Rdma(connector) = server {
                fp.tt_endpoints += connector.served();
            }
        }
        fp
    }

    /// The observability bus this runtime emits to ([`Recorder::off`] unless
    /// built via [`Runtime::with_obs`]).
    pub fn obs(&self) -> &Recorder {
        &self.inner.obs
    }

    /// Captures a debugging snapshot of the whole runtime: every job's
    /// scheduling state and every TaskTracker's slot, cache, and
    /// serving-cursor state. Works with the recorder on or off.
    pub fn dump(&self) -> RuntimeSnapshot {
        let inner = &self.inner;
        let jobs = inner
            .jobs
            .borrow()
            .values()
            .map(|job| {
                let jtb = job.jt.borrow();
                let state = if jtb.maps_done() {
                    JobState::MapsDone
                } else if job.first_launch_s.get().is_some() {
                    JobState::FirstLaunch
                } else {
                    JobState::Submitted
                };
                JobSnapshot {
                    id: job.id.0,
                    name: job.spec.name.clone(),
                    state: state.as_str().to_string(),
                    total_maps: jtb.total_maps(),
                    maps_completed: jtb.maps_completed(),
                    pending_maps: jtb.pending_maps(),
                    running_maps: jtb.running_maps(),
                    total_reduces: jtb.total_reduces(),
                    reduces_completed: jtb.reduces_completed(),
                    pending_reduces: jtb.pending_reduces(),
                    submit_s: job.submit_s,
                    first_launch_s: job.first_launch_s.get(),
                }
            })
            .collect();
        let nodes = inner
            .tts
            .iter()
            .map(|tt| {
                let (cursors, readers) = tt.serve_state_counts();
                let (hits, misses) = tt.cache.stats();
                NodeSnapshot {
                    node: tt.idx,
                    free_map_slots: tt.map_slots.available(),
                    total_map_slots: inner.conf.map_slots as u64,
                    free_reduce_slots: tt.reduce_slots.available(),
                    total_reduce_slots: inner.conf.reduce_slots as u64,
                    cache_used: tt.cache.used(),
                    cache_capacity: tt.cache.capacity(),
                    cache_hits: hits,
                    cache_misses: misses,
                    serve_cursors: cursors,
                    serve_readers: readers,
                    alive: tt.liveness.alive(),
                    epoch: tt.liveness.epoch(),
                }
            })
            .collect();
        RuntimeSnapshot {
            t_s: inner.sim.now().as_secs_f64(),
            jobs,
            nodes,
        }
    }
}

/// One job's share of a heartbeat's assignments: the maps and reduces to
/// launch.
struct Assignment {
    job: Rc<ActiveJob>,
    maps: Vec<MapTaskDesc>,
    reduces: Vec<usize>,
}

impl RtInner {
    /// One heartbeat's slot assignment: offers the node's free slots to
    /// the jobs with assignable work, in submission order. Under
    /// [`SchedulePolicy::Capacity`] the jobs are stable-sorted most-starved
    /// queue first (running map slots over guarantee, cross-multiplied in
    /// integers: no float ordering), so a queue's jobs stay together and in
    /// submission order, and the walk makes two passes:
    ///
    /// 1. **Guaranteed**: each job is offered at most its queue's unmet
    ///    guarantee — the guarantee less the queue's running attempts and
    ///    what this pass already gave the queue.
    /// 2. **Spillover**: each job is offered every slot still free —
    ///    capacity is work-conserving, a guarantee is a floor, not a cage.
    ///
    /// FIFO is one queue with the spillover pass only: the oldest job takes
    /// every slot it can use before the next job sees any.
    fn schedule(
        &self,
        node: NodeId,
        tt_idx: usize,
        mut free_m: usize,
        mut free_r: usize,
    ) -> Vec<Assignment> {
        // A job with nothing assignable (all maps running, reducers gated
        // or launched) would get nothing from its heartbeat: leaving it out
        // (an O(1) check) means only jobs with work pay for one.
        let mut order: Vec<Rc<ActiveJob>> = self
            .jobs
            .borrow()
            .values()
            .filter(|job| job.jt.borrow().has_assignable_work())
            .cloned()
            .collect();
        let mut out = Vec::new();
        // Offers `job` up to `(m, r)` slots; returns how many it took.
        let mut offer = |job: &Rc<ActiveJob>, m: usize, r: usize| {
            let (maps, reduces) = job.jt.borrow_mut().heartbeat(node, tt_idx, m, r);
            let taken = (maps.len(), reduces.len());
            if taken != (0, 0) {
                let job = Rc::clone(job);
                out.push(Assignment { job, maps, reduces });
            }
            taken
        };
        if let SchedulePolicy::Capacity(plan) = &self.policy {
            let workers = self.cluster.workers.len();
            let pool_m = workers * self.conf.map_slots;
            let pool_r = workers * self.conf.reduce_slots;
            let used = self.queue_used.borrow();
            let used_of = |q: u32| used.get(&q).copied().unwrap_or((0, 0));
            order.sort_by(|a, b| {
                let (qa, qb) = (a.conf.queue, b.conf.queue);
                let ga = plan.guaranteed(qa, pool_m).max(1);
                let gb = plan.guaranteed(qb, pool_m).max(1);
                (used_of(qa).0 * gb)
                    .cmp(&(used_of(qb).0 * ga))
                    .then(qa.cmp(&qb))
            });
            // The unmet guarantee of the queue whose jobs are being walked.
            let mut queue = None;
            let (mut cap_m, mut cap_r) = (0, 0);
            for job in &order {
                let q = job.conf.queue;
                if queue != Some(q) {
                    queue = Some(q);
                    let (um, ur) = used_of(q);
                    cap_m = plan.guaranteed(q, pool_m).saturating_sub(um);
                    cap_r = plan.guaranteed(q, pool_r).saturating_sub(ur);
                }
                let (m, r) = (free_m.min(cap_m), free_r.min(cap_r));
                if (m, r) == (0, 0) || !job.jt.borrow().has_assignable_work() {
                    continue;
                }
                let (m, r) = offer(job, m, r);
                (free_m, free_r, cap_m, cap_r) = (free_m - m, free_r - r, cap_m - m, cap_r - r);
            }
        }
        for job in &order {
            if (free_m, free_r) == (0, 0) {
                break;
            }
            // The guaranteed pass may have drained this job already.
            if job.jt.borrow().has_assignable_work() {
                let (m, r) = offer(job, free_m, free_r);
                (free_m, free_r) = (free_m - m, free_r - r);
            }
        }
        out
    }

    /// Commits a finished job: per-job cache stats, cluster-wide cleanup of
    /// its serving state, result assembly, and waking joiners.
    fn finalize(self: &Rc<Self>, job: &Rc<ActiveJob>) {
        let end = self.sim.now().as_secs_f64();
        let (mut hits, mut misses) = (0u64, 0u64);
        for tt in &self.tts {
            let (h, m) = tt.cache.job_stats(job.id);
            hits += h;
            misses += m;
            tt.cleanup_job(job.id);
            tt.cache.forget_job_stats(job.id);
        }
        let (maps_registered, map_output_bytes, real) = self.outputs.job_totals(job.id);
        self.outputs.remove_job(job.id);
        self.combiner.job_finalized(job.id);
        // A failure armed for a task index the job does not have never fired.
        self.armed.borrow_mut().retain(|&(ord, ..)| ord != job.id.0);

        let (total_maps, failed_map_attempts, failed_reduce_attempts) = {
            let jtb = job.jt.borrow();
            let maps = jtb.total_maps();
            (maps, jtb.map_failures_seen(), jtb.reduce_failures_seen())
        };
        let reduce_stats: Vec<ReduceStats> = job
            .reduce_stats
            .borrow()
            .iter()
            .map(|s| s.clone().expect("reducer finished without stats"))
            .collect();
        let shuffled_bytes = reduce_stats.iter().map(|s| s.shuffled_bytes).sum();
        if real {
            // Conservation on the real plane: every reducer consumed what it
            // pulled, and (while no node death has unregistered an output)
            // together they pulled what the maps — or the in-node combiner's
            // folds — produced.
            for (partition, s) in reduce_stats.iter().enumerate() {
                assert_eq!(
                    s.reduced_bytes, s.shuffled_bytes,
                    "{} partition {partition}: reduced {} bytes of {} shuffled",
                    job.id, s.reduced_bytes, s.shuffled_bytes
                );
            }
            assert!(
                maps_registered < total_maps || map_output_bytes == shuffled_bytes,
                "{}: {} maps produced {map_output_bytes} bytes, the reducers pulled {shuffled_bytes}",
                job.id,
                total_maps
            );
        }
        let output_bytes = reduce_stats.iter().map(|s| s.output_bytes).sum();
        let duration_s = end - job.submit_s;
        let queue_wait_s = job
            .first_launch_s
            .get()
            .map(|t| t - job.submit_s)
            .unwrap_or(0.0);
        let slot_pool = self.cluster.workers.len() as f64
            * (self.conf.map_slots + self.conf.reduce_slots) as f64;
        let slot_occupancy = if duration_s > 0.0 && slot_pool > 0.0 {
            job.slot_secs.get() / (duration_s * slot_pool)
        } else {
            0.0
        };
        let result = JobResult {
            name: job.spec.name.clone(),
            shuffle: job.conf.shuffle,
            duration_s,
            start_s: job.submit_s,
            map_phase_end_s: job.map_phase_end_s.get(),
            end_s: end,
            maps: total_maps,
            reduces: job.conf.num_reduces,
            input_bytes: job.input_bytes,
            shuffled_bytes,
            output_bytes,
            cache_hits: hits,
            cache_misses: misses,
            failed_map_attempts,
            failed_reduce_attempts,
            queue_wait_s,
            slot_occupancy,
            slot_secs: job.slot_secs.get(),
            queue: job.conf.queue,
            reduce_stats,
        };
        // Drop the job's scheduling state (its `ActiveJob` — JobTracker
        // event log, locality index) from the runtime; the bare
        // result parks in `finished` until joined.
        self.finished.borrow_mut().insert(job.id.0, result);
        self.jobs.borrow_mut().remove(&job.id.0);
        self.obs.emit(|| Ev::JobState {
            job: job.id.0,
            state: JobState::Finished,
        });
        job.done.notify_all();
    }
}

/// The per-TaskTracker heartbeat daemon: parks while the cluster is idle,
/// otherwise heartbeats the JobTracker every `tasktracker.heartbeat`
/// interval, launching whatever attempts the schedule hands this node.
/// Spawned into the TaskTracker's task group: a node kill aborts the daemon
/// (the node stops heartbeating = blacklisted), and a restart spawns a
/// fresh one.
fn spawn_heartbeat(inner: &Rc<RtInner>, tt: &Rc<TaskTracker>) {
    let inner = Rc::clone(inner);
    let tt = Rc::clone(tt);
    let sim = inner.sim.clone();
    tt.group
        .clone()
        .spawn_named(Component::Heartbeat { tt: tt.idx as u32 }, async move {
            loop {
                // Park until a job is in the system. Arm the waiter before
                // re-checking (edge-triggered Notify; single-threaded, so
                // check-then-await without an intervening await is safe).
                let waiter = inner.work.notified();
                if inner.jobs.borrow().is_empty() {
                    waiter.await;
                    continue;
                }
                drop(waiter);

                // Heartbeat RPC to the JobTracker.
                inner
                    .cluster
                    .net
                    .transfer(tt.node.id, inner.cluster.master, HEARTBEAT_BYTES)
                    .await;
                let assignments = inner.schedule(
                    tt.node.id,
                    tt.idx,
                    tt.map_slots.available() as usize,
                    tt.reduce_slots.available() as usize,
                );
                inner
                    .cluster
                    .net
                    .transfer(inner.cluster.master, tt.node.id, HEARTBEAT_BYTES)
                    .await;

                for a in assignments {
                    for desc in a.maps {
                        spawn_map_attempt(&inner, &a.job, &tt, desc);
                    }
                    for reduce_idx in a.reduces {
                        spawn_reduce_attempt(&inner, &a.job, &tt, reduce_idx);
                    }
                }
                // Observe the post-assignment picture: remaining free slots
                // and queue depth summed over every active job.
                inner.obs.emit(|| {
                    let jobs = inner.jobs.borrow();
                    let (mut pm, mut pr) = (0u64, 0u64);
                    for job in jobs.values() {
                        let jtb = job.jt.borrow();
                        pm += jtb.pending_maps() as u64;
                        pr += jtb.pending_reduces() as u64;
                    }
                    Ev::Heartbeat {
                        node: tt.idx,
                        active_jobs: jobs.len(),
                        pending_maps: pm,
                        pending_reduces: pr,
                        free_map_slots: tt.map_slots.available(),
                        free_reduce_slots: tt.reduce_slots.available(),
                    }
                });
                sim.sleep(HEARTBEAT).await;
            }
        })
        .detach();
}

/// One task attempt in a TaskTracker slot, from launch to release: the one
/// place an attempt's lifecycle is written down. It holds the slot's permit
/// and the attempt's count in the per-queue slot ledger, and emits the
/// job's first launch, `SlotAcquire`, `AttemptStart`, `AttemptFinish` and
/// `SlotRelease`. An attempt that a node kill aborts is dropped unfinished:
/// `Drop` frees the slot and the ledger count and emits nothing.
struct Attempt {
    inner: Rc<RtInner>,
    job: Rc<ActiveJob>,
    node: usize,
    kind: TaskFlavor,
    idx: usize,
    start_s: f64,
    _permit: Permit,
}

impl Attempt {
    /// Takes one of `tt`'s free `kind` slots for task `idx` of `job`.
    fn launch(
        inner: &Rc<RtInner>,
        job: &Rc<ActiveJob>,
        tt: &TaskTracker,
        kind: TaskFlavor,
        idx: usize,
    ) -> Attempt {
        let slots = match kind {
            TaskFlavor::Map => &tt.map_slots,
            TaskFlavor::Reduce => &tt.reduce_slots,
        };
        let permit = slots
            .try_acquire(1)
            .expect("slot advertised but unavailable");
        let now_s = inner.sim.now().as_secs_f64();
        if job.first_launch_s.get().is_none() {
            job.first_launch_s.set(Some(now_s));
            inner.obs.emit(|| Ev::JobState {
                job: job.id.0,
                state: JobState::FirstLaunch,
            });
        }
        inner.obs.emit(|| Ev::SlotAcquire {
            node: tt.idx,
            job: job.id.0,
            kind,
            idx,
        });
        let mut used = inner.queue_used.borrow_mut();
        let (maps, reduces) = used.entry(job.conf.queue).or_default();
        match kind {
            TaskFlavor::Map => *maps += 1,
            TaskFlavor::Reduce => *reduces += 1,
        }
        Attempt {
            inner: Rc::clone(inner),
            job: Rc::clone(job),
            node: tt.idx,
            kind,
            idx,
            start_s: now_s,
            _permit: permit,
        }
    }

    /// The attempt's task starts running.
    fn start(&mut self) {
        self.start_s = self.inner.sim.now().as_secs_f64();
        self.inner.obs.emit(|| Ev::AttemptStart {
            node: self.node,
            job: self.job.id.0,
            kind: self.kind,
            idx: self.idx,
        });
    }

    /// Charges the job the slot-seconds held since [`Attempt::start`].
    fn charge(&self) {
        let held_s = self.inner.sim.now().as_secs_f64() - self.start_s;
        self.job.slot_secs.set(self.job.slot_secs.get() + held_s);
    }

    /// Records how the attempt ended; the slot stays held until
    /// [`Attempt::release`].
    fn finish(&self, outcome: AttemptOutcome) {
        self.inner.obs.emit(|| Ev::AttemptFinish {
            node: self.node,
            job: self.job.id.0,
            kind: self.kind,
            idx: self.idx,
            outcome,
        });
    }

    /// Gives the slot back; `Drop` returns the permit and the ledger count.
    fn release(self) {
        self.inner.obs.emit(|| Ev::SlotRelease {
            node: self.node,
            job: self.job.id.0,
            kind: self.kind,
            idx: self.idx,
        });
    }
}

impl Drop for Attempt {
    fn drop(&mut self) {
        let mut used = self.inner.queue_used.borrow_mut();
        let queue = self.job.conf.queue;
        if let Some(e) = used.get_mut(&queue) {
            match self.kind {
                TaskFlavor::Map => e.0 -= 1,
                TaskFlavor::Reduce => e.1 -= 1,
            }
            if *e == (0, 0) {
                used.remove(&queue);
            }
        }
    }
}

fn spawn_map_attempt(
    inner: &Rc<RtInner>,
    job: &Rc<ActiveJob>,
    tt: &Rc<TaskTracker>,
    desc: MapTaskDesc,
) {
    let mut attempt = Attempt::launch(inner, job, tt, TaskFlavor::Map, desc.idx);
    let inner = Rc::clone(inner);
    let job = Rc::clone(job);
    let tt = Rc::clone(tt);
    let sim = inner.sim.clone();
    // The attempt runs in the TaskTracker's task group: a node kill aborts
    // it mid-flight (the JobTracker re-queues the task via `node_lost`).
    let tag = Component::Map {
        job: job.id.0,
        map: desc.idx as u32,
    };
    tt.group
        .clone()
        .spawn_named(tag, async move {
            attempt.start();
            // JVM spawn + task localisation.
            sim.sleep(TASK_LAUNCH_OVERHEAD).await;
            let armed = (job.id.0, TaskFlavor::Map, desc.idx);
            let abort = inner.armed.borrow_mut().remove(&armed).then_some(0.5);
            let outcome = run_map(
                &inner.cluster,
                &job.conf,
                &job.spec,
                &tt,
                job.id,
                &desc,
                abort,
            )
            .await;
            // Status notification to the JobTracker.
            inner
                .cluster
                .net
                .transfer(tt.node.id, inner.cluster.master, 256)
                .await;
            attempt.charge();
            match outcome {
                Some(info) => {
                    // Registers a final map output for serving, on behalf
                    // of the node that holds it. Only a map's first
                    // registration is committed (see
                    // `JobTracker::map_completed`).
                    let register = |out: MapOutputInfo| {
                        let (map_idx, tt_idx) = (out.map_idx, out.tt_idx);
                        let first = job.jt.borrow_mut().map_completed(map_idx, tt_idx);
                        if first {
                            inner.outputs.insert(out);
                            inner.tts[tt_idx].on_map_output(job.id, map_idx);
                        }
                        first
                    };
                    // With the in-node combiner on, a job that has a combiner
                    // stages the output instead: it registers — folded with
                    // its wave, possibly along with other nodes' flushed
                    // waves — once the wave is full.
                    let (committed, flushed) =
                        if job.conf.node_combine && job.spec.combiner.is_some() {
                            let total_maps = job.jt.borrow().total_maps();
                            let flushed = inner
                                .combiner
                                .stage(&job.conf, &job.spec, total_maps, info)
                                .await;
                            (true, flushed)
                        } else {
                            (register(info), Vec::new())
                        };
                    attempt.finish(if committed {
                        AttemptOutcome::Completed
                    } else {
                        AttemptOutcome::Discarded
                    });
                    for out in flushed {
                        register(out);
                    }
                    if committed {
                        let (maps_done, job_done) = {
                            let jtb = job.jt.borrow();
                            (jtb.maps_done(), jtb.job_done())
                        };
                        if maps_done {
                            job.map_phase_end_s.set(sim.now().as_secs_f64());
                            inner.obs.emit(|| Ev::JobState {
                                job: job.id.0,
                                state: JobState::MapsDone,
                            });
                        }
                        if job_done {
                            // A node death re-queued a completed map whose
                            // output every reducer had already fetched; this
                            // re-execution was the job's last outstanding
                            // work, so the map path must commit the job —
                            // no further reduce completion will.
                            inner.finalize(&job);
                        }
                    }
                }
                None => {
                    attempt.finish(AttemptOutcome::Failed);
                    job.jt.borrow_mut().map_failed(desc.idx);
                }
            }
            attempt.release();
        })
        .detach();
}

fn spawn_reduce_attempt(
    inner: &Rc<RtInner>,
    job: &Rc<ActiveJob>,
    tt: &Rc<TaskTracker>,
    reduce_idx: usize,
) {
    let mut attempt = Attempt::launch(inner, job, tt, TaskFlavor::Reduce, reduce_idx);
    let inner = Rc::clone(inner);
    let job = Rc::clone(job);
    let sim = inner.sim.clone();
    let ctx = ReduceCtx {
        cluster: inner.cluster.clone(),
        conf: Rc::clone(&job.conf),
        spec: job.spec.clone(),
        jt: Rc::clone(&job.jt),
        servers: Rc::clone(&inner.servers),
        liveness: Rc::clone(&inner.liveness),
        liveness_changed: inner.liveness_changed.clone(),
        tt: Rc::clone(tt),
        job: job.id,
        reduce_idx,
        attempt: job.jt.borrow().reduce_attempt(reduce_idx),
    };
    // Like maps, the attempt dies with its node (TaskTracker group).
    let tag = Component::Reduce {
        job: job.id.0,
        reduce: reduce_idx as u32,
    };
    tt.group
        .clone()
        .spawn_named(tag, async move {
            attempt.start();
            sim.sleep(TASK_LAUNCH_OVERHEAD).await;
            // Fault injection: this attempt dies before shuffling and the
            // task goes back to the queue (detected at the next status
            // interval).
            let armed = (job.id.0, TaskFlavor::Reduce, reduce_idx);
            if inner.armed.borrow_mut().remove(&armed) {
                sim.sleep(SimDuration::from_secs(10)).await;
                inner
                    .cluster
                    .net
                    .transfer(ctx.tt.node.id, inner.cluster.master, 256)
                    .await;
                attempt.charge();
                attempt.finish(AttemptOutcome::Failed);
                job.jt.borrow_mut().reduce_attempt_lost(reduce_idx);
                attempt.release();
                return;
            }
            let outcome = inner.conf.shuffle.run_reduce(ctx).await;
            // Commit / status notification.
            inner
                .cluster
                .net
                .transfer(inner.cluster.workers[0].id, inner.cluster.master, 256)
                .await;
            attempt.charge();
            match outcome {
                Ok(stats) => {
                    attempt.finish(AttemptOutcome::Completed);
                    job.reduce_stats.borrow_mut()[reduce_idx] = Some(stats);
                    let finished = {
                        let mut jtb = job.jt.borrow_mut();
                        jtb.reduce_completed(reduce_idx);
                        jtb.job_done()
                    };
                    if finished {
                        inner.finalize(&job);
                    }
                    attempt.release();
                }
                Err(ReduceError::SourceLost { .. }) => {
                    // A shuffle source died under the attempt. Release the
                    // slot, back off exponentially on the retry count, then
                    // re-queue the whole task (partial shuffles are not
                    // checkpointed — Hadoop restarts the reducer).
                    let retries = job.jt.borrow_mut().shuffle_lost(reduce_idx);
                    attempt.finish(AttemptOutcome::Failed);
                    attempt.release();
                    // Fetch-failure backoff before the re-queued task is
                    // offered to heartbeats again: capped exponential in the
                    // event-poll interval.
                    let exp = (retries - 1).min(5);
                    sim.sleep(EVENT_POLL * (1u64 << exp)).await;
                    job.jt.borrow_mut().reduce_attempt_lost(reduce_idx);
                    inner.work.notify_all();
                }
            }
        })
        .detach();
}
