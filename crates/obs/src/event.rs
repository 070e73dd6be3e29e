//! The event bus: typed sim-time events and the [`Recorder`] handle.
//!
//! Every event is stamped with the virtual clock (integer nanoseconds, so the
//! serialized stream is byte-exact across runs) and carries only plain
//! integers/bools — no references into core data structures. Emission is
//! strictly host-side: a `Vec` push guarded by one `Option` branch.

use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;

use rmr_des::Sim;

use crate::json::Obj;

/// Map-side or reduce-side task, as seen by slot accounting and spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskFlavor {
    Map,
    Reduce,
}

impl TaskFlavor {
    pub fn as_str(self) -> &'static str {
        match self {
            TaskFlavor::Map => "map",
            TaskFlavor::Reduce => "reduce",
        }
    }
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Finished and its output was accepted.
    Completed,
    /// Ran to completion but lost the race to another attempt.
    Discarded,
    /// Injected or induced failure.
    Failed,
    /// Never emitted; it stays because `benchmark/` matches on it.
    Preempted,
}

impl AttemptOutcome {
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Completed => "completed",
            AttemptOutcome::Discarded => "discarded",
            AttemptOutcome::Failed => "failed",
            AttemptOutcome::Preempted => "preempted",
        }
    }
}

/// Coarse job lifecycle states reported on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// `Runtime::submit` accepted the job.
    Submitted,
    /// First task attempt launched (end of queue wait).
    FirstLaunch,
    /// All map outputs accepted; shuffle can complete.
    MapsDone,
    /// Finalized; `JobResult` available.
    Finished,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::FirstLaunch => "first_launch",
            JobState::MapsDone => "maps_done",
            JobState::Finished => "finished",
        }
    }
}

/// How one `Ev` field is written into its jsonl object: numbers and bools
/// as they print, the three state enums as their quoted tag.
trait Field {
    fn put(&self, o: Obj, key: &str) -> Obj;
}

impl<T: Display> Field for T {
    fn put(&self, o: Obj, key: &str) -> Obj {
        o.val(key, self)
    }
}

macro_rules! tag_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, o: Obj, key: &str) -> Obj {
                o.str(key, self.as_str())
            }
        }
    )*};
}

tag_fields!(TaskFlavor, AttemptOutcome, JobState);

/// Declares [`Ev`] from one line per variant — its doc, jsonl tag and
/// fields — and generates `Ev::tag` and the jsonl field writer from that
/// list, so every variant's fields are written in declaration order.
macro_rules! events {
    ($($(#[$doc:meta])* $name:ident $tag:literal { $($field:ident: $ty:ty),* },)*) => {
        /// A typed observability event. Field conventions: `node` is the
        /// TaskTracker index, `job` the numeric job id, `idx` a task index
        /// within the job.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Ev {
            $($(#[$doc])* $name { $($field: $ty),* },)*
        }

        impl Ev {
            /// Stable snake_case tag used in jsonl output.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(Ev::$name { .. } => $tag,)*
                }
            }

            /// Appends this event's fields to `o`.
            fn put_fields(&self, o: Obj) -> Obj {
                match self {
                    $(Ev::$name { $($field),* } => {
                        $(let o = $field.put(o, stringify!($field));)*
                        o
                    })*
                }
            }
        }
    };
}

events! {
    /// A task slot permit was taken on `node`.
    SlotAcquire "slot_acquire" { node: usize, job: u32, kind: TaskFlavor, idx: usize },
    /// The matching permit was returned.
    SlotRelease "slot_release" { node: usize, job: u32, kind: TaskFlavor, idx: usize },
    /// Attempt body started executing (after launch overhead scheduling).
    AttemptStart "attempt_start" { node: usize, job: u32, kind: TaskFlavor, idx: usize },
    /// Attempt body ended.
    AttemptFinish "attempt_finish" {
        node: usize, job: u32, kind: TaskFlavor, idx: usize, outcome: AttemptOutcome
    },
    /// One heartbeat round-trip on `node`, observed after assignment:
    /// slot counts are what remains free once this round's launches happened,
    /// queue depths are summed over all active jobs.
    Heartbeat "heartbeat" {
        node: usize, active_jobs: usize, pending_maps: u64, pending_reduces: u64,
        free_map_slots: u64, free_reduce_slots: u64
    },
    /// Job lifecycle transition.
    JobState "job_state" { job: u32, state: JobState },
    /// A reducer on `node` asked `server` for one map output partition.
    ShuffleRequest "shuffle_request" {
        node: usize, server: usize, job: u32, map_idx: usize, reduce: usize
    },
    /// The serving TaskTracker (`node` here is the *server*) answered one
    /// request; `serve_ns` is time spent inside `serve()` (cache/disk + serde).
    ShuffleResponse "shuffle_response" {
        node: usize, job: u32, map_idx: usize, reduce: usize, bytes: u64, records: u64,
        from_cache: bool, serve_ns: u64
    },
    /// The reduce-side merge emitted one batch downstream.
    MergeBatch "merge_batch" { node: usize, job: u32, reduce: usize, records: u64, bytes: u64 },
    /// Reduce-side shuffle data spilled to local disk.
    Spill "spill" { node: usize, job: u32, reduce: usize, bytes: u64 },
    /// Serving-side prefetch cache hit.
    CacheHit "cache_hit" { node: usize, job: u32, map_idx: usize, bytes: u64 },
    /// Serving-side prefetch cache miss (disk read).
    CacheMiss "cache_miss" { node: usize, job: u32, map_idx: usize, bytes: u64 },
    /// Entry admitted to the cache (`demand`: re-cached after a demand miss
    /// rather than brought in by the background prefetcher).
    CacheInsert "cache_insert" { node: usize, job: u32, map_idx: usize, bytes: u64, demand: bool },
    /// Entry evicted to make room.
    CacheEvict "cache_evict" { node: usize, job: u32, map_idx: usize, bytes: u64 },
    /// TaskTracker `node` was killed: its daemons, running attempts, and
    /// served map outputs are gone.
    NodeDown "node_down" { node: usize },
    /// TaskTracker `node` came back; `epoch` counts restarts.
    NodeUp "node_up" { node: usize, epoch: u64 },
    /// A running attempt died with its node (never reported its own
    /// outcome); the task was re-queued.
    AttemptLost "attempt_lost" { node: usize, job: u32, kind: TaskFlavor, idx: usize },
    /// A map that had already completed on the dead `node` was re-queued for
    /// re-execution — its served outputs are unrecoverable.
    MapReExecute "map_re_execute" { node: usize, job: u32, idx: usize },
    /// Job accepted into a capacity-scheduler queue (tenant stream). Emitted
    /// right before the `Submitted` lifecycle event so aggregators can key
    /// later job events by tenant.
    JobQueued "job_queued" { job: u32, queue: u32 },
    /// The in-node combiner engine folded one wave of co-located map
    /// outputs: `maps` outputs totalling `bytes_in` became one aggregate of
    /// `bytes_out` — the shuffle serves `bytes_in - bytes_out` fewer bytes.
    CombineFold "combine_fold" {
        node: usize, job: u32, maps: usize, bytes_in: u64, bytes_out: u64
    },
}

/// One event with its virtual-clock timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Sim time in integer nanoseconds (byte-exact across runs).
    pub t_ns: u64,
    pub ev: Ev,
}

impl ObsEvent {
    /// Seconds as f64 for aggregation; jsonl keeps the integer form.
    pub fn t_s(&self) -> f64 {
        self.t_ns as f64 / 1e9
    }

    /// One flat JSON object per event: `{"t_ns":..,"ev":"..",fields...}`.
    pub fn to_json(&self) -> String {
        let head = Obj::new().val("t_ns", self.t_ns).str("ev", self.ev.tag());
        self.ev.put_fields(head).finish()
    }
}

struct RecInner {
    sim: Sim,
    events: RefCell<Vec<ObsEvent>>,
}

/// Cheap, clonable handle to the event bus.
///
/// `Recorder::off()` is the default everywhere; core code calls
/// [`Recorder::emit`] with a closure so that when recording is disabled the
/// event is never even constructed. All state is host-side (`Rc` + `RefCell`)
/// and emission never interacts with the simulation, so enabling the recorder
/// cannot perturb event ordering or trace hashes.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RecInner>>,
}

impl Recorder {
    /// Disabled recorder: every `emit` is a single branch.
    pub fn off() -> Self {
        Recorder { inner: None }
    }

    /// Enabled recorder stamping events with `sim`'s virtual clock.
    pub fn on(sim: &Sim) -> Self {
        Recorder {
            inner: Some(Rc::new(RecInner {
                sim: sim.clone(),
                events: RefCell::new(Vec::new()),
            })),
        }
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event; `f` runs only when recording is enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Ev) {
        if let Some(inner) = &self.inner {
            let t_ns = inner.sim.now().as_nanos();
            inner.events.borrow_mut().push(ObsEvent { t_ns, ev: f() });
        }
    }

    /// Current sim time in ns, or `None` when off. Use to bracket durations
    /// without paying for clock reads on the disabled path.
    #[inline]
    pub fn now_ns(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.sim.now().as_nanos())
    }

    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.events.borrow().len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the event stream so far (cloned out of the bus).
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.borrow().clone())
    }

    /// The whole stream as jsonl (one event per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(inner) = &self.inner {
            for ev in inner.events.borrow().iter() {
                out.push_str(&ev.to_json());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_des::SimDuration;

    #[test]
    fn off_recorder_never_runs_the_closure() {
        let rec = Recorder::off();
        let mut ran = false;
        rec.emit(|| {
            ran = true;
            Ev::JobState {
                job: 0,
                state: JobState::Submitted,
            }
        });
        assert!(!ran);
        assert!(!rec.is_on());
        assert!(rec.is_empty());
        assert_eq!(rec.now_ns(), None);
        assert_eq!(rec.to_jsonl(), "");
    }

    #[test]
    fn on_recorder_stamps_sim_time() {
        let sim = Sim::new(7);
        let rec = Recorder::on(&sim);
        let r2 = rec.clone();
        let s2 = sim.clone();
        sim.block_on(sim.spawn(async move {
            s2.sleep(SimDuration::from_secs_f64(1.5)).await;
            r2.emit(|| Ev::JobState {
                job: 3,
                state: JobState::Finished,
            });
        }));
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t_ns, 1_500_000_000);
        assert_eq!(
            evs[0].to_json(),
            "{\"t_ns\":1500000000,\"ev\":\"job_state\",\"job\":3,\"state\":\"finished\"}"
        );
    }
}
