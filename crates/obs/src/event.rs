//! The event bus: typed sim-time events and the [`Recorder`] handle.
//!
//! Every event is stamped with the virtual clock (integer nanoseconds, so the
//! serialized stream is byte-exact across runs) and carries only plain
//! integers/bools — no references into core data structures. Emission is
//! strictly host-side: a `Vec` push guarded by one `Option` branch.

use std::cell::RefCell;
use std::rc::Rc;

use rmr_des::Sim;

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
    /// Speculative attempt stood down by the capacity scheduler to free a
    /// slot for a queue below its guarantee; the original attempt keeps
    /// running, so no committed work is lost.
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

/// A typed observability event. Field conventions: `node` is the TaskTracker
/// index, `job` the numeric job id, `idx` a task index within the job.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A task slot permit was taken on `node`.
    SlotAcquire {
        node: usize,
        job: u32,
        kind: TaskFlavor,
        idx: usize,
    },
    /// The matching permit was returned.
    SlotRelease {
        node: usize,
        job: u32,
        kind: TaskFlavor,
        idx: usize,
    },
    /// Attempt body started executing (after launch overhead scheduling).
    AttemptStart {
        node: usize,
        job: u32,
        kind: TaskFlavor,
        idx: usize,
    },
    /// Attempt body ended.
    AttemptFinish {
        node: usize,
        job: u32,
        kind: TaskFlavor,
        idx: usize,
        outcome: AttemptOutcome,
    },
    /// One heartbeat round-trip on `node`, observed after assignment:
    /// slot counts are what remains free once this round's launches happened,
    /// queue depths are summed over all active jobs.
    Heartbeat {
        node: usize,
        active_jobs: usize,
        pending_maps: u64,
        pending_reduces: u64,
        free_map_slots: u64,
        free_reduce_slots: u64,
    },
    /// Job lifecycle transition.
    JobState { job: u32, state: JobState },
    /// A reducer on `node` asked `server` for one map output partition.
    ShuffleRequest {
        node: usize,
        server: usize,
        job: u32,
        map_idx: usize,
        reduce: usize,
    },
    /// The serving TaskTracker (`node` here is the *server*) answered one
    /// request; `serve_ns` is time spent inside `serve()` (cache/disk + serde).
    ShuffleResponse {
        node: usize,
        job: u32,
        map_idx: usize,
        reduce: usize,
        bytes: u64,
        records: u64,
        from_cache: bool,
        serve_ns: u64,
    },
    /// The reduce-side merge emitted one batch downstream.
    MergeBatch {
        node: usize,
        job: u32,
        reduce: usize,
        records: u64,
        bytes: u64,
    },
    /// Reduce-side shuffle data spilled to local disk.
    Spill {
        node: usize,
        job: u32,
        reduce: usize,
        bytes: u64,
    },
    /// Serving-side prefetch cache hit.
    CacheHit {
        node: usize,
        job: u32,
        map_idx: usize,
        bytes: u64,
    },
    /// Serving-side prefetch cache miss (disk read).
    CacheMiss {
        node: usize,
        job: u32,
        map_idx: usize,
        bytes: u64,
    },
    /// Entry admitted to the cache (`demand`: re-cached after a demand miss
    /// rather than brought in by the background prefetcher).
    CacheInsert {
        node: usize,
        job: u32,
        map_idx: usize,
        bytes: u64,
        demand: bool,
    },
    /// Entry evicted to make room.
    CacheEvict {
        node: usize,
        job: u32,
        map_idx: usize,
        bytes: u64,
    },
    /// TaskTracker `node` was killed: its daemons, running attempts, and
    /// served map outputs are gone.
    NodeDown { node: usize },
    /// TaskTracker `node` came back; `epoch` counts restarts.
    NodeUp { node: usize, epoch: u64 },
    /// A running attempt died with its node (never reported its own
    /// outcome); the task was re-queued.
    AttemptLost {
        node: usize,
        job: u32,
        kind: TaskFlavor,
        idx: usize,
    },
    /// A map that had already completed on the dead `node` was re-queued for
    /// re-execution — its served outputs are unrecoverable.
    MapReExecute { node: usize, job: u32, idx: usize },
    /// Job accepted into a capacity-scheduler queue (tenant stream). Emitted
    /// right before the `Submitted` lifecycle event so aggregators can key
    /// later job events by tenant.
    JobQueued { job: u32, queue: u32 },
    /// The in-node combiner engine folded one wave of co-located map
    /// outputs: `maps` outputs totalling `bytes_in` became one aggregate of
    /// `bytes_out` — the shuffle serves `bytes_in - bytes_out` fewer bytes.
    CombineFold {
        node: usize,
        job: u32,
        maps: usize,
        bytes_in: u64,
        bytes_out: u64,
    },
}

impl Ev {
    /// Stable snake_case tag used in jsonl output.
    pub fn tag(&self) -> &'static str {
        match self {
            Ev::SlotAcquire { .. } => "slot_acquire",
            Ev::SlotRelease { .. } => "slot_release",
            Ev::AttemptStart { .. } => "attempt_start",
            Ev::AttemptFinish { .. } => "attempt_finish",
            Ev::Heartbeat { .. } => "heartbeat",
            Ev::JobState { .. } => "job_state",
            Ev::ShuffleRequest { .. } => "shuffle_request",
            Ev::ShuffleResponse { .. } => "shuffle_response",
            Ev::MergeBatch { .. } => "merge_batch",
            Ev::Spill { .. } => "spill",
            Ev::CacheHit { .. } => "cache_hit",
            Ev::CacheMiss { .. } => "cache_miss",
            Ev::CacheInsert { .. } => "cache_insert",
            Ev::CacheEvict { .. } => "cache_evict",
            Ev::NodeDown { .. } => "node_down",
            Ev::NodeUp { .. } => "node_up",
            Ev::AttemptLost { .. } => "attempt_lost",
            Ev::MapReExecute { .. } => "map_re_execute",
            Ev::JobQueued { .. } => "job_queued",
            Ev::CombineFold { .. } => "combine_fold",
        }
    }
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
        let mut s = format!("{{\"t_ns\":{},\"ev\":\"{}\"", self.t_ns, self.ev.tag());
        match &self.ev {
            Ev::SlotAcquire {
                node,
                job,
                kind,
                idx,
            }
            | Ev::SlotRelease {
                node,
                job,
                kind,
                idx,
            }
            | Ev::AttemptStart {
                node,
                job,
                kind,
                idx,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"kind\":\"{}\",\"idx\":{idx}",
                    kind.as_str()
                ));
            }
            Ev::AttemptFinish {
                node,
                job,
                kind,
                idx,
                outcome,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"kind\":\"{}\",\"idx\":{idx},\"outcome\":\"{}\"",
                    kind.as_str(),
                    outcome.as_str()
                ));
            }
            Ev::Heartbeat {
                node,
                active_jobs,
                pending_maps,
                pending_reduces,
                free_map_slots,
                free_reduce_slots,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"active_jobs\":{active_jobs},\"pending_maps\":{pending_maps},\"pending_reduces\":{pending_reduces},\"free_map_slots\":{free_map_slots},\"free_reduce_slots\":{free_reduce_slots}"
                ));
            }
            Ev::JobState { job, state } => {
                s.push_str(&format!(",\"job\":{job},\"state\":\"{}\"", state.as_str()));
            }
            Ev::ShuffleRequest {
                node,
                server,
                job,
                map_idx,
                reduce,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"server\":{server},\"job\":{job},\"map_idx\":{map_idx},\"reduce\":{reduce}"
                ));
            }
            Ev::ShuffleResponse {
                node,
                job,
                map_idx,
                reduce,
                bytes,
                records,
                from_cache,
                serve_ns,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"map_idx\":{map_idx},\"reduce\":{reduce},\"bytes\":{bytes},\"records\":{records},\"from_cache\":{from_cache},\"serve_ns\":{serve_ns}"
                ));
            }
            Ev::MergeBatch {
                node,
                job,
                reduce,
                records,
                bytes,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"reduce\":{reduce},\"records\":{records},\"bytes\":{bytes}"
                ));
            }
            Ev::Spill {
                node,
                job,
                reduce,
                bytes,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"reduce\":{reduce},\"bytes\":{bytes}"
                ));
            }
            Ev::CacheHit {
                node,
                job,
                map_idx,
                bytes,
            }
            | Ev::CacheMiss {
                node,
                job,
                map_idx,
                bytes,
            }
            | Ev::CacheEvict {
                node,
                job,
                map_idx,
                bytes,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"map_idx\":{map_idx},\"bytes\":{bytes}"
                ));
            }
            Ev::CacheInsert {
                node,
                job,
                map_idx,
                bytes,
                demand,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"map_idx\":{map_idx},\"bytes\":{bytes},\"demand\":{demand}"
                ));
            }
            Ev::NodeDown { node } => {
                s.push_str(&format!(",\"node\":{node}"));
            }
            Ev::NodeUp { node, epoch } => {
                s.push_str(&format!(",\"node\":{node},\"epoch\":{epoch}"));
            }
            Ev::AttemptLost {
                node,
                job,
                kind,
                idx,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"kind\":\"{}\",\"idx\":{idx}",
                    kind.as_str()
                ));
            }
            Ev::MapReExecute { node, job, idx } => {
                s.push_str(&format!(",\"node\":{node},\"job\":{job},\"idx\":{idx}"));
            }
            Ev::JobQueued { job, queue } => {
                s.push_str(&format!(",\"job\":{job},\"queue\":{queue}"));
            }
            Ev::CombineFold {
                node,
                job,
                maps,
                bytes_in,
                bytes_out,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"job\":{job},\"maps\":{maps},\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out}"
                ));
            }
        }
        s.push('}');
        s
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
        sim.spawn(async move {
            s2.sleep(SimDuration::from_secs_f64(1.5)).await;
            r2.emit(|| Ev::JobState {
                job: 3,
                state: JobState::Finished,
            });
        })
        .detach();
        sim.run();
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t_ns, 1_500_000_000);
        assert_eq!(
            evs[0].to_json(),
            "{\"t_ns\":1500000000,\"ev\":\"job_state\",\"job\":3,\"state\":\"finished\"}"
        );
    }

    use rmr_des::SimDuration;

    #[test]
    fn every_variant_serializes_with_its_tag() {
        let cases: Vec<(Ev, &str)> = vec![
            (
                Ev::SlotAcquire {
                    node: 1,
                    job: 2,
                    kind: TaskFlavor::Map,
                    idx: 3,
                },
                "slot_acquire",
            ),
            (
                Ev::SlotRelease {
                    node: 1,
                    job: 2,
                    kind: TaskFlavor::Reduce,
                    idx: 3,
                },
                "slot_release",
            ),
            (
                Ev::AttemptStart {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 0,
                },
                "attempt_start",
            ),
            (
                Ev::AttemptFinish {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 0,
                    outcome: AttemptOutcome::Discarded,
                },
                "attempt_finish",
            ),
            (
                Ev::Heartbeat {
                    node: 2,
                    active_jobs: 1,
                    pending_maps: 4,
                    pending_reduces: 2,
                    free_map_slots: 0,
                    free_reduce_slots: 1,
                },
                "heartbeat",
            ),
            (
                Ev::JobState {
                    job: 9,
                    state: JobState::MapsDone,
                },
                "job_state",
            ),
            (
                Ev::ShuffleRequest {
                    node: 1,
                    server: 2,
                    job: 0,
                    map_idx: 5,
                    reduce: 1,
                },
                "shuffle_request",
            ),
            (
                Ev::ShuffleResponse {
                    node: 2,
                    job: 0,
                    map_idx: 5,
                    reduce: 1,
                    bytes: 4096,
                    records: 40,
                    from_cache: true,
                    serve_ns: 1000,
                },
                "shuffle_response",
            ),
            (
                Ev::MergeBatch {
                    node: 1,
                    job: 0,
                    reduce: 1,
                    records: 100,
                    bytes: 9999,
                },
                "merge_batch",
            ),
            (
                Ev::Spill {
                    node: 1,
                    job: 0,
                    reduce: 1,
                    bytes: 5000,
                },
                "spill",
            ),
            (
                Ev::CacheHit {
                    node: 0,
                    job: 1,
                    map_idx: 2,
                    bytes: 10,
                },
                "cache_hit",
            ),
            (
                Ev::CacheMiss {
                    node: 0,
                    job: 1,
                    map_idx: 2,
                    bytes: 10,
                },
                "cache_miss",
            ),
            (
                Ev::CacheInsert {
                    node: 0,
                    job: 1,
                    map_idx: 2,
                    bytes: 10,
                    demand: false,
                },
                "cache_insert",
            ),
            (
                Ev::CacheEvict {
                    node: 0,
                    job: 1,
                    map_idx: 2,
                    bytes: 10,
                },
                "cache_evict",
            ),
            (Ev::NodeDown { node: 3 }, "node_down"),
            (Ev::NodeUp { node: 3, epoch: 2 }, "node_up"),
            (
                Ev::AttemptLost {
                    node: 3,
                    job: 1,
                    kind: TaskFlavor::Map,
                    idx: 7,
                },
                "attempt_lost",
            ),
            (
                Ev::MapReExecute {
                    node: 3,
                    job: 1,
                    idx: 7,
                },
                "map_re_execute",
            ),
            (Ev::JobQueued { job: 12, queue: 1 }, "job_queued"),
            (
                Ev::CombineFold {
                    node: 2,
                    job: 0,
                    maps: 4,
                    bytes_in: 4000,
                    bytes_out: 1000,
                },
                "combine_fold",
            ),
        ];
        for (ev, tag) in cases {
            assert_eq!(ev.tag(), tag);
            let json = ObsEvent { t_ns: 42, ev }.to_json();
            assert!(json.starts_with("{\"t_ns\":42,\"ev\":\""), "{json}");
            assert!(json.contains(&format!("\"ev\":\"{tag}\"")), "{json}");
            assert!(json.ends_with('}'), "{json}");
        }
    }
}
