//! The JobTracker: task scheduling and completion-event bookkeeping.
//!
//! A synchronous state machine; TaskTrackers drive it through heartbeats
//! (the RPC timing is charged by the caller). Scheduling follows Hadoop
//! 0.20: map tasks go preferentially to TaskTrackers holding a replica of
//! their split (data locality); ReduceTasks launch once the completed-map
//! fraction passes `mapred.reduce.slowstart.completed.maps`; reducers learn
//! about completed maps through an append-only event log they poll with a
//! cursor.
//!
//! Node death ([`JobTracker::node_lost`]) follows Hadoop's TaskTracker-
//! expiry semantics: running attempts on the dead node are lost and their
//! tasks re-queued, *completed* maps whose output lived on the dead node
//! are re-executed (their intermediate data is unreachable), and running
//! reducers restart from scratch (partial shuffles are not checkpointed).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rmr_hdfs::BlockMeta;
use rmr_net::NodeId;

/// One map task to schedule: an input split plus its replica locations.
#[derive(Debug, Clone)]
pub struct MapTaskDesc {
    /// Task index.
    pub idx: usize,
    /// The HDFS block it reads.
    pub block: BlockMeta,
    /// Hosts holding replicas (locality preference).
    pub locations: Vec<NodeId>,
}

/// A map-completion event: (map index, TaskTracker index that ran it).
///
/// The log is append-only; a map re-executed after node loss appends a
/// *second* event for the same index, and readers resolve the serving
/// location latest-wins.
pub type CompletionEvent = (usize, usize);

/// What one node's death cost a job (for re-queueing and observability).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeLossReport {
    /// One entry per running map attempt that died (task re-queued when it
    /// was the last attempt).
    pub lost_running_maps: Vec<usize>,
    /// Completed maps whose output became unreachable; re-queued.
    pub lost_completed_maps: Vec<usize>,
    /// Running reduce attempts that died; re-queued.
    pub lost_reduces: Vec<usize>,
}

impl NodeLossReport {
    /// Nothing lost?
    pub fn is_empty(&self) -> bool {
        self.lost_running_maps.is_empty()
            && self.lost_completed_maps.is_empty()
            && self.lost_reduces.is_empty()
    }
}

/// A map task's in-flight attempts.
struct RunningMap {
    /// TaskTracker index of each attempt (duplicates = speculation).
    attempt_tts: Vec<usize>,
    desc: MapTaskDesc,
    /// Launch sequence for oldest-first speculation.
    seq: u64,
}

/// The job's scheduling state.
///
/// Pending maps live in a key-ordered map (`pending`) whose ascending key
/// order *is* the old scheduling deque's front-to-back order: initial tasks
/// get keys `0..n`, re-queued failures take ever-smaller keys (push-front),
/// so "first pending task" = "smallest key". A per-node locality index
/// (`local`) holds, for each replica host, the pending keys of its local
/// splits in the same ascending order, with lazy deletion: a task assigned
/// elsewhere leaves stale keys behind that are skipped (and dropped) when
/// popped. This makes a heartbeat's locality pass amortized O(assigned)
/// instead of O(pending) — the difference between flat and quadratic
/// heartbeat cost at 1k nodes.
pub struct JobTracker {
    /// Every map descriptor, kept for re-queueing completed maps whose
    /// output died with a node.
    descs: BTreeMap<usize, MapTaskDesc>,
    /// Pending maps in scheduling order (ascending key).
    pending: BTreeMap<i64, MapTaskDesc>,
    /// Per-node queues of pending keys local to that node (lazy-deleted).
    local: BTreeMap<NodeId, VecDeque<i64>>,
    /// Next key for a front re-queue (monotonically decreasing).
    front_key: i64,
    maps_running: usize,
    maps_completed: usize,
    total_maps: usize,
    events: Vec<CompletionEvent>,
    reduces_pending: VecDeque<usize>,
    reduces_done: usize,
    total_reduces: usize,
    slowstart: f64,
    /// Fault injection: these map indices fail their next attempt.
    fail_maps: BTreeSet<usize>,
    /// Fault injection: these reduce indices fail their next attempt.
    fail_reduces: BTreeSet<usize>,
    map_failures: usize,
    reduce_failures: usize,
    /// Speculative execution enabled?
    speculative: bool,
    /// Maps currently running, by task index.
    running: BTreeMap<usize, RunningMap>,
    launch_seq: u64,
    /// Maps already completed (deduplicates speculative double-finishes).
    completed_set: BTreeSet<usize>,
    /// Which TaskTracker holds each completed map's output (the winning
    /// attempt); consulted when a node dies.
    completed_on: BTreeMap<usize, usize>,
    /// Attempts still in flight for tasks that already completed (losing
    /// speculative duplicates). Their eventual result is discarded, but the
    /// attempt accounting must survive a node death.
    orphans: BTreeMap<usize, Vec<usize>>,
    /// Which TaskTracker each running reduce attempt sits on.
    running_reduces: BTreeMap<usize, usize>,
    speculative_launched: usize,
    speculative_wasted: usize,
    /// Delay scheduling: non-local scheduling opportunities to skip before
    /// a pending map accepts a non-local slot (0 = off).
    locality_delay: u32,
    /// Non-local opportunities skipped since the last non-local launch.
    nonlocal_skips: u32,
}

impl JobTracker {
    /// Creates a tracker for `maps` and `reduces` tasks.
    pub fn new(maps: Vec<MapTaskDesc>, reduces: usize, slowstart: f64) -> Self {
        let total_maps = maps.len();
        let mut local: BTreeMap<NodeId, VecDeque<i64>> = BTreeMap::new();
        let pending: BTreeMap<i64, MapTaskDesc> = maps
            .into_iter()
            .enumerate()
            .map(|(i, m)| (i as i64, m))
            .collect();
        for (key, m) in &pending {
            for loc in &m.locations {
                local.entry(*loc).or_default().push_back(*key);
            }
        }
        let descs = pending.values().map(|m| (m.idx, m.clone())).collect();
        JobTracker {
            descs,
            pending,
            local,
            front_key: -1,
            maps_running: 0,
            maps_completed: 0,
            total_maps,
            events: Vec::new(),
            reduces_pending: (0..reduces).collect(),
            reduces_done: 0,
            total_reduces: reduces,
            slowstart,
            fail_maps: BTreeSet::new(),
            fail_reduces: BTreeSet::new(),
            map_failures: 0,
            reduce_failures: 0,
            speculative: false,
            running: BTreeMap::new(),
            launch_seq: 0,
            completed_set: BTreeSet::new(),
            completed_on: BTreeMap::new(),
            orphans: BTreeMap::new(),
            running_reduces: BTreeMap::new(),
            speculative_launched: 0,
            speculative_wasted: 0,
            locality_delay: 0,
            nonlocal_skips: 0,
        }
    }

    /// Enables speculative map execution.
    pub fn set_speculative(&mut self, on: bool) {
        self.speculative = on;
    }

    /// Sets the delay-scheduling skip budget (see `JobConf::locality_delay`).
    pub fn set_locality_delay(&mut self, delay: u32) {
        self.locality_delay = delay;
    }

    /// Arms a one-shot map failure: `map_idx`'s next attempt aborts.
    pub fn inject_map_failure(&mut self, map_idx: usize) {
        self.fail_maps.insert(map_idx);
    }

    /// Arms a one-shot reduce failure: `reduce_idx`'s next attempt aborts.
    pub fn inject_reduce_failure(&mut self, reduce_idx: usize) {
        self.fail_reduces.insert(reduce_idx);
    }

    /// Attempts launched purely speculatively.
    pub fn speculative_launched(&self) -> usize {
        self.speculative_launched
    }

    /// Speculative attempts whose work was discarded (the original won, or
    /// the duplicate finished second).
    pub fn speculative_wasted(&self) -> usize {
        self.speculative_wasted
    }

    /// Total map tasks.
    pub fn total_maps(&self) -> usize {
        self.total_maps
    }

    /// Total reduce tasks.
    pub fn total_reduces(&self) -> usize {
        self.total_reduces
    }

    /// Completed map count.
    pub fn maps_completed(&self) -> usize {
        self.maps_completed
    }

    /// Map tasks waiting to be assigned.
    pub fn pending_maps(&self) -> usize {
        self.pending.len()
    }

    /// Would a heartbeat advertising free slots get *any* assignment right
    /// now? O(1); lets the runtime skip whole jobs during its per-node
    /// walk instead of paying a full (no-op) heartbeat per idle job.
    /// Conservative on speculation: running tasks *may* have stragglers.
    pub fn has_assignable_work(&self) -> bool {
        if !self.pending.is_empty() {
            return true;
        }
        if !self.reduces_pending.is_empty() && self.reduce_phase_open() {
            return true;
        }
        self.speculative && !self.running.is_empty()
    }

    /// Map attempts currently running (speculative duplicates included).
    pub fn running_maps(&self) -> usize {
        self.maps_running
    }

    /// Reduce tasks waiting to be assigned.
    pub fn pending_reduces(&self) -> usize {
        self.reduces_pending.len()
    }

    /// Completed reduce count.
    pub fn reduces_completed(&self) -> usize {
        self.reduces_done
    }

    /// Heartbeat from TaskTracker `tt_idx` on `node` advertising free
    /// slots; returns the `(maps, reduces)` to launch there, speculative
    /// duplicates last. Data-local maps are preferred; remaining slots take arbitrary pending maps
    /// (single-rack cluster: everything else is equally remote), unless
    /// delay scheduling is holding them back for a local slot.
    pub fn heartbeat(
        &mut self,
        node: NodeId,
        tt_idx: usize,
        free_map_slots: usize,
        free_reduce_slots: usize,
    ) -> (Vec<MapTaskDesc>, Vec<usize>) {
        let mut maps = Vec::new();
        // Pass 1: data-local — pop this node's locality queue, skipping
        // (and discarding) stale keys of tasks already assigned elsewhere.
        if let Some(queue) = self.local.get_mut(&node) {
            while maps.len() < free_map_slots {
                match queue.pop_front() {
                    Some(key) => {
                        if let Some(m) = self.pending.remove(&key) {
                            maps.push(m);
                        }
                    }
                    None => break,
                }
            }
            if queue.is_empty() {
                self.local.remove(&node);
            }
        }
        // Pass 2: any — first pending task in scheduling order. Under delay
        // scheduling the job declines up to `locality_delay` such non-local
        // opportunities, betting a local slot frees up; the skip counter
        // bounds the wait, and a granted non-local launch resets it.
        if maps.len() < free_map_slots && !self.pending.is_empty() {
            if self.nonlocal_skips >= self.locality_delay {
                while maps.len() < free_map_slots {
                    match self.pending.pop_first() {
                        Some((_, m)) => maps.push(m),
                        None => break,
                    }
                }
                self.nonlocal_skips = 0;
            } else {
                self.nonlocal_skips += 1;
            }
        }
        for m in &maps {
            self.launch_seq += 1;
            self.running.insert(
                m.idx,
                RunningMap {
                    attempt_tts: vec![tt_idx],
                    desc: m.clone(),
                    seq: self.launch_seq,
                },
            );
        }
        // Pass 3: speculation — pending queue drained, idle slots re-run the
        // oldest single-attempt stragglers.
        if self.speculative && self.pending.is_empty() {
            let mut stragglers: Vec<(u64, usize)> = self
                .running
                .iter()
                .filter(|(idx, rm)| {
                    rm.attempt_tts.len() == 1
                        && !self.completed_set.contains(*idx)
                        && !maps.iter().any(|m| m.idx == **idx)
                })
                .map(|(idx, rm)| (rm.seq, *idx))
                .collect();
            stragglers.sort();
            for (_, idx) in stragglers {
                if maps.len() >= free_map_slots {
                    break;
                }
                let entry = self.running.get_mut(&idx).unwrap();
                entry.attempt_tts.push(tt_idx);
                self.speculative_launched += 1;
                maps.push(entry.desc.clone());
            }
        }
        self.maps_running += maps.len();

        let mut reduces = Vec::new();
        if self.reduce_phase_open() {
            for _ in 0..free_reduce_slots {
                match self.reduces_pending.pop_front() {
                    Some(r) => {
                        self.running_reduces.insert(r, tt_idx);
                        reduces.push(r);
                    }
                    None => break,
                }
            }
        }
        (maps, reduces)
    }

    fn reduce_phase_open(&self) -> bool {
        if self.total_maps == 0 {
            return true;
        }
        self.maps_completed as f64 >= self.slowstart * self.total_maps as f64
    }

    /// Should this attempt of `map_idx` fail? (Consumes the injection.)
    pub fn should_fail(&mut self, map_idx: usize) -> bool {
        if self.fail_maps.remove(&map_idx) {
            self.map_failures += 1;
            true
        } else {
            false
        }
    }

    /// Map attempts that failed and were re-executed.
    pub fn map_failures_seen(&self) -> usize {
        self.map_failures
    }

    /// Reduce attempts that failed and were re-executed.
    pub fn reduce_failures_seen(&self) -> usize {
        self.reduce_failures
    }

    /// A map attempt finished on TaskTracker `tt_idx`. Returns `true` when
    /// this is the *first* completion of the task (its output counts);
    /// `false` for a speculative loser, whose output is discarded.
    pub fn map_completed(&mut self, map_idx: usize, tt_idx: usize) -> bool {
        if !self.completed_set.insert(map_idx) {
            // A duplicate attempt finishing after the task is already done.
            self.maps_running -= 1;
            self.speculative_wasted += 1;
            self.drop_orphan(map_idx, tt_idx);
            return false;
        }
        if let Some(mut rm) = self.running.remove(&map_idx) {
            // The winner leaves the attempt table; in-flight duplicates are
            // orphaned (their results will be discarded, but the attempts
            // still occupy slots and must survive node-death accounting).
            if let Some(p) = rm.attempt_tts.iter().position(|t| *t == tt_idx) {
                rm.attempt_tts.remove(p);
            }
            if !rm.attempt_tts.is_empty() {
                self.orphans
                    .entry(map_idx)
                    .or_default()
                    .extend(rm.attempt_tts);
            }
        } else {
            // Re-completion by an orphaned duplicate after node loss
            // un-completed the task.
            self.drop_orphan(map_idx, tt_idx);
        }
        self.maps_running -= 1;
        self.maps_completed += 1;
        self.completed_on.insert(map_idx, tt_idx);
        self.events.push((map_idx, tt_idx));
        true
    }

    fn drop_orphan(&mut self, map_idx: usize, tt_idx: usize) {
        if let Some(v) = self.orphans.get_mut(&map_idx) {
            if let Some(p) = v.iter().position(|t| *t == tt_idx) {
                v.remove(p);
            }
            if v.is_empty() {
                self.orphans.remove(&map_idx);
            }
        }
    }

    /// A map attempt on `tt_idx` failed; the task is re-queued (front:
    /// re-execute soon) once its last attempt is gone.
    pub fn map_failed(&mut self, desc: MapTaskDesc, tt_idx: usize) {
        self.maps_running -= 1;
        if self.completed_set.contains(&desc.idx) {
            // A speculative sibling already won; this late failure is just
            // a wasted duplicate, not a reschedule.
            self.speculative_wasted += 1;
            self.drop_orphan(desc.idx, tt_idx);
            return;
        }
        if let Some(rm) = self.running.get_mut(&desc.idx) {
            if let Some(p) = rm.attempt_tts.iter().position(|t| *t == tt_idx) {
                rm.attempt_tts.remove(p);
            }
            if !rm.attempt_tts.is_empty() {
                return; // another attempt is still running
            }
            self.running.remove(&desc.idx);
        }
        self.requeue_map(desc);
    }

    /// Re-queue at the front (re-execute soon): an ever-smaller key sorts
    /// before everything pending, and front-pushing the locality queues
    /// keeps them ascending (every new front key is the global minimum).
    fn requeue_map(&mut self, desc: MapTaskDesc) {
        let key = self.front_key;
        self.front_key -= 1;
        for loc in &desc.locations {
            self.local.entry(*loc).or_default().push_front(key);
        }
        self.pending.insert(key, desc);
    }

    /// Should this reduce attempt fail? (Consumes the injection.)
    pub fn should_fail_reduce(&mut self, reduce_idx: usize) -> bool {
        if self.fail_reduces.remove(&reduce_idx) {
            self.reduce_failures += 1;
            true
        } else {
            false
        }
    }

    /// A reduce attempt failed; re-queue it.
    pub fn reduce_failed(&mut self, reduce_idx: usize) {
        self.running_reduces.remove(&reduce_idx);
        self.reduces_pending.push_front(reduce_idx);
    }

    /// A reduce attempt died mid-shuffle (its sources vanished, or its own
    /// node did while the runtime re-queues on its behalf). Counts as a
    /// failure and re-queues.
    pub fn reduce_attempt_lost(&mut self, reduce_idx: usize) {
        self.reduce_failures += 1;
        self.reduce_failed(reduce_idx);
    }

    /// TaskTracker `tt_idx` died. Re-queues everything it was running and
    /// every completed map whose output it held; returns what was lost so
    /// the runtime can invalidate stores and emit events.
    pub fn node_lost(&mut self, tt_idx: usize) -> NodeLossReport {
        let mut report = NodeLossReport::default();
        // Running map attempts on the dead node: each lost attempt is a
        // failure; the task re-queues once no attempt survives.
        let idxs: Vec<usize> = self.running.keys().copied().collect();
        for idx in idxs {
            let rm = self.running.get_mut(&idx).unwrap();
            let before = rm.attempt_tts.len();
            rm.attempt_tts.retain(|t| *t != tt_idx);
            let lost = before - rm.attempt_tts.len();
            if lost == 0 {
                continue;
            }
            self.maps_running -= lost;
            self.map_failures += lost;
            report
                .lost_running_maps
                .extend(std::iter::repeat_n(idx, lost));
            if rm.attempt_tts.is_empty() {
                let desc = self.running.remove(&idx).unwrap().desc;
                self.requeue_map(desc);
            }
        }
        // Orphaned duplicates on the dead node vanish silently (their
        // results were going to be discarded anyway).
        for tts in self.orphans.values_mut() {
            let before = tts.len();
            tts.retain(|t| *t != tt_idx);
            let lost = before - tts.len();
            self.maps_running -= lost;
            self.speculative_wasted += lost;
        }
        self.orphans.retain(|_, v| !v.is_empty());
        // Completed maps whose output lived on the dead node: unreachable
        // intermediate data, so the map re-executes (not counted as a
        // failure — the attempt itself succeeded). Once every reduce has
        // committed, the intermediate data has no remaining consumer and
        // the re-execution would be pure waste — skip it.
        let shuffle_live = self.total_reduces == 0 || self.reduces_done < self.total_reduces;
        if shuffle_live {
            let lost_completed: Vec<usize> = self
                .completed_on
                .iter()
                .filter(|(_, t)| **t == tt_idx)
                .map(|(m, _)| *m)
                .collect();
            for idx in lost_completed {
                self.completed_on.remove(&idx);
                self.completed_set.remove(&idx);
                self.maps_completed -= 1;
                self.requeue_map(self.descs[&idx].clone());
                report.lost_completed_maps.push(idx);
            }
        }
        // Running reduce attempts on the dead node restart from scratch.
        let lost_reduces: Vec<usize> = self
            .running_reduces
            .iter()
            .filter(|(_, t)| **t == tt_idx)
            .map(|(r, _)| *r)
            .collect();
        for r in lost_reduces {
            self.reduce_attempt_lost(r);
            report.lost_reduces.push(r);
        }
        report
    }

    /// All maps completed?
    pub fn maps_done(&self) -> bool {
        self.maps_completed == self.total_maps
    }

    /// Completion events after `cursor`; returns the new cursor.
    pub fn events_since(&self, cursor: usize) -> (Vec<CompletionEvent>, usize) {
        (self.events[cursor..].to_vec(), self.events.len())
    }

    /// Reducer `reduce_idx` finished.
    pub fn reduce_completed(&mut self, reduce_idx: usize) {
        self.running_reduces.remove(&reduce_idx);
        self.reduces_done += 1;
    }

    /// The whole job done?
    pub fn job_done(&self) -> bool {
        self.maps_done() && self.reduces_done == self.total_reduces
    }
}

#[cfg(test)]
impl JobTracker {
    /// Test helper: append a raw completion event without touching counters.
    pub(crate) fn push_event_for_test(&mut self, map_idx: usize, tt_idx: usize) {
        self.events.push((map_idx, tt_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_hdfs::BlockId;

    fn desc(idx: usize, loc: u32) -> MapTaskDesc {
        MapTaskDesc {
            idx,
            block: BlockMeta {
                id: BlockId(idx as u64),
                size: 100,
                replicas: vec![0],
            },
            locations: vec![NodeId(loc)],
        }
    }

    #[test]
    fn locality_preferred() {
        let mut jt = JobTracker::new(vec![desc(0, 1), desc(1, 2), desc(2, 1)], 0, 0.05);
        let (maps, _) = jt.heartbeat(NodeId(1), 0, 2, 0);
        assert_eq!(maps.iter().map(|m| m.idx).collect::<Vec<_>>(), vec![0, 2]);
        // Node 3 has no local splits → takes any.
        let (maps, _) = jt.heartbeat(NodeId(3), 2, 2, 0);
        assert_eq!(maps.iter().map(|m| m.idx).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn slowstart_gates_reducers() {
        let maps: Vec<_> = (0..10).map(|i| desc(i, 0)).collect();
        let mut jt = JobTracker::new(maps, 2, 0.5);
        let (m, r) = jt.heartbeat(NodeId(0), 0, 10, 2);
        assert_eq!(m.len(), 10);
        assert!(r.is_empty(), "no reducers before slowstart");
        for i in 0..5 {
            jt.map_completed(i, 0);
        }
        let (_, r) = jt.heartbeat(NodeId(0), 0, 0, 2);
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn events_cursor_protocol() {
        let mut jt = JobTracker::new(vec![desc(0, 0), desc(1, 0)], 1, 0.0);
        let _ = jt.heartbeat(NodeId(0), 0, 2, 0);
        assert!(jt.map_completed(0, 3));
        let (ev, cur) = jt.events_since(0);
        assert_eq!(ev, vec![(0, 3)]);
        assert!(jt.map_completed(1, 4));
        let (ev, cur2) = jt.events_since(cur);
        assert_eq!(ev, vec![(1, 4)]);
        let (ev, _) = jt.events_since(cur2);
        assert!(ev.is_empty());
    }

    #[test]
    fn failed_map_is_rescheduled() {
        let mut jt = JobTracker::new(vec![desc(0, 0)], 0, 0.0);
        jt.inject_map_failure(0);
        let (maps, _) = jt.heartbeat(NodeId(0), 0, 1, 0);
        assert!(jt.should_fail(0));
        assert!(!jt.should_fail(0), "only fails once");
        jt.map_failed(maps.into_iter().next().unwrap(), 0);
        let (maps, _) = jt.heartbeat(NodeId(5), 4, 1, 0);
        assert_eq!(maps.len(), 1);
        jt.map_completed(0, 4);
        assert!(jt.maps_done());
        assert_eq!(jt.map_failures_seen(), 1);
        assert_eq!(jt.reduce_failures_seen(), 0);
    }

    #[test]
    fn speculation_duplicates_stragglers_when_queue_drains() {
        let mut jt = JobTracker::new(vec![desc(0, 0), desc(1, 0)], 0, 0.0);
        jt.set_speculative(true);
        let (m, _) = jt.heartbeat(NodeId(0), 0, 2, 0);
        assert_eq!(m.len(), 2);
        // Queue empty; a second TT's free slots re-run the oldest straggler.
        let (m2, _) = jt.heartbeat(NodeId(1), 1, 1, 0);
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].idx, 0, "oldest straggler first");
        assert_eq!(jt.speculative_launched(), 1);
        // First finisher wins; the loser's completion is discarded.
        assert!(jt.map_completed(0, 1));
        assert!(!jt.map_completed(0, 0));
        assert_eq!(jt.speculative_wasted(), 1);
        assert!(jt.map_completed(1, 0));
        assert!(jt.maps_done());
        // A completed task is never speculated again.
        let (m3, _) = jt.heartbeat(NodeId(2), 2, 4, 0);
        assert!(m3.is_empty());
    }

    #[test]
    fn speculation_disabled_by_default() {
        let mut jt = JobTracker::new(vec![desc(0, 0)], 0, 0.0);
        let _ = jt.heartbeat(NodeId(0), 0, 1, 0);
        let (m, _) = jt.heartbeat(NodeId(1), 1, 4, 0);
        assert!(m.is_empty(), "no duplicates without speculation");
    }

    #[test]
    fn failed_reduce_is_rescheduled() {
        let mut jt = JobTracker::new(vec![], 2, 0.0);
        jt.inject_reduce_failure(1);
        let (_, r) = jt.heartbeat(NodeId(0), 0, 0, 2);
        assert_eq!(r, vec![0, 1]);
        assert!(jt.should_fail_reduce(1));
        assert!(!jt.should_fail_reduce(1), "fails only once");
        jt.reduce_failed(1);
        let (_, r) = jt.heartbeat(NodeId(1), 1, 0, 2);
        assert_eq!(r, vec![1]);
        jt.reduce_completed(0);
        jt.reduce_completed(1);
        assert!(jt.job_done());
        assert_eq!(jt.reduce_failures_seen(), 1);
        assert_eq!(
            jt.map_failures_seen(),
            0,
            "reduce failure is not a map failure"
        );
    }

    #[test]
    fn job_done_requires_all_phases() {
        let mut jt = JobTracker::new(vec![desc(0, 0)], 1, 0.0);
        let _ = jt.heartbeat(NodeId(0), 0, 1, 1);
        assert!(!jt.job_done());
        jt.map_completed(0, 0);
        assert!(!jt.job_done());
        jt.reduce_completed(0);
        assert!(jt.job_done());
    }

    #[test]
    fn node_loss_requeues_running_and_completed_work() {
        // 3 maps, 1 reduce, all on tt0 (NodeId 1); tt1 = NodeId 2.
        let maps: Vec<_> = (0..3).map(|i| desc(i, 1)).collect();
        let mut jt = JobTracker::new(maps, 1, 0.0);
        let (m, r) = jt.heartbeat(NodeId(1), 0, 2, 1);
        assert_eq!(m.len(), 2);
        assert_eq!(r, vec![0]);
        assert!(jt.map_completed(0, 0)); // map 0 completed ON tt0
        let (m2, _) = jt.heartbeat(NodeId(2), 1, 1, 0);
        assert_eq!(m2.len(), 1, "map 2 goes to tt1");

        let report = jt.node_lost(0);
        // Running map 1 (on tt0) lost; completed map 0's output lost; the
        // reduce on tt0 lost. Map 2 on tt1 untouched.
        assert_eq!(report.lost_running_maps, vec![1]);
        assert_eq!(report.lost_completed_maps, vec![0]);
        assert_eq!(report.lost_reduces, vec![0]);
        assert_eq!(jt.maps_completed(), 0);
        assert_eq!(jt.running_maps(), 1);
        assert_eq!(jt.pending_maps(), 2, "maps 0 and 1 re-queued");
        assert_eq!(
            jt.map_failures_seen(),
            1,
            "lost attempt counts, lost output does not"
        );
        assert_eq!(jt.reduce_failures_seen(), 1);

        // The surviving node picks everything back up and the job finishes.
        let (m3, r3) = jt.heartbeat(NodeId(2), 1, 2, 1);
        assert_eq!(m3.len(), 2);
        assert_eq!(r3, vec![0]);
        assert!(jt.map_completed(2, 1));
        assert!(jt.map_completed(0, 1), "re-execution completes again");
        assert!(jt.map_completed(1, 1));
        assert!(jt.maps_done());
        // The event log holds both completions of map 0; latest wins.
        let (ev, _) = jt.events_since(0);
        assert_eq!(ev.iter().filter(|(m, _)| *m == 0).count(), 2);
        jt.reduce_completed(0);
        assert!(jt.job_done());
    }

    #[test]
    fn node_loss_with_speculative_duplicate_keeps_counts_sane() {
        let mut jt = JobTracker::new(vec![desc(0, 1)], 0, 0.0);
        jt.set_speculative(true);
        let _ = jt.heartbeat(NodeId(1), 0, 1, 0);
        let (dup, _) = jt.heartbeat(NodeId(2), 1, 1, 0);
        assert_eq!(dup.len(), 1, "speculative duplicate launched");
        assert_eq!(jt.running_maps(), 2);
        // tt0 dies: one attempt lost, the duplicate on tt1 survives and the
        // task is NOT re-queued.
        let report = jt.node_lost(0);
        assert_eq!(report.lost_running_maps, vec![0]);
        assert_eq!(jt.running_maps(), 1);
        assert_eq!(jt.pending_maps(), 0);
        assert!(jt.map_completed(0, 1));
        assert!(jt.maps_done());
    }

    #[test]
    fn node_loss_drops_orphaned_duplicates() {
        let mut jt = JobTracker::new(vec![desc(0, 1)], 0, 0.0);
        jt.set_speculative(true);
        let _ = jt.heartbeat(NodeId(1), 0, 1, 0);
        let _ = jt.heartbeat(NodeId(2), 1, 1, 0);
        // tt1's duplicate wins; tt0's original is now an orphan in flight.
        assert!(jt.map_completed(0, 1));
        assert_eq!(jt.running_maps(), 1);
        // tt0 dies; the orphan vanishes without un-completing the task.
        let report = jt.node_lost(0);
        assert!(report.lost_running_maps.is_empty());
        assert!(report.lost_completed_maps.is_empty());
        assert_eq!(jt.running_maps(), 0);
        assert!(jt.maps_done());
        assert_eq!(jt.speculative_wasted(), 1);
    }
}
