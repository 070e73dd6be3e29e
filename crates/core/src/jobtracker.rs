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

use std::collections::{BTreeMap, VecDeque};

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
    /// Running maps whose attempt died; re-queued.
    pub lost_running_maps: Vec<usize>,
    /// Completed maps whose output became unreachable; re-queued.
    pub lost_completed_maps: Vec<usize>,
    /// Running reduce attempts that died; re-queued.
    pub lost_reduces: Vec<usize>,
}

/// The job's scheduling state.
///
/// Every map descriptor is stored once, in `descs` at its map index; the
/// rest of the state names maps by index. Pending maps live in a key-ordered
/// map (`pending`) whose ascending key order is the scheduling order:
/// initial tasks get keys `0..n`, re-queued failures take ever-smaller keys
/// (push-front), so "first pending task" = "smallest key". A per-node
/// locality index (`local`) holds, for each replica host, the pending keys
/// of its local splits in the same ascending order, with lazy deletion: a
/// task assigned elsewhere leaves stale keys behind that are skipped (and
/// dropped) when popped. This makes a heartbeat's locality pass amortized
/// O(assigned) instead of O(pending) — the difference between flat and
/// quadratic heartbeat cost at 1k nodes.
pub struct JobTracker {
    /// Every map descriptor, indexed by map index.
    descs: Vec<MapTaskDesc>,
    /// Indices of the pending maps in scheduling order (ascending key).
    pending: BTreeMap<i64, usize>,
    /// Per-node queues of pending keys local to that node (lazy-deleted).
    local: BTreeMap<NodeId, VecDeque<i64>>,
    /// Next key for a front re-queue (monotonically decreasing).
    front_key: i64,
    events: Vec<CompletionEvent>,
    reduces_pending: VecDeque<usize>,
    reduces_done: usize,
    total_reduces: usize,
    slowstart: f64,
    map_failures: usize,
    reduce_failures: usize,
    /// Per reduce index, how often it has been assigned: the attempt number
    /// the shuffle servers key their serve cursors by.
    reduce_attempts: Vec<u32>,
    /// Per reduce index, the attempts that lost a shuffle source (the
    /// fetch-failure backoff exponent).
    shuffle_losses: Vec<u32>,
    /// Which TaskTracker each running map's one attempt sits on.
    running: BTreeMap<usize, usize>,
    /// The completed maps, with the TaskTracker that holds each one's
    /// output: consulted when a node dies.
    completed_on: BTreeMap<usize, usize>,
    /// Which TaskTracker each running reduce attempt sits on.
    running_reduces: BTreeMap<usize, usize>,
    /// Delay scheduling: non-local scheduling opportunities to skip before
    /// a pending map accepts a non-local slot (0 = off).
    locality_delay: u32,
    /// Non-local opportunities skipped since the last non-local launch.
    nonlocal_skips: u32,
}

impl JobTracker {
    /// Creates a tracker for `maps` and `reduces` tasks; `maps[i].idx`
    /// must be `i`.
    pub fn new(maps: Vec<MapTaskDesc>, reduces: usize, slowstart: f64) -> Self {
        let mut local: BTreeMap<NodeId, VecDeque<i64>> = BTreeMap::new();
        for (i, m) in maps.iter().enumerate() {
            assert_eq!(m.idx, i, "map descriptors must come in index order");
            for loc in &m.locations {
                local.entry(*loc).or_default().push_back(i as i64);
            }
        }
        JobTracker {
            pending: (0..maps.len()).map(|i| (i as i64, i)).collect(),
            descs: maps,
            local,
            front_key: -1,
            events: Vec::new(),
            reduces_pending: (0..reduces).collect(),
            reduces_done: 0,
            total_reduces: reduces,
            slowstart,
            map_failures: 0,
            reduce_failures: 0,
            reduce_attempts: vec![0; reduces],
            shuffle_losses: vec![0; reduces],
            running: BTreeMap::new(),
            completed_on: BTreeMap::new(),
            running_reduces: BTreeMap::new(),
            locality_delay: 0,
            nonlocal_skips: 0,
        }
    }

    /// Sets the delay-scheduling skip budget (see `JobConf::locality_delay`).
    pub fn set_locality_delay(&mut self, delay: u32) {
        self.locality_delay = delay;
    }

    /// Total map tasks.
    pub fn total_maps(&self) -> usize {
        self.descs.len()
    }

    /// Total reduce tasks.
    pub fn total_reduces(&self) -> usize {
        self.total_reduces
    }

    /// Completed map count.
    pub fn maps_completed(&self) -> usize {
        self.completed_on.len()
    }

    /// Map tasks waiting to be assigned.
    pub fn pending_maps(&self) -> usize {
        self.pending.len()
    }

    /// Would a heartbeat advertising free slots get *any* assignment right
    /// now? O(1); lets the runtime skip whole jobs during its per-node
    /// walk instead of paying a full (no-op) heartbeat per idle job.
    pub fn has_assignable_work(&self) -> bool {
        !self.pending.is_empty() || (!self.reduces_pending.is_empty() && self.reduce_phase_open())
    }

    /// Map attempts currently running (at most one per task).
    pub fn running_maps(&self) -> usize {
        self.running.len()
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
    /// slots; returns the `(maps, reduces)` to launch there. Data-local maps
    /// are preferred; remaining slots take arbitrary pending maps
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
                        if let Some(idx) = self.pending.remove(&key) {
                            maps.push(self.descs[idx].clone());
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
                        Some((_, idx)) => maps.push(self.descs[idx].clone()),
                        None => break,
                    }
                }
                self.nonlocal_skips = 0;
            } else {
                self.nonlocal_skips += 1;
            }
        }
        for m in &maps {
            self.running.insert(m.idx, tt_idx);
        }

        let mut reduces = Vec::new();
        if self.reduce_phase_open() {
            for _ in 0..free_reduce_slots {
                match self.reduces_pending.pop_front() {
                    Some(r) => {
                        self.running_reduces.insert(r, tt_idx);
                        self.reduce_attempts[r] += 1;
                        reduces.push(r);
                    }
                    None => break,
                }
            }
        }
        (maps, reduces)
    }

    fn reduce_phase_open(&self) -> bool {
        if self.descs.is_empty() {
            return true;
        }
        self.completed_on.len() as f64 >= self.slowstart * self.descs.len() as f64
    }

    /// Map attempts that failed and were re-executed.
    pub fn map_failures_seen(&self) -> usize {
        self.map_failures
    }

    /// Reduce attempts that failed and were re-executed.
    pub fn reduce_failures_seen(&self) -> usize {
        self.reduce_failures
    }

    /// The map output of `map_idx`, held by TaskTracker `tt_idx`, is
    /// registered. Returns `true` when this is the task's *first*
    /// completion (its output counts); `false` when the task is already
    /// complete — an in-node fold that straddled its node's restart can
    /// register a re-executed map a second time — and the output is
    /// discarded.
    pub fn map_completed(&mut self, map_idx: usize, tt_idx: usize) -> bool {
        if self.completed_on.contains_key(&map_idx) {
            return false;
        }
        self.running.remove(&map_idx);
        self.completed_on.insert(map_idx, tt_idx);
        self.events.push((map_idx, tt_idx));
        true
    }

    /// A map attempt of `map_idx` failed; the task is re-queued (front:
    /// re-execute soon).
    pub fn map_failed(&mut self, map_idx: usize) {
        self.map_failures += 1;
        self.running.remove(&map_idx);
        self.requeue_map(map_idx);
    }

    /// Re-queue at the front (re-execute soon): an ever-smaller key sorts
    /// before everything pending, and front-pushing the locality queues
    /// keeps them ascending (every new front key is the global minimum).
    fn requeue_map(&mut self, map_idx: usize) {
        let key = self.front_key;
        self.front_key -= 1;
        for loc in &self.descs[map_idx].locations {
            self.local.entry(*loc).or_default().push_front(key);
        }
        self.pending.insert(key, map_idx);
    }

    /// The number of `reduce_idx`'s latest attempt: it counts every
    /// assignment, relaunches after a failure or a node death included.
    pub(crate) fn reduce_attempt(&self, reduce_idx: usize) -> u32 {
        self.reduce_attempts[reduce_idx]
    }

    /// `reduce_idx`'s running attempt lost a shuffle source; returns how
    /// many of its attempts have, this one included.
    pub(crate) fn shuffle_lost(&mut self, reduce_idx: usize) -> u32 {
        self.shuffle_losses[reduce_idx] += 1;
        self.shuffle_losses[reduce_idx]
    }

    /// A reduce attempt failed: it was injected to, its shuffle sources
    /// vanished, or its own node died. Counts as a failure and re-queues.
    pub fn reduce_attempt_lost(&mut self, reduce_idx: usize) {
        self.reduce_failures += 1;
        self.running_reduces.remove(&reduce_idx);
        self.reduces_pending.push_front(reduce_idx);
    }

    /// TaskTracker `tt_idx` died. Re-queues everything it was running and
    /// every completed map whose output it held; returns what was lost so
    /// the runtime can invalidate stores and emit events.
    pub fn node_lost(&mut self, tt_idx: usize) -> NodeLossReport {
        let mut report = NodeLossReport::default();
        // Running maps on the dead node: each lost attempt is a failure,
        // and its task re-queues.
        let lost_running: Vec<usize> = self
            .running
            .iter()
            .filter(|(_, t)| **t == tt_idx)
            .map(|(m, _)| *m)
            .collect();
        for idx in lost_running {
            self.running.remove(&idx);
            self.map_failures += 1;
            self.requeue_map(idx);
            report.lost_running_maps.push(idx);
        }
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
                self.requeue_map(idx);
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
        self.completed_on.len() == self.descs.len()
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
        let (maps, _) = jt.heartbeat(NodeId(0), 0, 1, 0);
        jt.map_failed(maps[0].idx);
        let (maps, _) = jt.heartbeat(NodeId(5), 4, 1, 0);
        assert_eq!(maps.len(), 1);
        jt.map_completed(0, 4);
        assert!(jt.maps_done());
        assert_eq!(jt.map_failures_seen(), 1);
        assert_eq!(jt.reduce_failures_seen(), 0);
    }

    #[test]
    fn reduce_attempts_count_every_assignment_and_backoff_only_shuffle_losses() {
        let mut jt = JobTracker::new(vec![], 2, 0.0);
        let assign = |jt: &mut JobTracker, tt: usize| {
            let (_, r) = jt.heartbeat(NodeId(tt as u32), tt, 0, 1);
            assert_eq!(r, vec![1], "reduce 1 is at the head of the queue");
        };
        let (_, r) = jt.heartbeat(NodeId(0), 0, 0, 1);
        assert_eq!(r, vec![0]);
        assign(&mut jt, 0);
        assert_eq!((jt.reduce_attempt(0), jt.reduce_attempt(1)), (1, 1));
        // An injected failure: the next assignment is attempt 2.
        jt.reduce_attempt_lost(1);
        assign(&mut jt, 1);
        assert_eq!(jt.reduce_attempt(1), 2);
        // A lost shuffle source raises the backoff count too.
        assert_eq!(jt.shuffle_lost(1), 1);
        jt.reduce_attempt_lost(1);
        assign(&mut jt, 2);
        assert_eq!(jt.reduce_attempt(1), 3);
        // Its node dies: relaunched as attempt 4, with no backoff.
        assert_eq!(jt.node_lost(2).lost_reduces, vec![1]);
        assign(&mut jt, 0);
        assert_eq!(jt.reduce_attempt(1), 4);
        assert_eq!(jt.shuffle_lost(1), 2, "only the shuffle loss counted");
        assert_eq!(jt.reduce_attempt(0), 1, "reduce 0 launched once");
        assert_eq!(jt.reduce_failures_seen(), 3);
        assert_eq!(jt.map_failures_seen(), 0);
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
}
