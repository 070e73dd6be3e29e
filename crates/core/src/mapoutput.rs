//! Map-output bookkeeping: what each finished map produced, per reduce
//! partition, and where it lives.
//!
//! The store is the simulation's omniscient view of the intermediate data
//! directory (`mapred.local.dir`); serving that data still charges the
//! owning TaskTracker's disks and network. The store is cluster-lifetime
//! and serves every job on the runtime, so entries are keyed by
//! `(JobId, map_idx)`. Serving state (how far each reducer has consumed
//! each segment) lives with the TaskTracker.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rmr_net::NodeId;

use crate::record::{even_share, Partitioner, Segment};
use crate::runtime::JobId;

/// A map output's reduce partitions. Every (map, reduce) pair of a job has
/// one, so a synthetic output keeps its even split as three numbers and
/// cuts a part when asked for it.
#[derive(Debug, Clone)]
pub enum Partitions {
    /// `records` and `bytes` split evenly over `n` parts.
    Even {
        /// Records over all parts.
        records: u64,
        /// Bytes over all parts.
        bytes: u64,
        /// Number of parts.
        n: usize,
    },
    /// One segment per part: real outputs, and synthetic ones a combiner
    /// folded part by part.
    Held(Vec<Segment>),
}

impl Partitions {
    /// Partitions `seg` into `n` parts with `part` ([`Segment::partition`]),
    /// keeping a synthetic run's split as its totals.
    pub fn split(seg: Segment, n: usize, part: &dyn Partitioner) -> Self {
        assert!(n > 0);
        if seg.is_real() {
            Partitions::Held(seg.partition(n, part))
        } else {
            Partitions::Even {
                records: seg.records,
                bytes: seg.bytes,
                n,
            }
        }
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        match self {
            Partitions::Even { n, .. } => *n,
            Partitions::Held(parts) => parts.len(),
        }
    }

    /// True when there are no parts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Part `r`.
    pub fn get(&self, r: usize) -> Segment {
        match self {
            Partitions::Even { records, bytes, n } => {
                assert!(r < *n, "part {r} of {n}");
                even_share(*records, *bytes, *n, r)
            }
            Partitions::Held(parts) => parts[r].clone(),
        }
    }

    /// Every part, in reduce order.
    pub fn iter(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.len()).map(|r| self.get(r))
    }

    /// True when some part carries real records.
    pub fn is_real(&self) -> bool {
        match self {
            Partitions::Even { .. } => false,
            Partitions::Held(parts) => parts.iter().any(Segment::is_real),
        }
    }
}

/// One completed map's output.
#[derive(Debug)]
pub struct MapOutputInfo {
    /// The job this output belongs to.
    pub job: JobId,
    /// The map task index.
    pub map_idx: usize,
    /// The TaskTracker (worker index) holding the output.
    pub tt_idx: usize,
    /// The host.
    pub node: NodeId,
    /// File on the TaskTracker's local filesystem.
    pub file: String,
    /// Total bytes across all partitions.
    pub total_bytes: u64,
    /// Total records.
    pub total_records: u64,
    /// Per-reduce-partition sorted segments.
    pub parts: Partitions,
}

type OutputsByJobAndMap = BTreeMap<(JobId, usize), Rc<MapOutputInfo>>;

/// Registry of completed map outputs across all jobs on the runtime.
#[derive(Clone, Default)]
pub struct MapOutputStore {
    inner: Rc<RefCell<OutputsByJobAndMap>>,
}

impl MapOutputStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a completed map output.
    pub fn insert(&self, info: MapOutputInfo) {
        self.inner
            .borrow_mut()
            .insert((info.job, info.map_idx), Rc::new(info));
    }

    /// Fetches a map's output info.
    pub fn get(&self, job: JobId, map_idx: usize) -> Option<Rc<MapOutputInfo>> {
        self.inner.borrow().get(&(job, map_idx)).cloned()
    }

    /// Removes (failed-map invalidation).
    pub fn remove(&self, job: JobId, map_idx: usize) -> Option<Rc<MapOutputInfo>> {
        self.inner.borrow_mut().remove(&(job, map_idx))
    }

    /// Drops every output of `job` (job cleanup at commit).
    pub fn remove_job(&self, job: JobId) {
        self.inner.borrow_mut().retain(|(j, _), _| *j != job);
    }

    /// Drops every output held by TaskTracker `tt_idx` (node death: the
    /// files are unreachable until the maps re-execute elsewhere). Returns
    /// the removed entries so the caller can re-queue their tasks.
    pub fn remove_node(&self, tt_idx: usize) -> Vec<Rc<MapOutputInfo>> {
        let mut lost = Vec::new();
        self.inner.borrow_mut().retain(|_, info| {
            if info.tt_idx == tt_idx {
                lost.push(Rc::clone(info));
                false
            } else {
                true
            }
        });
        lost
    }

    /// What `job`'s registered outputs add up to — (maps, bytes, any of them
    /// real) — for the conservation check at job commit.
    pub fn job_totals(&self, job: JobId) -> (usize, u64, bool) {
        let inner = self.inner.borrow();
        let outputs = inner.range((job, 0)..=(job, usize::MAX));
        outputs.fold((0, 0, false), |(maps, bytes, real), (_, info)| {
            (
                maps + 1,
                bytes + info.total_bytes,
                real || info.parts.is_real(),
            )
        })
    }

    /// Number of registered outputs (all jobs).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all output bytes (conservation checks).
    pub fn total_bytes(&self) -> u64 {
        self.inner.borrow().values().map(|i| i.total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(job: u32, idx: usize, bytes: u64) -> MapOutputInfo {
        MapOutputInfo {
            job: JobId(job),
            map_idx: idx,
            tt_idx: 0,
            node: NodeId(0),
            file: format!("j{job}_map_{idx}.out"),
            total_bytes: bytes,
            total_records: bytes / 10,
            parts: Partitions::Even {
                records: bytes / 10,
                bytes,
                n: 1,
            },
        }
    }

    #[test]
    fn insert_get_remove() {
        let s = MapOutputStore::new();
        s.insert(info(0, 3, 100));
        s.insert(info(0, 5, 200));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(JobId(0), 3).unwrap().total_bytes, 100);
        assert_eq!(s.total_bytes(), 300);
        assert!(s.remove(JobId(0), 3).is_some());
        assert!(s.get(JobId(0), 3).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_node_returns_the_lost_outputs() {
        let s = MapOutputStore::new();
        s.insert(info(0, 1, 100));
        let mut other = info(0, 2, 200);
        other.tt_idx = 1;
        s.insert(other);
        let lost = s.remove_node(0);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].map_idx, 1);
        assert!(s.get(JobId(0), 1).is_none());
        assert!(s.get(JobId(0), 2).is_some(), "other node's output survives");
    }

    #[test]
    fn jobs_are_isolated() {
        let s = MapOutputStore::new();
        s.insert(info(0, 1, 100));
        s.insert(info(1, 1, 200));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(JobId(0), 1).unwrap().total_bytes, 100);
        assert_eq!(s.get(JobId(1), 1).unwrap().total_bytes, 200);
        s.remove_job(JobId(0));
        assert!(s.get(JobId(0), 1).is_none());
        assert_eq!(s.get(JobId(1), 1).unwrap().total_bytes, 200);
    }
}
