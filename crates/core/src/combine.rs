//! The in-node combiner: a per-node aggregation stage between a map attempt
//! finishing and its output being registered for serving. It sits in front
//! of the [`MapOutputStore`](crate::mapoutput::MapOutputStore), below every
//! shuffle engine, so it composes with all of them
//! ([`JobConf::node_combine`]).
//!
//! Stock Hadoop combines map output *per map attempt* (see
//! [`crate::maptask`]); records with the same key emitted by different maps
//! on the same node still cross the fabric separately and meet only in the
//! reducer's merge. This stage holds each node's finished map outputs back
//! from registration, folds them through the job's combiner once a node has
//! a full wave (`map_slots` outputs) — or once every map in the job has
//! staged — and registers one aggregated output per wave instead. For
//! WordCount-shaped jobs that cuts both bytes served and reducer merge
//! fan-in roughly by the co-location factor.
//!
//! Jobs without a combiner fn never enter the stage, so TeraSort/Sort replay
//! their engine bit-identically.
//!
//! Fault model: staged-but-unregistered outputs live only on their node's
//! disk. When a node dies, `NodeCombiner::node_lost` drops its staging
//! state, the JobTracker re-queues the affected maps (they were never
//! reported complete), and the re-executed attempts re-stage cleanly —
//! including re-running the aggregation. A fold that was already in flight
//! when its node died is discarded on completion via an ownership re-check.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rmr_obs::{Ev, Recorder};

use crate::cluster::Cluster;
use crate::config::{
    JobConf, CPU_REDUCE_PER_RECORD, CPU_SERDE_PER_BYTE, CPU_SORT_PER_RECORD_LEVEL,
};
use crate::mapoutput::{MapOutputInfo, Partitions};
use crate::record::{GroupTable, Segment};
use crate::runtime::JobId;
use crate::spec::{JobSpec, ReduceFn};

/// Per-job staging state.
#[derive(Default)]
struct JobStage {
    /// Which node staged each map (`map_idx` → `tt_idx`); `node_lost`
    /// removes a dead node's entries so re-executed maps re-stage.
    owner: BTreeMap<usize, usize>,
    /// Buffered, not-yet-folded outputs per node.
    pending: BTreeMap<usize, Vec<MapOutputInfo>>,
    /// Per-node flush counter (names the aggregate files).
    wave: BTreeMap<usize, u32>,
}

/// The runtime's staging state: one [`JobStage`] per job that has staged an
/// output and not finished.
pub(crate) struct NodeCombiner {
    cluster: Cluster,
    obs: Recorder,
    jobs: RefCell<BTreeMap<JobId, JobStage>>,
}

impl NodeCombiner {
    pub(crate) fn new(cluster: Cluster, obs: Recorder) -> Self {
        NodeCombiner {
            cluster,
            obs,
            jobs: RefCell::new(BTreeMap::new()),
        }
    }

    /// A node died: its staged-but-unregistered outputs are gone (the
    /// JobTracker re-queues their maps).
    pub(crate) fn node_lost(&self, tt_idx: usize) {
        for st in self.jobs.borrow_mut().values_mut() {
            st.owner.retain(|_, t| *t != tt_idx);
            st.pending.remove(&tt_idx);
        }
    }

    /// A job finished: drop its staging state.
    pub(crate) fn job_finalized(&self, job: JobId) {
        self.jobs.borrow_mut().remove(&job);
    }

    /// Buffers one map output of a job with a combiner; flushes (folds) its
    /// node's wave when full, or every node's remainder when the job's last
    /// map stages. Returns every output — possibly aggregated, possibly
    /// from *other* nodes whose buffers this call flushed — that is now
    /// final and must be registered, in deterministic order.
    pub(crate) async fn stage(
        &self,
        conf: &JobConf,
        spec: &JobSpec,
        total_maps: usize,
        info: MapOutputInfo,
    ) -> Vec<MapOutputInfo> {
        let (job, t) = (info.job, info.tt_idx);
        // Bookkeeping is synchronous (no await while the state is borrowed).
        let flush_groups: Vec<(usize, u32, Vec<MapOutputInfo>)> = {
            let mut jobs = self.jobs.borrow_mut();
            let st = jobs.entry(job).or_default();
            let restaged = st.owner.insert(info.map_idx, t);
            debug_assert!(restaged.is_none(), "map {} staged twice", info.map_idx);
            st.pending.entry(t).or_default().push(info);
            let mut groups = Vec::new();
            if st.owner.len() == total_maps {
                // Last map staged: flush every node's remainder, node order.
                let nodes: Vec<usize> = st.pending.keys().copied().collect();
                for n in nodes {
                    let buf = st.pending.remove(&n).expect("listed pending node");
                    let w = st.wave.entry(n).or_insert(0);
                    groups.push((n, *w, buf));
                    *w += 1;
                }
            } else if st.pending[&t].len() >= conf.map_slots.max(1) {
                // One full wave of co-located maps: fold it now.
                let buf = st.pending.remove(&t).expect("own pending buffer");
                let w = st.wave.entry(t).or_insert(0);
                groups.push((t, *w, buf));
                *w += 1;
            }
            groups
        };
        let mut ready = Vec::new();
        for (n, wave, buf) in flush_groups {
            // A lone output has nothing to fold with: it registers as it is.
            let folded = match buf.len() {
                1 => None,
                _ => Some(self.fold_group(spec, job, n, wave, &buf).await),
            };
            // The fold awaited disk and CPU; if node `n` died meanwhile its
            // staging state was cleared and the JobTracker re-queued these
            // maps — the stale aggregate must not register.
            let still_owned = {
                let jobs = self.jobs.borrow();
                jobs.get(&job)
                    .is_some_and(|st| buf.iter().all(|i| st.owner.get(&i.map_idx) == Some(&n)))
            };
            if still_owned {
                ready.extend(folded.unwrap_or(buf));
            }
        }
        ready
    }

    /// Folds one node's buffered outputs (two or more) into a single
    /// aggregated map output plus zero-record placeholders for the other
    /// folded maps (the `discovered == total_maps` shuffle protocol needs
    /// one entry per map).
    async fn fold_group(
        &self,
        spec: &JobSpec,
        job: JobId,
        n: usize,
        wave: u32,
        buf: &[MapOutputInfo],
    ) -> Vec<MapOutputInfo> {
        let node = self.cluster.workers[n].clone();
        let combine = spec.combiner.as_ref().expect("stage without combiner");
        let sum_records: u64 = buf.iter().map(|i| i.total_records).sum();
        let sum_bytes: u64 = buf.iter().map(|i| i.total_bytes).sum();

        // Read every buffered map-output file back from the node's disk.
        for i in buf {
            if i.total_bytes > 0 {
                let mut r = node.fs.reader(&i.file).expect("staged map output");
                r.read_exact(i.total_bytes).await.expect("stage readback");
            }
        }
        // One k-way merge pass plus the combiner over every record.
        let k = buf.len() as f64;
        node.compute(
            CPU_SORT_PER_RECORD_LEVEL * sum_records as f64 * k.log2().max(1.0)
                + CPU_REDUCE_PER_RECORD * sum_records as f64,
        )
        .await;

        // Fold each reduce partition across the wave's maps.
        let nparts = buf[0].parts.len();
        let mut parts = Vec::with_capacity(nparts);
        for r in 0..nparts {
            let srcs: Vec<Segment> = buf.iter().map(|i| i.parts.get(r)).collect();
            let peak = srcs.iter().map(|s| s.records).max().unwrap_or(0);
            let merged = Segment::merge(&srcs);
            parts.push(fold_segment(merged, peak, combine, spec.combine_ratio));
        }
        let total_records: u64 = parts.iter().map(|p| p.records).sum();
        let total_bytes: u64 = parts.iter().map(|p| p.bytes).sum();

        // Write the aggregate file the shuffle will serve.
        let file = format!("{job}_nodeagg_{n}_{wave}.out");
        let w = node.fs.writer(&file).expect("aggregate file");
        if total_bytes > 0 {
            w.append(total_bytes).await.expect("aggregate write");
        }
        node.compute(CPU_SERDE_PER_BYTE * total_bytes as f64).await;

        self.obs.emit(|| Ev::CombineFold {
            node: n,
            job: job.0,
            maps: buf.len(),
            bytes_in: sum_bytes,
            bytes_out: total_bytes,
        });

        // The smallest folded map index carries the aggregate; the rest
        // become zero-record placeholders pointing at the same file (never
        // read: serving skips disk for empty segments).
        let rep = buf.iter().map(|i| i.map_idx).min().expect("non-empty wave");
        let mut out = Vec::with_capacity(buf.len());
        out.push(MapOutputInfo {
            job,
            map_idx: rep,
            tt_idx: n,
            node: node.id,
            file: file.clone(),
            total_bytes,
            total_records,
            parts: Partitions::Held(parts),
        });
        let mut others: Vec<usize> = buf
            .iter()
            .map(|i| i.map_idx)
            .filter(|&m| m != rep)
            .collect();
        others.sort_unstable();
        for m in others {
            out.push(MapOutputInfo {
                job,
                map_idx: m,
                tt_idx: n,
                node: node.id,
                file: file.clone(),
                total_bytes: 0,
                total_records: 0,
                parts: Partitions::Even {
                    records: 0,
                    bytes: 0,
                    n: nparts,
                },
            });
        }
        out
    }
}

/// Applies the combiner to one merged partition. Real segments fold through
/// the map-side combiner's group table; synthetic segments shrink to the
/// shared-vocabulary model: the wave's largest source survives (every map
/// re-emits the same hot keys), floored by `combine_ratio` of the merged
/// volume.
fn fold_segment(merged: Segment, peak_records: u64, combine: &ReduceFn, ratio: f64) -> Segment {
    if merged.records == 0 {
        return merged;
    }
    if merged.is_real() {
        let mut table = GroupTable::default();
        merged.iter_real().for_each(|r| table.push(&r.key, r.value));
        table.combine(combine)
    } else {
        let floor = (merged.records as f64 * ratio).ceil() as u64;
        let records = peak_records.max(floor).clamp(1, merged.records);
        let bytes = (merged.bytes as f64 * records as f64 / merged.records as f64) as u64;
        Segment::synthetic(records, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::record::Record;
    use bytes::Bytes;
    use std::rc::Rc;

    fn sum_combiner() -> ReduceFn {
        Rc::new(
            |k: &Bytes, vs: &mut dyn Iterator<Item = &Bytes>, out: &mut Vec<Record>| {
                let total: u64 = vs
                    .map(|v| String::from_utf8_lossy(v).parse::<u64>().unwrap_or(0))
                    .sum();
                out.push(Record::new(k.clone(), Bytes::from(total.to_string())));
            },
        )
    }

    #[test]
    fn real_fold_collapses_shared_keys() {
        let a = Segment::from_records(vec![
            Record::new(&b"x"[..], &b"1"[..]),
            Record::new(&b"y"[..], &b"2"[..]),
        ]);
        let b = Segment::from_records(vec![
            Record::new(&b"x"[..], &b"3"[..]),
            Record::new(&b"z"[..], &b"4"[..]),
        ]);
        let merged = Segment::merge(&[a, b]);
        let folded = fold_segment(merged, 2, &sum_combiner(), 0.5);
        assert_eq!(folded.records, 3, "x collapses, y and z survive");
        let recs = folded.to_records().unwrap();
        assert_eq!(recs[0].key, Bytes::from_static(b"x"));
        assert_eq!(recs[0].value, Bytes::from_static(b"4"));
    }

    #[test]
    fn synthetic_fold_keeps_the_peak_source() {
        let merged = Segment::synthetic(100, 1000);
        let folded = fold_segment(merged, 40, &sum_combiner(), 0.05);
        assert_eq!(folded.records, 40, "shared-vocabulary model");
        assert_eq!(folded.bytes, 400);
    }

    #[test]
    fn synthetic_fold_floors_at_combine_ratio() {
        let merged = Segment::synthetic(100, 1000);
        let folded = fold_segment(merged, 10, &sum_combiner(), 0.5);
        assert_eq!(folded.records, 50, "ratio floor dominates a small peak");
    }

    #[test]
    fn node_lost_clears_staging_state() {
        let sim = rmr_des::Sim::new(1);
        let cluster = Cluster::build(
            &sim,
            rmr_net::FabricParams::ib_verbs_qdr(),
            &[NodeSpec::westmere_compute()],
            rmr_hdfs::HdfsConfig::default(),
        );
        let stage = NodeCombiner::new(cluster, Recorder::off());
        {
            let mut jobs = stage.jobs.borrow_mut();
            let st = jobs.entry(JobId(0)).or_default();
            st.owner.insert(0, 1);
            st.owner.insert(1, 2);
            st.pending.entry(1).or_default();
        }
        stage.node_lost(1);
        let jobs = stage.jobs.borrow();
        let st = jobs.get(&JobId(0)).unwrap();
        assert_eq!(st.owner.len(), 1);
        assert_eq!(st.owner.get(&1), Some(&2));
        assert!(st.pending.is_empty());
    }
}
