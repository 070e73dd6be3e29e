//! Shared reduce-side machinery: the output sink (user reduce function +
//! HDFS writer) and the map-completion event poller.

use std::cell::RefCell;
use std::rc::Rc;

use rmr_des::sync::Notify;
use rmr_hdfs::Blob;

use crate::cluster::{Cluster, NodeHandle};
use crate::config::{JobConf, CPU_REDUCE_PER_BYTE, CPU_REDUCE_PER_RECORD, CPU_SERDE_PER_BYTE};
use crate::faults::NodeLiveness;
use crate::jobtracker::{CompletionEvent, JobTracker};
use crate::record::{encode_into, encoded_len, for_each_group, Record, Segment};
use crate::runtime::JobId;
use crate::spec::JobSpec;
use crate::tasktracker::{TaskTracker, TtServerHandle};

/// Why a reduce attempt could not finish; the runtime re-queues it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceError {
    /// A shuffle source died and its map must re-execute; the attempt
    /// restarts from scratch (partial shuffles are not checkpointed).
    SourceLost {
        /// The TaskTracker whose outputs vanished.
        tt_idx: usize,
    },
}

/// Everything a reduce engine needs to run one ReduceTask.
#[derive(Clone)]
pub struct ReduceCtx {
    /// The cluster.
    pub cluster: Cluster,
    /// Engine configuration.
    pub conf: Rc<JobConf>,
    /// The job.
    pub spec: JobSpec,
    /// Scheduling state (for event polls).
    pub jt: Rc<RefCell<JobTracker>>,
    /// Shuffle server addresses, by TaskTracker index. Behind a `RefCell`
    /// because a node restart installs a fresh server handle in place.
    pub servers: Rc<RefCell<Vec<TtServerHandle>>>,
    /// Per-TaskTracker liveness state (out-of-band death detection for
    /// the RDMA paths, whose completion queues never close on peer death).
    pub liveness: Rc<Vec<Rc<NodeLiveness>>>,
    /// Fired by the runtime after every kill or restart of any TaskTracker:
    /// the one signal a reducer's copier watches, whichever servers it is
    /// connected to.
    pub liveness_changed: Notify,
    /// The TaskTracker this reducer runs on.
    pub tt: Rc<TaskTracker>,
    /// The job this reducer belongs to.
    pub job: JobId,
    /// This reducer's partition index.
    pub reduce_idx: usize,
    /// This attempt's launch number (monotone per partition, counting node
    /// deaths as well as fetch-failure retries). Stamped into every shuffle
    /// request so servers rewind their per-attempt serve cursors.
    pub attempt: u32,
    /// Total maps in the job.
    pub total_maps: usize,
}

/// Timing and volume results of one ReduceTask.
#[derive(Debug, Clone, Default)]
pub struct ReduceStats {
    /// Virtual time the last shuffle byte arrived.
    pub shuffle_end_s: f64,
    /// Virtual time the merge finished (vanilla: merge barrier; RDMA
    /// designs: last merged record emitted).
    pub merge_end_s: f64,
    /// Virtual time the reduce function + output write finished.
    pub reduce_end_s: f64,
    /// Intermediate bytes this reducer pulled.
    pub shuffled_bytes: u64,
    /// Records reduced.
    pub reduced_records: u64,
    /// Bytes reduced: everything pulled was merged and consumed, so a
    /// finished reducer has `reduced_bytes == shuffled_bytes`.
    pub reduced_bytes: u64,
    /// Output bytes written to HDFS.
    pub output_bytes: u64,
}

/// Polls the JobTracker once for new map-completion events (an RPC on the
/// wire), advancing `cursor`.
pub async fn poll_events(
    cluster: &Cluster,
    jt: &Rc<RefCell<JobTracker>>,
    from: &NodeHandle,
    cursor: &mut usize,
) -> Vec<CompletionEvent> {
    cluster.net.transfer(from.id, cluster.master, 256).await;
    let (events, new_cursor) = jt.borrow().events_since(*cursor);
    *cursor = new_cursor;
    cluster
        .net
        .transfer(cluster.master, from.id, 256 + 16 * events.len() as u64)
        .await;
    events
}

/// The reduce output path: applies the user reduce function to merged,
/// sorted batches and streams the result into an HDFS writer. Handles key
/// groups that straddle batch boundaries by holding back the trailing group.
pub struct ReduceSink {
    writer: Option<rmr_hdfs::HdfsWriter>,
    node: NodeHandle,
    spec: JobSpec,
    path: String,
    /// The trailing key group of the batches so far, as windows of them.
    held: Vec<Segment>,
    /// Records consumed (reduce input).
    pub in_records: u64,
    /// Bytes consumed.
    pub in_bytes: u64,
    /// Bytes written.
    pub out_bytes: u64,
}

impl ReduceSink {
    /// Opens the part file for `reduce_idx` under the job's output path.
    pub async fn open(
        cluster: &Cluster,
        conf: &Rc<JobConf>,
        spec: &JobSpec,
        node: &NodeHandle,
        reduce_idx: usize,
    ) -> ReduceSink {
        let path = format!("{}/part-{reduce_idx:05}", spec.output);
        // A previous attempt of this reducer may have died mid-write (node
        // kill or lost shuffle source); its partial part file is replaced.
        // Fault-free runs never take this branch — `exists` is a host-side
        // check, so their event streams are untouched.
        if cluster.hdfs.exists(&path) {
            cluster
                .hdfs
                .delete(&path, node.id)
                .await
                .expect("stale output delete");
        }
        let writer = cluster
            .hdfs
            .create_with_replication(&path, node.id, conf.output_replication)
            .await
            .expect("output create");
        ReduceSink {
            writer: Some(writer),
            node: node.clone(),
            spec: spec.clone(),
            path,
            held: Vec::new(),
            in_records: 0,
            in_bytes: 0,
            out_bytes: 0,
        }
    }

    /// Consumes one merged, sorted batch.
    pub async fn consume(&mut self, seg: Segment) {
        self.in_records += seg.records;
        self.in_bytes += seg.bytes;
        self.node
            .compute(
                CPU_REDUCE_PER_RECORD * seg.records as f64 + CPU_REDUCE_PER_BYTE * seg.bytes as f64,
            )
            .await;
        if seg.is_real() {
            // Emit everything up to the trailing key group, which is held
            // back because it may continue in the next batch. `held` is one
            // such group, so it goes out as soon as the key moves on.
            let Some(last) = seg.last_key() else { return };
            let (head, tail) = seg.split_trailing_group();
            let same_key = |held: &Segment| held.first_key() == Some(last);
            if head.records == 0 && self.held.first().is_none_or(same_key) {
                self.held.push(tail);
                return;
            }
            let mut groups = std::mem::replace(&mut self.held, vec![tail]);
            groups.push(head);
            self.emit_groups(&groups).await;
        } else {
            let out = (seg.bytes as f64 * self.spec.reduce_output_ratio) as u64;
            self.out_bytes += out;
            self.writer()
                .write(Blob::synthetic(out))
                .await
                .expect("output write");
        }
    }

    fn writer(&mut self) -> &mut rmr_hdfs::HdfsWriter {
        self.writer.as_mut().expect("sink already finished")
    }

    /// Reduces and writes the concatenation of `pieces` (whole key groups, in
    /// key order), gathered straight into the open HDFS block: the identity
    /// reducer's output is the pieces' records as they lie in their buffers,
    /// a user reducer's is encoded from what it returned.
    async fn emit_groups(&mut self, pieces: &[Segment]) {
        let reduced: Option<Vec<Record>> = self.spec.reducer.as_ref().map(|f| {
            let records: Vec<Record> = pieces.iter().flat_map(Segment::iter_real).collect();
            let mut out = Vec::new();
            for_each_group(&records, |k, vs| f(k, vs, &mut out));
            out
        });
        let len = match &reduced {
            Some(out) => encoded_len(out),
            None => pieces.iter().map(|p| p.bytes + 8 * p.records).sum(),
        };
        if len == 0 {
            return;
        }
        self.node.compute(CPU_SERDE_PER_BYTE * len as f64).await;
        self.out_bytes += len;
        let fill = |buf: &mut bytes::BytesMut| match &reduced {
            Some(out) => encode_into(out, buf),
            None => pieces.iter().for_each(|p| p.encode_into(buf)),
        };
        (self.writer().write_with(len, fill).await).expect("output write");
    }

    /// Flushes the held group and closes the output file. Returns
    /// (input records, input bytes, output bytes).
    pub async fn finish(mut self) -> (u64, u64, u64) {
        let held = std::mem::take(&mut self.held);
        let real = !held.is_empty();
        self.emit_groups(&held).await;
        self.writer
            .take()
            .expect("double finish")
            .close()
            .await
            .expect("output close");
        // Conservation on the real plane: the identity reducer writes every
        // record it consumed, each under an 8-byte header.
        let identity = self.in_bytes + 8 * self.in_records;
        assert!(
            !real || self.spec.reducer.is_some() || self.out_bytes == identity,
            "{} ({}): the identity reducer consumed {} records / {} bytes and wrote {} bytes, not {identity}",
            self.spec.name,
            self.path,
            self.in_records,
            self.in_bytes,
            self.out_bytes,
        );
        (self.in_records, self.in_bytes, self.out_bytes)
    }
}

#[cfg(test)]
impl JobTracker {
    /// Test helper: fabricate one completion event.
    pub fn map_completed_raw_for_test(&mut self) {
        // total_maps is 0 in the test; bypass the counters and just append.
        self.push_event_for_test(0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use bytes::Bytes;
    use rmr_des::prelude::*;
    use rmr_hdfs::HdfsConfig;
    use rmr_net::FabricParams;

    fn mk() -> (Sim, Cluster) {
        let sim = Sim::new(9);
        let c = Cluster::build(
            &sim,
            FabricParams::ib_verbs_qdr(),
            &[NodeSpec::westmere_compute()],
            HdfsConfig {
                block_size: 64 << 20,
                replication: 1,
                packet_size: 1 << 20,
            },
        );
        (sim, c)
    }

    fn rec(k: &[u8], v: &[u8]) -> Record {
        Record::new(k.to_vec(), v.to_vec())
    }

    #[test]
    fn identity_sink_round_trips_records() {
        let (sim, cluster) = mk();
        let conf = Rc::new(JobConf::default());
        let spec = JobSpec::sort("/in", "/out", 10);
        let c2 = cluster.clone();
        sim.spawn(async move {
            let node = c2.workers[0].clone();
            let mut sink = ReduceSink::open(&c2, &conf, &spec, &node, 0).await;
            sink.consume(Segment::from_records(vec![
                rec(b"a", b"1"),
                rec(b"b", b"2"),
            ]))
            .await;
            // An adopted block passes through as index entries: the sink
            // holds no window into it per record, only the held group's run.
            let block = crate::record::encode_records(&[rec(b"b", b"3"), rec(b"c", b"4")]);
            let windows = block.strong_count();
            sink.consume(Segment::from_encoded(block.clone())).await;
            assert_eq!(block.strong_count(), windows + 1);
            let (in_recs, in_bytes, out_bytes) = sink.finish().await;
            assert_eq!(block.strong_count(), windows);
            assert_eq!((in_recs, in_bytes), (4, 8));
            assert_eq!(
                out_bytes,
                in_bytes + 8 * in_recs,
                "identity: every record, framed"
            );
            // Read back and check order & count.
            let mut r = c2.hdfs.open("/out/part-00000", node.id).await.unwrap();
            let mut all = Vec::new();
            while let Some(b) = r.next_block().await.unwrap() {
                all.extend(crate::record::decode_records(b.data.unwrap()));
            }
            assert_eq!(all.len(), 4);
            assert!(all.windows(2).all(|w| w[0].key <= w[1].key));
        })
        .detach();
        sim.run();
    }

    #[test]
    fn grouping_reducer_sees_whole_groups_across_batches() {
        let (sim, cluster) = mk();
        let conf = Rc::new(JobConf::default());
        let seen = Rc::new(RefCell::new(Vec::<(Vec<u8>, usize)>::new()));
        let seen2 = Rc::clone(&seen);
        let spec = JobSpec::sort("/in", "/out", 10).with_reducer(Rc::new(
            move |k: &Bytes, vs: &[Bytes], out: &mut Vec<Record>| {
                seen2.borrow_mut().push((k.to_vec(), vs.len()));
                out.push(Record::new(k.clone(), Bytes::from(vs.len().to_string())));
            },
        ));
        let c2 = cluster.clone();
        sim.spawn(async move {
            let node = c2.workers[0].clone();
            let mut sink = ReduceSink::open(&c2, &conf, &spec, &node, 0).await;
            // Group "b" straddles the batch boundary: must be seen ONCE with
            // 3 values.
            sink.consume(Segment::from_records(vec![
                rec(b"a", b"1"),
                rec(b"b", b"2"),
            ]))
            .await;
            sink.consume(Segment::from_records(vec![
                rec(b"b", b"3"),
                rec(b"b", b"4"),
            ]))
            .await;
            sink.consume(Segment::from_records(vec![rec(b"c", b"5")]))
                .await;
            sink.finish().await;
        })
        .detach();
        sim.run();
        let seen = seen.borrow();
        assert_eq!(
            *seen,
            vec![(b"a".to_vec(), 1), (b"b".to_vec(), 3), (b"c".to_vec(), 1)]
        );
    }

    #[test]
    fn synthetic_sink_applies_output_ratio() {
        let (sim, cluster) = mk();
        let conf = Rc::new(JobConf::default());
        let spec = JobSpec::sort("/in", "/out", 100).with_ratios(1.0, 0.25);
        let c2 = cluster.clone();
        sim.spawn(async move {
            let node = c2.workers[0].clone();
            let mut sink = ReduceSink::open(&c2, &conf, &spec, &node, 1).await;
            sink.consume(Segment::synthetic(100, 10_000)).await;
            let (_, in_bytes, out_bytes) = sink.finish().await;
            assert_eq!(in_bytes, 10_000);
            assert_eq!(out_bytes, 2_500);
            assert_eq!(c2.hdfs.file_size("/out/part-00001").unwrap(), 2_500);
        })
        .detach();
        sim.run();
    }

    #[test]
    fn poll_events_advances_cursor() {
        let (sim, cluster) = mk();
        let jt = Rc::new(RefCell::new(JobTracker::new(vec![], 1, 0.0)));
        jt.borrow_mut().map_completed_raw_for_test();
        let c2 = cluster.clone();
        let jt2 = Rc::clone(&jt);
        sim.spawn(async move {
            let node = c2.workers[0].clone();
            let mut cursor = 0;
            let ev = poll_events(&c2, &jt2, &node, &mut cursor).await;
            assert_eq!(ev.len(), 1);
            let ev = poll_events(&c2, &jt2, &node, &mut cursor).await;
            assert!(ev.is_empty());
        })
        .detach();
        sim.run();
    }
}
