//! MapTask execution: split read, user map, sort & spill, final merge.
//!
//! Follows Hadoop 0.20's map side: the split is read from HDFS (local
//! replica preferred), the map function emits intermediate records into a
//! sort buffer of `io.sort.mb`; each buffer-full is sorted and spilled to
//! the local disk as a partitioned, sorted run; multiple spills are merged
//! into the single indexed map-output file the shuffle serves.
//!
//! That is the *simulated* cost. On the host, real records follow
//! [`crate::record`]'s copy rule, the way Hadoop's `kvbuffer`/`kvmeta` keep
//! bytes in an arena and sort an index. An identity map adopts its input:
//! the HDFS block becomes the run's backing buffer and only a 16-byte index
//! entry per record is built and sorted ([`Segment::from_encoded`]) — no
//! record is materialised, no byte copied. Any other attempt holds nothing
//! but its output across a simulated charge: it counts its input with a
//! header walk, and only after the read and map charges does it show the map
//! function one by-value [`Record`] window at a time. The function emits
//! into a [`MapSink`] — encoded straight into the arena that becomes the
//! output run, or, with a combiner, into a group table that copies a key
//! only the first time it sees it — and the table is combined, and dropped,
//! before the combine charge.

use std::rc::Rc;

use bytes::{Bytes, BytesMut};

use crate::cluster::Cluster;
use crate::config::{
    JobConf, CPU_MAP_PER_BYTE, CPU_MAP_PER_RECORD, CPU_REDUCE_PER_RECORD, CPU_SERDE_PER_BYTE,
    CPU_SORT_PER_RECORD_LEVEL,
};
use crate::jobtracker::MapTaskDesc;
use crate::mapoutput::MapOutputInfo;
use crate::record::{count_records, walk, GroupTable, MapSink, Record, Segment};
use crate::runtime::JobId;
use crate::spec::JobSpec;
use crate::tasktracker::TaskTracker;

/// A real input block as the attempt takes it.
enum RealInput {
    /// An identity map's: indexed where it lies, already the sorted output.
    Run(Segment),
    /// For the map or combine function.
    Block(Bytes),
}

/// Shows the map function (the identity without one) each record of `data`
/// as a by-value view, one at a time: no view outlives the call.
fn map_block(data: &Bytes, spec: &JobSpec, mut sink: MapSink) {
    for (key, value) in walk(data) {
        let r = Record {
            key: data.slice(key),
            value: data.slice(value),
        };
        match &spec.mapper {
            Some(f) => f(&r, &mut sink),
            None => sink.emit(&r.key, r.value),
        }
    }
}

/// Runs one map attempt of `job`. When `abort_fraction` is set (fault
/// injection), the attempt does that fraction of its input work and then
/// dies, returning `None`.
pub async fn run_map(
    cluster: &Cluster,
    conf: &JobConf,
    spec: &JobSpec,
    tt: &Rc<TaskTracker>,
    job: JobId,
    desc: &MapTaskDesc,
    abort_fraction: Option<f64>,
) -> Option<MapOutputInfo> {
    let node = tt.node.clone();
    let sim = &cluster.sim;

    // 1. Read the input split (locality-aware).
    let block = cluster
        .hdfs
        .read_block(&desc.block, node.id)
        .await
        .expect("split read failed");
    let in_bytes = block.size;

    // 2. Decode input records: an identity map indexes the block where it
    // lies (already its sorted output); user code's views wait for step 3.
    let identity = spec.mapper.is_none() && spec.combiner.is_none();
    let real_input: Option<RealInput> = block.data.map(|data| match identity {
        true => RealInput::Run(Segment::from_encoded(data)),
        false => RealInput::Block(data),
    });
    let in_records = match &real_input {
        Some(RealInput::Run(run)) => run.records,
        Some(RealInput::Block(data)) => count_records(data) as u64,
        None => (in_bytes / spec.avg_record_bytes.max(1)).max(1),
    };
    node.compute(CPU_SERDE_PER_BYTE * in_bytes as f64).await;

    // 3. User map function.
    let map_cpu = CPU_MAP_PER_RECORD * in_records as f64 + CPU_MAP_PER_BYTE * in_bytes as f64;
    if let Some(frac) = abort_fraction {
        // The attempt dies here after burning `frac` of its map work.
        node.compute(map_cpu * frac).await;
        sim.metrics().incr("map.failed_attempts");
        return None;
    }
    node.compute(map_cpu).await;
    let out_real: Option<Segment> = match (real_input, &spec.combiner) {
        (None, _) => None,
        (Some(RealInput::Run(run)), _) => Some(run),
        (Some(RealInput::Block(data)), None) => {
            let mut arena = BytesMut::new();
            map_block(&data, spec, MapSink::Arena(&mut arena));
            Some(Segment::from_encoded(arena.freeze()))
        }
        // Map-side combiner: fold the mapper's output straight into the
        // group table, never holding the uncombined output. Same key ⇒ same
        // partition, so combining before the partition step is equivalent
        // to Hadoop's per-spill combine. The charge needs only the count.
        (Some(RealInput::Block(data)), Some(combine)) => {
            let mut table = GroupTable::default();
            map_block(&data, spec, MapSink::Groups(&mut table));
            let folded = table.records();
            let combined = table.combine(combine);
            node.compute(CPU_REDUCE_PER_RECORD * folded as f64).await;
            Some(combined)
        }
    };

    // 4. Sizing of the intermediate output.
    let (out_records, out_bytes) = match &out_real {
        Some(run) => (run.records, run.bytes),
        None => {
            let bytes = (in_bytes as f64 * spec.map_output_ratio * spec.combine_ratio) as u64;
            ((bytes / spec.avg_record_bytes.max(1)).max(1), bytes)
        }
    };

    // 5. Sort + spill. Each buffer-full is sorted (n·log n) and written.
    let n_spills = out_bytes.div_ceil(conf.io_sort_buffer.max(1)).max(1);
    let per_spill_records = (out_records as f64 / n_spills as f64).max(1.0);
    let sort_cpu =
        out_records as f64 * per_spill_records.log2().max(1.0) * CPU_SORT_PER_RECORD_LEVEL
            + CPU_SERDE_PER_BYTE * out_bytes as f64;
    node.compute(sort_cpu).await;

    let final_file = format!("{job}_map_{idx}.out", idx = desc.idx);
    if n_spills == 1 {
        let w = node.fs.writer(&final_file).expect("spill file");
        w.append(out_bytes).await.expect("spill write");
    } else {
        // Write each spill, then merge them into the final file.
        let mut spill_files = Vec::new();
        for s in 0..n_spills {
            let f = format!("{job}_map_{idx}_spill{s}", idx = desc.idx);
            let w = node.fs.writer(&f).expect("spill file");
            w.append(out_bytes / n_spills).await.expect("spill write");
            spill_files.push(f);
        }
        // Merge: read every spill back, k-way merge CPU, write final.
        for f in &spill_files {
            let mut r = node.fs.reader(f).expect("spill readback");
            let sz = node.fs.size(f).expect("spill size");
            r.read_exact(sz).await.expect("spill read");
        }
        node.compute(
            out_records as f64 * (n_spills as f64).log2().max(1.0) * CPU_SORT_PER_RECORD_LEVEL,
        )
        .await;
        let w = node.fs.writer(&final_file).expect("final map output");
        w.append(out_bytes).await.expect("final write");
        for f in &spill_files {
            let _ = node.fs.delete(f);
        }
    }

    // 6. Partition the (sorted) output per reducer.
    let parts = out_real
        .unwrap_or_else(|| Segment::synthetic(out_records, out_bytes))
        .partition(conf.num_reduces, spec.partitioner.as_ref());

    sim.metrics().add("map.output_bytes", out_bytes as f64);
    sim.metrics().incr("map.completed");
    Some(MapOutputInfo {
        job,
        map_idx: desc.idx,
        tt_idx: tt.idx,
        node: node.id,
        file: final_file,
        total_bytes: out_bytes,
        total_records: out_records,
        parts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::config::JobConf;
    use crate::mapoutput::MapOutputStore;
    use crate::record::encode_records;
    use bytes::Bytes;
    use rmr_des::prelude::*;
    use rmr_hdfs::{Blob, HdfsConfig};
    use rmr_net::FabricParams;

    fn mk_cluster(sim: &Sim) -> Cluster {
        Cluster::build(
            sim,
            FabricParams::ib_verbs_qdr(),
            &[NodeSpec::westmere_compute(), NodeSpec::westmere_compute()],
            HdfsConfig {
                block_size: 1 << 20,
                replication: 1,
                packet_size: 256 << 10,
            },
        )
    }

    fn mk_tt(sim: &Sim, cluster: &Cluster, conf: &Rc<JobConf>) -> Rc<TaskTracker> {
        TaskTracker::new(
            sim,
            0,
            cluster.workers[0].clone(),
            conf,
            MapOutputStore::new(),
            false,
            rmr_obs::Recorder::off(),
        )
    }

    #[test]
    fn real_map_sorts_and_partitions() {
        let sim = Sim::new(1);
        let cluster = mk_cluster(&sim);
        let conf = Rc::new(JobConf {
            num_reduces: 4,
            ..JobConf::default()
        });
        let spec = JobSpec::sort("/in", "/out", 14);
        let tt = mk_tt(&sim, &cluster, &conf);
        let c2 = cluster.clone();
        let done = Rc::new(std::cell::RefCell::new(None));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Write real input: 50 records with descending keys.
            let recs: Vec<Record> = (0..50u32)
                .rev()
                .map(|i| Record::new(i.to_be_bytes().to_vec(), Bytes::from_static(b"valuedata")))
                .collect();
            let mut w = c2.hdfs.create("/in", c2.workers[0].id).await.unwrap();
            w.write(Blob::real(encode_records(&recs))).await.unwrap();
            w.close().await.unwrap();
            let locs = c2.hdfs.split_locations("/in").unwrap();
            let desc = MapTaskDesc {
                idx: 0,
                block: locs[0].0.clone(),
                locations: locs[0].1.clone(),
            };
            let out = run_map(&c2, &conf, &spec, &tt, JobId(0), &desc, None)
                .await
                .unwrap();
            *d2.borrow_mut() = Some(out);
        })
        .detach();
        sim.run();
        let out = done.borrow_mut().take().unwrap();
        assert_eq!(out.total_records, 50);
        assert_eq!(out.parts.len(), 4);
        assert_eq!(out.parts.iter().map(|p| p.records).sum::<u64>(), 50);
        for p in &out.parts {
            assert!(p.is_sorted());
        }
        // The map output file exists with the right size.
        assert_eq!(
            cluster.workers[0].fs.size(&out.file).unwrap(),
            out.total_bytes
        );
    }

    /// An identity map adopts its input block: however many records it holds,
    /// the output is index entries over the one window the run's buffer
    /// table keeps — no `Record` (two windows each) is ever built.
    #[test]
    fn identity_map_holds_one_window_into_its_block_whatever_the_record_count() {
        let windows_held = |records: u32| -> usize {
            let sim = Sim::new(5);
            let cluster = mk_cluster(&sim);
            let conf = Rc::new(JobConf {
                num_reduces: 3,
                ..JobConf::default()
            });
            let spec = JobSpec::sort("/in", "/out", 14);
            let tt = mk_tt(&sim, &cluster, &conf);
            let held = Rc::new(std::cell::Cell::new(0));
            let (c2, h2) = (cluster.clone(), Rc::clone(&held));
            sim.spawn(async move {
                let recs: Vec<Record> = (0..records)
                    .map(|i| Record::new(i.to_be_bytes().to_vec(), Bytes::from_static(b"v")))
                    .collect();
                let block = encode_records(&recs);
                let mut w = c2.hdfs.create("/in", c2.workers[0].id).await.unwrap();
                w.write(Blob::real(block.clone())).await.unwrap();
                w.close().await.unwrap();
                let locs = c2.hdfs.split_locations("/in").unwrap();
                let desc = MapTaskDesc {
                    idx: 0,
                    block: locs[0].0.clone(),
                    locations: locs[0].1.clone(),
                };
                let before = block.strong_count();
                let out = run_map(&c2, &conf, &spec, &tt, JobId(0), &desc, None)
                    .await
                    .unwrap();
                assert_eq!(out.total_records, u64::from(records));
                h2.set(block.strong_count() - before);
            })
            .detach();
            sim.run();
            held.get()
        };
        assert_eq!(windows_held(10), 1);
        assert_eq!(windows_held(1_000), 1);
    }

    #[test]
    fn synthetic_map_scales_with_ratio() {
        let sim = Sim::new(2);
        let cluster = mk_cluster(&sim);
        let conf = Rc::new(JobConf {
            num_reduces: 2,
            ..JobConf::default()
        });
        let spec = JobSpec::sort("/in", "/out", 100).with_ratios(0.5, 1.0);
        let tt = mk_tt(&sim, &cluster, &conf);
        let c2 = cluster.clone();
        let done = Rc::new(std::cell::RefCell::new(None));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let mut w = c2.hdfs.create("/in", c2.workers[0].id).await.unwrap();
            w.write(Blob::synthetic(1 << 20)).await.unwrap();
            w.close().await.unwrap();
            let locs = c2.hdfs.split_locations("/in").unwrap();
            let desc = MapTaskDesc {
                idx: 0,
                block: locs[0].0.clone(),
                locations: locs[0].1.clone(),
            };
            let out = run_map(&c2, &conf, &spec, &tt, JobId(0), &desc, None)
                .await
                .unwrap();
            *d2.borrow_mut() = Some(out);
        })
        .detach();
        sim.run();
        let out = done.borrow_mut().take().unwrap();
        assert_eq!(out.total_bytes, 1 << 19, "ratio 0.5 halves output");
        assert_eq!(
            out.parts.iter().map(|p| p.bytes).sum::<u64>(),
            out.total_bytes
        );
    }

    #[test]
    fn multi_spill_charges_extra_io() {
        // Same input, tiny sort buffer → spills + merge pass → more disk
        // traffic and a later finish.
        let mut times = Vec::new();
        for sort_buffer in [u64::MAX, 128 << 10] {
            let sim = Sim::new(3);
            let cluster = mk_cluster(&sim);
            let conf = Rc::new(JobConf {
                num_reduces: 1,
                io_sort_buffer: sort_buffer,
                ..JobConf::default()
            });
            let spec = JobSpec::sort("/in", "/out", 100);
            let tt = mk_tt(&sim, &cluster, &conf);
            let c2 = cluster.clone();
            let sim2 = sim.clone();
            let t = Rc::new(std::cell::Cell::new(0u64));
            let t2 = Rc::clone(&t);
            sim.spawn(async move {
                let mut w = c2.hdfs.create("/in", c2.workers[0].id).await.unwrap();
                w.write(Blob::synthetic(1 << 20)).await.unwrap();
                w.close().await.unwrap();
                let locs = c2.hdfs.split_locations("/in").unwrap();
                let desc = MapTaskDesc {
                    idx: 0,
                    block: locs[0].0.clone(),
                    locations: locs[0].1.clone(),
                };
                let start = sim2.now();
                run_map(&c2, &conf, &spec, &tt, JobId(0), &desc, None)
                    .await
                    .unwrap();
                t2.set((sim2.now() - start).as_nanos());
            })
            .detach();
            sim.run();
            times.push(t.get());
        }
        assert!(times[1] > times[0], "spilling must cost extra time");
    }

    #[test]
    fn aborted_attempt_produces_nothing() {
        let sim = Sim::new(4);
        let cluster = mk_cluster(&sim);
        let conf = Rc::new(JobConf::default());
        let spec = JobSpec::sort("/in", "/out", 100);
        let tt = mk_tt(&sim, &cluster, &conf);
        let c2 = cluster.clone();
        let got = Rc::new(std::cell::Cell::new(true));
        let g2 = Rc::clone(&got);
        sim.spawn(async move {
            let mut w = c2.hdfs.create("/in", c2.workers[0].id).await.unwrap();
            w.write(Blob::synthetic(1 << 20)).await.unwrap();
            w.close().await.unwrap();
            let locs = c2.hdfs.split_locations("/in").unwrap();
            let desc = MapTaskDesc {
                idx: 0,
                block: locs[0].0.clone(),
                locations: locs[0].1.clone(),
            };
            let out = run_map(&c2, &conf, &spec, &tt, JobId(0), &desc, Some(0.5)).await;
            g2.set(out.is_some());
        })
        .detach();
        sim.run();
        assert!(!got.get());
        assert_eq!(sim.metrics().get("map.failed_attempts"), 1.0);
    }
}
