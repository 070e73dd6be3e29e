//! Integration tests beyond TeraSort: the Sort benchmark end to end with
//! real variable-size records, WordCount correctness against a sequential
//! oracle, and HDFS behaviour under job load.

use rdma_mapred::prelude::*;
use rdma_mapred::workloads::{read_counts, textgen, wordcount_spec, wordcount_spec_no_combiner};

fn cluster(sim: &Sim, workers: usize, fabric: FabricParams, block: u64) -> Cluster {
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 256 << 20;
    Cluster::build(
        sim,
        fabric,
        &vec![spec; workers],
        HdfsConfig {
            block_size: block,
            replication: 1,
            packet_size: 1 << 20,
        },
    )
}

#[test]
fn sort_with_variable_records_validates_on_all_engines() {
    for (kind, fabric) in [
        (ShuffleKind::Vanilla, FabricParams::ipoib_qdr()),
        (ShuffleKind::HadoopA, FabricParams::ib_verbs_qdr()),
        (ShuffleKind::OsuIb, FabricParams::ib_verbs_qdr()),
    ] {
        let sim = Sim::new(31);
        let c = cluster(&sim, 3, fabric, 2 << 20);
        let reduces = 3;
        let mut conf = JobConf::for_kind(kind);
        conf.num_reduces = reduces;
        conf.shuffle_buffer = 8 << 20;
        conf.io_sort_buffer = 8 << 20;
        let c2 = c.clone();
        let validated = sim.block_on(sim.spawn(async move {
            // Variable-size records up to 20 kB — the §IV-C stressor.
            let records = randomwriter(&c2, "/s/in", 8 << 20, true).await;
            let _res = run_job(&c2, conf, sort_spec("/s/in", "/s/out")).await;
            validate_sort(&c2, "/s/out", reduces, records)
                .await
                .expect("per-partition order + conservation")
        }));
        assert!(validated > 100, "{kind:?}: too few records ({validated})");
    }
}

#[test]
fn wordcount_matches_sequential_oracle() {
    let sim = Sim::new(32);
    let c = cluster(&sim, 2, FabricParams::ib_verbs_qdr(), 2 << 20);
    let c2 = c.clone();
    let (oracle, counts) = sim.block_on(sim.spawn(async move {
        textgen(&c2, "/w/in", 5_000, 8).await;
        // Sequential oracle: decode the input and count by hand.
        let mut oracle = std::collections::BTreeMap::<String, u64>::new();
        let mut r = c2.hdfs.open("/w/in", c2.workers[0].id).await.unwrap();
        while let Some(b) = r.next_block().await.unwrap() {
            rdma_mapred::core::block_records(b.data.unwrap()).for_each(|rec| {
                for w in String::from_utf8_lossy(&rec.value).split_whitespace() {
                    *oracle.entry(w.to_string()).or_insert(0) += 1;
                }
            });
        }
        let mut conf = JobConf::osu_ib();
        conf.num_reduces = 3;
        let _res = run_job(&c2, conf, wordcount_spec("/w/in", "/w/out")).await;
        let counts = read_counts(&c2, "/w/out", 3).await.unwrap();
        (oracle, counts)
    }));
    assert_eq!(counts, oracle, "MapReduce counts must equal the oracle");
}

#[test]
fn hdfs_replication_survives_job_load() {
    // A replication-3 file written while a TeraSort hammers the same disks:
    // every one of its blocks lands on 3 distinct DataNodes.
    let sim = Sim::new(33);
    let c = cluster(&sim, 4, FabricParams::ib_verbs_qdr(), 2 << 20);
    let c2 = c.clone();
    let sim2 = sim.clone();
    sim.block_on(sim.spawn(async move {
        teragen(&c2, "/r/in", 8 << 20, false).await;
        let c3 = c2.clone();
        let sim3 = sim2.clone();
        let side = sim2.spawn(async move {
            let mut w = c3
                .hdfs
                .create_with_replication("/r/side", c3.workers[0].id, 3)
                .await
                .unwrap();
            w.write(Blob::synthetic(8 << 20)).await.unwrap();
            w.close().await.unwrap();
            sim3.now().as_secs_f64()
        });
        let mut conf = JobConf::osu_ib();
        conf.num_reduces = 4;
        let res = run_job(&c2, conf, terasort_spec("/r/in", "/r/out")).await;
        let written_s = side.await;
        assert!(
            written_s < res.end_s,
            "the side file was written under load"
        );
        let locs = c2.hdfs.split_locations("/r/side").unwrap();
        assert_eq!(locs.len(), 4, "four 2 MiB blocks");
        for (meta, nodes) in locs {
            assert_eq!(meta.replicas.len(), 3, "replication honoured");
            let distinct: std::collections::BTreeSet<_> = nodes.iter().collect();
            assert_eq!(distinct.len(), 3, "replicas on distinct nodes");
        }
    }));
}

#[test]
fn back_to_back_jobs_on_one_cluster() {
    // Two jobs run back to back through the thin `run_job` wrapper (each
    // standing up its own runtime over the shared disks and HDFS): the
    // second must still validate.
    let sim = Sim::new(34);
    let c = cluster(&sim, 3, FabricParams::ib_verbs_qdr(), 2 << 20);
    let c2 = c.clone();
    let (dur, records) = sim.block_on(sim.spawn(async move {
        let records = teragen(&c2, "/j/in", 6 << 20, true).await;
        let mut conf = JobConf::osu_ib();
        conf.num_reduces = 3;
        let _first = run_job(&c2, conf.clone(), terasort_spec("/j/in", "/j/out1")).await;
        let second = run_job(&c2, conf, terasort_spec("/j/in", "/j/out2")).await;
        let rep = teravalidate(&c2, "/j/out2", 3, records).await.unwrap();
        (second.duration_s, rep.records)
    }));
    assert!(dur > 0.0);
    assert!(records > 10_000);
}

#[test]
fn combiner_shrinks_shuffle_and_preserves_counts() {
    let mut shuffled = Vec::new();
    let mut outputs = Vec::new();
    for with_combiner in [false, true] {
        let sim = Sim::new(35);
        let c = cluster(&sim, 2, FabricParams::ib_verbs_qdr(), 2 << 20);
        let c2 = c.clone();
        let (bytes, counts) = sim.block_on(sim.spawn(async move {
            textgen(&c2, "/cb/in", 4_000, 10).await;
            let spec = if with_combiner {
                wordcount_spec("/cb/in", "/cb/out")
            } else {
                wordcount_spec_no_combiner("/cb/in", "/cb/out")
            };
            let mut conf = JobConf::osu_ib();
            conf.num_reduces = 2;
            let res = run_job(&c2, conf, spec).await;
            let counts = read_counts(&c2, "/cb/out", 2).await.unwrap();
            (res.shuffled_bytes, counts)
        }));
        let total: u64 = counts.values().sum();
        assert_eq!(total, 4_000 * 10, "counts exact with and without combiner");
        shuffled.push(bytes);
        outputs.push(counts);
    }
    assert_eq!(outputs[0], outputs[1], "identical results either way");
    assert!(
        shuffled[1] * 10 < shuffled[0],
        "combiner must collapse the shuffle: {} vs {}",
        shuffled[1],
        shuffled[0]
    );
}
