//! Gates on what rides around the three shuffle engines: the in-node
//! combiner stage (`JobConf::node_combine`).
//!
//! * Correctness: under every engine, WordCount counts with the stage on are
//!   the counts without it (aggregation must be invisible in the output) and
//!   fewer bytes are shuffled.
//! * Pass-through: a combiner-less job (TeraSort) with the stage on replays
//!   its engine exactly — same duration, same shuffle volume.
//! * Replay: the combiner preset (OSU-IB with the stage on) passes the
//!   double-run trace-hash gate.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{run_job, JobConf, ShuffleKind};
use rmr_des::{assert_deterministic, Sim};
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_workloads::{
    read_counts, teragen, terasort_spec, teravalidate, textgen_blocks, wordcount_spec,
};

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
            packet_size: 256 << 10,
        },
    )
}

fn fabric_for(kind: ShuffleKind) -> FabricParams {
    // Sockets ride IPoIB, verbs engines the QDR HCA.
    if kind == ShuffleKind::Vanilla {
        FabricParams::ipoib_qdr()
    } else {
        FabricParams::ib_verbs_qdr()
    }
}

fn conf_for(kind: ShuffleKind, node_combine: bool, reduces: usize) -> JobConf {
    let mut conf = JobConf::for_kind(kind);
    conf.node_combine = node_combine;
    conf.num_reduces = reduces;
    conf.map_slots = 2;
    conf.reduce_slots = 2;
    conf.shuffle_buffer = 16 << 20;
    conf.io_sort_buffer = 8 << 20;
    conf.prefetch_cache_bytes = 32 << 20;
    conf
}

/// Runs one WordCount on `kind` and returns (counts, shuffled bytes).
fn wordcount_on(
    kind: ShuffleKind,
    node_combine: bool,
) -> (std::collections::BTreeMap<String, u64>, u64) {
    let sim = Sim::new(61);
    // Small blocks so the input spans several maps per node — the in-node
    // stage only folds when co-located maps share a wave.
    let c = cluster(&sim, 3, fabric_for(kind), 256 << 10);
    let conf = conf_for(kind, node_combine, 2);
    let c2 = c.clone();
    sim.block_on(sim.spawn_named("wc-driver", async move {
        textgen_blocks(&c2, "/wc/in", 20_000, 10, 2_500).await;
        let res = run_job(&c2, conf, wordcount_spec("/wc/in", "/wc/out")).await;
        let counts = read_counts(&c2, "/wc/out", 2).await.unwrap();
        (counts, res.shuffled_bytes)
    }))
}

#[test]
fn wordcount_counts_identical_on_vanilla_and_node_combiner() {
    let (vanilla, _) = wordcount_on(ShuffleKind::Vanilla, false);
    let total: u64 = vanilla.values().sum();
    assert_eq!(total, 20_000 * 10, "oracle word total");
    for kind in ShuffleKind::ALL {
        let (combined, _) = wordcount_on(kind, true);
        assert_eq!(
            vanilla, combined,
            "{kind:?}: per-node aggregation must be invisible in the output"
        );
    }
}

#[test]
fn node_combiner_cuts_shuffle_volume_on_every_engine() {
    for kind in ShuffleKind::ALL {
        let (plain_counts, plain_bytes) = wordcount_on(kind, false);
        let (comb_counts, comb_bytes) = wordcount_on(kind, true);
        assert_eq!(plain_counts, comb_counts, "{kind:?}");
        assert!(
            comb_bytes < plain_bytes,
            "{kind:?}: in-node aggregation must shrink the shuffle: {comb_bytes} vs {plain_bytes}"
        );
    }
}

/// Runs one TeraSort on `kind` and returns (duration, shuffled bytes, trace
/// hash).
fn terasort_on(kind: ShuffleKind, node_combine: bool) -> (f64, u64, u64) {
    let sim = Sim::new(62);
    let c = cluster(&sim, 3, fabric_for(kind), 2 << 20);
    let conf = conf_for(kind, node_combine, 3);
    let c2 = c.clone();
    let (secs, bytes) = sim.block_on(sim.spawn_named("ts-driver", async move {
        let records = teragen(&c2, "/ts/in", 12 << 20, true).await;
        let res = run_job(&c2, conf, terasort_spec("/ts/in", "/ts/out")).await;
        let rep = teravalidate(&c2, "/ts/out", 3, records).await.unwrap();
        assert!(rep.records > 10_000);
        (res.duration_s, res.shuffled_bytes)
    }));
    (secs, bytes, sim.trace_hash())
}

#[test]
fn combiner_less_jobs_replay_their_engine() {
    // TeraSort has no combiner fn, so it never enters the stage: the job
    // must replay its engine poll for poll.
    for kind in ShuffleKind::ALL {
        let plain = terasort_on(kind, false);
        let staged = terasort_on(kind, true);
        assert_eq!(
            plain, staged,
            "{kind:?}: pass-through must be bit-identical"
        );
    }
}

#[test]
fn new_engines_replay_identically() {
    // The OSU-IB combiner preset, run as an engine of its own.
    assert_deterministic(63, |sim| {
        let c = cluster(sim, 3, FabricParams::ib_verbs_qdr(), 256 << 10);
        let conf = conf_for(ShuffleKind::OsuIb, true, 2);
        sim.spawn_named("replay-driver", async move {
            textgen_blocks(&c, "/r/in", 2_000, 8, 500).await;
            let res = run_job(&c, conf, wordcount_spec("/r/in", "/r/out")).await;
            assert!(res.duration_s > 0.0);
        })
        .detach();
    });
}

#[test]
fn new_engine_trace_hashes_are_stable_across_runs() {
    // Beyond assert_deterministic's end-state checks: pin the full event
    // trace (events and polls) of the combiner preset across two fresh runs.
    let hash_of = || {
        let sim = Sim::new(64);
        let c = cluster(&sim, 3, FabricParams::ib_verbs_qdr(), 2 << 20);
        let conf = conf_for(ShuffleKind::OsuIb, true, 2);
        sim.block_on(sim.spawn_named("hash-driver", async move {
            teragen(&c, "/h/in", 8 << 20, false).await;
            run_job(&c, conf, terasort_spec("/h/in", "/h/out")).await;
        }));
        sim.trace_hash()
    };
    assert_eq!(
        hash_of(),
        hash_of(),
        "the combiner preset's trace must replay"
    );
}
