//! Chaos gates at integration scale: a fault plan may stretch a job's
//! runtime, but it must never change what the job computes, and a faulted
//! run must stay bit-deterministic (same seed + same plan ⇒ same trace).

use proptest::prelude::*;
use rmr_bench::chaos::{derive_plan, TwinTiming};
use rmr_core::{run_job_with_faults, FaultEvent, FaultPlan, JobResult, ShuffleKind};
use rmr_des::{Sim, SimDuration, SimTime};
use rmr_workloads::{read_counts, teragen, terasort_spec, teravalidate, textgen, wordcount_spec};

mod support;

/// The output facts a fault plan must not be able to change.
#[derive(Debug, Clone, PartialEq)]
struct OutputFacts {
    maps: usize,
    reduces: usize,
    output_bytes: u64,
    per_reduce_output: Vec<u64>,
}

impl OutputFacts {
    fn of(res: &JobResult) -> OutputFacts {
        OutputFacts {
            maps: res.maps,
            reduces: res.reduces,
            output_bytes: res.output_bytes,
            per_reduce_output: res.reduce_stats.iter().map(|s| s.output_bytes).collect(),
        }
    }
}

/// Runs one real-data TeraSort under `plan`. Returns the job result, the
/// teravalidate record count, and the sim trace hash.
fn terasort_run(
    seed: u64,
    workers: usize,
    kind: ShuffleKind,
    plan: &FaultPlan,
) -> (JobResult, u64, u64) {
    let sim = Sim::new(seed);
    let cluster = support::cluster(&sim, kind, workers, true);
    let reduces = workers.min(4);
    let conf = support::conf(kind, reduces, true);
    let plan = plan.clone();
    let (res, records) = sim.block_on(sim.spawn(async move {
        let expected = teragen(&cluster, "/in", 12 << 20, true).await;
        let res = run_job_with_faults(&cluster, conf, terasort_spec("/in", "/out"), &plan).await;
        let report = teravalidate(&cluster, "/out", reduces, expected)
            .await
            .expect("faulted TeraSort output failed validation");
        (res, report.records)
    }));
    (res, records, sim.trace_hash())
}

/// Kill two of eight nodes mid-map-wave (with restarts). The sorted output
/// must validate with the fault-free record count, reducer-for-reducer byte
/// totals must match the fault-free twin, and running the same faulted sim
/// twice must produce the identical trace hash.
#[test]
fn terasort_survives_double_kill_mid_map_wave() {
    let kind = ShuffleKind::OsuIb;
    let (twin, expected_records, _) = terasort_run(0xC0FFEE, 8, kind, &FaultPlan::none());
    let map_end = twin.map_phase_end_s;
    assert!(map_end > twin.start_s, "twin never ran a map wave");
    let kill = |tt_idx: usize, frac: f64, back_s: f64| FaultEvent::Crash {
        tt_idx,
        at: SimTime::from_nanos(((twin.start_s + frac * (map_end - twin.start_s)) * 1e9) as u64),
        restart_after: Some(SimDuration::from_secs_f64(back_s)),
    };
    let plan = FaultPlan::none()
        .with(kill(1, 0.5, 6.0))
        .with(kill(5, 0.6, 9.0));

    let (res_a, records_a, trace_a) = terasort_run(0xC0FFEE, 8, kind, &plan);
    let (res_b, records_b, trace_b) = terasort_run(0xC0FFEE, 8, kind, &plan);

    assert_eq!(records_a, expected_records, "records lost under kills");
    assert_eq!(
        OutputFacts::of(&res_a),
        OutputFacts::of(&twin),
        "faulted output diverged from the fault-free twin"
    );
    assert_eq!(trace_a, trace_b, "faulted run is not deterministic");
    assert_eq!(records_a, records_b);
    assert_eq!(OutputFacts::of(&res_a), OutputFacts::of(&res_b));
    assert!(
        res_a.end_s >= twin.end_s,
        "losing two nodes cannot speed the job up"
    );
}

/// One kill that makes the copiers retry: TaskTracker 4 dies at 1.38 s,
/// mid-shuffle, and restarts 12 s later. Vanilla's socket copiers refetch
/// in-band, Hadoop-A and OSU-IB re-home or restart their attempts; each
/// engine's faulted schedule is pinned by its trace hash.
#[test]
fn a_mid_shuffle_kill_replays_on_every_engine() {
    let plan = FaultPlan::none().with(FaultEvent::Crash {
        tt_idx: 4,
        at: SimTime::from_nanos(1_380_000_000),
        restart_after: Some(SimDuration::from_secs(12)),
    });
    for (kind, pinned) in [
        (ShuffleKind::Vanilla, 0x1661_bc5a_be1d_fbb0),
        (ShuffleKind::HadoopA, 0xfa4a_3ce9_e365_c928),
        (ShuffleKind::OsuIb, 0x7517_65cb_454d_2f3c),
    ] {
        let (_, _, trace) = terasort_run(0xC0FFEE, 8, kind, &plan);
        assert_eq!(trace, pinned, "{kind:?}: faulted schedule moved");
    }
}

/// WordCount under a kill+restart: every (word, count) pair must match the
/// fault-free run exactly.
#[test]
fn wordcount_counts_survive_node_kill() {
    let kind = ShuffleKind::HadoopA;
    let run = |plan: &FaultPlan| {
        let sim = Sim::new(0xBEEF);
        let cluster = support::cluster(&sim, kind, 6, true);
        let reduces = 3;
        let conf = support::conf(kind, reduces, true);
        let plan = plan.clone();
        sim.block_on(sim.spawn(async move {
            textgen(&cluster, "/text", 60_000, 12).await;
            let res =
                run_job_with_faults(&cluster, conf, wordcount_spec("/text", "/wc"), &plan).await;
            let counts = read_counts(&cluster, "/wc", reduces)
                .await
                .expect("unreadable WordCount output");
            (res, counts)
        }))
    };

    let (twin, clean_counts) = run(&FaultPlan::none());
    let at = twin.start_s + 0.5 * (twin.end_s - twin.start_s);
    let plan = FaultPlan::none().with(FaultEvent::Crash {
        tt_idx: 2,
        at: SimTime::from_nanos((at * 1e9) as u64),
        restart_after: Some(SimDuration::from_secs_f64(5.0)),
    });
    let (faulted, fault_counts) = run(&plan);

    assert!(!clean_counts.is_empty(), "twin produced no counts");
    assert_eq!(fault_counts, clean_counts, "word counts changed under kill");
    assert_eq!(faulted.maps, twin.maps);
    assert_eq!(faulted.reduces, twin.reduces);
}

/// Runs one synthetic TeraSort and returns (result, trace hash).
fn synthetic_run(
    seed: u64,
    workers: usize,
    kind: ShuffleKind,
    plan: &FaultPlan,
) -> (JobResult, u64) {
    let sim = Sim::new(seed);
    let cluster = support::cluster(&sim, kind, workers, true);
    let conf = support::conf(kind, workers.min(4), true);
    let plan = plan.clone();
    let res = sim.block_on(sim.spawn(async move {
        teragen(&cluster, "/in", 32 << 20, false).await;
        run_job_with_faults(&cluster, conf, terasort_spec("/in", "/out"), &plan).await
    }));
    (res, sim.trace_hash())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seed-derived fault plans (1–3 crashes with restarts, degrade
    /// and partition windows) on 8–16 node clusters across all three
    /// engines: output facts must equal the fault-free twin, and the
    /// faulted run must be double-run deterministic.
    #[test]
    fn random_fault_plans_never_change_output(
        workers in 8usize..=16,
        plan_seed in 0u64..1_000_000,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShuffleKind::Vanilla,
            1 => ShuffleKind::HadoopA,
            _ => ShuffleKind::OsuIb,
        };
        let sim_seed = 0x5EED ^ plan_seed;
        let (twin, _) = synthetic_run(sim_seed, workers, kind, &FaultPlan::none());
        let timing = TwinTiming::of(std::slice::from_ref(&twin));
        let plan = derive_plan(plan_seed, workers, &timing);
        prop_assert!(!plan.is_empty(), "derive_plan produced no faults");

        let (res_a, trace_a) = synthetic_run(sim_seed, workers, kind, &plan);
        let (res_b, trace_b) = synthetic_run(sim_seed, workers, kind, &plan);

        prop_assert_eq!(
            OutputFacts::of(&res_a),
            OutputFacts::of(&twin),
            "plan {} changed output on {:?}/{} workers",
            plan_seed, kind, workers
        );
        prop_assert_eq!(trace_a, trace_b, "faulted run not deterministic");
        prop_assert_eq!(OutputFacts::of(&res_a), OutputFacts::of(&res_b));
    }
}
