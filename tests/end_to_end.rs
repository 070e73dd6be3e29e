//! End-to-end job runs: every shuffle engine, real and synthetic data
//! planes, with output validation.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{
    run_job, run_job_with_faults, FaultPlan, JobResult, MapSink, Record, Runtime, SchedulePolicy,
    ShuffleKind,
};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_obs::{spans_from_events, AttemptOutcome, Recorder, TaskFlavor};
use rmr_workloads::{teragen, terasort_spec, teravalidate};

mod support;

/// One validated 12 MB real TeraSort: the job's result, the records
/// teravalidate counted, and the obs bus (off unless `record`).
fn run_real_terasort(kind: ShuffleKind, seed: u64, record: bool) -> (JobResult, u64, Recorder) {
    let sim = Sim::new(seed);
    let cluster = support::cluster(&sim, kind, 3, true);
    let reduces = 3;
    let conf = support::conf(kind, reduces, true);
    let obs = if record {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let c2 = cluster.clone();
    let obs2 = obs.clone();
    let (res, records) = sim.block_on(sim.spawn(async move {
        let total: u64 = 12 << 20; // 12 MB real data
        let expected_records = teragen(&c2, "/tin", total, true).await;
        let rt = Runtime::with_obs(&c2, conf.clone(), SchedulePolicy::Fifo, obs2);
        let id = rt.submit(conf, terasort_spec("/tin", "/tout"));
        let res = rt.join(id).await;
        let report = teravalidate(&c2, "/tout", reduces, expected_records)
            .await
            .expect("teravalidate");
        (res, report.records)
    }));
    (res, records, obs)
}

#[test]
fn vanilla_real_terasort_validates() {
    let (res, records, _) = run_real_terasort(ShuffleKind::Vanilla, 101, false);
    assert!(records > 100_000, "12 MB → >100k records, got {records}");
    assert!(res.duration_s > 0.0);
    assert_eq!(res.shuffle, ShuffleKind::Vanilla);
    assert!(res.shuffled_bytes > 10 << 20);
}

#[test]
fn hadoop_a_real_terasort_validates() {
    let (res, records, _) = run_real_terasort(ShuffleKind::HadoopA, 102, false);
    assert!(records > 100_000);
    assert_eq!(res.shuffle, ShuffleKind::HadoopA);
}

#[test]
fn osu_ib_real_terasort_validates() {
    let (res, records, _) = run_real_terasort(ShuffleKind::OsuIb, 103, false);
    assert!(records > 100_000);
    assert_eq!(res.shuffle, ShuffleKind::OsuIb);
    assert!(
        res.cache_hits > 0,
        "prefetch cache must see hits in an OSU run"
    );
}

/// An 8 MB real TeraSort on `kind`, then a second job over its output: an
/// identity TeraSort, or one whose mapper passes each record through. Both
/// outputs validate; returns the records the second one holds and the
/// run's trace hash.
fn chained_terasort(kind: ShuffleKind, pass_through: bool) -> (u64, u64) {
    let sim = Sim::new(104);
    // 1 MB blocks: each 4 MB part file the first job writes is several
    // blocks, and so several splits of the second job.
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 256 << 20;
    let fabric = if kind.uses_rdma() {
        FabricParams::ib_verbs_qdr()
    } else {
        FabricParams::ipoib_qdr()
    };
    let cluster = Cluster::build(
        &sim,
        fabric,
        &vec![spec; 2],
        HdfsConfig {
            block_size: 1 << 20,
            replication: 1,
            packet_size: 256 << 10,
        },
    );
    let reduces = 2;
    let conf = support::conf(kind, reduces, true);
    let c2 = cluster.clone();
    let records = sim.block_on(sim.spawn(async move {
        let records = teragen(&c2, "/in", 8 << 20, true).await;
        run_job(&c2, conf.clone(), terasort_spec("/in", "/sorted")).await;
        let mut second = terasort_spec("/sorted", "/again");
        if pass_through {
            let pass = |r: &Record, sink: &mut MapSink| sink.emit(&r.key, r.value.clone());
            second = second.with_mapper(std::rc::Rc::new(pass));
        }
        run_job(&c2, conf, second).await;
        teravalidate(&c2, "/sorted", reduces, records)
            .await
            .expect("first output");
        let report = teravalidate(&c2, "/again", reduces, records)
            .await
            .expect("second output");
        report.records
    }));
    (records, sim.trace_hash())
}

/// The hashes are the parent commit's, whose reduce output blocks held a
/// gathered copy of their records: how a block holds them is host-side only.
#[test]
fn jobs_read_a_terasort_output_as_their_input() {
    let records = (8 << 20) / 2 / 100 * 2;
    assert_eq!(
        chained_terasort(ShuffleKind::OsuIb, false),
        (records, 0x76c5_bbef_7893_eed3)
    );
    assert_eq!(
        chained_terasort(ShuffleKind::Vanilla, true),
        (records, 0x39a3_aa66_cb6b_2da6)
    );
}

#[test]
fn synthetic_terasort_runs_all_engines() {
    for kind in [
        ShuffleKind::Vanilla,
        ShuffleKind::HadoopA,
        ShuffleKind::OsuIb,
    ] {
        let sim = Sim::new(200);
        let cluster = support::cluster(&sim, kind, 4, true);
        let conf = support::conf(kind, 4, true);
        let c2 = cluster.clone();
        let res = sim.block_on(sim.spawn(async move {
            teragen(&c2, "/in", 64 << 20, false).await;
            run_job(&c2, conf, terasort_spec("/in", "/out")).await
        }));
        // Conservation: all intermediate bytes reach the reducers.
        assert_eq!(
            res.shuffled_bytes, res.input_bytes,
            "{kind:?}: ratio-1.0 job must shuffle exactly the input volume"
        );
        assert_eq!(res.output_bytes, res.input_bytes, "{kind:?}");
        assert_eq!(res.maps, (res.input_bytes as usize).div_ceil(4 << 20));
    }
}

#[test]
fn identical_seeds_are_deterministic() {
    let (a, _, _) = run_real_terasort(ShuffleKind::OsuIb, 777, false);
    let (b, _, _) = run_real_terasort(ShuffleKind::OsuIb, 777, false);
    assert_eq!(a.duration_s, b.duration_s);
    assert_eq!(a.shuffled_bytes, b.shuffled_bytes);
    assert_eq!(a.cache_hits, b.cache_hits);
}

/// A validated 12 MB OSU-IB TeraSort under `plan`, with the run's trace
/// hash and event count after the job.
fn run_faulted_terasort(seed: u64, plan: FaultPlan) -> (JobResult, u64, u64) {
    let sim = Sim::new(seed);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 3, true);
    let reduces = 3;
    let conf = support::conf(ShuffleKind::OsuIb, reduces, true);
    let c2 = cluster.clone();
    let res = sim.block_on(sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let res = run_job_with_faults(&c2, conf, terasort_spec("/in", "/out"), &plan).await;
        teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        res
    }));
    (res, sim.trace_hash(), sim.events_fired())
}

/// The injected failure fires where it did at `2d3eb92`: the trace hash and
/// event count are that commit's.
#[test]
fn failed_map_is_reexecuted_and_job_still_validates() {
    let (res, hash, events) = run_faulted_terasort(42, FaultPlan::fail_map_once(0, 1));
    assert_eq!(res.failed_map_attempts, 1);
    assert_eq!(res.failed_reduce_attempts, 0);
    assert_eq!(
        (hash, events),
        (0x16af_ef7d_cef2_10db, 982),
        "{hash:#018x}, {events} events"
    );
}

/// A task failure is armed before its job is submitted; arming one after
/// is the caller's mistake, not a fault the running job could still meet.
#[test]
#[should_panic(expected = "already submitted")]
fn arming_a_task_failure_after_submission_panics() {
    let sim = Sim::new(42);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 3, true);
    let conf = support::conf(ShuffleKind::OsuIb, 3, true);
    let c2 = cluster.clone();
    sim.block_on(sim.spawn(async move { teragen(&c2, "/in", 4 << 20, false).await }));
    let rt = Runtime::start(&cluster, conf.clone());
    rt.submit(conf, terasort_spec("/in", "/out"));
    rt.apply_fault_plan(&FaultPlan::fail_map_once(0, 1));
}

#[test]
fn timeline_records_every_attempt() {
    let (res, _, obs) = run_real_terasort(ShuffleKind::OsuIb, 404, true);
    let spans = spans_from_events(&obs.events());
    let completed = |kind| {
        spans
            .iter()
            .filter(|s| s.kind == kind && s.outcome == AttemptOutcome::Completed)
            .count()
    };
    assert_eq!(
        completed(TaskFlavor::Map),
        res.maps,
        "one completed attempt per map"
    );
    assert_eq!(
        completed(TaskFlavor::Reduce),
        res.reduces,
        "one completed attempt per reduce"
    );
    for s in &spans {
        assert!(s.end_s >= s.start_s);
        assert!(s.end_s <= res.end_s + 1e-6);
    }
}

/// Pinned at `2d3eb92`, like the map failure's run.
#[test]
fn failed_reduce_is_reexecuted_and_job_still_validates() {
    let (res, hash, events) = run_faulted_terasort(55, FaultPlan::fail_reduce_once(0, 2));
    assert_eq!(
        res.failed_reduce_attempts, 1,
        "the reduce failure counts once, as a reduce failure"
    );
    assert_eq!(
        res.failed_map_attempts, 0,
        "a reduce re-execution is not a map failure"
    );
    assert_eq!(
        (hash, events),
        (0x9216_2897_3c88_ecbd, 928),
        "{hash:#018x}, {events} events"
    );
}
