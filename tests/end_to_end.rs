//! End-to-end job runs: every shuffle engine, real and synthetic data
//! planes, with output validation.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{
    run_job, run_job_with_faults, CapacityPlan, FaultPlan, JobConf, JobResult, Runtime,
    SchedulePolicy, ShuffleKind,
};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_obs::{spans_from_events, AttemptOutcome, Recorder, TaskFlavor};
use rmr_workloads::{teragen, terasort_spec, teravalidate};

fn small_cluster(sim: &Sim, workers: usize, fabric: FabricParams) -> Cluster {
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 256 << 20;
    Cluster::build(
        sim,
        fabric,
        &vec![spec; workers],
        HdfsConfig {
            block_size: 4 << 20,
            replication: 1,
            packet_size: 1 << 20,
        },
    )
}

fn small_conf(kind: ShuffleKind, reduces: usize) -> JobConf {
    let mut conf = JobConf::for_kind(kind);
    conf.num_reduces = reduces;
    conf.map_slots = 2;
    conf.reduce_slots = 2;
    conf.shuffle_buffer = 32 << 20;
    conf.io_sort_buffer = 16 << 20;
    conf.prefetch_cache_bytes = 64 << 20;
    conf.osu_packet_bytes = 256 << 10;
    conf.hadoop_a_kv_per_packet = 2_000;
    conf
}

fn fabric_for(kind: ShuffleKind) -> FabricParams {
    if kind.uses_rdma() {
        FabricParams::ib_verbs_qdr()
    } else {
        FabricParams::ipoib_qdr()
    }
}

/// One validated 12 MB real TeraSort: the job's result, the records
/// teravalidate counted, and the obs bus (off unless `record`).
fn run_real_terasort(kind: ShuffleKind, seed: u64, record: bool) -> (JobResult, u64, Recorder) {
    let sim = Sim::new(seed);
    let cluster = small_cluster(&sim, 3, fabric_for(kind));
    let reduces = 3;
    let conf = small_conf(kind, reduces);
    let obs = if record {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    let obs2 = obs.clone();
    sim.spawn(async move {
        let total: u64 = 12 << 20; // 12 MB real data
        let expected_records = teragen(&c2, "/tin", total, true).await;
        let rt = Runtime::with_obs(&c2, conf.clone(), SchedulePolicy::Fifo, obs2);
        let id = rt.submit(conf, terasort_spec("/tin", "/tout"));
        let res = rt.join(id).await;
        let report = teravalidate(&c2, "/tout", reduces, expected_records)
            .await
            .expect("teravalidate");
        *r2.borrow_mut() = Some((res, report.records));
    })
    .detach();
    sim.run();
    let (res, records) = result.borrow_mut().take().expect("job did not finish");
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

#[test]
fn synthetic_terasort_runs_all_engines() {
    for kind in [
        ShuffleKind::Vanilla,
        ShuffleKind::HadoopA,
        ShuffleKind::OsuIb,
    ] {
        let sim = Sim::new(200);
        let cluster = small_cluster(&sim, 4, fabric_for(kind));
        let conf = small_conf(kind, 4);
        let done = std::rc::Rc::new(std::cell::RefCell::new(None));
        let d2 = std::rc::Rc::clone(&done);
        let c2 = cluster.clone();
        sim.spawn(async move {
            teragen(&c2, "/in", 64 << 20, false).await;
            let res = run_job(&c2, conf, terasort_spec("/in", "/out")).await;
            *d2.borrow_mut() = Some(res);
        })
        .detach();
        sim.run();
        let res = done.borrow_mut().take().unwrap_or_else(|| {
            panic!("{kind:?}: job hung (simulation quiesced before completion)")
        });
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

#[test]
fn failed_map_is_reexecuted_and_job_still_validates() {
    let sim = Sim::new(42);
    let cluster = small_cluster(&sim, 3, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let conf = small_conf(ShuffleKind::OsuIb, reduces);
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let plan = FaultPlan::fail_map_once(0, 1);
        let res = run_job_with_faults(&c2, conf, terasort_spec("/in", "/out"), &plan).await;
        let report = teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        *r2.borrow_mut() = Some((res, report));
    })
    .detach();
    sim.run();
    let (res, _report) = result.borrow_mut().take().expect("job hung");
    assert_eq!(res.failed_map_attempts, 1);
    assert_eq!(res.failed_reduce_attempts, 0);
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

#[test]
fn failed_reduce_is_reexecuted_and_job_still_validates() {
    let sim = Sim::new(55);
    let cluster = small_cluster(&sim, 3, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let conf = small_conf(ShuffleKind::OsuIb, reduces);
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let plan = FaultPlan::fail_reduce_once(0, 2);
        let res = run_job_with_faults(&c2, conf, terasort_spec("/in", "/out"), &plan).await;
        let report = teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        *r2.borrow_mut() = Some((res, report));
    })
    .detach();
    sim.run();
    let (res, _report) = result.borrow_mut().take().expect("job hung");
    assert_eq!(
        res.failed_reduce_attempts, 1,
        "the reduce failure counts once, as a reduce failure"
    );
    assert_eq!(
        res.failed_map_attempts, 0,
        "a reduce re-execution is not a map failure"
    );
}

/// Speculative maps under FIFO (one job) and under a 600/400 capacity
/// plan (one job per queue, submitted together): every output validates,
/// duplicates really ran, no job-keyed state survives, and the run replays.
#[test]
fn speculative_execution_completes_and_validates() {
    let capacity = SchedulePolicy::Capacity(CapacityPlan::new(&[(0, 600), (1, 400)]));
    for (policy, queues) in [(SchedulePolicy::Fifo, &[0][..]), (capacity, &[0, 1][..])] {
        let run = speculative_run(&policy, queues);
        assert_eq!(run.records.len(), queues.len());
        assert!(
            run.records.iter().all(|&r| r > 100_000),
            "speculation must not corrupt output: {:?}",
            run.records
        );
        assert!(
            run.map_attempts > run.maps,
            "{policy:?}: {} attempts for {} maps",
            run.map_attempts,
            run.maps
        );
        assert_eq!(run.footprint, 0, "job-keyed state leaked");
        let again = speculative_run(&policy, queues);
        assert_eq!(
            again.trace_hash, run.trace_hash,
            "{policy:?} did not replay"
        );
    }
}

struct SpeculativeRun {
    /// Validated output records, one entry per job.
    records: Vec<u64>,
    maps: usize,
    map_attempts: usize,
    footprint: usize,
    trace_hash: u64,
}

/// One speculative 12 MB TeraSort per queue in `queues`, all over one
/// input and submitted at once. Four workers write the input as four
/// one-block files, so even two jobs leave map slots free for duplicates.
fn speculative_run(policy: &SchedulePolicy, queues: &[u32]) -> SpeculativeRun {
    let sim = Sim::new(66);
    let cluster = small_cluster(&sim, 4, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let mut conf = small_conf(ShuffleKind::OsuIb, reduces);
    conf.speculative_maps = true;
    let obs = Recorder::on(&sim);
    let rt_obs = obs.clone();
    let (policy, queues) = (policy.clone(), queues.to_vec());
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let rt = Runtime::with_obs(&c2, conf.clone(), policy, rt_obs);
        let ids: Vec<_> = queues
            .iter()
            .map(|&queue| {
                let mut c = conf.clone();
                c.queue = queue;
                rt.submit(c, terasort_spec("/in", &format!("/out{queue}")))
            })
            .collect();
        let (mut maps, mut records) = (0, Vec::new());
        for (queue, id) in queues.iter().zip(ids) {
            maps += rt.join(id).await.maps;
            let out = format!("/out{queue}");
            let report = teravalidate(&c2, &out, reduces, expected).await.unwrap();
            records.push(report.records);
        }
        *r2.borrow_mut() = Some((records, maps, rt.state_footprint().total()));
    })
    .detach();
    sim.run();
    let (records, maps, footprint) = result.borrow_mut().take().expect("jobs hung");
    let map_attempts = spans_from_events(&obs.events())
        .iter()
        .filter(|s| s.kind == TaskFlavor::Map)
        .count();
    SpeculativeRun {
        records,
        maps,
        map_attempts,
        footprint,
        trace_hash: sim.trace_hash(),
    }
}
