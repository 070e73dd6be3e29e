//! The shared driver changed nothing: every constructor's trace hash and
//! `duration_s` below was computed at the commit *before* `Scenario` /
//! `run_scenario` existed, through the hand-rolled loop that entry point
//! had then (`run_experiment_traced`, `run_multijob`, `probe`'s
//! `scale_point` / `chaos_run` / `phases`, `run_service`). Driver task names
//! and spawn order are folded into the hash, so these also pin each
//! constructor's `driver` name.
//!
//! Also here: the `results/*.jsonl` rows against the one `RunRecord`
//! parser/writer, and `rdma-mapred`'s usage errors.

use rmr_bench::chaos::{storm_plan, TwinTiming};
use rmr_bench::scenarios;
use rmr_bench::service::service_spec;
use rmr_cluster::{
    run_experiment_traced, run_scenario, Bench, Experiment, RunRecord, RunReport, Scenario, System,
    Testbed,
};
use rmr_core::FaultPlan;
use rmr_des::SimTime;
use rmr_load::{run_service, ServicePolicy};

fn run(sc: &Scenario) -> RunReport {
    run_scenario(sc).unwrap_or_else(|hung| panic!("{hung}"))
}

fn durations(report: &RunReport) -> Vec<f64> {
    report.jobs.iter().map(|r| r.duration_s).collect()
}

#[test]
fn figure_points_replay_the_parent_commit() {
    let point = |bench, system, testbed, gb, seed| {
        run_experiment_traced(&Experiment::new("pin", bench, system, testbed, gb, seed))
    };
    for (system, hash, duration_s) in [
        (System::IpoIb, 0x3464f8c008dc5b3a, 34.123687894999996),
        (System::HadoopA, 0xd654ede213084094, 24.255524922),
        (System::OsuIb, 0x10e5276d61555b5f, 32.995377797),
    ] {
        let (rec, h) = point(Bench::TeraSort, system, Testbed::compute(2, 1), 0.5, 1);
        assert_eq!((h, rec.duration_s), (hash, duration_s), "{system:?}");
    }
}

#[test]
fn multijob_replays_the_parent_commit() {
    let mix = |concurrent| {
        let testbed = Testbed::compute(2, 1);
        run(&scenarios::multijob(
            System::OsuIb,
            testbed,
            2,
            0.25,
            concurrent,
            7,
        ))
    };
    let conc = mix(true);
    assert_eq!(conc.trace_hash, 0x6a293da37a722c15);
    assert_eq!(durations(&conc), [21.607835694, 27.607846254000002]);
    let seq = mix(false);
    assert_eq!(seq.trace_hash, 0xcaca72d578951a63);
    assert_eq!(durations(&seq), [18.607830414, 21.000036960000003]);
}

#[test]
fn scale_point_replays_the_parent_commit() {
    let r = run(&scenarios::scale(16, 2, 1.0, 42));
    assert_eq!(r.trace_hash, 0x2a6157e1d7d00af1);
    assert_eq!((r.events, r.polls), (18399, 40581));
    assert_eq!(durations(&r), [6.894031341000001, 9.464015187000001]);
    assert_eq!(r.makespan_s(), 11.004989989);
    assert_eq!(r.footprint.total(), 0);
    assert!(r.fluid_work > 0);
}

#[test]
fn chaos_storm_replays_the_parent_commit() {
    let chaos =
        |plan: &FaultPlan| run(&scenarios::chaos(System::OsuIb, false, 8, 2, 1.0, 42, plan));
    let twin = chaos(&FaultPlan::none());
    assert_eq!(twin.trace_hash, 0xb8b864f567964fac);
    assert_eq!(twin.makespan_s(), 18.63560132);
    let storm = chaos(&storm_plan(8, 2, &TwinTiming::of(&twin.jobs)));
    assert_eq!(storm.trace_hash, 0x9380baa1fe96ae6e);
    assert_eq!(durations(&storm), [13.733833658, 21.607625498]);
    assert_eq!(storm.footprint.total(), 0, "both victims restarted");

    // The WordCount variant on the in-node combiner engine.
    let none = FaultPlan::none();
    let wc = run(&scenarios::chaos(
        System::NodeCombiner,
        true,
        3,
        2,
        1.0,
        10_042,
        &none,
    ));
    assert_eq!(
        (wc.trace_hash, wc.shuffled_bytes()),
        (0x531f8cad83902fe6, 616)
    );
}

#[test]
fn phases_points_replay_the_parent_commit() {
    let ha = scenarios::phases(
        Bench::TeraSort,
        System::HadoopA,
        Testbed::compute(2, 1),
        1.0,
    );
    let r = run(&ha);
    assert_eq!(
        (r.trace_hash, durations(&r)[0]),
        (0x866b8a0e02efb2a4, 28.236380571000005)
    );
    let ssd = scenarios::phases(Bench::Sort, System::OsuIb, Testbed::ssd(2), 1.0);
    let r = run(&ssd);
    assert_eq!(
        (r.trace_hash, durations(&r)[0]),
        (0x73a63c0fea488cb8, 13.345544199000003)
    );
}

const FIFO_TENANTS: &str = concat!(
    r#"{"tenant":0,"share_mille":600,"jobs":9,"latency_p50_s":9.367390,"latency_p95_s":14.645934,"latency_p99_s":14.645934,"latency_mean_s":8.458697,"latency_max_s":14.645934,"wait_p50_s":0.000007,"wait_p99_s":2.821075,"exec_p50_s":9.367390,"exec_p99_s":11.964136,"slot_secs":56.703,"slot_share":0.2694}"#,
    "\n",
    r#"{"tenant":1,"share_mille":400,"jobs":5,"latency_p50_s":13.247490,"latency_p95_s":14.574510,"latency_p99_s":14.574510,"latency_mean_s":12.999927,"latency_max_s":14.574510,"wait_p50_s":2.553803,"wait_p99_s":3.999799,"exec_p50_s":11.139767,"exec_p99_s":12.188004,"slot_secs":153.752,"slot_share":0.7306}"#,
    "\n",
);

/// The 8-node capacity point is big enough that the queues' rank changes
/// between heartbeats: ranking the queues by id instead of by running map
/// slots over guarantee moves it (the 4-node one does not notice), as do
/// reversing a queue's jobs and skipping the guaranteed pass.
#[test]
fn service_runs_replay_the_parent_commit() {
    let capacity = ServicePolicy::Capacity { preempt: true };
    for (nodes, jobs, policy, hash, makespan_s, events, polls) in [
        (
            4,
            14,
            ServicePolicy::Fifo,
            0x6204ca9b83d5a2b1,
            42.082738062,
            19283,
            36001,
        ),
        (
            4,
            14,
            capacity,
            0x84b5268c6d9d25fb,
            42.082931898,
            16961,
            33262,
        ),
        (
            8,
            40,
            capacity,
            0x893e4bb1de30f8f6,
            52.882195838,
            48198,
            86508,
        ),
    ] {
        let rep = run_service(&service_spec(nodes, jobs, 42, policy, false));
        assert_eq!(rep.trace_hash, hash, "{nodes} nodes, {policy:?}");
        assert_eq!(rep.makespan_s, makespan_s);
        assert_eq!((rep.events_fired, rep.polls), (events, polls));
        assert_eq!((rep.jobs, rep.footprint_total), (jobs, 0));
    }
    // The per-tenant rollup (the `--hist-dir` rows), byte for byte.
    let rep = run_service(&service_spec(4, 14, 42, ServicePolicy::Fifo, false));
    assert_eq!(rep.tenants_jsonl(), FIFO_TENANTS);
}

/// The multijob pin point, as a base for the driver-behaviour tests below.
fn small_mix(concurrent: bool) -> Scenario {
    scenarios::multijob(
        System::OsuIb,
        Testbed::compute(2, 1),
        2,
        0.25,
        concurrent,
        7,
    )
}

#[test]
fn concurrent_submission_shares_the_cluster() {
    let conc = run(&small_mix(true));
    assert_eq!(conc.jobs.len(), 2);
    assert_eq!(conc.footprint.total(), 0);
    assert!(conc.snapshots.is_empty() && !conc.recorder.is_on());
    for r in &conc.jobs {
        assert!(r.duration_s > 0.0 && r.queue_wait_s >= 0.0);
        assert!(r.slot_occupancy > 0.0 && r.slot_occupancy <= 1.0);
    }
    // Joined one at a time, the same jobs take at least as long end to end
    // (no slot sharing).
    let seq = run(&small_mix(false));
    assert!(conc.makespan_s() <= seq.makespan_s() + 1e-6);
    assert!(seq.jobs[1].start_s >= seq.jobs[0].end_s);
}

#[test]
fn recording_keeps_two_snapshots_and_the_hash() {
    let mut sc = small_mix(true);
    sc.record = true;
    let rec = run(&sc);
    assert_eq!(
        rec.trace_hash, 0x6a293da37a722c15,
        "recorder perturbed the run"
    );
    assert!(!rec.recorder.is_empty());
    assert_eq!(rec.snapshots.len(), 2, "after the first join, and the last");
    assert!(rec.snapshots[0].t_s < rec.snapshots[1].t_s);
}

#[test]
fn expired_limit_reports_the_driver_and_the_runtime() {
    // Datagen ends near 9 s and the first job near 30 s: 15 s is mid-map-wave.
    let mut sc = small_mix(true);
    sc.limit = Some(SimTime::from_nanos(15_000_000_000));
    let hung = run_scenario(&sc).err().expect("limit must expire");
    assert_eq!((hung.driver, hung.finished), ("multijob-driver", 0));
    assert_eq!(hung.limit, sc.limit);
    let driver = hung
        .tasks
        .stalled
        .iter()
        .find(|t| t.name == "multijob-driver");
    assert!(driver.expect("driver task listed").blocked_on.is_some());
    assert!(hung.runtime.is_some(), "runtime had started");
    assert!(hung.to_string().contains("multijob-driver hung: limit"));
    // Cut off during datagen instead, there is no runtime to dump.
    sc.limit = Some(SimTime::from_nanos(1_000_000_000));
    let hung = run_scenario(&sc).err().expect("limit must expire");
    assert!(hung.runtime.is_none());
    // With room to finish, the limit changes nothing.
    sc.limit = Some(SimTime::from_nanos(3_600_000_000_000));
    assert_eq!(run(&sc).trace_hash, 0x6a293da37a722c15);
}

fn result_files(prefix: &str) -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("results/")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(prefix) && name.ends_with(".jsonl")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_figure_rows_round_trip_byte_for_byte() {
    let files = result_files("fig");
    assert_eq!(files.len(), 7, "fig4a..fig8");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let rec = RunRecord::from_json(line).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(rec.to_json(), line, "{path:?}");
        }
    }
}

#[test]
fn every_other_results_file_round_trips_too() {
    // multijob, engines, and the tuning sweeps (regenerated with the schema
    // field by `figure tuning`).
    for prefix in ["multijob", "engines", "tuning-"] {
        let files = result_files(prefix);
        assert!(!files.is_empty(), "{prefix}");
        for path in files {
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                let rec = RunRecord::from_json(line).unwrap();
                assert_eq!(rec.to_json(), line, "{path:?}");
            }
        }
    }
}

#[test]
fn rows_missing_a_field_or_of_another_schema_are_rejected() {
    let path = result_files("fig4a").remove(0);
    let text = std::fs::read_to_string(path).unwrap();
    let row = text.lines().next().unwrap();
    assert!(RunRecord::from_json(row).is_ok());
    // The row's values hold no commas, so this splits it into its fields.
    let fields: Vec<&str> = row[1..row.len() - 1].split(',').collect();
    assert_eq!(fields.len(), 18, "{row}");
    for i in 0..fields.len() {
        let mut rest = fields.clone();
        let key = rest.remove(i).split(':').next().unwrap().trim_matches('"');
        let line = format!("{{{}}}", rest.join(","));
        let err = RunRecord::from_json(&line).expect_err(key);
        assert!(err.contains(key), "{key}: {err}");
    }
    let older = row.replacen("\"schema\":2,", "\"schema\":1,", 1);
    assert_ne!(older, row);
    assert!(RunRecord::from_json(&older).is_err());
}

/// Runs `rdma-mapred` with `args`; returns (exit code, stderr).
fn rdma_mapred(args: &[&str]) -> (Option<i32>, String) {
    use std::process::{Command, Stdio};
    use std::time::Duration;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rdma-mapred"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rdma-mapred");
    // A value that makes the program spin fails its row after 60 s (3 000
    // polls 20 ms apart) instead of hanging the suite.
    let mut polls = 0;
    while child.try_wait().expect("poll rdma-mapred").is_none() {
        polls += 1;
        if polls > 3_000 {
            child.kill().expect("kill rdma-mapred");
            panic!("{args:?}: still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect rdma-mapred");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_cli_input_is_a_usage_error() {
    for (args, complaint) in [
        (
            &["run", "--system", "hadoopa"][..],
            "bad value for --system: \"hadoopa\"",
        ),
        (&["run", "--gb", "25x"][..], "bad value for --gb: \"25x\""),
        (&["run", "--threads", "4"][..], "unknown flag --threads"),
        (&["run", "--gb", "nan"][..], "bad value for --gb: \"nan\""),
        (&["run", "--nodes", "0"][..], "bad value for --nodes: \"0\""),
        (&["run", "--disks", "0"][..], "bad value for --disks: \"0\""),
        (
            &["run", "--ssd", "--disks", "3"][..],
            "--ssd cannot be combined with --disks",
        ),
        (
            &["run", "--storage", "--ssd"][..],
            "--ssd cannot be combined with --storage",
        ),
        (
            &["validate", "--nodes", "0"][..],
            "bad value for --nodes: \"0\"",
        ),
        (&["validate", "--nodes"][..], "--nodes needs a value"),
        (&["validate", "--mb", "0"][..], "bad value for --mb: \"0\""),
        (
            &["run", "--gb", "1", "--block-mb", "0"][..],
            "bad value for --block-mb: \"0\"",
        ),
        (
            &["run", "--gb", "1", "--packet-kb", "0"][..],
            "bad value for --packet-kb: \"0\"",
        ),
        (&["figure", "fig9"][..], "unknown figure: fig9"),
        (
            &["figure", "fig4a", "fig4b"][..],
            "unexpected argument \"fig4b\"",
        ),
    ] {
        let (code, stderr) = rdma_mapred(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    // The extension systems are accepted (they used to be rejected here).
    let (code, stderr) = rdma_mapred(&["run", "--system", "comb", "--gb", "0.25", "--nodes", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
}
