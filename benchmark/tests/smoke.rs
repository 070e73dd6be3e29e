//! Drives the built binary from outside: `run --smoke` over all seven
//! workloads and the traced path, `compare` on its own output, `--list`,
//! and the usage-error exit code.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_rmr-benchmark");

const WORKLOADS: [&str; 7] = [
    "terasort_osuib",
    "terasort_hadoopa",
    "terasort_ipoib",
    "terasort_real",
    "scale_256",
    "service_cap",
    "layer_kernels",
];

fn bench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("binary runs")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[test]
fn smoke_run_covers_all_workloads_and_the_traced_path() {
    let result = out_dir().join("smoke-test.json");
    let t0 = Instant::now();
    let out = bench(&["run", "--smoke", "--out", result.to_str().unwrap()]);
    let took = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The 30 s budget is for the optimized build the benchmark is run as.
    if !cfg!(debug_assertions) {
        assert!(took < 30.0, "smoke took {took:.1}s");
    }
    assert!(stdout.contains("SMOKE"), "smoke runs say so in the stamp");

    let text = std::fs::read_to_string(&result).expect("result set written");
    let set = rmr_obs::json::parse(text.trim()).expect("result set parses");
    let stamp = set.get("stamp").expect("stamp");
    for key in [
        "commit",
        "dirty",
        "tree",
        "rustc",
        "nproc",
        "cpu_model",
        "loadavg_1m",
    ] {
        assert!(stamp.get(key).is_some(), "stamp lacks {key}");
    }
    assert!(set.get("noisy").is_some() && set.get("seed").is_some());
    assert_eq!(set.get("reps").and_then(|r| r.as_str()), Some("k = 1"));
    let workloads = set.get("workloads").and_then(|w| w.as_obj()).unwrap();
    for name in WORKLOADS {
        let w = workloads
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            w.get("failed").and_then(|f| f.as_num()),
            Some(0.0),
            "{name}"
        );
        let metrics = w.get("metrics").and_then(|m| m.as_obj()).unwrap();
        for m in [
            "setup_s",
            "host_wall_s",
            "peak_rss_mb",
            "failed_share",
            "phase.teardown_s",
        ] {
            assert!(metrics.contains_key(m), "{name} lacks {m}");
        }
        // Set-up is sampled more often than whole repetitions.
        let n = |m: &str| metrics[m].get("n").and_then(|n| n.as_num());
        assert_eq!((n("setup_s"), n("host_wall_s")), (Some(5.0), Some(1.0)));
        // Every metric is printed by name, measured or not.
        assert!(stdout.contains(&format!("== {name} ")));
        let trace = out_dir().join(format!("trace-{name}.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("trace written");
        let first = rmr_obs::json::parse(spans.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(|n| n.as_str()), Some("workload"));
        assert_eq!(first.get("parent"), Some(&rmr_obs::json::Json::Null));
    }
    for m in ["sim_latency_p95_s", "des.timer_ns_per_event", "phase.map_s"] {
        assert!(stdout.contains(m), "report lacks {m}");
    }
    // The one workload whose inputs the seed does not fully name says so.
    assert!(
        stdout.contains("plan seed 42"),
        "service_cap names its plan"
    );

    // A set compared with itself: nothing worse, exit 0.
    let path = result.to_str().unwrap();
    let cmp = bench(&["compare", path, path]);
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stdout)
    );
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("0 worse"));
}

/// The `BENCHMARK.json` command: the last line of stdout is one object with
/// exactly the four contract keys and the three listed end-to-end metrics.
#[test]
fn measure_ends_with_the_contract_line() {
    let out = bench(&[
        "measure",
        "--workload",
        "terasort_ipoib",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let line = rmr_obs::json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&rmr_obs::json::Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(|f| f.as_num()), Some(0.0));
    let metrics = line.get("metrics").and_then(|m| m.as_obj()).unwrap();
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(names, ["host_wall_s", "peak_rss_mb", "setup_s"]);
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(|v| v.as_num()) > Some(0.0),
            "{name}"
        );
        assert!(m.get("unit").and_then(|u| u.as_str()).is_some(), "{name}");
    }
    // Before it: the same report `run` prints, stamp and all.
    assert!(stdout.contains("# commit ") && stdout.contains("1 s window"));
}

#[test]
fn list_names_every_workload_and_metric() {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in WORKLOADS {
        assert!(text.contains(name), "{name}");
    }
    for metric in [
        "setup_s",
        "sim_job_s",
        "paper_err_hadoopa_pts",
        "phase.teardown_s",
    ] {
        assert!(text.contains(metric), "{metric}");
    }
}

#[test]
fn bad_arguments_exit_2_with_usage_not_a_panic() {
    for args in [
        &["run", "--reps", "many"][..],
        &["one", "no_such_workload"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    // A missing file is an error message too.
    let out = bench(&["compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}
