//! The repo benchmark. One command prints every metric by name with its
//! unit, checks the outputs, and exits non-zero on a failed check:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run
//! ```
//!
//! See `benchmark/README.md` for the glossary, the workloads and the limits.

mod cli;
mod compare;
mod json;
mod kernels;
mod metrics;
mod procfs;
mod rep;
mod runner;
mod stamp;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use cli::Command;
use json::Json;
use metrics::Kind;
use runner::Reps;

fn main() -> ExitCode {
    // Taken first: a child's set-up time starts here.
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => {
            list();
            ExitCode::SUCCESS
        }
        Command::One { workload, cfg } => {
            let rep = runner::run_in_process(&workload, &cfg, origin);
            println!("{}", json::to_string(&rep.to_json()));
            ExitCode::SUCCESS
        }
        Command::Run {
            seed,
            reps,
            workloads,
            out,
            smoke,
            twice,
        } => run(seed, reps, &workloads, out, smoke, twice),
        Command::Measure {
            workload,
            seed,
            seconds,
            trace,
        } => measure(&workload, seed, seconds, trace),
        Command::Compare { a, b } => match compare_files(&a, &b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// `--list`: workload and metric names.
fn list() {
    println!("workloads (* = listed in BENCHMARK.json):");
    for (name, why) in runner::WORKLOADS {
        let listed = runner::contract_workloads().any(|(n, _)| n == name);
        println!("{} {name:<18} {why}", if listed { " *" } else { "  " });
    }
    for (kind, title) in [
        (Kind::EndToEnd, "end-to-end"),
        (Kind::PerLayer, "per-layer"),
    ] {
        println!("{title} metrics:");
        for m in metrics::CATALOGUE.iter().filter(|m| m.kind == kind) {
            println!("  {:<30} {:<10} {}", m.name, m.unit, m.what);
        }
    }
}

fn write_set(set: &runner::RunSet, path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json::to_string(&set.to_json()) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The human-facing command: k repetitions and one traced repetition per
/// workload, the report, the result file, and (with `--twice`) a second set
/// compared against the first.
fn run(
    seed: u64,
    reps: Option<usize>,
    workloads: &[String],
    out: Option<std::path::PathBuf>,
    smoke: bool,
    twice: bool,
) -> ExitCode {
    let k = reps.unwrap_or(if smoke { 1 } else { 5 });
    let names: Vec<&str> = if workloads.is_empty() {
        runner::WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        workloads.iter().map(String::as_str).collect()
    };
    let plan: Vec<(String, Reps)> = names
        .iter()
        .map(|n| (n.to_string(), Reps::Count(k)))
        .collect();
    let take = || runner::run_set(&plan, seed, smoke, true, format!("k = {k}"));
    let out = out.unwrap_or_else(|| runner::out_dir().join("run.json"));
    let first = take();
    first.print();
    let mut failed: u64 = first.workloads.iter().map(|w| w.failed).sum();
    if let Err(e) = write_set(&first, &out) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!("\nresults: {}", out.display());
    println!(
        "traces:  {}/trace-<workload>.jsonl",
        runner::out_dir().display()
    );
    let mut worse = 0;
    if twice {
        let second = take();
        failed += second.workloads.iter().map(|w| w.failed).sum::<u64>();
        let out_b = out.with_extension("b.json");
        if let Err(e) = write_set(&second, &out_b) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        println!("\nsecond set: {}\n", out_b.display());
        match compare::compare(&first.to_json(), &second.to_json()) {
            Ok(lines) => worse = compare::print(&lines),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed > 0 {
        println!("\n{failed} output check(s) or job(s) FAILED");
    }
    if failed > 0 || worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `BENCHMARK.json` command: `run` on one workload with the repetitions
/// chosen by time, the same report and result file, and then — as the last
/// line of stdout, which is all an outside driver reads — the medians of the
/// metrics `BENCHMARK.json` lists. `trace` 0: untraced repetitions for
/// `seconds`, the end-to-end metrics. `trace` 1: half the window untraced
/// (the overhead baseline), then the traced repetition and the kernel suite
/// once; every per-layer metric (0 where this workload has nothing to
/// measure a metric with).
fn measure(workload: &str, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let mut plan = vec![(
        workload.to_string(),
        Reps::Seconds(seconds as f64 / if trace { 2.0 } else { 1.0 }),
    )];
    if trace && workload != kernels::NAME {
        plan.push((kernels::NAME.to_string(), Reps::Count(0)));
    }
    let set = runner::run_set(&plan, seed, false, trace, format!("{seconds} s window"));
    set.print();
    let out = runner::out_dir().join(format!("measure-{workload}.json"));
    if let Err(e) = write_set(&set, &out) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nresults: {}", out.display());
    // A cluster workload's own rows first; the kernel suite's for the rest.
    let median = |metric: &str| set.workloads.iter().find_map(|w| w.median(metric));
    let mut line = BTreeMap::new();
    if trace {
        for m in metrics::per_layer() {
            line.insert(m.name, (median(m.name).unwrap_or(0.0), m.unit));
        }
    } else {
        for (name, _) in metrics::DRIVER_END_TO_END {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            match median(name) {
                Some(v) => line.insert(name, (v, unit)),
                None => {
                    eprintln!("error: no measurement for {name}");
                    return ExitCode::FAILURE;
                }
            };
        }
    }
    let (attempted, failed) = set
        .workloads
        .iter()
        .fold((0, 0), |a, w| (a.0 + w.attempted, a.1 + w.failed));
    let line = json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", json::num(attempted.max(1) as f64)),
        ("failed", json::num(failed as f64)),
        (
            "metrics",
            json::obj(line.into_iter().map(|(name, (value, unit))| {
                (
                    name,
                    json::obj([("value", json::num(value)), ("unit", json::string(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", json::to_string(&line));
    ExitCode::SUCCESS
}

fn compare_files(a: &std::path::Path, b: &std::path::Path) -> Result<usize, String> {
    let load = |p: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    let lines = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&lines))
}
