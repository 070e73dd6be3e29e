//! The parent side: one child process per repetition, strictly one at a
//! time, and the aggregation of what the children print.
//!
//! A fresh process gives each repetition its own allocator state, its own
//! `VmHWM` and its own CPU split. The box has two cores: two children are
//! never run at once and no thread pool is used.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{self, Json};
use crate::kernels;
use crate::metrics::{self, Clock, Kind};
use crate::procfs;
use crate::rep::{Rep, RepConfig};
use crate::stamp::Stamp;
use crate::stats::{self, Summary};
use crate::workloads::{self, Macro};

/// Every workload, in report order.
pub const WORKLOADS: [(&str, &str); 7] = [
    ("terasort_osuib", "paper headline point (Fig 4b 100 GiB, 8 nodes): RDMA verbs + PrefetchCache + PQ merge on size-only segments"),
    ("terasort_hadoopa", "same input on Hadoop-A: no server cache, a disk read per request, fixed kv count per packet"),
    ("terasort_ipoib", "same input over sockets: per-byte CPU cost and reduce-side spills; baseline of the 32 % claim"),
    ("terasort_real", "real 100-byte records, 256 MiB on 4 nodes, validated record for record: data plane and memory, few events"),
    ("scale_256", "8 concurrent TeraSorts on 256 nodes with 8 MB blocks: control plane (heartbeats, scheduler index) and allocation churn"),
    ("service_cap", "open-loop two-tenant arrivals (Poisson + diurnal heavy tail) under capacity scheduling with preemption: latency percentiles"),
    ("layer_kernels", "each layer's public functions alone, no cluster: a layer change shows here first"),
];

/// The workloads `BENCHMARK.json` lists: the six cluster workloads. The
/// kernel suite has no job, no simulation of its own and nothing for most
/// per-layer metrics to measure, so an outside driver does not run it as a
/// workload; its numbers reach the driver through every traced `measure`,
/// which runs it once beside the workload asked for.
pub fn contract_workloads() -> impl Iterator<Item = (&'static str, &'static str)> {
    WORKLOADS.into_iter().filter(|(n, _)| *n != kernels::NAME)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// Where traces and result sets are written: `<package>/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one repetition in this process (the `one` subcommand): measures,
/// adds the process-level metrics, and writes the trace when traced.
pub fn run_in_process(name: &str, cfg: &RepConfig, origin: Instant) -> Rep {
    let mut rep = match Macro::ALL.into_iter().find(|m| m.name() == name) {
        Some(workload) => workloads::run(workload, cfg, origin),
        None => kernels::run(cfg, origin),
    };
    let stat = procfs::self_stat();
    rep.set("peak_rss_mb", procfs::self_vm_hwm_mb());
    rep.set("host.cpu_user_s", stat.user_s);
    rep.set("host.cpu_sys_s", stat.sys_s);
    let cpu = stat.user_s + stat.sys_s;
    rep.set(
        "host.sys_share",
        if cpu > 0.0 { stat.sys_s / cpu } else { 0.0 },
    );
    rep.set("host.minor_faults", stat.minor_faults as f64);
    if cfg.traced {
        if let Some(tracer) = &rep.spans {
            let run = format!("{name}-s{}-p{}", cfg.seed, std::process::id());
            let path = out_dir().join(format!("trace-{name}.jsonl"));
            let written = std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, tracer.to_jsonl(&run, name)));
            rep.check(
                "trace_written",
                written.is_ok(),
                format!("{}: {written:?}", path.display()),
            );
        }
    }
    rep.set("failed_share", rep.failed_share());
    rep.ended_unix_s = unix_now_s();
    rep
}

fn unix_now_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Spawns `one <workload>` as a child, waits for it, and parses its line.
/// The child inherits this process's environment untouched: it runs as a
/// user's `probe` would, default allocator included.
pub fn spawn_child(name: &str, cfg: &RepConfig) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("one")
        .arg(name)
        .arg("--seed")
        .arg(cfg.seed.to_string());
    if cfg.traced {
        cmd.arg("--traced");
    }
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if let Some(end) = cfg.sim_end_s {
        cmd.arg("--sim-end").arg(format!("{end}"));
    }
    if cfg.setup_only {
        cmd.arg("--setup-only");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let gone = unix_now_s();
    if !out.status.success() {
        return Err(format!("{name} child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{name} child printed nothing"))?;
    let mut rep =
        Rep::from_json(&json::parse(line).map_err(|e| format!("{name} child line: {e}"))?)?;
    if !cfg.setup_only {
        rep.set("phase.teardown_s", (gone - rep.ended_unix_s).max(0.0));
    }
    Ok(rep)
}

/// One small discarded child before anything is timed: it pages the binary
/// in, and first runs on a cold machine measured 30-40 % slow.
pub fn warm_up(seed: u64) {
    let cfg = RepConfig {
        smoke: true,
        ..RepConfig::plain(seed)
    };
    eprintln!("[warm-up] {} (smoke size, discarded)", kernels::NAME);
    if let Err(e) = spawn_child(kernels::NAME, &cfg) {
        eprintln!("[warm-up] failed: {e}");
    }
}

/// How many untraced repetitions to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// Exactly this many (0: the traced repetition alone).
    Count(usize),
    /// Keep starting repetitions while less than this many seconds have
    /// passed (always at least one).
    Seconds(f64),
}

/// Set-ups sampled per workload. Set-up is tens of milliseconds on most
/// workloads, so one or two samples (all a time window leaves room for on
/// the 10-second workloads) do not make a median; children that stop after
/// set-up make up the difference.
const SETUP_SAMPLES: usize = 5;

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub name: String,
    pub trace_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The repetitions' notes on their inputs (`Rep::notes`).
    pub notes: Vec<String>,
    /// Metric name -> summary over the untraced repetitions, or the traced
    /// repetition's single value where only it can measure the metric.
    pub rows: BTreeMap<String, Summary>,
}

impl WorkloadResult {
    pub fn median(&self, metric: &str) -> Option<f64> {
        self.rows.get(metric).map(|s| s.median)
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `name`'s repetitions (children, serially) and aggregates them.
/// `traced` adds the one traced repetition the per-layer numbers come from.
pub fn measure(name: &str, seed: u64, smoke: bool, reps: Reps, traced: bool) -> WorkloadResult {
    let t0 = Instant::now();
    let plain = RepConfig {
        smoke,
        ..RepConfig::plain(seed)
    };
    let mut failures = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    loop {
        let more = match reps {
            Reps::Count(k) => untraced.len() < k,
            Reps::Seconds(s) => untraced.is_empty() || t0.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        match spawn_child(name, &plain) {
            Ok(rep) => {
                eprintln!(
                    "[rep] {name} #{}: host_wall_s {:?} setup_s {:?} peak_rss_mb {:?}",
                    untraced.len() + 1,
                    rep.get("host_wall_s"),
                    rep.get("setup_s"),
                    rep.get("peak_rss_mb")
                );
                untraced.push(rep);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let mut setups: Vec<f64> = untraced.iter().filter_map(|r| r.get("setup_s")).collect();
    let setup_only = RepConfig {
        setup_only: true,
        ..plain.clone()
    };
    while !setups.is_empty() && setups.len() < SETUP_SAMPLES {
        match spawn_child(name, &setup_only) {
            Ok(rep) if rep.failed == 0 && rep.get("setup_s").is_some() => {
                setups.extend(rep.get("setup_s"));
            }
            Ok(rep) => {
                failures.push(format!("{name} set-up only: {:?}", rep.failures()));
                break;
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let traced_rep = if traced && failures.is_empty() {
        let cfg = RepConfig {
            traced: true,
            sim_end_s: untraced.first().and_then(|r| r.get("sim_end_s")),
            ..plain.clone()
        };
        spawn_child(name, &cfg).map_err(|e| failures.push(e)).ok()
    } else {
        None
    };
    let all: Vec<&Rep> = untraced.iter().chain(&traced_rep).collect();

    let mut result = WorkloadResult {
        name: name.to_string(),
        trace_hash: all.first().map_or(0, |r| r.trace_hash),
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        failures,
        notes: all.first().map_or(Vec::new(), |r| r.notes.clone()),
        rows: BTreeMap::new(),
    };
    // A child that died counts as one attempted, failed repetition.
    result.attempted += result.failures.len() as u64;
    result.failed += result.failures.len() as u64;
    for r in &all {
        result.failures.extend(r.failures());
    }

    // ---- rows: untraced repetitions first; the traced one fills in what
    // only it can measure.
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &untraced {
        for (k, v) in &r.metrics {
            values.entry(k.clone()).or_default().push(*v);
        }
    }
    if !setups.is_empty() {
        values.insert("setup_s".to_string(), setups);
    }
    for (k, v) in values {
        result.rows.insert(k, stats::summarize(&v));
    }
    if let Some(r) = &traced_rep {
        for (k, v) in &r.metrics {
            result
                .rows
                .entry(k.clone())
                .or_insert_with(|| stats::summarize(&[*v]));
        }
    }

    // ---- cross-repetition checks
    let check = |result: &mut WorkloadResult, name: &str, ok: bool, detail: String| {
        result.attempted += 1;
        if !ok {
            result.failed += 1;
            result.failures.push(format!("{name}: {detail}"));
        }
    };
    if all.len() > 1 {
        let hashes: Vec<String> = all
            .iter()
            .map(|r| format!("{:016x}", r.trace_hash))
            .collect();
        check(
            &mut result,
            "trace_hash_identical",
            all.iter().all(|r| r.trace_hash == all[0].trace_hash),
            format!("untraced and traced repetitions: {hashes:?}"),
        );
        // Simulated values and counts must repeat to the bit, traced or not.
        let mut moved = Vec::new();
        for m in metrics::CATALOGUE {
            if m.clock == Clock::Host || m.kernel || m.name == "failed_share" {
                continue;
            }
            let seen: Vec<f64> = all.iter().filter_map(|r| r.get(m.name)).collect();
            if seen.iter().any(|v| *v != seen[0]) {
                moved.push(format!("{} {seen:?}", m.name));
            }
        }
        check(
            &mut result,
            "sim_values_identical",
            moved.is_empty(),
            moved.join("; "),
        );
    }
    if let (Some(t), false) = (
        traced_rep.as_ref().and_then(|r| r.get("host_wall_s")),
        untraced.is_empty(),
    ) {
        let base = stats::median(
            &untraced
                .iter()
                .filter_map(|r| r.get("host_wall_s"))
                .collect::<Vec<_>>(),
        );
        result.rows.insert(
            "obs.overhead_pct".to_string(),
            stats::summarize(&[(t / base - 1.0) * 100.0]),
        );
    }
    let share = result.failed_share();
    result
        .rows
        .insert("failed_share".to_string(), stats::summarize(&[share]));
    result
}

/// A whole run: every selected workload, the stamp, and the noise verdict.
pub struct RunSet {
    pub stamp: Stamp,
    pub seed: u64,
    /// How many untraced repetitions per workload: "k = 5", "10 s window".
    pub reps: String,
    pub smoke: bool,
    /// Share of the machine's CPU time, over the whole run, that the
    /// hypervisor gave to someone else (`/proc/stat` steal).
    pub steal_share: f64,
    pub workloads: Vec<WorkloadResult>,
}

/// Steal above this marks the run noisy. A quiet run on the reference VM
/// shows well under 1 %; in an episode of host contention it reads 10-40 %
/// and the same repetition takes two to five times as long.
const STEAL_LIMIT: f64 = 0.02;

/// The paper's two headline gains (Fig 4b, 100 GB, 8 nodes, 1 HDD), percent.
pub const PAPER_GAIN_IPOIB: f64 = 32.0;
pub const PAPER_GAIN_HADOOPA: f64 = 21.0;

impl RunSet {
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// OSU-IB's measured gain over `sibling`'s `sim_job_s`, percent.
    pub fn gain_over(&self, sibling: &str) -> Option<f64> {
        let osu = self.workload("terasort_osuib")?.median("sim_job_s")?;
        let base = self.workload(sibling)?.median("sim_job_s")?;
        Some((base - osu) / base * 100.0)
    }

    /// Adds `paper_err_*_pts` to `terasort_osuib` for the siblings that ran.
    pub fn add_paper_error(&mut self) {
        for (sibling, paper, metric) in [
            ("terasort_ipoib", PAPER_GAIN_IPOIB, "paper_err_ipoib_pts"),
            (
                "terasort_hadoopa",
                PAPER_GAIN_HADOOPA,
                "paper_err_hadoopa_pts",
            ),
        ] {
            let Some(gain) = self.gain_over(sibling) else {
                continue;
            };
            if let Some(osu) = self
                .workloads
                .iter_mut()
                .find(|w| w.name == "terasort_osuib")
            {
                osu.rows.insert(
                    metric.to_string(),
                    stats::summarize(&[(gain - paper).abs()]),
                );
            }
        }
    }

    /// Why this run's host numbers should be read with care (empty: quiet).
    pub fn noise(&self) -> Vec<String> {
        let mut why = Vec::new();
        if self.stamp.loaded() {
            why.push(format!(
                "1-min loadavg {} at start exceeds half of {} cores",
                self.stamp.loadavg_1m, self.stamp.nproc
            ));
        }
        if self.steal_share > STEAL_LIMIT {
            why.push(format!(
                "the hypervisor took {:.1} % of the machine's CPU time during the run",
                self.steal_share * 100.0
            ));
        }
        for w in &self.workloads {
            for m in metrics::end_to_end().filter(|m| m.clock == Clock::Host) {
                if let Some(s) = w.rows.get(m.name) {
                    // A 4 ms quartile range on a 30 ms set-up is 13 % and
                    // means nothing: the bound's own floor applies here too.
                    let floor = m.bound.map_or(0.0, metrics::Bound::floor);
                    if s.n > 1 && s.spread() > 0.10 && s.q3 - s.q1 > floor {
                        why.push(format!(
                            "{} {}: IQR/median {:.3}",
                            w.name,
                            m.name,
                            s.spread()
                        ));
                    }
                }
            }
        }
        why
    }

    pub fn to_json(&self) -> Json {
        let noise = self.noise();
        json::obj([
            ("stamp", self.stamp.to_json()),
            ("seed", json::num(self.seed as f64)),
            ("reps", json::string(&self.reps)),
            ("smoke", Json::Bool(self.smoke)),
            ("steal_share", json::num(self.steal_share)),
            ("noisy", Json::Bool(!noise.is_empty())),
            (
                "noise",
                Json::Arr(noise.into_iter().map(json::string).collect()),
            ),
            (
                "workloads",
                json::obj(self.workloads.iter().map(|w| {
                    (
                        w.name.clone(),
                        json::obj([
                            ("trace_hash", json::string(format!("{:016x}", w.trace_hash))),
                            ("attempted", json::num(w.attempted as f64)),
                            ("failed", json::num(w.failed as f64)),
                            (
                                "failures",
                                Json::Arr(w.failures.iter().map(json::string).collect()),
                            ),
                            (
                                "notes",
                                Json::Arr(w.notes.iter().map(json::string).collect()),
                            ),
                            (
                                "metrics",
                                json::obj(w.rows.iter().map(|(k, s)| (k.clone(), s.to_json()))),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Prints every metric by name with its unit, per workload.
    pub fn print(&self) {
        let s = &self.stamp;
        println!(
            "# commit {}{} tree {} | {} | {} x {} | seed {} | {}{} | loadavg {} | steal {:.1} %",
            s.commit,
            if s.dirty { "+dirty" } else { "" },
            s.tree,
            s.rustc,
            s.nproc,
            s.cpu_model,
            self.seed,
            self.reps,
            if self.smoke {
                " | SMOKE (inputs / 16)"
            } else {
                ""
            },
            s.loadavg_1m,
            self.steal_share * 100.0
        );
        let noise = self.noise();
        if noise.is_empty() {
            println!("# quiet: load, steal and host-metric spreads within limits");
        } else {
            println!("# NOISY: host numbers below need care:");
            for n in &noise {
                println!("#   {n}");
            }
        }
        for w in &self.workloads {
            println!(
                "\n== {} (trace hash {:016x}; {} attempted, {} failed)",
                w.name, w.trace_hash, w.attempted, w.failed
            );
            for f in &w.failures {
                println!("   FAILED {f}");
            }
            for n in &w.notes {
                println!("   note: {n}");
            }
            for kind in [Kind::EndToEnd, Kind::PerLayer] {
                println!(
                    "  -- {}",
                    if kind == Kind::EndToEnd {
                        "end to end: median [q1 .. q3] min, n"
                    } else {
                        "per layer (traced repetition unless n > 1)"
                    }
                );
                for m in metrics::CATALOGUE.iter().filter(|m| m.kind == kind) {
                    match w.rows.get(m.name) {
                        Some(s) if s.n > 1 => {
                            println!(
                                "  {:<30} {:>16} {:<10} [{} .. {}] min {}, n {}",
                                m.name,
                                fmt(s.median),
                                m.unit,
                                fmt(s.q1),
                                fmt(s.q3),
                                fmt(s.min),
                                s.n
                            );
                        }
                        Some(s) => {
                            println!("  {:<30} {:>16} {:<10}", m.name, fmt(s.median), m.unit)
                        }
                        None => println!("  {:<30} {:>16} {:<10}", m.name, "-", m.unit),
                    }
                }
            }
            if w.name == "terasort_osuib" {
                for (sibling, paper) in [
                    ("terasort_ipoib", PAPER_GAIN_IPOIB),
                    ("terasort_hadoopa", PAPER_GAIN_HADOOPA),
                ] {
                    if let Some(gain) = self.gain_over(sibling) {
                        println!(
                            "  OSU-IB gain over {sibling}: {gain:.2} % measured, {paper} % in the paper"
                        );
                    }
                }
            }
        }
    }
}

/// Six significant digits, without an exponent for everyday magnitudes.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if v.fract() == 0.0 && a < 1e15 {
        format!("{v}")
    } else if (1e-3..1e6).contains(&a) {
        let decimals = (5 - a.log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

/// Runs each workload of `plan` with its repetitions (plus one traced
/// repetition when `traced`), after the warm-up child. Both commands are
/// this: `run` with a fixed count, `measure` with a time window.
pub fn run_set(
    plan: &[(String, Reps)],
    seed: u64,
    smoke: bool,
    traced: bool,
    reps: String,
) -> RunSet {
    let stamp = Stamp::take();
    let (total0, steal0) = procfs::cpu_ticks();
    warm_up(seed);
    let mut workloads = Vec::new();
    for (name, k) in plan {
        eprintln!("[run] {name}: {k:?} untraced, traced: {traced}");
        workloads.push(measure(name, seed, smoke, *k, traced));
    }
    let (total1, steal1) = procfs::cpu_ticks();
    let mut set = RunSet {
        stamp,
        seed,
        reps,
        smoke,
        steal_share: (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        workloads,
    };
    set.add_paper_error();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_with_six_significant_digits() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1144.88911095), "1144.89");
        assert_eq!(fmt(3.7123456), "3.71235");
        assert_eq!(fmt(0.0761929), "0.0761929");
        assert_eq!(fmt(107_374_182_400.0), "107374182400");
        assert_eq!(fmt(2.103e-6), "2.10300e-6");
        assert_eq!(fmt(-12.5), "-12.5000");
        assert_eq!(fmt(64.0), "64");
    }

    #[test]
    fn workload_names_fit_the_benchmark_json_limits() {
        for (name, why) in WORKLOADS {
            assert!(is_workload(name));
            assert!(name.len() <= 64 && why.len() <= 200, "{name}");
            assert!(!why.contains('\n'));
        }
        assert!(!is_workload("terasort"));
    }
}
