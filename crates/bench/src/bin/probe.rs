//! Calibration probe: single simulations and gated campaigns, every one a
//! `Scenario` handed to the shared driver (`rmr_cluster::run_scenario`).
//! [`USAGE`] lists the subcommands; what each one runs and gates on is
//! documented on its function.
//!
//! A malformed argument is a usage error (exit 2). Every subcommand honours
//! `RMR_LIMIT=<sim-seconds>`: a run still going at the limit (or one that
//! drains with jobs outstanding) prints its live tasks, what each blocks
//! on and the runtime dump, and exits 2.

use rmr_bench::chaos::{combiner_plan, derive_plan, render_plan, storm_plan, TwinTiming};
use rmr_bench::cli::{parse_bench, usage_error, Args};
use rmr_bench::{exit_hung, run_grid_traced, run_or_exit, scenarios, sweep};
use rmr_cluster::{run_scenario, Bench, Experiment, RunReport, Scenario, System, Testbed};
use rmr_core::{FaultPlan, JobResult};

const USAGE: &str = "usage: probe <grid|one|phases|scale|service|chaos|obs> [args]
  probe grid   [gb] [nodes] [disks] [terasort|sort] [--engines]
  probe one    [gb] [system] [nodes] [disks] [terasort|sort] [seed]
  probe phases [gb] [system] [nodes] [disks] [terasort|sort|ssdsort]
  probe scale  [nodes] [jobs] [gb] [seed] [--budget-s S] [--min-attempts N]
  probe service [nodes] [jobs] [seed] [--budget-s S] [--hist-dir DIR]
  probe chaos  [nodes] [jobs] [gb] [seed] [--plans N] [--budget-s S]
  probe obs    [jobs] [nodes] [gb_per_job] [outdir] [seed]
  systems: g1|g10|ipoib|ha|osu|osunc|comb|mr";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &argv[..]),
    };
    let args = |valued: &[&str], switches: &[&str]| Args::parse(rest, valued, switches, USAGE);
    match cmd {
        "grid" => grid(args(&[], &["--engines"])),
        "one" => one(args(&[], &[])),
        "phases" => phases(args(&[], &[])),
        "obs" => obs(args(&[], &[])),
        "scale" => scale(args(&["--budget-s", "--min-attempts"], &[])),
        "service" => service(args(&["--budget-s", "--hist-dir"], &[])),
        "chaos" => chaos(args(&["--plans", "--budget-s"], &[])),
        _ => usage_error(&format!("unknown subcommand {cmd:?}"), USAGE),
    }
}

/// Runs `f`; returns its result and the host seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // simcheck: allow(wall-clock) -- host-side timing of the sims themselves
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn gate(name: &str, ok: bool) -> String {
    format!("{}:{}", name, if ok { "PASS" } else { "FAIL" })
}

/// One exit-code gate: unless `ok`, says why on stderr and marks the run
/// failed (the probe still prints the rest of its table before exiting 1).
fn require(failed: &mut bool, ok: bool, why: String) {
    if !ok {
        eprintln!("{why}");
        *failed = true;
    }
}

/// One Fig 4(a)-style point per system, in parallel. With `--engines` the
/// grid covers the three shuffle engines (Vanilla via IPoIB, Hadoop-A,
/// OSU-IB) and the two OSU-IB presets (in-node combiner stage, second rail)
/// and becomes a gate: with the combiner stage switched on, each engine's
/// combiner-less run must replay the run without it exactly.
fn grid(mut args: Args) {
    let gb: f64 = args.pos("gb", 30.0);
    let nodes: usize = args.pos("nodes", 4);
    let disks: usize = args.pos("disks", 1);
    let bench = args.pos_with("bench", Bench::TeraSort, parse_bench);
    args.done();
    let engines = args.switch("--engines");
    let seed_systems = [System::IpoIb, System::HadoopA, System::OsuIb];
    let systems = if engines {
        [
            &seed_systems[..],
            &[System::NodeCombiner, System::MultiRail],
        ]
        .concat()
    } else {
        [&[System::GigE10], &seed_systems[..]].concat()
    };
    let exp =
        |s: System| Experiment::new("probe", bench, s, Testbed::compute(nodes, disks), gb, 42);
    let exps: Vec<Experiment> = systems.iter().map(|&s| exp(s)).collect();
    let recs = run_grid_traced(&exps, exps.len());
    for (r, _) in &recs {
        println!(
            "{:28} {:6.0}s  (map_end {:5.0}s, shuffled {:.1} GB, cache {:.0}%)",
            r.system,
            r.duration_s,
            r.map_phase_end_s,
            r.shuffled_bytes as f64 / 1e9,
            r.cache_hit_rate * 100.0
        );
    }
    if !engines {
        return;
    }
    // Pass-through gate: the sort benches carry no combiner fn, so the
    // stage must leave every engine's schedule as it is, poll for poll.
    let staged = sweep::sweep_map(&seed_systems, seed_systems.len(), |&system, _| {
        let mut sc = exp(system).scenario();
        sc.conf.node_combine = true;
        let report = run_or_exit(&sc);
        (report.jobs[0].duration_s, report.trace_hash)
    });
    let mut failed = false;
    for ((plain, hash), staged) in recs.iter().zip(staged) {
        let same = (plain.duration_s, *hash) == staged;
        println!(
            "combiner-less pass-through {:28} {}",
            plain.system,
            gate("replays-the-engine", same)
        );
        failed |= !same;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Runs one weak-scaling point (`scenarios::scale`): total dataset scaled so
/// per-node load matches the target point.
fn scale_point(nodes: usize, jobs: usize, gb_total: f64, seed: u64) -> (RunReport, f64) {
    let sc = scenarios::scale(nodes, jobs, gb_total, seed);
    let (report, wall_s) = timed(|| run_or_exit(&sc));
    let fp = report.footprint;
    assert_eq!(fp.total(), 0, "job-keyed state leaked: {fp:?}");
    let sum = |f: fn(&JobResult) -> usize| report.jobs.iter().map(f).sum::<usize>();
    eprintln!(
        "  [scale n{nodes}] jobs={jobs} maps={} reduces={} failed_maps={} failed_reduces={}",
        sum(|r| r.maps),
        sum(|r| r.reduces),
        sum(|r| r.failed_map_attempts),
        sum(|r| r.failed_reduce_attempts),
    );
    (report, wall_s)
}

/// Weak-scaling hot-path probe: the same concurrent job mix at 64, 256 and
/// `nodes` workers (points ≤ `nodes`). Prints fluid_work/events and
/// polls/events per point and their drift vs the smallest point; exits
/// non-zero on upward drift over 1.2x, a point over `--budget-s` of wall
/// time, or a target point under `--min-attempts` (the CI smoke).
fn scale(mut args: Args) {
    let nodes: usize = args.pos("nodes", 1024);
    let jobs: usize = args.pos("jobs", 8);
    let gb: f64 = args.pos("gb", 100.0);
    let seed: u64 = args.pos("seed", 42);
    args.done();
    let budget_s: Option<f64> = args.flag("--budget-s");
    let min_attempts: Option<usize> = args.flag("--min-attempts");

    // Reference points below the target, so the ratios have a baseline.
    let mut points: Vec<usize> = [64usize, 256, nodes]
        .into_iter()
        .filter(|&n| n <= nodes)
        .collect();
    points.sort_unstable();
    points.dedup();

    // Weak scaling: per-node data is fixed at the target's gb/nodes and the
    // job count stays constant, so every point runs the same blocks-per-node
    // load (the per-node split rounding is identical across points). Per-job
    // reduce fan-in still grows with the cluster — reduces are capped while
    // maps scale — which shifts the event mix toward fluid merge work and
    // can only *lower* the per-event ratios. The gate is therefore
    // one-sided: only ratio growth (super-linear control-plane cost per
    // event) fails the probe.
    // Points run one after another: each records its own wall time and the
    // budget gates on it, and two whole sims sharing the host's cores and
    // caches would charge each point for the other's work.
    let runs: Vec<(usize, RunReport, f64)> = points
        .iter()
        .map(|&n| {
            let (report, wall_s) = scale_point(n, jobs, gb * n as f64 / nodes as f64, seed);
            (n, report, wall_s)
        })
        .collect();

    println!(
        "\n{:>6} {:>9} {:>10} {:>12} {:>8} {:>14} {:>12}",
        "nodes", "attempts", "events", "fluid_work", "wall_s", "fluid/events", "polls/events"
    );
    let per_event = |r: &RunReport| {
        (
            r.fluid_work as f64 / r.events as f64,
            r.polls as f64 / r.events as f64,
        )
    };
    let (base_fpe, base_ppe) = per_event(&runs[0].1);
    let mut failed = false;
    let mut max_drift = 1.0f64;
    for (n, r, wall_s) in &runs {
        let (fpe, ppe) = per_event(r);
        println!(
            "{:>6} {:>9} {:>10} {:>12} {:>8.2} {:>8.3} ({:>4.2}x) {:>6.3} ({:>4.2}x)",
            n,
            r.attempts(),
            r.events,
            r.fluid_work,
            wall_s,
            fpe,
            fpe / base_fpe,
            ppe,
            ppe / base_ppe
        );
        max_drift = max_drift.max(fpe / base_fpe).max(ppe / base_ppe);
        let b = budget_s.unwrap_or(f64::INFINITY);
        require(
            &mut failed,
            *wall_s <= b,
            format!("BUDGET EXCEEDED: n{n} took {wall_s:.1}s > {b:.1}s"),
        );
    }
    println!(
        "max upward hot-path ratio drift vs n{}: {:.3}x (gate: 1.20x)",
        runs[0].0, max_drift
    );
    let got = runs.last().map_or(0, |(_, r, _)| r.attempts());
    let min = min_attempts.unwrap_or(0);
    require(
        &mut failed,
        got >= min,
        format!("SMOKE TOO SMALL: target point ran {got} attempts < {min}"),
    );
    if failed || max_drift > 1.2 {
        std::process::exit(1);
    }
}

/// Open-arrival service probe: the canonical two-tenant workload (see
/// `rmr_bench::service`) under FIFO and capacity scheduling, with a replay
/// run for the determinism gate. Gates (non-zero exit on failure):
///
///  1. every submitted job finishes (a hung run exits 2 with its report)
///     and the runtime state footprint drains to zero,
///  2. both tenants report non-empty latency tails under both policies,
///  3. the capacity-guaranteed interactive tenant's latency p99 beats FIFO
///     and its queue-wait p99 is no worse,
///  4. a second run of the capacity sim is trace-hash identical,
///  5. optional wall budget per run (`--budget-s`).
fn service(mut args: Args) {
    use rmr_bench::service::service_spec;
    use rmr_load::{try_run_service, ServicePolicy};

    let nodes: usize = args.pos("nodes", 64);
    let jobs: usize = args.pos("jobs", 1000);
    let seed: u64 = args.pos("seed", 42);
    args.done();
    let budget_s: Option<f64> = args.flag("--budget-s");
    let hist_dir: Option<String> = args.flag("--hist-dir");
    // An unusable artifact directory is an error now, not after the runs.
    if let Some(dir) = &hist_dir {
        create_dir_or_exit(dir);
    }
    let run = |policy, record| {
        try_run_service(&service_spec(nodes, jobs, seed, policy, record))
            .unwrap_or_else(|hung| exit_hung(&hung))
    };

    // FIFO baseline and the capacity run (events recorded for the heatmap
    // artifacts — the recorder is perturbation-free, see the load gates)
    // fan out through the sweep pool; the replay twin runs after, so it
    // proves same-process determinism rather than racing its twin.
    let cases = [
        (ServicePolicy::Fifo, false),
        (ServicePolicy::Capacity { preempt: true }, true),
    ];
    let threads = rmr_bench::default_threads().min(cases.len());
    let (mut reports, wall_s) =
        timed(|| sweep::sweep_map(&cases, threads, |&(policy, record), _| run(policy, record)));
    let wall_s = wall_s / cases.len() as f64;
    let cap = reports.pop().expect("capacity report");
    let fifo = reports.pop().expect("fifo report");
    let replay = run(ServicePolicy::Capacity { preempt: true }, false);

    println!("{}", fifo.to_ascii());
    println!("{}", cap.to_ascii());

    let mut failed = false;
    for rep in [&fifo, &cap] {
        let label = rep.policy_label();
        for t in &rep.tenants {
            require(
                &mut failed,
                t.latency.p99() > 0.0,
                format!("EMPTY TAIL: {label} tenant {} has no p99", t.queue),
            );
        }
        require(
            &mut failed,
            rep.footprint_total == 0,
            format!("STATE LEAK: {label} footprint {}", rep.footprint_total),
        );
    }
    let (f0, c0) = (fifo.tenant(0), cap.tenant(0));
    let (f_p99, c_p99) = (f0.latency.p99(), c0.latency.p99());
    let (f_wait, c_wait) = (f0.wait.p99(), c0.wait.p99());
    println!(
        "guaranteed-tenant p99: fifo {f_p99:.1}s vs capacity {c_p99:.1}s ({:.2}x); \
         wait-p99 {f_wait:.1}s vs {c_wait:.1}s",
        f_p99 / c_p99.max(1e-9),
    );
    require(
        &mut failed,
        c_p99 < f_p99,
        format!("ISOLATION FAILED: capacity p99 {c_p99:.2}s not below FIFO {f_p99:.2}s"),
    );
    require(
        &mut failed,
        c_wait <= f_wait,
        format!("ISOLATION FAILED: capacity wait-p99 {c_wait:.2}s above FIFO {f_wait:.2}s"),
    );
    require(
        &mut failed,
        replay.trace_hash == cap.trace_hash,
        format!(
            "REPLAY DIVERGED: {:#x} vs {:#x}",
            replay.trace_hash, cap.trace_hash
        ),
    );
    if replay.trace_hash == cap.trace_hash {
        println!(
            "replay gate: trace hash {:#x} identical across runs ({} events)",
            cap.trace_hash, cap.events_fired
        );
    }
    let b = budget_s.unwrap_or(f64::INFINITY);
    require(
        &mut failed,
        wall_s <= b,
        format!("BUDGET EXCEEDED: {wall_s:.1}s/run > {b:.1}s"),
    );

    if let Some(dir) = hist_dir {
        for rep in [&fifo, &cap] {
            let path = format!("{dir}/service_{}_tenants.jsonl", rep.policy_label());
            write_or_exit(&path, &rep.tenants_jsonl());
            println!("wrote {path}");
        }
        for (what, hm) in [
            (
                "recovery",
                rmr_obs::tenant_recovery_heatmap(&cap.events, 24),
            ),
            ("latency", rmr_obs::tenant_latency_heatmap(&cap.events, 24)),
        ] {
            let path = format!("{dir}/service_tenant_{what}.json");
            write_or_exit(&path, &hm.to_json());
            println!("wrote {path}\n{}", hm.to_ascii());
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// No lost work: every job's per-reducer output byte counts (and so the
/// concatenated output files) match the fault-free twin exactly.
fn lossless(twin: &RunReport, faulted: &RunReport) -> bool {
    faulted.jobs.len() == twin.jobs.len()
        && twin.jobs.iter().zip(&faulted.jobs).all(|(a, b)| {
            a.output_bytes == b.output_bytes
                && a.maps == b.maps
                && a.reduce_stats.len() == b.reduce_stats.len()
                && a.reduce_stats
                    .iter()
                    .zip(&b.reduce_stats)
                    .all(|(x, y)| x.output_bytes == y.output_bytes)
        })
}

/// One gated campaign point, as it crosses the sweep pool (a `RunReport`'s
/// live handles are not `Send`).
struct ChaosRow {
    text: String,
    pass: bool,
    wall_s: f64,
    crashes: usize,
}

/// Runs one campaign point — the fault-free twin, the plan derived from its
/// timing, the faulted run, and a determinism re-run of the faulted sim, all
/// on the same seed — and gates it: quiescence (all jobs finished, runtime
/// state drained to zero), determinism (the re-run is trace-hash identical),
/// no-lost-work (per-reducer output matches the twin), plus any `extra`
/// gate on the twin. A hung run prints its report and the plan, and exits 2.
fn chaos_point(
    label: &str,
    seed: u64,
    sc: impl Fn(&FaultPlan) -> Scenario,
    plan_of: impl FnOnce(&TwinTiming) -> FaultPlan,
    extra: impl FnOnce(&RunReport) -> Vec<(&'static str, bool)>,
) -> ChaosRow {
    let run = |plan: &FaultPlan| {
        run_scenario(&sc(plan)).unwrap_or_else(|hung| {
            eprintln!("plan: {}", render_plan(plan));
            exit_hung(&hung)
        })
    };
    let ((twin, plan, faulted, rerun), wall_s) = timed(|| {
        let twin = run(&FaultPlan::none());
        let plan = plan_of(&TwinTiming::of(&twin.jobs));
        let (faulted, rerun) = (run(&plan), run(&plan));
        (twin, plan, faulted, rerun)
    });
    let mut gates = vec![
        ("quiesce", faulted.footprint.total() == 0),
        ("determinism", faulted.trace_hash == rerun.trace_hash),
        ("no-lost-work", lossless(&twin, &faulted)),
    ];
    gates.extend(extra(&twin));
    let shown: Vec<String> = gates.iter().map(|&(name, ok)| gate(name, ok)).collect();
    ChaosRow {
        text: format!(
            "{label:>4} {seed:>6} {:>7} {:>9.0}s {:>9.0}s {wall_s:>6.1}s  {}   [{}]",
            plan.events.len(),
            twin.makespan_s(),
            faulted.makespan_s(),
            shown.join(" "),
            render_plan(&plan),
        ),
        pass: gates.iter().all(|&(_, ok)| ok),
        wall_s,
        crashes: plan.crashes(),
    }
}

/// Deterministic chaos campaign: `--plans` seed-derived fault plans (plan 0
/// is always the mid-map-wave kill storm) against a concurrent TeraSort
/// mix, then the combiner acceptance point. Gates are per point (see
/// [`chaos_point`]); any failure, or a point over `--budget-s` of wall
/// time, exits non-zero after the whole table prints.
fn chaos(mut args: Args) {
    let nodes: usize = args.pos("nodes", 16);
    let jobs: usize = args.pos("jobs", 2);
    let gb: f64 = args.pos("gb", 1.0);
    let seed: u64 = args.pos("seed", 42);
    args.done();
    let plans: usize = args.flag("--plans").unwrap_or(8);
    let budget_s: f64 = args.flag("--budget-s").unwrap_or(f64::INFINITY);

    // Points are independent whole sims, so they sweep in parallel like
    // every other sim-output grid.
    let threads = rmr_bench::default_threads().min(plans.max(1));
    let rows = sweep::sweep(plans, threads, |p| {
        let sim_seed = seed + p as u64;
        chaos_point(
            &p.to_string(),
            sim_seed,
            |plan| scenarios::chaos(System::OsuIb, false, nodes, jobs, gb, sim_seed, plan),
            // Plan 0 is always the acceptance storm: 2 of `nodes` killed
            // mid-map-wave. Later plans are seed-derived mixes.
            |timing| match p {
                0 => storm_plan(nodes, 2, timing),
                _ => derive_plan(sim_seed, nodes, timing),
            },
            |_| Vec::new(),
        )
    });

    println!(
        "\n{:>4} {:>6} {:>7} {:>10} {:>10} {:>7}  gates",
        "plan", "seed", "events", "twin_s", "fault_s", "wall_s"
    );
    let mut failed = false;
    for (p, row) in rows.iter().enumerate() {
        println!("{}", row.text);
        failed |= !row.pass;
        require(
            &mut failed,
            row.wall_s <= budget_s,
            format!(
                "BUDGET EXCEEDED: plan {p} took {:.1}s > {budget_s:.1}s",
                row.wall_s
            ),
        );
    }
    println!(
        "{} plans swept ({jobs} jobs x {gb:.2} GB on {nodes} nodes; storm kills {} nodes mid-map-wave)",
        rows.len(),
        rows.first().map_or(0, |row| row.crashes)
    );

    // Combiner-engine acceptance point: WordCount (combiner = reducer) on
    // the in-node combiner engine, one worker killed mid-shuffle and
    // restarted. The crash drops that node's staged aggregates, so passing
    // no-lost-work means the fold re-ran after node loss; the folded gate
    // (shuffle volume under an OSU-IB twin of the same workload) proves
    // aggregation was actually active, not passed through.
    let cnodes = nodes.clamp(3, 6);
    let cjobs = 2;
    let cseed = seed + 10_000;
    let sc =
        |system, plan: &FaultPlan| scenarios::chaos(system, true, cnodes, cjobs, gb, cseed, plan);
    let plain = run_or_exit(&sc(System::OsuIb, &FaultPlan::none())).shuffled_bytes();
    let mut combined = 0;
    let comb = chaos_point(
        "comb",
        cseed,
        |plan| sc(System::NodeCombiner, plan),
        combiner_plan,
        |twin| {
            combined = twin.shuffled_bytes();
            vec![("folded", combined < plain)]
        },
    );
    println!("{}", comb.text);
    println!(
        "combiner point: WordCount x{cjobs} on {cnodes} nodes; shuffle {combined} B combined vs {plain} B OSU-IB"
    );

    if failed || !comb.pass {
        std::process::exit(1);
    }
}

/// The `[gb] [system] [nodes] [disks]` prefix `one` and `phases` share.
fn point_args(args: &mut Args, gb: f64) -> (f64, System, usize, usize) {
    (
        args.pos("gb", gb),
        args.pos_with("system", System::OsuIb, System::parse),
        args.pos("nodes", 4),
        args.pos("disks", 1),
    )
}

/// A single point; prints sim duration and wall time.
fn one(mut args: Args) {
    let (gb, system, nodes, disks) = point_args(&mut args, 4.0);
    let bench = args.pos_with("bench", Bench::TeraSort, parse_bench);
    let seed: u64 = args.pos("seed", 42);
    args.done();
    let exp = Experiment::new(
        "p1",
        bench,
        system,
        Testbed::compute(nodes, disks),
        gb,
        seed,
    );
    let (report, wall_s) = timed(|| run_or_exit(&exp.scenario()));
    let res = &report.jobs[0];
    println!(
        "{} {}GB: {:.3}s sim (map_end {:.3}s) in {:.1}s wall",
        system.label(),
        gb,
        res.duration_s,
        res.map_phase_end_s,
        wall_s
    );
}

/// A single point with a full phase/metrics breakdown.
fn phases(mut args: Args) {
    let (gb, system, nodes, disks) = point_args(&mut args, 10.0);
    let (bench, ssd) = args.pos_with("bench", (Bench::TeraSort, false), |s| match s {
        "ssdsort" => Some((Bench::Sort, true)),
        _ => parse_bench(s).map(|b| (b, false)),
    });
    args.done();
    let testbed = if ssd {
        Testbed::ssd(nodes)
    } else {
        Testbed::compute(nodes, disks)
    };
    let sc = scenarios::phases(bench, system, testbed, gb);
    let (report, wall_s) = timed(|| run_or_exit(&sc));
    let res = &report.jobs[0];
    println!(
        "== {} {} {}GB n{} d{} ssd={} ==",
        res.name,
        system.label(),
        gb,
        nodes,
        disks,
        ssd
    );
    println!(
        "duration {:.0}s  start {:.0} map_end {:.0} end {:.0}",
        res.duration_s, res.start_s, res.map_phase_end_s, res.end_s
    );
    let n = res.reduce_stats.len() as f64;
    let avg = |f: &dyn Fn(&rmr_core::reduce::ReduceStats) -> f64| {
        res.reduce_stats.iter().map(f).sum::<f64>() / n
    };
    let max = |f: &dyn Fn(&rmr_core::reduce::ReduceStats) -> f64| {
        res.reduce_stats.iter().map(f).fold(0.0f64, f64::max)
    };
    println!("reduce phases (avg/max): shuffle_end {:.0}/{:.0}  merge_end {:.0}/{:.0}  reduce_end {:.0}/{:.0}",
        avg(&|s| s.shuffle_end_s), max(&|s| s.shuffle_end_s),
        avg(&|s| s.merge_end_s), max(&|s| s.merge_end_s),
        avg(&|s| s.reduce_end_s), max(&|s| s.reduce_end_s));
    println!(
        "cache: {} hits / {} misses",
        res.cache_hits, res.cache_misses
    );
    let m = report.sim.metrics();
    for key in [
        "fs.bytes_written",
        "fs.bytes_read",
        "fs.bytes_read_disk",
        "tt.disk_serve_bytes",
        "tt.cache_hit_bytes",
        "net.bytes_transferred",
        "hdfs.bytes_written",
        "disk.seeks",
        "prefetch.staged",
        "reduce.inmem_merges",
        "reduce.disk_merges",
        "reduce.shuffle_spill_bytes",
        "rdma.loop_iters",
        "rdma.emits",
        "rdma.emit_records",
        "rdma.stalls",
        "rdma.stall_dry",
    ] {
        println!("  {key:24} {:.2e}", m.get(key));
    }
    let mut disk_busy = 0.0;
    let mut cpu_busy = 0.0;
    for w in report.cluster.workers.iter() {
        disk_busy += w.fs.disks_busy_seconds();
        cpu_busy += w.cpu.busy_seconds();
    }
    println!("  disks busy total       {disk_busy:.0}s");
    println!("  cpu busy total         {cpu_busy:.0}s");
    println!("  events fired           {:.2e}", report.events as f64);
    println!("  polls                  {:.2e}", report.polls as f64);
    println!("  wall                   {wall_s:.1}s");
    println!("  fluid advance work     {:.2e}", report.fluid_work as f64);
}

/// One JSON line per point of every series.
fn jsonl<'a, P: 'a>(
    series: impl Iterator<Item = &'a Vec<P>>,
    to_json: impl Fn(&P) -> String,
) -> String {
    series.flatten().map(|pt| to_json(pt) + "\n").collect()
}

/// Creates `dir` and its parents; a path the user gave that cannot be one is
/// an error line naming it and the OS error, exit 2 — not a panic.
fn create_dir_or_exit(dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("probe: cannot create directory {dir}: {e}");
        std::process::exit(2);
    }
}

/// Writes an artifact, or exits like [`create_dir_or_exit`].
fn write_or_exit(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("probe: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// A concurrent multi-job OSU-IB mix with the observability recorder on.
/// Writes every `rmr_obs` artifact to `outdir` and self-validates the
/// Chrome trace — a schema violation exits non-zero (the CI smoke job
/// relies on that).
fn obs(mut args: Args) {
    let jobs: usize = args.pos("jobs", 4);
    let nodes: usize = args.pos("nodes", 8);
    let gb: f64 = args.pos("gb_per_job", 0.25);
    let outdir: String = args.pos("outdir", "obs-out".to_string());
    let seed: u64 = args.pos("seed", 91);
    args.done();

    create_dir_or_exit(&outdir);
    let sc = scenarios::obs(jobs, nodes, gb, seed);
    let report = run_or_exit(&sc);

    let write = |name: &str, body: &str| write_or_exit(&format!("{outdir}/{name}"), body);
    let events = report.recorder.events();
    write("events.jsonl", &report.recorder.to_jsonl());

    let trace = rmr_obs::chrome_trace(&events);
    write("trace.json", &trace);
    match rmr_obs::validate_chrome_trace(&trace) {
        Ok(c) => println!(
            "trace.json: {} events ({} spans, {} counter samples, {} instants, {} processes)",
            c.n_events, c.n_spans, c.n_counters, c.n_instants, c.n_processes
        ),
        Err(e) => {
            eprintln!("Chrome trace FAILED validation: {e}");
            std::process::exit(1);
        }
    }

    let spans = rmr_obs::spans_from_events(&events);
    let heatmap = rmr_obs::slot_heatmap(&spans, nodes, 64);
    write("heatmap.txt", &heatmap.to_ascii());
    write("heatmap.json", &heatmap.to_json());
    write(
        "queue_depth.jsonl",
        &jsonl(rmr_obs::queue_depth_traces(&events).values(), |p| {
            p.to_json()
        }),
    );
    write(
        "cache_pressure.jsonl",
        &jsonl(rmr_obs::cache_pressure(&events).values(), |p| p.to_json()),
    );
    write(
        "shuffle_throughput.jsonl",
        &jsonl(rmr_obs::shuffle_throughput(&events, 5.0).values(), |p| {
            p.to_json()
        }),
    );

    // Two snapshots: after the first join (the remaining jobs still in
    // flight) and after the last.
    let snaps = &report.snapshots;
    let mut txt = String::new();
    for (i, s) in snaps.iter().enumerate() {
        let label = if i + 1 == snaps.len() {
            "final"
        } else {
            "mid-run"
        };
        txt.push_str(&format!("== snapshot {} (t={:.1}s) ==\n", label, s.t_s));
        txt.push_str(&s.render());
        txt.push('\n');
    }
    let json: Vec<String> = snaps.iter().map(|s| s.to_json()).collect();
    write("snapshot.txt", &txt);
    write("snapshot.json", &format!("[{}]", json.join(",")));

    let hb = rmr_obs::heartbeat_intervals(&events);
    let lat = rmr_obs::shuffle_latencies(&events);
    println!(
        "{} jobs x {} nodes ({} GB/job, seed {}): {} obs events -> {}/",
        jobs,
        nodes,
        gb,
        seed,
        events.len(),
        outdir
    );
    println!(
        "heartbeat interval: p50 {:.3}s p95 {:.3}s p99 {:.3}s (n={})",
        hb.p50(),
        hb.p95(),
        hb.p99(),
        hb.count()
    );
    println!(
        "shuffle serve time: p50 {:.6}s p95 {:.6}s p99 {:.6}s (n={})",
        lat.p50(),
        lat.p95(),
        lat.p99(),
        lat.count()
    );
    println!("trace_hash: {:016x}", report.trace_hash);
}
