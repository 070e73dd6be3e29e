//! The probe's and the beyond-the-paper figures' [`Scenario`] constructors:
//! each is the shared TeraSort mix (or a figure point) with the handful of
//! fields that entry point has always set differently — and its own driver
//! task name, which the trace hash folds in. `tests/scenario.rs` holds every
//! one of them to the hash it replayed before there was a shared driver.

use rmr_cluster::scenario::TEXT_HDFS;
use rmr_cluster::{gb_to_bytes, Bench, Datagen, Experiment, Job, Scenario, System, Testbed};
use rmr_core::FaultPlan;
use rmr_workloads::wordcount_spec;

/// `jobs` identical TeraSorts through one persistent runtime, submitted all
/// at once (the slots are shared) or joined one after another.
pub fn multijob(
    system: System,
    testbed: Testbed,
    jobs: usize,
    gb_per_job: f64,
    concurrent: bool,
    seed: u64,
) -> Scenario {
    let bytes = gb_to_bytes(gb_per_job);
    let mut sc =
        Scenario::terasort_mix("multijob-driver", "/mj", system, testbed, jobs, bytes, seed);
    sc.concurrent = concurrent;
    sc
}

/// One weak-scaling point: `jobs` concurrent TeraSort jobs through a
/// persistent OSU-IB runtime on `nodes` workers, `gb_total` split evenly.
pub fn scale(nodes: usize, jobs: usize, gb_total: f64, seed: u64) -> Scenario {
    let mut sc = Scenario::terasort_mix(
        "scale-driver",
        "/scale",
        System::OsuIb,
        Testbed::compute(nodes, 1),
        jobs,
        gb_to_bytes(gb_total / jobs as f64),
        seed,
    );
    // Small blocks so map attempt counts (not bytes) stress the control
    // plane: gb/jobs GB per job in 8 MB splits.
    sc.hdfs.block_size = 8 << 20;
    // tuned_conf sizes reduces for figure fidelity (nodes x slots); at 1k
    // nodes that would make the map-fetch matrix quadratic in the cluster
    // size. Cap it so shuffle volume stays proportional to the data.
    sc.conf.num_reduces = nodes.min(64);
    sc
}

/// One faulted (or fault-free) run of the chaos workload: `jobs` concurrent
/// jobs on `nodes` workers of `system` with `plan` armed before submission.
/// The workload is TeraSort sized by `gb_total`, or — with `wordcount` —
/// a fixed-size WordCount whose combiner is its reducer, the job shape the
/// in-node combiner engine aggregates.
pub fn chaos(
    system: System,
    wordcount: bool,
    nodes: usize,
    jobs: usize,
    gb_total: f64,
    seed: u64,
    plan: &FaultPlan,
) -> Scenario {
    let mut sc = Scenario::terasort_mix(
        "chaos-driver",
        "/chaos",
        system,
        Testbed::compute(nodes, 1),
        jobs,
        gb_to_bytes(gb_total / jobs as f64),
        seed,
    );
    sc.hdfs.block_size = 8 << 20;
    sc.conf.num_reduces = nodes.min(32);
    sc.faults = plan.clone();
    if wordcount {
        sc.hdfs = TEXT_HDFS;
        for job in &mut sc.jobs {
            *job = Job {
                datagen: Datagen::Text {
                    lines: 60_000,
                    lines_per_block: 10_000,
                    vocab: None,
                },
                spec: wordcount_spec(&job.spec.input, &job.spec.output),
            };
        }
    }
    sc
}

/// A concurrent OSU-IB TeraSort mix with the observability recorder on.
pub fn obs(jobs: usize, nodes: usize, gb_per_job: f64, seed: u64) -> Scenario {
    let mut sc = Scenario::terasort_mix(
        "obs-driver",
        "/obs",
        System::OsuIb,
        Testbed::compute(nodes, 1),
        jobs,
        gb_to_bytes(gb_per_job),
        seed,
    );
    sc.record = true;
    sc
}

/// The figure point `probe phases` breaks down: seed 42, its own driver
/// name and `/in` → `/out` paths.
pub fn phases(bench: Bench, system: System, testbed: Testbed, gb: f64) -> Scenario {
    let mut sc = Experiment::new("phases", bench, system, testbed, gb, 42).scenario();
    sc.driver = "probe-driver";
    sc.jobs = vec![Job::sort_bench(bench, "/in", "/out", gb_to_bytes(gb))];
    sc
}
