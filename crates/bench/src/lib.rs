//! # rmr-bench — the per-figure harness
//!
//! One grid per table/figure in the paper's evaluation (§IV), defined
//! exactly as the figure sweeps it: every point runs as an independent
//! deterministic simulation (in parallel across OS threads), the figure's
//! series is printed and the paper's quantified claims are checked against
//! the measured improvements. Sim-time rows are written as JSON lines under
//! `results/` for EXPERIMENTS.md — `rdma-mapred figure <id>` regenerates
//! any of [`FIGURE_IDS`]. Host time is not measured here: that is
//! `benchmark/`'s job.

use std::io::Write as _;

use rmr_cluster::scenario::TEXT_HDFS;
use rmr_cluster::{
    format_table, run_experiment_traced, run_scenario, Bench, Datagen, Experiment, Hung, Job,
    RunRecord, RunReport, Scenario, System, Testbed,
};
use rmr_workloads::{wordcount_spec, wordcount_spec_no_combiner};

pub mod chaos;
pub mod cli;
pub mod scenarios;
pub mod service;
pub mod sweep;

/// A quantified claim from the paper's text, checked against measurements.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Free-text source ("§IV-B, 100GB, 1 disk").
    pub context: &'static str,
    /// Dataset size the claim is about.
    pub data_gb: f64,
    /// Disks per node.
    pub disks: usize,
    /// SSD testbed?
    pub ssd: bool,
    /// System OSU-IB is compared against.
    pub baseline: System,
    /// The paper's reported improvement of OSU-IB over the baseline, %.
    pub paper_pct: f64,
}

/// One reproducible figure.
pub struct Figure {
    /// Identifier ("fig4a").
    pub id: &'static str,
    /// Caption-level description.
    pub title: &'static str,
    /// The grid.
    pub experiments: Vec<Experiment>,
    /// Quantified claims to verify.
    pub claims: Vec<Claim>,
}

/// The four systems every figure from 4(b) on compares.
const SYSTEMS: [System; 4] = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];

fn grid(
    id: &'static str,
    bench: Bench,
    systems: &[System],
    sizes_gb: &[f64],
    testbeds: &[Testbed],
) -> Vec<Experiment> {
    let mut out = Vec::new();
    for tb in testbeds {
        for &system in systems {
            for &gb in sizes_gb {
                out.push(Experiment::new(id, bench, system, tb.clone(), gb, 42));
            }
        }
    }
    out
}

/// Fig 4(a): TeraSort on four DataNodes, single and dual HDD.
pub fn fig4a() -> Figure {
    let systems = [
        System::GigE10,
        System::IpoIb,
        System::HadoopA,
        System::OsuIb,
    ];
    Figure {
        id: "fig4a",
        title: "TeraSort job execution time, 4-node cluster, 1 vs 2 HDDs",
        experiments: grid(
            "fig4a",
            Bench::TeraSort,
            &systems,
            &[20.0, 30.0, 40.0],
            &[Testbed::compute(4, 1), Testbed::compute(4, 2)],
        ),
        claims: vec![
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs Hadoop-A",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 9.0,
            },
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs IPoIB",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 35.0,
            },
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs 10GigE",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::GigE10,
                paper_pct: 38.0,
            },
            Claim {
                context: "§IV-B: 30GB, 2 HDD, vs Hadoop-A",
                data_gb: 30.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 13.0,
            },
            Claim {
                context: "§IV-B: 30GB, 2 HDD, vs IPoIB",
                data_gb: 30.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 38.0,
            },
            Claim {
                context: "§IV-B: 40GB, 2 HDD, vs Hadoop-A",
                data_gb: 40.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 17.0,
            },
            Claim {
                context: "§IV-B: 40GB, 2 HDD, vs IPoIB",
                data_gb: 40.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 48.0,
            },
        ],
    }
}

/// Fig 4(b): TeraSort on eight DataNodes, single and dual HDD.
pub fn fig4b() -> Figure {
    Figure {
        id: "fig4b",
        title: "TeraSort job execution time, 8-node cluster, 1 vs 2 HDDs",
        experiments: grid(
            "fig4b",
            Bench::TeraSort,
            &SYSTEMS,
            &[60.0, 80.0, 100.0],
            &[Testbed::compute(8, 1), Testbed::compute(8, 2)],
        ),
        claims: vec![
            Claim {
                context: "§I/§IV-B headline: 100GB, 1 HDD, vs Hadoop-A",
                data_gb: 100.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 21.0,
            },
            Claim {
                context: "§I headline: 100GB, 1 HDD, vs IPoIB",
                data_gb: 100.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 32.0,
            },
            Claim {
                context: "§IV-B: 100GB, 2 HDD, vs Hadoop-A",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 31.0,
            },
            Claim {
                context: "§I headline: 100GB, 2 HDD, vs IPoIB",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 39.0,
            },
        ],
    }
}

/// Fig 5: TeraSort at larger scale on storage-class nodes (24 GB RAM).
pub fn fig5() -> Figure {
    let mut experiments = grid(
        "fig5",
        Bench::TeraSort,
        &SYSTEMS,
        &[100.0],
        &[Testbed::storage(12, 2)],
    );
    experiments.extend(grid(
        "fig5",
        Bench::TeraSort,
        &SYSTEMS,
        &[200.0],
        &[Testbed::storage(24, 2)],
    ));
    Figure {
        id: "fig5",
        title: "TeraSort at larger scale: 100GB on 12 nodes, 200GB on 24 nodes (storage nodes)",
        experiments,
        claims: vec![
            Claim {
                context: "§IV-B: 100GB @ 12 nodes vs IPoIB",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 41.0,
            },
            Claim {
                context: "§IV-B: 100GB @ 12 nodes vs Hadoop-A",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 7.0,
            },
        ],
    }
}

/// Fig 6(a): Sort on four DataNodes (single HDD).
pub fn fig6a() -> Figure {
    Figure {
        id: "fig6a",
        title: "Sort job execution time, 4-node cluster, 1 HDD",
        experiments: grid(
            "fig6a",
            Bench::Sort,
            &SYSTEMS,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::compute(4, 1)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C: 20GB vs IPoIB",
                data_gb: 20.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 26.0,
            },
            Claim {
                context: "§IV-C: 20GB vs Hadoop-A (HA loses to IPoIB here)",
                data_gb: 20.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 38.0,
            },
        ],
    }
}

/// Fig 6(b): Sort on eight DataNodes (single HDD).
pub fn fig6b() -> Figure {
    Figure {
        id: "fig6b",
        title: "Sort job execution time, 8-node cluster, 1 HDD",
        experiments: grid(
            "fig6b",
            Bench::Sort,
            &SYSTEMS,
            &[25.0, 30.0, 35.0, 40.0],
            &[Testbed::compute(8, 1)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C/§I: 40GB vs IPoIB",
                data_gb: 40.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 27.0,
            },
            Claim {
                context: "§IV-C/§I: 40GB vs Hadoop-A",
                data_gb: 40.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 32.0,
            },
        ],
    }
}

/// Fig 7: Sort with SSD HDFS data stores.
pub fn fig7() -> Figure {
    Figure {
        id: "fig7",
        title: "Sort job execution time with SSD data stores, 4 nodes",
        experiments: grid(
            "fig7",
            Bench::Sort,
            &SYSTEMS,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::ssd(4)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C: 15GB on SSD vs Hadoop-A",
                data_gb: 15.0,
                disks: 1,
                ssd: true,
                baseline: System::HadoopA,
                paper_pct: 22.0,
            },
            Claim {
                context: "§IV-C: 15GB on SSD vs IPoIB",
                data_gb: 15.0,
                disks: 1,
                ssd: true,
                baseline: System::IpoIb,
                paper_pct: 46.0,
            },
        ],
    }
}

/// Fig 8: effect of the caching mechanism (SSD Sort, caching on vs off).
pub fn fig8() -> Figure {
    let systems = [System::IpoIb, System::OsuIbNoCache, System::OsuIb];
    Figure {
        id: "fig8",
        title: "Effect of the PrefetchCache: Sort on SSD, caching enabled vs disabled",
        experiments: grid(
            "fig8",
            Bench::Sort,
            &systems,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::ssd(4)],
        ),
        claims: vec![Claim {
            context: "§IV-D: 20GB, caching on vs off",
            data_gb: 20.0,
            disks: 1,
            ssd: true,
            baseline: System::OsuIbNoCache,
            paper_pct: 18.39,
        }],
    }
}

/// All figures, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![fig4a(), fig4b(), fig5(), fig6a(), fig6b(), fig7(), fig8()]
}

/// Measured improvement of OSU-IB over `claim.baseline` at the claim's
/// point, in percent (positive = OSU-IB faster).
pub fn measured_improvement(records: &[RunRecord], claim: &Claim) -> Option<f64> {
    let find = |sys: System| {
        records.iter().find(|r| {
            r.system == sys.label()
                && (r.data_gb - claim.data_gb).abs() < 1e-9
                && r.disks == claim.disks
                && r.ssd == claim.ssd
        })
    };
    let osu = find(System::OsuIb)?;
    let base = find(claim.baseline)?;
    Some((base.duration_s - osu.duration_s) / base.duration_s * 100.0)
}

/// Runs a figure end to end: executes the grid, prints the series table and
/// the claim comparison, writes `results/<id>.jsonl`.
pub fn run_figure(fig: &Figure, threads: usize) -> Vec<RunRecord> {
    eprintln!(
        "=== {}: {} ({} runs) ===",
        fig.id,
        fig.title,
        fig.experiments.len()
    );
    let records = run_grid(&fig.experiments, threads);
    println!("\n{} — {}", fig.id, fig.title);
    println!("{}", format_table(&records));
    if !fig.claims.is_empty() {
        println!("paper-vs-measured (OSU-IB improvement over baseline):");
        for claim in &fig.claims {
            match measured_improvement(&records, claim) {
                Some(m) => println!(
                    "  {:55} paper {:>5.1}%   measured {:>5.1}%",
                    claim.context, claim.paper_pct, m
                ),
                None => println!(
                    "  {:55} paper {:>5.1}%   (point missing)",
                    claim.context, claim.paper_pct
                ),
            }
        }
    }
    write_results(fig.id, &records);
    records
}

/// Runs an experiment grid through the [`sweep`] worker pool, preserving
/// grid order in the output regardless of thread count.
pub fn run_grid(experiments: &[Experiment], threads: usize) -> Vec<RunRecord> {
    run_grid_traced(experiments, threads)
        .into_iter()
        .map(|(rec, _)| rec)
        .collect()
}

/// [`run_grid`] plus each run's replay-identity trace hash — what the
/// determinism gates compare across thread counts.
pub fn run_grid_traced(experiments: &[Experiment], threads: usize) -> Vec<(RunRecord, u64)> {
    sweep::sweep_map(experiments, threads, |exp, _| {
        let (rec, hash) = run_experiment_traced(exp);
        eprintln!(
            "  [{}] {} {} {}GB n{} d{} → {:.0}s",
            exp.id, rec.bench, rec.system, rec.data_gb, rec.nodes, rec.disks, rec.duration_s
        );
        (rec, hash)
    })
}

/// Writes records as JSON lines under `results/`.
pub fn write_results(id: &str, records: &[RunRecord]) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{id}.jsonl");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            for r in records {
                let _ = writeln!(f, "{}", r.to_json());
            }
            eprintln!("wrote {path}");
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Default parallelism for harness binaries.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// What command-line tools do with a hung run: print its report (live
/// tasks, what each blocks on, the runtime dump) and exit 2.
pub fn exit_hung(hung: &Hung) -> ! {
    eprintln!("{hung}");
    std::process::exit(2)
}

/// [`run_scenario`], or [`exit_hung`].
pub fn run_or_exit(sc: &Scenario) -> RunReport {
    run_scenario(sc).unwrap_or_else(|hung| exit_hung(&hung))
}

/// Everything `rdma-mapred figure <id>` regenerates under `results/`: the
/// paper's seven figures, the tuning sweeps, and the two beyond-the-paper
/// row sets (multi-job runtime, shuffle-volume engines).
pub const FIGURE_IDS: [&str; 10] = [
    "fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7", "fig8", "tuning", "multijob", "engines",
];

/// Regenerates one of [`FIGURE_IDS`]; false for any other id.
pub fn regenerate(id: &str, threads: usize) -> bool {
    match id {
        "tuning" => tuning(threads),
        "multijob" => multijob(threads),
        "engines" => engines(threads),
        _ => match all_figures().into_iter().find(|f| f.id == id) {
            Some(fig) => drop(run_figure(&fig, threads)),
            None => return false,
        },
    }
    true
}

/// Parameter-tuning sweeps (§III-C-3, §IV pre-amble): HDFS block size per
/// system, the OSU-IB shuffle packet size, and the mechanism ablation.
/// These regenerate the tuning choices the paper reports (256 MB blocks for
/// 10GigE/IPoIB/OSU-IB TeraSort, 128 MB for Hadoop-A, 64 MB for Sort) and
/// demonstrate the configuration flexibility the paper contrasts against
/// Hadoop-A.
pub fn tuning(threads: usize) {
    let point = |id: &str, bench, system, disks, gb| {
        Experiment::new(id, bench, system, Testbed::compute(4, disks), gb, 42)
    };
    // One sweep: a table of (knob setting, system, time) and its results file.
    let sweep = |title: &str, knob: &str, points: Vec<(String, Experiment)>| {
        let (settings, exps): (Vec<String>, Vec<Experiment>) = points.into_iter().unzip();
        let records = run_grid(&exps, threads);
        println!("\n{title}");
        println!("{knob:>18} {:>24} {:>10}", "system", "time(s)");
        for (setting, r) in settings.iter().zip(&records) {
            println!("{setting:>18} {:>24} {:>10.0}", r.system, r.duration_s);
        }
        write_results(&exps[0].id, &records);
    };

    let mut blocks = Vec::new();
    for system in [System::IpoIb, System::HadoopA, System::OsuIb] {
        for block_mb in [64u64, 128, 256, 512] {
            let mut e = point("tuning-block", Bench::TeraSort, system, 1, 30.0);
            e.block_size_override = Some(block_mb << 20);
            blocks.push((block_mb.to_string(), e));
        }
    }
    sweep(
        "HDFS block-size sweep — TeraSort 30GB, 4 nodes, 1 HDD",
        "block(MB)",
        blocks,
    );

    // Sort: large kv pairs, where the packet byte budget matters.
    let packets = [64u64, 128, 256, 512, 1024, 2048].map(|packet_kb| {
        let mut e = point("tuning-packet", Bench::Sort, System::OsuIb, 1, 20.0);
        e.osu_packet_override = Some(packet_kb << 10);
        (packet_kb.to_string(), e)
    });
    sweep(
        "OSU-IB packet-size sweep — Sort 20GB, 4 nodes, 1 HDD",
        "packet(KB)",
        packets.into(),
    );

    // The three OSU mechanisms, one at a time.
    let ablation = [
        ("vanilla barrier", System::IpoIb),
        ("+RDMA/pipeline", System::HadoopA),
        ("+overlap+packets", System::OsuIbNoCache),
        ("+PrefetchCache", System::OsuIb),
    ]
    .map(|(adds, system)| {
        let e = point("tuning-ablation", Bench::TeraSort, system, 2, 30.0);
        (adds.to_string(), e)
    });
    sweep(
        "Mechanism ablation — TeraSort 30GB, 4 nodes, 2 HDDs",
        "mechanism",
        ablation.into(),
    );
}

/// The multi-job runtime point: 4 × 2 GB TeraSorts through one persistent
/// OSU-IB runtime on 4 nodes, joined one at a time ("seq", the old
/// one-job-at-a-time shape) vs submitted at once onto shared slots
/// ("fifo"). One row per job, `multijob-{seq|fifo}-j{n}`; the makespan is
/// the summed durations when sequential, the slowest job's when concurrent.
pub fn multijob(threads: usize) {
    let (system, testbed, jobs, gb) = (System::OsuIb, Testbed::compute(4, 1), 4, 2.0);
    let rows = sweep::sweep_map(&[false, true], threads, |&concurrent, _| {
        let sc = scenarios::multijob(system, testbed.clone(), jobs, gb, concurrent, 42);
        let label = if concurrent { "fifo" } else { "seq" };
        let report = run_or_exit(&sc);
        let records = report.jobs.iter().enumerate().map(|(i, res)| {
            RunRecord::new(
                format!("multijob-{label}-j{i}"),
                "TeraSort",
                system,
                &testbed,
                gb,
                res,
            )
        });
        records.collect::<Vec<_>>()
    });
    let seq: f64 = rows[0].iter().map(|r| r.duration_s).sum();
    let fifo = rows[1].iter().map(|r| r.duration_s).fold(0.0, f64::max);
    println!("\nmultijob — {jobs} x {gb} GB TeraSort, OSU-IB, 4 nodes, one runtime");
    println!("  sequential joins       makespan {seq:>8.2}s");
    println!(
        "  concurrent FIFO        makespan {fifo:>8.2}s  ({:.2}x)",
        seq / fifo
    );
    write_results("multijob", &rows.concat());
}

/// The OSU-IB combiner preset: WordCount A/B rows (job combiner on/off ×
/// in-node combiner stage off/on, pinning what each aggregation layer takes
/// off the wire) and the stage at the fig4a 30 GB shape (TeraSort has no
/// combiner, so its row must match fig4a's OSU-IB row bit-for-bit).
pub fn engines(threads: usize) {
    let wordcount = |system: System, combine: bool| {
        let testbed = Testbed::compute(4, 1);
        let mut sc = Scenario::tuned(
            "experiment-driver",
            system,
            Bench::TeraSort,
            testbed.clone(),
            42,
        );
        sc.hdfs = TEXT_HDFS;
        sc.conf.num_reduces = testbed.nodes;
        // A 30k-word vocabulary: one map's ~100k tokens cover most of it, so
        // the map-side combiner leaves ~a-vocabulary of records per map and
        // the cross-map in-node fold is what actually shrinks the wire volume.
        let datagen = Datagen::Text {
            lines: 120_000,
            lines_per_block: 10_000,
            vocab: Some(30_000),
        };
        let (bench, spec) = if combine {
            ("WordCount", wordcount_spec("/wc/in", "/wc/out"))
        } else {
            (
                "WordCount-nocombine",
                wordcount_spec_no_combiner("/wc/in", "/wc/out"),
            )
        };
        sc.jobs = vec![Job { datagen, spec }];
        let report = run_or_exit(&sc);
        let res = &report.jobs[0];
        let gb = res.input_bytes as f64 / (1u64 << 30) as f64;
        RunRecord::new("engines".to_string(), bench, system, &testbed, gb, res)
    };
    let records = sweep::sweep(5, threads, |i| match i {
        0 => wordcount(System::OsuIb, false),
        1 => wordcount(System::OsuIb, true),
        2 => wordcount(System::NodeCombiner, false),
        3 => wordcount(System::NodeCombiner, true),
        _ => {
            let testbed = Testbed::compute(4, 1);
            let exp = Experiment::new(
                "engines",
                Bench::TeraSort,
                System::NodeCombiner,
                testbed,
                30.0,
                42,
            );
            run_experiment_traced(&exp).0
        }
    });
    println!("\nengines — shuffle volume and job time per engine");
    println!(
        "{:>20} {:>22} {:>16} {:>10}",
        "bench", "system", "shuffled_bytes", "time(s)"
    );
    for r in &records {
        println!(
            "{:>20} {:>22} {:>16} {:>10.2}",
            r.bench, r.system, r.shuffled_bytes, r.duration_s
        );
    }
    write_results("engines", &records);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_cover_every_paper_figure() {
        let ids: Vec<&str> = all_figures().iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec!["fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7", "fig8"]
        );
    }

    #[test]
    fn grids_have_expected_shapes() {
        assert_eq!(fig4a().experiments.len(), 4 * 3 * 2);
        assert_eq!(fig4b().experiments.len(), 4 * 3 * 2);
        assert_eq!(fig5().experiments.len(), 8);
        assert_eq!(fig6a().experiments.len(), 16);
        assert_eq!(fig6b().experiments.len(), 16);
        assert_eq!(fig7().experiments.len(), 16);
        assert_eq!(fig8().experiments.len(), 12);
    }

    #[test]
    fn every_claim_references_a_grid_point() {
        for fig in all_figures() {
            for c in &fig.claims {
                let has_point = |system| {
                    fig.experiments.iter().any(|e| {
                        e.system == system
                            && (e.data_gb - c.data_gb).abs() < 1e-9
                            && e.testbed.disks == c.disks
                            && e.testbed.ssd == c.ssd
                    })
                };
                assert!(
                    has_point(System::OsuIb) && has_point(c.baseline),
                    "{}: claim {:?} dangling",
                    fig.id,
                    c.context
                );
            }
        }
    }
}
