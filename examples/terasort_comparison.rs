//! Reproduce the paper's headline comparison on your laptop: TeraSort under
//! all four systems (10GigE, IPoIB, Hadoop-A, OSU-IB) on a 4-node cluster,
//! 1 vs 2 disks — a scaled-down Fig 4(a).
//!
//! ```text
//! cargo run --release --example terasort_comparison [size_gb]
//! ```

use rdma_mapred::prelude::*;

fn main() {
    let gb: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let systems = [
        System::GigE10,
        System::IpoIb,
        System::HadoopA,
        System::OsuIb,
    ];
    let mut experiments = Vec::new();
    for disks in [1usize, 2] {
        for system in systems {
            experiments.push(Experiment::new(
                "demo",
                Bench::TeraSort,
                system,
                Testbed::compute(4, disks),
                gb,
                2013,
            ));
        }
    }
    let records = rmr_bench::run_grid(&experiments, rmr_bench::default_threads());

    println!("\nTeraSort {gb} GB on 4 nodes (virtual seconds):");
    println!("{:>28} {:>10} {:>10}", "system", "1 disk", "2 disks");
    for system in systems {
        let t = |d: usize| {
            records
                .iter()
                .find(|r| r.system == system.label() && r.disks == d)
                .map(|r| r.duration_s)
                .unwrap_or(f64::NAN)
        };
        println!("{:>28} {:>9.0}s {:>9.0}s", system.label(), t(1), t(2));
    }
    let osu = records
        .iter()
        .find(|r| r.system == System::OsuIb.label() && r.disks == 1)
        .unwrap();
    let ipoib = records
        .iter()
        .find(|r| r.system == System::IpoIb.label() && r.disks == 1)
        .unwrap();
    println!(
        "\nOSU-IB improves on IPoIB by {:.0}% (1 disk), as in the paper's Fig 4(a) trend.",
        (ipoib.duration_s - osu.duration_s) / ipoib.duration_s * 100.0
    );
}
