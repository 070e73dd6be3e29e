//! `rdma-mapred` — command-line driver for the reproduction.
//!
//! ```text
//! rdma-mapred run      --bench terasort --system osu --gb 30 --nodes 4 --disks 1
//! rdma-mapred figure   fig4a | … | fig8 | tuning | multijob | engines | all
//! rdma-mapred validate --mb 64 --nodes 4
//! rdma-mapred systems
//! ```

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::exit;

use rdma_mapred::prelude::*;
use rmr_bench::cli::{parse_bench, parse_gb, usage_error, Args};

const USAGE: &str = "usage:
  rdma-mapred run [--bench terasort|sort] [--system g1|g10|ipoib|ha|osu|osunc|comb]
              [--gb N] [--nodes N] [--disks N] [--storage] [--ssd] [--seed N]
              [--block-mb N] [--packet-kb N]
              (--ssd is compute nodes with one SSD each: not with --disks or --storage)
  rdma-mapred figure <fig4a|fig4b|fig5|fig6a|fig6b|fig7|fig8|tuning|multijob|engines|all>
  rdma-mapred validate [--mb N] [--nodes N] [--system osu|ha|ipoib|...]
  rdma-mapred systems";

fn cmd_run(args: &[String]) {
    let args = Args::parse(
        args,
        &[
            "--bench",
            "--system",
            "--gb",
            "--nodes",
            "--disks",
            "--seed",
            "--block-mb",
            "--packet-kb",
        ],
        &["--ssd", "--storage"],
        USAGE,
    );
    args.done();
    let ssd = args.switch("--ssd");
    for other in ["--disks", "--storage"] {
        if ssd && args.switch(other) {
            args.fail(&format!("--ssd cannot be combined with {other}"));
        }
    }
    let bench = args
        .flag_with("--bench", parse_bench)
        .unwrap_or(Bench::TeraSort);
    let system = args
        .flag_with("--system", System::parse)
        .unwrap_or(System::OsuIb);
    let gb = args.flag_with("--gb", parse_gb).unwrap_or(10.0);
    let nodes = args.flag("--nodes").map_or(4, NonZeroUsize::get);
    let disks = args.flag("--disks").map_or(1, NonZeroUsize::get);
    let seed: u64 = args.flag("--seed").unwrap_or(42);
    let testbed = if ssd {
        Testbed::ssd(nodes)
    } else if args.switch("--storage") {
        Testbed::storage(nodes, disks)
    } else {
        Testbed::compute(nodes, disks)
    };
    let mut exp = Experiment::new("cli", bench, system, testbed, gb, seed);
    exp.block_size_override = args.flag("--block-mb").map(|mb: NonZeroU64| mb.get() << 20);
    exp.osu_packet_override = args
        .flag("--packet-kb")
        .map(|kb: NonZeroU64| kb.get() << 10);
    let rec = run_experiment(&exp);
    println!(
        "{} {} {:.0}GB on {} nodes ({} disk{}{}):",
        rec.bench,
        rec.system,
        rec.data_gb,
        rec.nodes,
        rec.disks,
        if rec.disks == 1 { "" } else { "s" },
        if rec.ssd { ", SSD" } else { "" }
    );
    println!("  job execution time  {:.1} s (virtual)", rec.duration_s);
    println!("  map phase end       {:.1} s", rec.map_phase_end_s);
    println!("  maps / reduces      {} / {}", rec.maps, rec.reduces);
    println!(
        "  shuffled            {:.2} GB",
        rec.shuffled_bytes as f64 / 1e9
    );
    println!("  cache hit rate      {:.0}%", rec.cache_hit_rate * 100.0);
}

fn cmd_figure(args: &[String]) {
    let mut args = Args::parse(args, &[], &[], USAGE);
    let which: String = args.pos("figure", "all".to_string());
    args.done();
    let threads = rmr_bench::default_threads();
    if which == "all" {
        for id in rmr_bench::FIGURE_IDS {
            rmr_bench::regenerate(id, threads);
        }
    } else if !rmr_bench::regenerate(&which, threads) {
        args.fail(&format!("unknown figure: {which}"));
    }
}

fn cmd_validate(args: &[String]) {
    let args = Args::parse(args, &["--mb", "--nodes", "--system"], &[], USAGE);
    args.done();
    let mb = args.flag("--mb").map_or(32, NonZeroU64::get);
    let nodes = args.flag("--nodes").map_or(4, NonZeroUsize::get);
    let system = args
        .flag_with("--system", System::parse)
        .unwrap_or(System::OsuIb);
    let sim = Sim::new(42);
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 512 << 20;
    let cluster = Cluster::build(
        &sim,
        system.fabric(),
        &vec![spec; nodes],
        HdfsConfig {
            block_size: 8 << 20,
            replication: 2,
            packet_size: 1 << 20,
        },
    );
    let reduces = nodes * 2;
    let mut conf = rmr_cluster::tuned_conf(system, Bench::TeraSort, &Testbed::compute(nodes, 1));
    conf.num_reduces = reduces;
    conf.io_sort_buffer = 64 << 20;
    let c = cluster.clone();
    let (res, report) = sim.block_on(sim.spawn(async move {
        let records = teragen(&c, "/v/in", mb << 20, true).await;
        let res = run_job(&c, conf, terasort_spec("/v/in", "/v/out")).await;
        let report = teravalidate(&c, "/v/out", reduces, records).await;
        (res, report)
    }));
    match report {
        Ok(r) => println!(
            "VALID: {} records globally sorted across {} partitions \
             ({} in {:.1}s virtual on {})",
            r.records,
            r.partitions,
            res.name,
            res.duration_s,
            res.shuffle.label()
        ),
        Err(e) => {
            eprintln!("INVALID: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("figure") => cmd_figure(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("systems") => {
            for s in System::EXTENDED {
                println!("{:12} {}", format!("{s:?}"), s.label());
            }
        }
        _ => usage_error("expected run, figure, validate or systems", USAGE),
    }
}
