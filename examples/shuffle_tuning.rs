//! The paper's tuning story in miniature (§III-C-3, §IV-D): toggle the
//! PrefetchCache and sweep the RDMA packet size on a fixed workload.
//!
//! ```text
//! cargo run --release --example shuffle_tuning
//! ```

use rdma_mapred::prelude::*;

fn main() {
    // --- mapred.local.caching.enabled: on vs off (Fig 8 in miniature). ---
    let mut caching = Vec::new();
    for system in [System::IpoIb, System::OsuIbNoCache, System::OsuIb] {
        caching.push(Experiment::new(
            "caching",
            Bench::Sort,
            system,
            Testbed::ssd(4),
            8.0,
            2013,
        ));
    }
    let records = rmr_bench::run_grid(&caching, 2);
    println!("Sort 8 GB on SSD, 4 nodes:");
    for r in &records {
        println!(
            "  {:28} {:>7.0}s   cache hit rate {:>3.0}%",
            r.system,
            r.duration_s,
            r.cache_hit_rate * 100.0
        );
    }
    let off = &records[1];
    let on = &records[2];
    println!(
        "  caching enabled improves the same engine by {:.1}% (paper §IV-D: 18.39% at 20GB)\n",
        (off.duration_s - on.duration_s) / off.duration_s * 100.0
    );

    // --- RDMA packet size sweep (the knob Hadoop-A doesn't expose). ---
    println!("OSU-IB shuffle packet-size sweep, TeraSort 8 GB, 4 nodes, 1 HDD:");
    for packet_kb in [64u64, 256, 512, 1024] {
        let mut e = Experiment::new(
            "packet",
            Bench::TeraSort,
            System::OsuIb,
            Testbed::compute(4, 1),
            8.0,
            2013,
        );
        e.osu_packet_override = Some(packet_kb << 10);
        let r = run_experiment(&e);
        println!("  packet {packet_kb:>5} KB → {:>6.0}s", r.duration_s);
    }
}
