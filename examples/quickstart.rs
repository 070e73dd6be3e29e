//! Quickstart: sort real data with the paper's RDMA shuffle engine and
//! validate the output, end to end, in a few dozen lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rdma_mapred::prelude::*;

fn main() {
    // A deterministic simulation: same seed ⇒ identical run, always.
    let sim = Sim::new(2013);

    // Four Westmere-class workers (8 cores, 12 GB RAM, 1 HDD) on a QDR
    // InfiniBand fabric, with small HDFS blocks so the demo spawns a few
    // dozen map tasks.
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![NodeSpec::westmere_compute(); 4],
        HdfsConfig {
            block_size: 8 << 20,
            replication: 2,
            packet_size: 1 << 20,
        },
    );

    let c = cluster.clone();
    let res = sim.block_on(sim.spawn(async move {
        // TeraGen: 64 MB of real 100-byte records (10 B key + 90 B value).
        let records = teragen(&c, "/tera/in", 64 << 20, true).await;
        println!("generated {records} records");

        // The paper's engine: RDMA shuffle + PrefetchCache + overlap.
        let mut conf = JobConf::osu_ib();
        conf.num_reduces = 8;
        let res = run_job(&c, conf, terasort_spec("/tera/in", "/tera/out")).await;

        // TeraValidate: global order and record conservation.
        let report = teravalidate(&c, "/tera/out", 8, records)
            .await
            .expect("output must be globally sorted");
        println!(
            "validated {} records across {} partitions",
            report.records, report.partitions
        );
        res
    }));

    println!();
    println!("job            {}", res.name);
    println!("engine         {}", res.shuffle.label());
    println!("maps/reduces   {}/{}", res.maps, res.reduces);
    println!("execution time {:.1} s (virtual)", res.duration_s);
    println!(
        "map phase      {:.1} s, full overlap tail {:.1} s",
        res.map_phase_end_s - res.start_s,
        res.end_s - res.map_phase_end_s
    );
    println!(
        "shuffled       {:.1} MB, cache hit rate {:.0}%",
        res.shuffled_bytes as f64 / 1e6,
        100.0 * res.cache_hits as f64 / (res.cache_hits + res.cache_misses).max(1) as f64
    );
}
