//! WordCount on the public API: a non-identity map function (line → words)
//! and a grouping reduce function (word → count), run through the RDMA
//! shuffle with real data, results read back and checked.
//!
//! ```text
//! cargo run --release --example wordcount
//! ```

use rdma_mapred::prelude::*;
use rdma_mapred::workloads::{read_counts, textgen, wordcount_spec};

fn main() {
    let sim = Sim::new(7);
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![NodeSpec::westmere_compute(); 3],
        HdfsConfig {
            block_size: 2 << 20,
            replication: 1,
            packet_size: 512 << 10,
        },
    );

    let c = cluster.clone();
    let (res, counts) = sim.block_on(sim.spawn(async move {
        textgen(&c, "/wc/in", 20_000, 12).await;
        let mut conf = JobConf::osu_ib();
        conf.num_reduces = 4;
        let res = run_job(&c, conf, wordcount_spec("/wc/in", "/wc/out")).await;
        let counts = read_counts(&c, "/wc/out", 4).await.expect("read counts");
        (res, counts)
    }));

    let total: u64 = counts.values().sum();
    println!("WordCount over 20,000 lines × 12 words:");
    for (word, count) in counts.iter().take(6) {
        println!("  {word:12} {count}");
    }
    println!("  ... {} distinct words, {total} total", counts.len());
    assert_eq!(total, 20_000 * 12, "every word accounted for");
    println!(
        "\njob ran in {:.1} virtual seconds on {} ({} maps, {} reduces)",
        res.duration_s,
        res.shuffle.label(),
        res.maps,
        res.reduces
    );
}
