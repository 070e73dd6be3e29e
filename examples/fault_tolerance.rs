//! Task-failure recovery — the paper's stated future work, implemented:
//! a map attempt is killed mid-flight, the JobTracker re-schedules it, and
//! the job still commits a correct, globally sorted output.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use rdma_mapred::prelude::*;

fn main() {
    for fail in [None, Some(3usize)] {
        let sim = Sim::new(99);
        let cluster = Cluster::build(
            &sim,
            FabricParams::ib_verbs_qdr(),
            &vec![NodeSpec::westmere_compute(); 3],
            HdfsConfig {
                block_size: 4 << 20,
                replication: 1,
                packet_size: 1 << 20,
            },
        );
        let c = cluster.clone();
        let (res, records) = sim.block_on(sim.spawn(async move {
            let records = teragen(&c, "/in", 24 << 20, true).await;
            let mut conf = JobConf::osu_ib();
            conf.num_reduces = 3;
            let plan = match fail {
                Some(idx) => FaultPlan::fail_map_once(0, idx),
                None => FaultPlan::none(),
            };
            let res = run_job_with_faults(&c, conf, terasort_spec("/in", "/out"), &plan).await;
            let report = teravalidate(&c, "/out", 3, records)
                .await
                .expect("output still globally sorted after the failure");
            (res, report.records)
        }));
        match fail {
            None => println!(
                "baseline   : {:>6.1}s, {} records validated, {} failed attempts",
                res.duration_s, records, res.failed_map_attempts
            ),
            Some(idx) => println!(
                "map {idx} killed: {:>6.1}s, {} records validated, {} failed attempts (re-executed)",
                res.duration_s, records, res.failed_map_attempts
            ),
        }
    }
    println!("\nThe killed attempt costs wall-clock time but never correctness.");
}
