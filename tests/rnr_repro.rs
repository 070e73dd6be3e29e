//! Regression: many-source RDMA shuffle (outstanding requests exceeding the
//! UCR receive window) must not deadlock.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{run_job, JobConf, ShuffleKind};
use rmr_des::{Sim, SimTime};
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_workloads::{randomwriter, sort_spec};

#[test]
fn hadoop_a_many_sources_completes() {
    let sim = Sim::new(7);
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 64 << 20;
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![spec; 2],
        HdfsConfig {
            block_size: 1 << 20,
            replication: 1,
            packet_size: 256 << 10,
        },
    );
    let mut conf = JobConf::for_kind(ShuffleKind::HadoopA);
    conf.num_reduces = 4;
    conf.shuffle_buffer = 8 << 20;
    let c2 = cluster.clone();
    let job = sim.spawn(async move {
        // 256 MB over 1 MB blocks → 256 maps → 128 sources per endpoint.
        randomwriter(&c2, "/in", 256 << 20, false).await;
        let _ = run_job(&c2, conf, sort_spec("/in", "/out")).await;
    });
    sim.run_until(SimTime::from_nanos(3_600_000_000_000)); // 1h sim cap
    assert!(job.is_finished(), "job deadlocked");
}
