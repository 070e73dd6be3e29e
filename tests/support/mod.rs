//! The cluster and job presets the root tests share. A "roomy" preset has a
//! four times larger page cache and twice the job buffers; both run the
//! RDMA engines over QDR verbs and the rest over IPoIB.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{JobConf, ShuffleKind};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;

/// `workers` compute nodes with a 64 MiB page cache (256 MiB when `roomy`),
/// on the fabric `kind` runs over, storing HDFS in unreplicated 4 MiB
/// blocks.
pub fn cluster(sim: &Sim, kind: ShuffleKind, workers: usize, roomy: bool) -> Cluster {
    let fabric = if kind.uses_rdma() {
        FabricParams::ib_verbs_qdr()
    } else {
        FabricParams::ipoib_qdr()
    };
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = if roomy { 256 << 20 } else { 64 << 20 };
    Cluster::build(
        sim,
        fabric,
        &vec![spec; workers],
        HdfsConfig {
            block_size: 4 << 20,
            replication: 1,
            packet_size: 1 << 20,
        },
    )
}

/// `kind`'s job with `reduces` reduces, two map and two reduce slots, and
/// 16/8/32 MiB shuffle/sort/cache buffers (twice that when `roomy`).
pub fn conf(kind: ShuffleKind, reduces: usize, roomy: bool) -> JobConf {
    let scale = if roomy { 2 } else { 1 };
    let mut conf = JobConf::for_kind(kind);
    conf.num_reduces = reduces;
    conf.map_slots = 2;
    conf.reduce_slots = 2;
    conf.shuffle_buffer = scale * (16 << 20);
    conf.io_sort_buffer = scale * (8 << 20);
    conf.prefetch_cache_bytes = scale * (32 << 20);
    conf.osu_packet_bytes = 256 << 10;
    conf.hadoop_a_kv_per_packet = 2_000;
    conf
}
