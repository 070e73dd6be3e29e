//! Job and engine configuration.
//!
//! Parameter names follow the Hadoop 0.20.2 keys the paper cites where one
//! exists (`mapred.rdma.enabled`, `mapred.local.caching.enabled`,
//! `io.sort.mb`, …). §III-C(3) highlights configurability — RDMA packet
//! size, caching toggle, kv-pairs per packet — as a contribution over
//! Hadoop-A, so all of those are first-class here. A Hadoop value that no
//! experiment varies is a constant in the module that reads it, or below
//! when several modules do.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use rmr_des::SimDuration;
use rmr_net::Network;

use crate::reduce::common::{ReduceCtx, ReduceError, ReduceStats};
use crate::reduce::rdma::run_reduce_rdma;
use crate::reduce::vanilla::run_reduce_vanilla;
use crate::tasktracker::{start_http_server, start_rdma_server, TaskTracker, TtServerHandle};

/// Reducer map-completion-event poll interval.
pub(crate) const EVENT_POLL: SimDuration = SimDuration::from_secs(1);

/// Simulation granularity of streaming transfers (disk-read/send pipelining
/// chunk). Wire packetisation costs are charged by the fabric's MTU model
/// independently of this.
pub(crate) const STREAM_CHUNK: u64 = 1 << 20;

// CPU cost coefficients of the data-plane operations, in core-seconds.
// Calibrated for a 2.67 GHz Westmere core (§IV-A) running Hadoop's Java code
// paths (object churn and serialisation included — these are far above raw
// memcpy speeds on purpose).

/// Running the user map function, per record.
pub(crate) const CPU_MAP_PER_RECORD: f64 = 0.8e-6;
/// Byte-stream handling in the map input path, per byte.
pub(crate) const CPU_MAP_PER_BYTE: f64 = 2.5e-9;
/// One comparison+move step in sort/merge, per record per log2-level.
pub(crate) const CPU_SORT_PER_RECORD_LEVEL: f64 = 0.14e-6;
/// Running the user reduce function, per record.
pub(crate) const CPU_REDUCE_PER_RECORD: f64 = 0.9e-6;
/// Byte-stream handling in the reduce output path, per byte.
pub(crate) const CPU_REDUCE_PER_BYTE: f64 = 2.5e-9;
/// Serialisation/deserialisation, per byte (spill, shuffle staging).
pub(crate) const CPU_SERDE_PER_BYTE: f64 = 3.0e-9;

/// Which shuffle engine a job runs: the paper's three designs. The one
/// place that branches on the design: the server a TaskTracker runs and the
/// pipeline a ReduceTask runs are both chosen here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShuffleKind {
    /// Stock Hadoop: HTTP over sockets, copier threads, two-level disk
    /// merge, reduce barrier.
    Vanilla,
    /// Hadoop-A (SC'11): verbs transport, network-levitated merge pulling
    /// fixed kv-count packets, DataEngine reads disk per request (no cache).
    HadoopA,
    /// The paper's design: UCR RDMA shuffle, MapOutputPrefetcher +
    /// PrefetchCache on the TaskTracker, byte-budgeted packets,
    /// priority-queue merge overlapped with reduce.
    OsuIb,
}

impl ShuffleKind {
    /// Whether the engine runs over IB verbs (vs sockets).
    pub fn uses_rdma(self) -> bool {
        !matches!(self, ShuffleKind::Vanilla)
    }

    /// Whether the TaskTracker serve path keeps a PrefetchCache. ANDed with
    /// `mapred.local.caching.enabled` at runtime start.
    pub fn server_cache(self) -> bool {
        match self {
            ShuffleKind::Vanilla | ShuffleKind::HadoopA => false,
            ShuffleKind::OsuIb => true,
        }
    }

    /// RDMA reduce: packets are byte-budgeted (`osu_packet_bytes`) rather
    /// than a fixed kv count (`hadoop_a_kv_per_packet`).
    pub(crate) fn byte_packets(self) -> bool {
        self == ShuffleKind::OsuIb
    }

    /// RDMA reduce: pull data eagerly during the map wave, rather than
    /// headers only with the levitated-merge heap built once all are in.
    pub(crate) fn eager_fetch(self) -> bool {
        self == ShuffleKind::OsuIb
    }

    /// RDMA reduce: overflowing packets spill to the reducer's local disk,
    /// rather than being dropped and refetched from the TaskTracker.
    pub(crate) fn local_spill(self) -> bool {
        self == ShuffleKind::OsuIb
    }

    /// Starts this design's shuffle server on one TaskTracker and returns
    /// its address.
    pub(crate) fn start_server(self, tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
        match self {
            ShuffleKind::Vanilla => start_http_server(tt, net),
            ShuffleKind::HadoopA | ShuffleKind::OsuIb => start_rdma_server(tt, net),
        }
    }

    /// Runs one ReduceTask's shuffle/merge/reduce pipeline. `Err` means a
    /// shuffle source died under the attempt; the runtime re-queues it.
    /// Boxed, so the attempt task that awaits it stays small.
    pub(crate) fn run_reduce(
        self,
        ctx: ReduceCtx,
    ) -> Pin<Box<dyn Future<Output = Result<ReduceStats, ReduceError>>>> {
        match self {
            ShuffleKind::Vanilla => Box::pin(run_reduce_vanilla(ctx)),
            ShuffleKind::HadoopA | ShuffleKind::OsuIb => Box::pin(run_reduce_rdma(ctx)),
        }
    }

    /// Display name used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ShuffleKind::Vanilla => "Hadoop",
            ShuffleKind::HadoopA => "HadoopA-IB",
            ShuffleKind::OsuIb => "OSU-IB",
        }
    }

    /// Every engine the repo hosts, in table order.
    pub const ALL: [ShuffleKind; 3] = [
        ShuffleKind::Vanilla,
        ShuffleKind::HadoopA,
        ShuffleKind::OsuIb,
    ];
}

/// Full job + engine configuration.
#[derive(Debug, Clone)]
pub struct JobConf {
    /// Shuffle engine (vanilla / Hadoop-A / OSU-IB).
    pub shuffle: ShuffleKind,
    /// Number of ReduceTasks for the job.
    pub num_reduces: usize,
    /// Concurrent MapTasks per TaskTracker (the paper tuned 4).
    pub map_slots: usize,
    /// Concurrent ReduceTasks per TaskTracker (the paper tuned 4).
    pub reduce_slots: usize,

    /// `io.sort.mb` — map-side sort buffer, bytes.
    pub io_sort_buffer: u64,

    /// Reduce-side in-memory shuffle buffer, bytes
    /// (`mapred.job.shuffle.input.buffer.percent` × task heap).
    pub shuffle_buffer: u64,

    /// `mapred.local.caching.enabled` — the paper's PrefetchCache toggle.
    pub caching_enabled: bool,
    /// PrefetchCache capacity, bytes (bounded by TT heap availability).
    pub prefetch_cache_bytes: u64,

    /// OSU-IB packet sizing: target *bytes* of kv-pairs per shuffle packet
    /// ("number of key,value pairs transmitted in each packet" chosen
    /// size-aware — §III-C(3), §IV-C).
    pub osu_packet_bytes: u64,
    /// Hadoop-A packet sizing: fixed *count* of kv-pairs per packet,
    /// regardless of their size (the inefficiency §IV-C exposes on Sort).
    pub hadoop_a_kv_per_packet: u64,

    /// `mapred.job.queue.name` analog: the capacity-scheduler queue (tenant)
    /// this job is submitted to. Only meaningful under
    /// `SchedulePolicy::Capacity`; other policies ignore it.
    pub queue: u32,

    /// Delay scheduling for map locality: how many non-local scheduling
    /// opportunities the job skips, waiting for a data-local slot, before
    /// accepting a non-local launch. `0` disables the wait (stock Hadoop
    /// 0.20 behaviour, and the default so existing replays are unchanged).
    pub locality_delay: u32,

    /// In-node combiner ([`crate::combine`]): hold each node's finished map
    /// outputs back from registration and fold a wave of them through the
    /// job's combiner into one aggregated output. Works under every engine;
    /// a job without a combiner fn is unaffected.
    pub node_combine: bool,
}

impl Default for JobConf {
    fn default() -> Self {
        JobConf {
            shuffle: ShuffleKind::Vanilla,
            num_reduces: 4,
            map_slots: 4,
            reduce_slots: 4,
            io_sort_buffer: 200 << 20,
            shuffle_buffer: 140 << 20,
            caching_enabled: false,
            prefetch_cache_bytes: 1 << 30,
            osu_packet_bytes: 512 << 10,
            hadoop_a_kv_per_packet: 3_000,
            queue: 0,
            locality_delay: 0,
            node_combine: false,
        }
    }
}

impl JobConf {
    /// The paper's OSU-IB configuration: RDMA shuffle with pre-fetching and
    /// caching enabled. The same as [`JobConf::for_kind`] with
    /// [`ShuffleKind::OsuIb`]; kept under its own name because the
    /// `benchmark/` package calls it.
    pub fn osu_ib() -> Self {
        JobConf::for_kind(ShuffleKind::OsuIb)
    }

    /// The paper's preset for `kind` (caching on only where the design
    /// has a cache).
    pub fn for_kind(kind: ShuffleKind) -> Self {
        JobConf {
            shuffle: kind,
            caching_enabled: kind == ShuffleKind::OsuIb,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, NodeSpec};
    use crate::mapoutput::MapOutputStore;
    use rmr_des::Sim;
    use rmr_hdfs::HdfsConfig;
    use rmr_net::FabricParams;
    use rmr_obs::Recorder;

    #[test]
    fn rdma_flag_matches_engines() {
        assert!(!ShuffleKind::Vanilla.uses_rdma());
        assert!(ShuffleKind::HadoopA.uses_rdma());
        assert!(ShuffleKind::OsuIb.uses_rdma());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = ShuffleKind::ALL.iter().map(|k| k.label()).collect();
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), ShuffleKind::ALL.len());
    }

    #[test]
    fn for_kind_is_the_named_preset() {
        for kind in ShuffleKind::ALL {
            let conf = JobConf::for_kind(kind);
            assert_eq!(conf.shuffle, kind);
            assert_eq!(conf.caching_enabled, kind == ShuffleKind::OsuIb);
            assert!(!conf.node_combine, "the stage is opt-in");
        }
        let osu = JobConf::osu_ib();
        assert_eq!(osu.shuffle, ShuffleKind::OsuIb);
        assert!(osu.caching_enabled);
    }

    #[test]
    fn vanilla_serves_http_and_the_verbs_designs_serve_rdma() {
        for kind in ShuffleKind::ALL {
            let sim = Sim::new(7);
            let cluster = Cluster::build(
                &sim,
                FabricParams::ib_verbs_qdr(),
                &[NodeSpec::westmere_compute()],
                HdfsConfig::default(),
            );
            let tt = TaskTracker::new(
                &sim,
                0,
                cluster.workers[0].clone(),
                &JobConf::for_kind(kind),
                MapOutputStore::new(),
                false,
                Recorder::off(),
            );
            let http = matches!(
                kind.start_server(&tt, &cluster.net),
                TtServerHandle::Http(_)
            );
            assert_eq!(http, kind == ShuffleKind::Vanilla, "{kind:?}");
        }
    }

    #[test]
    fn only_osu_ib_caches_on_the_server() {
        assert!(!ShuffleKind::Vanilla.server_cache());
        assert!(!ShuffleKind::HadoopA.server_cache());
        assert!(ShuffleKind::OsuIb.server_cache());
    }
}
