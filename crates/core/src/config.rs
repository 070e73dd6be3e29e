//! Job and engine configuration.
//!
//! Parameter names follow the Hadoop 0.20.2 keys the paper cites where one
//! exists (`mapred.rdma.enabled`, `mapred.local.caching.enabled`,
//! `io.sort.mb`, `io.sort.factor`, …). §III-C(3) highlights configurability
//! — RDMA packet size, caching toggle, kv-pairs per packet — as a
//! contribution over Hadoop-A, so all of those are first-class here.

use std::rc::Rc;

use rmr_des::SimDuration;

use crate::engine::{HadoopAEngine, OsuIbEngine, ShuffleEngine, VanillaEngine};

/// Which shuffle engine a job runs: the paper's three designs.
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

    /// Constructs the engine implementation for this kind. This factory is
    /// the one place that branches on the kind — everything downstream
    /// dispatches through the [`ShuffleEngine`] trait.
    pub fn engine(self) -> Rc<dyn ShuffleEngine> {
        match self {
            ShuffleKind::Vanilla => Rc::new(VanillaEngine),
            ShuffleKind::HadoopA => Rc::new(HadoopAEngine),
            ShuffleKind::OsuIb => Rc::new(OsuIbEngine),
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

/// CPU cost coefficients of the data-plane operations, in core-seconds.
/// Calibrated for a 2.67 GHz Westmere core (§IV-A) running Hadoop's Java
/// code paths (object churn and serialisation included — these are far above
/// raw memcpy speeds on purpose).
#[derive(Debug, Clone)]
pub struct CpuCosts {
    /// Running the user map function, per record.
    pub map_per_record: f64,
    /// Byte-stream handling in the map input path, per byte.
    pub map_per_byte: f64,
    /// One comparison+move step in sort/merge, per record per log2-level.
    pub sort_per_record_level: f64,
    /// Running the user reduce function, per record.
    pub reduce_per_record: f64,
    /// Byte-stream handling in the reduce output path, per byte.
    pub reduce_per_byte: f64,
    /// Serialisation/deserialisation, per byte (spill, shuffle staging).
    pub serde_per_byte: f64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            map_per_record: 0.8e-6,
            map_per_byte: 2.5e-9,
            sort_per_record_level: 0.14e-6,
            reduce_per_record: 0.9e-6,
            reduce_per_byte: 2.5e-9,
            serde_per_byte: 3.0e-9,
        }
    }
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
    /// `io.sort.factor` — merge fan-in.
    pub io_sort_factor: usize,

    /// Reduce-side in-memory shuffle buffer, bytes
    /// (`mapred.job.shuffle.input.buffer.percent` × task heap).
    pub shuffle_buffer: u64,
    /// Fraction of `shuffle_buffer` that triggers the in-memory merger.
    pub inmem_merge_threshold: f64,
    /// Largest single segment kept in memory, as a fraction of
    /// `shuffle_buffer` (`mapred.job.shuffle.merge.percent` era semantics).
    pub inmem_segment_limit: f64,
    /// `mapred.reduce.parallel.copies` — vanilla copier threads.
    pub parallel_copies: usize,
    /// Server-side HTTP servlet thread pool (`tasktracker.http.threads`).
    pub http_threads: usize,
    /// Simulation granularity of streaming transfers (disk-read/send
    /// pipelining chunk). Wire packetisation costs are charged by the
    /// fabric's MTU model independently of this.
    pub stream_chunk: u64,

    /// `mapred.local.caching.enabled` — the paper's PrefetchCache toggle.
    pub caching_enabled: bool,
    /// PrefetchCache capacity, bytes (bounded by TT heap availability).
    pub prefetch_cache_bytes: u64,
    /// MapOutputPrefetcher daemon pool size.
    pub prefetcher_threads: usize,
    /// RDMAResponder pool size (OSU-IB server side).
    pub responder_threads: usize,

    /// OSU-IB packet sizing: target *bytes* of kv-pairs per shuffle packet
    /// ("number of key,value pairs transmitted in each packet" chosen
    /// size-aware — §III-C(3), §IV-C).
    pub osu_packet_bytes: u64,
    /// Hadoop-A packet sizing: fixed *count* of kv-pairs per packet,
    /// regardless of their size (the inefficiency §IV-C exposes on Sort).
    pub hadoop_a_kv_per_packet: u64,

    /// `mapred.reduce.slowstart.completed.maps`.
    pub reduce_slowstart: f64,
    /// TaskTracker heartbeat interval.
    pub heartbeat: SimDuration,
    /// Reducer map-completion-event poll interval.
    pub event_poll: SimDuration,

    /// Replication factor for job output files.
    pub output_replication: u32,

    /// Fixed wall-clock cost of launching a task attempt (JVM spawn +
    /// localisation; Hadoop 0.20 has no JVM reuse by default).
    pub task_launch_overhead: rmr_des::SimDuration,

    /// CPU cost model.
    pub costs: CpuCosts,

    /// `mapred.map.tasks.speculative.execution`: when the pending queue is
    /// empty, idle slots re-run the oldest still-running map; the first
    /// attempt to finish wins, the loser is discarded.
    pub speculative_maps: bool,

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
            io_sort_factor: 10,
            shuffle_buffer: 140 << 20,
            inmem_merge_threshold: 0.66,
            inmem_segment_limit: 0.25,
            parallel_copies: 5,
            http_threads: 40,
            stream_chunk: 1 << 20,
            caching_enabled: false,
            prefetch_cache_bytes: 1 << 30,
            prefetcher_threads: 4,
            responder_threads: 8,
            osu_packet_bytes: 512 << 10,
            hadoop_a_kv_per_packet: 3_000,
            reduce_slowstart: 0.05,
            heartbeat: SimDuration::from_secs(3),
            event_poll: SimDuration::from_secs(1),
            output_replication: 1,
            task_launch_overhead: SimDuration::from_millis(1_200),
            costs: CpuCosts::default(),
            speculative_maps: false,
            queue: 0,
            locality_delay: 0,
            node_combine: false,
        }
    }
}

impl JobConf {
    /// The paper's OSU-IB configuration: RDMA shuffle with pre-fetching and
    /// caching enabled.
    pub fn osu_ib() -> Self {
        JobConf {
            shuffle: ShuffleKind::OsuIb,
            caching_enabled: true,
            ..Default::default()
        }
    }

    /// OSU-IB with `mapred.local.caching.enabled = false` (Fig 8 ablation).
    pub fn osu_ib_no_cache() -> Self {
        JobConf {
            shuffle: ShuffleKind::OsuIb,
            caching_enabled: false,
            ..Default::default()
        }
    }

    /// Hadoop-A as characterised by the paper and SC'11.
    pub fn hadoop_a() -> Self {
        JobConf {
            shuffle: ShuffleKind::HadoopA,
            caching_enabled: false,
            ..Default::default()
        }
    }

    /// Stock Hadoop 0.20.2.
    pub fn vanilla() -> Self {
        JobConf::default()
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

    #[test]
    fn presets_select_engines() {
        assert_eq!(JobConf::vanilla().shuffle, ShuffleKind::Vanilla);
        assert_eq!(JobConf::hadoop_a().shuffle, ShuffleKind::HadoopA);
        assert_eq!(JobConf::osu_ib().shuffle, ShuffleKind::OsuIb);
        assert!(JobConf::osu_ib().caching_enabled);
        assert!(!JobConf::osu_ib_no_cache().caching_enabled);
        assert!(!JobConf::hadoop_a().caching_enabled);
    }

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
    }
}
