//! The metric catalogue: every name the benchmark prints, with its unit,
//! clock, direction, and — for end-to-end metrics — the bound by which it
//! may worsen before `compare` calls it worse. One table, so `--list`, the
//! report, `compare` and the README glossary cannot disagree.

/// Which clock (or none) a value is read from. Simulated values repeat
/// bit-for-bit on one commit and seed; host values are this machine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time, or a quantity derived only from the simulation.
    Sim,
    /// This machine's clock, memory or CPU accounting.
    Host,
    /// An exact count of work done (events, bytes, attempts).
    Count,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much worse a metric may get before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the parent's median.
    Rel(f64),
    /// The larger of a share of the parent's median and an absolute floor
    /// (for times so short that a share of them is below timer noise).
    RelOrAbs(f64, f64),
    /// Absolute amount in the metric's own unit.
    Abs(f64),
}

impl Bound {
    /// The absolute amount below which a difference in this metric is timer
    /// noise whatever share of the median it is (0 when the bound has none).
    pub fn floor(self) -> f64 {
        match self {
            Bound::RelOrAbs(_, a) => a,
            Bound::Rel(_) | Bound::Abs(_) => 0.0,
        }
    }

    /// The allowance in the metric's unit, given the parent's median.
    pub fn allowance(self, parent_median: f64) -> f64 {
        match self {
            Bound::Rel(r) => r * parent_median.abs(),
            Bound::RelOrAbs(r, a) => (r * parent_median.abs()).max(a),
            Bound::Abs(a) => a,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the simulator sees; carries a bound.
    EndToEnd,
    /// One layer's work, time or waste; no bound, read beside a trace.
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub kind: Kind,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<Bound>,
    /// Measured by the `layer_kernels` workload (a timed call into one
    /// layer's public functions), not by a cluster run.
    pub kernel: bool,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    bound: Bound,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better: Better::Lower,
        kind: Kind::EndToEnd,
        bound: Some(bound),
        kernel: false,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        kind: Kind::PerLayer,
        bound: None,
        kernel: false,
        what,
    }
}

const fn kernel(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Host,
        better: Better::Lower,
        kind: Kind::PerLayer,
        bound: None,
        kernel: true,
        what,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// The end-to-end metrics `BENCHMARK.json` lists, each with the bound it
/// states there. They are the three every workload can report: the rest of
/// the ten exist on some workloads only (`sim_latency_*`, `paper_err_*`) or
/// are exactly 0 when all is well (`failed_share`), and simulated values are
/// gated by the output checks.
///
/// An outside driver refuses a benchmark whose run-to-run spread exceeds a
/// metric's bound, asks for three times that margin, and has no
/// *unresolved* verdict; `compare` has one and holds the catalogue's tighter
/// bounds below. So these follow the spreads measured through `measure`
/// over ten seeds per workload (README, "Bounds"): `host_wall_s` 4.5-8.6 %
/// (this class of VM drifts by several percent over minutes, which more
/// repetitions inside a run do not average out), `peak_rss_mb` at most
/// 1.1 %. `setup_s` is 20-40 ms on most workloads, and a share is all
/// `BENCHMARK.json` can state: the catalogue's 0.1 s floor, which keeps such
/// a set-up from failing on 5 ms of noise, cannot be written there.
pub const DRIVER_END_TO_END: [(&str, f64); 3] = [
    ("setup_s", 0.25),
    ("host_wall_s", 0.25),
    ("peak_rss_mb", 0.05),
];

/// Every metric, end-to-end first, then per layer in layer order.
pub const CATALOGUE: &[MetricDef] = &[
    // ---- end to end -----------------------------------------------------
    e2e("setup_s", "s", Host, Bound::RelOrAbs(0.15, 0.1),
        "child start -> first job submitted: Cluster::build plus input generation (teragen, arrival pre-sampling, kernel inputs)"),
    e2e("host_wall_s", "s", Host, Bound::Rel(0.10),
        "first job submitted -> last job joined, host Instant taken inside the benchmark's driver task, tracing off"),
    e2e("peak_rss_mb", "MB", Host, Bound::Rel(0.05),
        "the child's VmHWM at exit"),
    e2e("sim_job_s", "sim_s", Sim, Bound::Rel(0.01),
        "JobResult.duration_s of the one job (single-job workloads): the paper's metric"),
    e2e("sim_makespan_s", "sim_s", Sim, Bound::Rel(0.01),
        "first submission -> last job end (multi-job workloads)"),
    e2e("sim_latency_p50_s", "sim_s", Sim, Bound::Rel(0.01),
        "guaranteed tenant (queue 0) submit->finish latency, exact median over the per-job samples"),
    e2e("sim_latency_p95_s", "sim_s", Sim, Bound::Rel(0.01),
        "same samples, exact p95: the highest percentile with at least ten samples beyond it at 240 jobs"),
    e2e("paper_err_ipoib_pts", "pct-points", Sim, Bound::Abs(0.5),
        "|measured OSU-IB gain over IPoIB - the paper's 32 %| at Fig 4b 100 GB / 8 nodes / 1 HDD"),
    e2e("paper_err_hadoopa_pts", "pct-points", Sim, Bound::Abs(0.5),
        "|measured OSU-IB gain over Hadoop-A - the paper's 21 %| at the same point"),
    e2e("failed_share", "ratio", Count, Bound::Abs(0.0),
        "(jobs unfinished + output checks failed) / (jobs submitted + checks run)"),
    // ---- rmr_des: executor, timers, sync primitives ---------------------
    layer("des.events", "count", Count, Lower, "events fired by the executor over the whole run"),
    layer("des.polls", "count", Count, Lower, "task polls over the whole run"),
    layer("des.polls_per_event", "ratio", Count, Lower, "polls / events: wake-ups that found nothing to do show here"),
    layer("des.host_us_per_event", "us", Host, Lower, "host_wall_s / events fired between first submit and last join"),
    layer("des.live_tasks_max", "count", Count, Lower, "most live tasks seen at a slice boundary of the traced run"),
    kernel("des.timer_ns_per_event", "ns", "2000 tasks x 100 sleeps: schedule + fire + poll per timer event"),
    kernel("des.channel_ns_per_msg", "ns", "unbounded channel ping-pong between two tasks, per message"),
    kernel("des.semaphore_ns_per_acquire", "ns", "64 tasks contending for 4 permits, per acquire/release"),
    kernel("des.spawn_ns_per_task", "ns", "spawn_named + first poll + completion of an empty task"),
    kernel("des.histogram_ns_per_record", "ns", "Histogram::record of a log-uniform sample"),
    // ---- rmr_des::resource::Fluid --------------------------------------
    layer("fluid.work", "count", Count, Lower, "FLUID_ADVANCE_WORK delta: entries touched by the solver"),
    layer("fluid.work_per_event", "ratio", Count, Lower, "fluid.work / des.events"),
    kernel("fluid.ns_per_completion", "ns", "2000 consumers x 4 rounds on one shared resource, per completion"),
    MetricDef {
        clock: Count,
        ..kernel("fluid.work_per_completion", "ratio", "solver entries touched per completion in that kernel (exact; a linear solver keeps it flat)")
    },
    // ---- rmr_net ----------------------------------------------------------
    layer("net.bytes", "B", Count, Lower, "bytes the fabric carried (net.bytes_transferred)"),
    layer("net.cross_rack_bytes", "B", Count, Lower, "of which crossed a rack uplink (0 on the flat paper testbed)"),
    kernel("net.socket_transfer_ns", "ns", "Network::transfer of 1 MiB over IPoIB (per-byte CPU cost path), per transfer"),
    kernel("net.verbs_transfer_ns", "ns", "the same over IB verbs, per transfer"),
    kernel("net.rdma_read_ns_per_wr", "ns", "Qp::post_rdma_read + Cq::next, per work request"),
    kernel("net.ucr_roundtrip_ns", "ns", "UCR endpoint request/response pair, per round trip"),
    // ---- rmr_store --------------------------------------------------------
    layer("store.fs_bytes_read", "B", Count, Lower, "LocalFs bytes read (page cache + disk)"),
    layer("store.fs_bytes_read_disk", "B", Count, Lower, "of which missed the page cache"),
    layer("store.fs_bytes_written", "B", Count, Lower, "LocalFs bytes written"),
    layer("store.disk_seeks", "count", Count, Lower, "disk head moves between streams"),
    layer("store.disk_busy_s", "sim_s", Sim, Lower, "simulated seconds the workers' disks were busy, summed"),
    kernel("store.disk_io_ns", "ns", "Disk::io of 1 MiB alternating between two streams, per call"),
    kernel("store.fs_append_read_ns", "ns", "LocalFs append then read_exact of 1 MiB chunks, per chunk"),
    // ---- rmr_hdfs ---------------------------------------------------------
    layer("hdfs.bytes_written", "B", Count, Lower, "bytes written through HDFS (input generation + job output)"),
    layer("hdfs.local_read_share", "ratio", Count, Higher, "block reads served by the reader's own DataNode"),
    kernel("hdfs.write_read_ns_per_block", "ns", "HdfsWriter::write + HdfsReader::next_block of 4 MiB blocks, per block"),
    // ---- control plane: Runtime, JobTracker, heartbeats ------------------
    layer("control.attempts", "count", Count, Lower, "task attempts launched (maps + reduces + failed)"),
    layer("control.heartbeats", "count", Count, Lower, "heartbeat round trips (obs Heartbeat events, traced run)"),
    layer("control.host_us_per_attempt", "us", Host, Lower, "host_wall_s / attempts"),
    layer("control.queue_wait_s", "sim_s", Sim, Lower, "mean submit -> first launch over all jobs"),
    layer("control.slot_occupancy", "ratio", Sim, Higher, "slot-seconds used / slot-seconds offered over the makespan"),
    layer("control.state_footprint", "count", Count, Lower, "Runtime::state_footprint().total() after the last join (must be 0)"),
    layer("control.preemptions", "count", Count, Lower, "speculative attempts stood down by the capacity scheduler (traced run)"),
    layer("control.wait_p95_s", "sim_s", Sim, Lower, "exact p95 of queue 0's submit -> first launch"),
    // ---- data plane: record, merge, map/reduce tasks ---------------------
    layer("data.shuffle_bytes", "B", Count, Lower, "intermediate bytes shuffled, all jobs"),
    layer("data.records", "count", Count, Lower, "records through the reduce function, all jobs"),
    layer("data.host_us_per_record", "us", Host, Lower, "host_wall_s / data.records"),
    layer("data.rdma_emits", "count", Count, Lower, "merge emit calls in the RDMA reduce loop"),
    layer("data.rdma_stalls", "count", Count, Lower, "emit calls that found a source dry and had to wait"),
    layer("data.merge_batches", "count", Count, Lower, "merged batches handed to reduce (obs MergeBatch, traced run)"),
    layer("data.spill_bytes", "B", Count, Lower, "reduce-side bytes spilled to disk (obs Spill, traced run)"),
    kernel("data.merge_real_ns_per_record", "ns", "StreamingMerge over 128 sources x 20 000 real records, keys interleaved, per record"),
    kernel("data.merge_synth_ns_per_emit", "ns", "the same shape on size-only segments, per emit call"),
    kernel("data.codec_ns_per_record", "ns", "encode_records + decode_records of 100-byte records, per record"),
    kernel("data.sort_ns_per_record", "ns", "Segment::from_records (sort) of random 10-byte keys, per record"),
    kernel("data.partition_ns_per_record", "ns", "Segment::partition into 32 by the total-order partitioner, per record"),
    // ---- PrefetchCache ------------------------------------------------------
    layer("prefetch.hit_rate", "ratio", Count, Higher, "cache hits / lookups across TaskTrackers (0 where the engine has no cache)"),
    layer("prefetch.staged", "count", Count, Higher, "map outputs the prefetcher brought in"),
    layer("prefetch.rejected", "count", Count, Lower, "prefetches the cache refused to admit"),
    layer("prefetch.serve_p50_us", "sim_us", Sim, Lower, "exact median simulated time inside TaskTracker::serve (traced run)"),
    kernel("prefetch.cache_ns_per_op", "ns", "PrefetchCache insert + lookup churn over 64 keys, per operation"),
    // ---- rmr_load ---------------------------------------------------------
    layer("load.jobs", "count", Count, Higher, "jobs submitted"),
    layer("load.presample_s", "s", Host, Lower, "host time to pre-sample every tenant's arrivals and job sizes"),
    layer("load.lateness_s", "sim_s", Sim, Lower, "worst submission instant minus its scheduled instant (0: arrivals are absolute virtual times)"),
    // ---- rmr_obs ----------------------------------------------------------
    layer("obs.events_recorded", "count", Count, Lower, "events on the recorder bus in the traced run"),
    layer("obs.overhead_pct", "%", Host, Lower, "traced host_wall_s over the untraced median, minus one"),
    kernel("obs.emit_ns_on", "ns", "Recorder::emit with the recorder on, per event"),
    kernel("obs.emit_ns_off", "ns", "Recorder::emit with the recorder off (one branch), per call"),
    // ---- host process -------------------------------------------------------
    layer("host.cpu_user_s", "s", Host, Lower, "child user CPU seconds at exit"),
    layer("host.cpu_sys_s", "s", Host, Lower, "child kernel CPU seconds at exit"),
    layer("host.sys_share", "ratio", Host, Lower, "sys / (user + sys)"),
    layer("host.minor_faults", "count", Host, Lower, "child minor page faults at exit"),
    // ---- phases: host self time and event deltas per span ----------------
    layer("phase.build_s", "s", Host, Lower, "Sim::new + Cluster::build"),
    layer("phase.datagen_s", "s", Host, Lower, "input generation inside the simulation"),
    layer("phase.map_s", "s", Host, Lower, "first submit -> last map_phase_end_s, resolved on the slice grid"),
    layer("phase.reduce_tail_s", "s", Host, Lower, "last map end -> last join"),
    layer("phase.validate_s", "s", Host, Lower, "output checks (teravalidate reads every output block)"),
    layer("phase.teardown_s", "s", Host, Lower, "the child's last stamp -> the parent sees it gone: process exit, where the kernel reclaims what the run still holds"),
    layer("phase.map_events", "count", Count, Lower, "events fired during phase.map_s"),
    layer("phase.reduce_tail_events", "count", Count, Lower, "events fired during phase.reduce_tail_s"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|m| m.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    CATALOGUE.iter().filter(|m| m.kind == Kind::EndToEnd)
}

pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    CATALOGUE.iter().filter(|m| m.kind == Kind::PerLayer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_the_issue_counts_and_unique_names() {
        assert_eq!(end_to_end().count(), 10);
        assert_eq!(per_layer().count(), 74);
        let mut names: Vec<&str> = CATALOGUE.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len(), "duplicate metric name");
    }

    #[test]
    fn names_and_units_fit_the_benchmark_json_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in CATALOGUE {
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "unit {} of {}", m.unit, m.name);
            assert_eq!(m.bound.is_some(), m.kind == Kind::EndToEnd, "{}", m.name);
        }
    }

    #[test]
    fn bounds_turn_into_allowances() {
        assert_eq!(Bound::Rel(0.1).allowance(20.0), 2.0);
        assert_eq!(Bound::RelOrAbs(0.15, 0.1).allowance(0.2), 0.1);
        assert_eq!(Bound::RelOrAbs(0.15, 0.1).allowance(2.0), 0.3);
        assert_eq!(Bound::Abs(0.5).allowance(1e9), 0.5);
        assert_eq!(Bound::Abs(0.0).allowance(3.0), 0.0);
        assert_eq!(Bound::RelOrAbs(0.15, 0.1).floor(), 0.1);
        assert_eq!(Bound::Rel(0.1).floor(), 0.0);
        assert!(find("sim_job_s").is_some());
        assert!(find("nope").is_none());
    }

    /// `BENCHMARK.json` is written by hand; this holds it to the catalogue
    /// and to the workload list, so the two cannot drift apart.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        use crate::json::{self, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let rows = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, k: &str| json::get_str(j, k).unwrap().to_string();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::runner::contract_workloads()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), DRIVER_END_TO_END.len());
        for (row, (name, bound)) in e2e.iter().zip(DRIVER_END_TO_END) {
            let m = find(name).unwrap();
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), "lower");
            assert_eq!(json::get_num(row, "bound"), Ok(bound), "{name}");
            // Never tighter than `compare`'s own share, never past the cap.
            let own = match m.bound.unwrap() {
                Bound::Rel(r) | Bound::RelOrAbs(r, _) => r,
                Bound::Abs(_) => panic!("{name}: a driver bound is a share"),
            };
            assert!((own..=0.25).contains(&bound), "{name}");
        }

        let layers = rows("per_layer");
        assert_eq!(layers.len(), per_layer().count());
        for (row, m) in layers.iter().zip(per_layer()) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
            let better = if m.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(row, "better"), better, "{}", m.name);
        }
        let command = rows("command");
        let command: Vec<&str> = command.iter().filter_map(Json::as_str).collect();
        assert_eq!(command.last(), Some(&"measure"));
        assert!(command.contains(&"benchmark/Cargo.toml"));
    }
}
