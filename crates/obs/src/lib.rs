//! # rmr-obs — cluster-wide observability for the simulated MapReduce stack
//!
//! A sim-time structured event bus plus the aggregators and exporters that
//! turn raw events into something a human can read:
//!
//! * [`Recorder`] / [`Ev`] — the bus. Core code emits typed events through a
//!   cheap `Option`-backed handle; with the recorder off the only cost is one
//!   branch per site (the event constructor closure is never run).
//! * [`span`] — pairs attempt start/finish events into spans (the one record
//!   of each task attempt) and derives swimlane/occupancy figures.
//! * [`aggregate`] — slot-occupancy heatmaps (node x time bucket), per-node
//!   heartbeat/queue-depth traces, per-job cache-pressure gauges, and
//!   shuffle-throughput timelines, plus latency histograms.
//! * [`chrome`] — Chrome trace-event JSON export (loadable in Perfetto) and a
//!   schema validator used by the `probe obs` smoke gate.
//! * [`snapshot`] — the `Runtime::dump()` data model: per-job state,
//!   queued/running attempts, slot maps, serving-cursor and cache stats.
//!
//! The crate depends only on `rmr_des` and identifies jobs/nodes by plain
//! integers so every layer above the kernel can use it without cycles.
//!
//! Determinism contract: emitting events never touches the simulation (no
//! awaits, no task spawns, no RNG) — it is host-side bookkeeping stamped with
//! the virtual clock. Recorder-on and recorder-off runs therefore produce
//! identical event-trace hashes, and two seeded runs produce byte-identical
//! event streams; both properties are enforced by workspace tests.

pub mod aggregate;
pub mod chrome;
pub mod event;
pub mod json;
pub mod snapshot;
pub mod span;

pub use aggregate::{
    cache_pressure, heartbeat_intervals, job_tenants, queue_depth_traces, shuffle_latencies,
    shuffle_throughput, slot_heatmap, tenant_latency_heatmap, tenant_recovery_heatmap, CachePoint,
    Heatmap, QueuePoint, TenantHeatmap, ThroughputPoint,
};
pub use chrome::{chrome_trace, validate_chrome_trace, TraceCheck};
pub use event::{AttemptOutcome, Ev, JobState, ObsEvent, Recorder, TaskFlavor};
pub use snapshot::{JobSnapshot, NodeSnapshot, RuntimeSnapshot};
pub use span::{assign_lanes, spans_from_events, Span};
