//! # rmr-load — open-arrival service mode for the simulated cluster
//!
//! The paper (and the figure harness) measures one job at a time; this crate
//! drives the persistent [`rmr_core::Runtime`] as a *service*: seeded
//! arrival processes ([`Arrival`]: Poisson, diurnal time-varying rate, and a
//! closed loop for comparison), heavy-tailed job-size mixes ([`JobMix`]:
//! bounded-Pareto input sizes over TeraSort/Sort/WordCount), and per-tenant
//! submission streams that push thousands of jobs through `Runtime::submit`
//! under FIFO or multi-tenant capacity scheduling
//! ([`rmr_core::SchedulePolicy`]).
//!
//! Outputs are tail-latency first: per-tenant p50/p95/p99 job latency
//! (queue wait + execution) via [`rmr_des::Histogram`], fairness
//! (slot-second shares vs configured guarantees), makespan, and utilisation
//! — see [`ServiceReport`]. With `record_events` the obs stream feeds the
//! tenant heatmaps in `rmr_obs::aggregate`.
//!
//! Determinism: all sampling happens host-side before the simulation runs
//! (tenant-private RNGs, absolute submission instants, catalog datagen
//! before the first arrival), so a `(seed, spec)` pair replays bit-identical
//! trace hashes — enforced by this crate's tests and the bench gates.

pub mod arrival;
pub mod mix;
pub mod report;
pub mod service;

pub use arrival::{tenant_rng, Arrival, Schedule};
pub use mix::{BoundedPareto, JobKind, JobMix, JobSample};
pub use report::{ServiceReport, TenantReport};
pub use service::{
    run_service, try_run_service, ServicePolicy, ServiceSpec, TenantSpec, SERVICE_BLOCK,
};
