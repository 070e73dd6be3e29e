//! # rmr-core — RDMA-based Hadoop MapReduce (the paper's contribution)
//!
//! A complete MapReduce engine over the simulated substrates, with the three
//! shuffle designs the paper evaluates:
//!
//! * **Vanilla Hadoop 0.20** — HTTP-over-sockets copiers, two-level disk
//!   merge, and the shuffle→merge→reduce barrier ([`reduce::vanilla`]).
//! * **Hadoop-A** (Wang et al., SC'11) — verbs transport, network-levitated
//!   merge with fixed kv-count packets, no server-side cache
//!   ([`reduce::rdma`]).
//! * **OSU-IB** — the paper's design: UCR RDMA shuffle, TaskTracker-side
//!   [`prefetch::PrefetchCache`] + `MapOutputPrefetcher`, byte-budgeted
//!   packets, and full shuffle/merge/reduce overlap ([`reduce::rdma`]).
//!
//! Entry points: [`runtime::Runtime`] for a persistent multi-job cluster
//! (submit/poll/join over shared TaskTrackers and task slots), or the
//! single-job wrapper [`job::run_job`], both on a [`cluster::Cluster`]
//! with a [`config::JobConf`] and [`spec::JobSpec`].
//!
//! The data plane is dual: tests and examples run *real* records through
//! sort/partition/merge/validate; paper-scale benchmarks run the same code
//! paths with counts only ([`record::RunData`]).

pub mod cluster;
pub mod combine;
pub mod config;
pub mod faults;
pub mod job;
pub mod jobtracker;
pub mod mapoutput;
pub mod maptask;
pub mod merge;
pub mod prefetch;
pub mod proto;
pub mod record;
pub mod reduce;
pub mod runtime;
pub mod spec;
pub mod tasktracker;

pub use cluster::{Cluster, NodeHandle, NodeSpec};
pub use config::{JobConf, ShuffleKind};
pub use faults::{FaultEvent, FaultPlan, NodeLiveness};
pub use job::{run_job, run_job_with_faults, JobResult};
pub use record::{
    decode_records, encode_records, HashPartitioner, MapSink, Partitioner, Record, Segment,
    TotalOrderPartitioner,
};
pub use runtime::{CapacityPlan, JobId, QueueShare, Runtime, SchedulePolicy, StateFootprint};
pub use spec::JobSpec;
