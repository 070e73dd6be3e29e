//! # rmr-cluster — testbed presets and the scenario driver
//!
//! [`testbed`] encodes the paper's cluster (§IV-A) and per-system tuning;
//! [`scenario`] is the one driver every run goes through ([`Scenario`] in,
//! [`RunReport`] or [`Hung`] out); [`runner`] holds the figure-point
//! constructor ([`Experiment`]) and the `results/*.jsonl` row
//! ([`RunRecord`]).

pub mod runner;
pub mod scenario;
pub mod testbed;

pub use runner::{format_table, run_experiment, run_experiment_traced, Experiment, RunRecord};
pub use scenario::{
    gb_to_bytes, run_scenario, run_with, Datagen, Driver, Hung, Job, RunReport, Scenario,
};
pub use testbed::{tuned_block_size, tuned_conf, Bench, System, Testbed};
