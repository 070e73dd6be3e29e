//! # rmr-workloads — the paper's benchmark workloads
//!
//! * [`tera`] — TeraGen / TeraSort / TeraValidate (100-byte records,
//!   total-order partitioning) — Figs 4 and 5.
//! * [`randomwriter`](mod@randomwriter) — RandomWriter / Sort (10–1000 B keys, 0–20000 B
//!   values, hash partitioning) — Figs 6, 7, 8.
//! * [`wordcount`] — a non-identity job exercising grouping reducers.

pub mod randomwriter;
pub mod tera;
pub mod wordcount;

pub use randomwriter::{randomwriter, sort_spec, validate_sort, AVG_RECORD_BYTES};
pub use tera::{teragen, terasort_spec, teravalidate, ValidateReport, RECORD_BYTES};
pub use wordcount::{
    read_counts, textgen, textgen_blocks, textgen_vocab, wordcount_spec, wordcount_spec_no_combiner,
};
