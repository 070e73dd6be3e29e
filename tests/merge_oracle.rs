//! Tier-1 (`cargo test -q` at the root) builds only the root package's test
//! targets, not `rmr-core`'s. This pulls the merge property tests — the
//! scan-based synthetic oracle included — into one of them, so a change to
//! `StreamingMerge` cannot pass tier-1 without them.

#[path = "../crates/core/tests/prop_merge.rs"]
mod prop_merge;
