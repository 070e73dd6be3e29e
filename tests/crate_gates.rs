//! Tier-1 (`cargo test -q` runs only the root package) reach for two gates
//! that otherwise run only under CI's `--workspace`: the sweep pool's
//! thread-count invariance and service mode's replay determinism. The files
//! are included, not copied, so there is one definition of each gate.

#[path = "../crates/bench/tests/sweep_determinism.rs"]
mod sweep_determinism;

#[path = "../crates/load/tests/service_determinism.rs"]
mod service_determinism;
