//! Tier-1 (`cargo test -q` runs only the root package) reach for the gates
//! that otherwise run only under CI's `--workspace`: the sweep pool's
//! thread-count invariance, service mode's replay determinism, and the data
//! plane's property tests (codec/partition/merge/cursor invariants, the map
//! side and the streaming merge against their oracles), the queue-pair
//! engine against its scan oracle, HDFS placement/round-trip/accounting, the
//! prefetch cache's budget, the schedulers' invariants, the local store's
//! accounting, and the kernel's own (the event queue against the queue it
//! replaced, the fluid solver against brute force). The files are included,
//! not copied, so there is one definition of each gate.

#[path = "../crates/bench/tests/sweep_determinism.rs"]
mod sweep_determinism;

#[path = "../crates/load/tests/service_determinism.rs"]
mod service_determinism;

#[path = "../crates/core/tests/prop_record.rs"]
mod prop_record;

#[path = "../crates/core/tests/prop_merge.rs"]
mod prop_merge;

#[path = "../crates/core/tests/prop_map.rs"]
mod prop_map;

#[path = "../crates/core/tests/prop_cache.rs"]
mod prop_cache;

#[path = "../crates/core/tests/prop_scheduler.rs"]
mod prop_scheduler;

#[path = "../crates/store/tests/prop_store.rs"]
mod prop_store;

#[path = "../crates/net/tests/prop_verbs.rs"]
mod prop_verbs;

#[path = "../crates/hdfs/tests/prop_hdfs.rs"]
mod prop_hdfs;

#[path = "../crates/des/tests/prop_kernel.rs"]
mod prop_kernel;

#[path = "../crates/des/tests/prop_fluid_vst.rs"]
mod prop_fluid_vst;
