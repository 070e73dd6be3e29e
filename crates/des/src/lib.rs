//! # rmr-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the RDMA-MapReduce reproduction: a single-threaded
//! async executor driven by a virtual clock, plus the synchronisation and
//! resource primitives the higher layers are built from.
//!
//! * [`Sim`] — the executor/clock handle: `spawn`, `sleep`, `run`, and
//!   `block_on` for a driver task's output.
//! * [`sync::channel()`] / [`sync::bounded`] — FIFO channels (Hadoop's internal
//!   queues map onto these).
//! * [`sync::Semaphore`] — fair counting semaphore (task slots, memory
//!   budgets, thread pools).
//! * [`sync::Notify`] — edge-triggered condition signalling.
//! * [`sync::select2`] / [`sync::join_all`] — the two combinators processes
//!   need.
//! * [`resource::Fluid`] — processor-sharing capacity (NIC directions, CPU
//!   cores, SSD bandwidth).
//! * [`Metrics`] — named counters read out by the benchmark harness.
//! * [`heap`] — a counting global allocator and a size-class census of the
//!   heap's peak, for binaries and tests that install it.
//!
//! Everything is `!Send` by design (futures hold `Rc` handles); run one
//! simulation per thread and parallelise across *runs*, not within one.
//!
//! ```
//! use rmr_des::prelude::*;
//!
//! let sim = Sim::new(42);
//! let link = Fluid::new(&sim, 125_000_000.0); // 1 GigE: 125 MB/s
//! let s = sim.clone();
//! let shipped_at = sim.block_on(sim.spawn(async move {
//!     link.consume(125_000_000.0).await;       // ship 125 MB
//!     s.now()
//! }));
//! assert_eq!(shipped_at.as_secs_f64(), 1.0);
//! ```

pub mod component;
pub mod executor;
pub mod heap;
pub mod metrics;
pub mod resource;
pub mod sync;
pub mod time;

pub use component::Component;
pub use executor::{
    assert_deterministic, note_current_blocked, BlockedLabel, EventId, JoinHandle,
    QuiescenceReport, Sim, StalledTask, TaskGroup, TaskId, Timer,
};
pub use metrics::{Counter, Histogram, Metrics};
pub use time::{SimDuration, SimTime};

/// One-stop imports for simulation code.
pub mod prelude {
    pub use crate::component::Component;
    pub use crate::executor::{assert_deterministic, JoinHandle, QuiescenceReport, Sim, TaskGroup};
    pub use crate::metrics::{Histogram, Metrics};
    pub use crate::resource::Fluid;
    pub use crate::sync::{
        bounded, bounded_named, channel, channel_named, join_all, select2, Either, Notify, Permit,
        Semaphore,
    };
    pub use crate::time::{SimDuration, SimTime};
}
