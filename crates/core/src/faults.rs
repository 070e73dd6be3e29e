//! Node-failure machinery: per-node liveness signals and deterministic
//! fault plans.
//!
//! The paper's design treats fault tolerance as future work (§V); this
//! module supplies the cluster-side scaffolding for exploring it under
//! simulation. A [`NodeLiveness`] is the out-of-band failure detector the
//! RDMA reduce path needs (verbs completion queues never close on peer
//! death — connection management, not the data path, notices a dead peer),
//! and a [`FaultPlan`] is a declarative, seed-derivable schedule of crashes,
//! restarts, and network-fault windows that `Runtime::apply_fault_plan`
//! arms before jobs are submitted.
//!
//! Determinism contract: an **empty** plan injects nothing and performs no
//! simulation operations at all, so fault-free runs are bit-identical to
//! builds that predate this module.

use std::cell::Cell;
use std::rc::Rc;

use rmr_des::{SimDuration, SimTime};

/// Shared liveness state of one TaskTracker node.
///
/// `alive` flips false at kill and true at restart; `epoch` counts restarts
/// (an endpoint established under epoch `e` is dead once `epoch() != e`,
/// even if the node is up again). Whoever makes a transition — the runtime's
/// `kill_node` / `restart_node` — fires the one runtime-wide
/// `liveness-changed` signal after it ([`ReduceCtx::liveness_changed`]), so
/// reducers select against that instead of polling every node.
///
/// [`ReduceCtx::liveness_changed`]: crate::reduce::common::ReduceCtx::liveness_changed
pub struct NodeLiveness {
    alive: Cell<bool>,
    epoch: Cell<u64>,
}

impl NodeLiveness {
    /// A live node at epoch 0.
    pub fn new() -> Rc<Self> {
        Rc::new(NodeLiveness {
            alive: Cell::new(true),
            epoch: Cell::new(0),
        })
    }

    /// Is the node up?
    pub fn alive(&self) -> bool {
        self.alive.get()
    }

    /// Restart count (0 = never killed).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Marks the node dead. Returns false if it already was (idempotent).
    pub fn kill(&self) -> bool {
        if !self.alive.get() {
            return false;
        }
        self.alive.set(false);
        true
    }

    /// Marks the node live again under a new epoch; returns that epoch.
    pub fn restart(&self) -> u64 {
        debug_assert!(!self.alive.get(), "restart of a live node");
        self.alive.set(true);
        self.epoch.set(self.epoch.get() + 1);
        self.epoch.get()
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Kill TaskTracker `tt_idx` at `at`; bring it back `restart_after`
    /// later (never, if `None`).
    Crash {
        /// Worker index.
        tt_idx: usize,
        /// Virtual kill time.
        at: SimTime,
        /// Delay until restart (`None` = stays down).
        restart_after: Option<SimDuration>,
    },
    /// Scale `tt_idx`'s wire bandwidth by `factor` (0 < factor ≤ 1) during
    /// the window — a flapping link or straggling NIC.
    Degrade {
        /// Worker index.
        tt_idx: usize,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
        /// Bandwidth multiplier in (0, 1].
        factor: f64,
    },
    /// Fully partition `tt_idx` from the fabric during the window.
    Partition {
        /// Worker index.
        tt_idx: usize,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
    /// The `map_idx`-th map task of the `job_ord`-th submitted job fails
    /// its first attempt at 50% progress (the old `fail_map_once` knob).
    FailMapOnce {
        /// Submission ordinal (0 = first job submitted to the runtime).
        job_ord: u32,
        /// Map task index.
        map_idx: usize,
    },
    /// The `reduce_idx`-th reduce task of the `job_ord`-th submitted job
    /// fails its first attempt before shuffling (`fail_reduce_once`).
    FailReduceOnce {
        /// Submission ordinal.
        job_ord: u32,
        /// Reduce task index.
        reduce_idx: usize,
    },
}

/// A declarative schedule of faults, armed once per runtime via
/// `Runtime::apply_fault_plan`. Plans are plain data: derive them from a
/// seed, print them, replay them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// No faults at all?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The old `JobConf::fail_map_once` knob as a degenerate plan.
    pub fn fail_map_once(job_ord: u32, map_idx: usize) -> Self {
        FaultPlan {
            events: vec![FaultEvent::FailMapOnce { job_ord, map_idx }],
        }
    }

    /// The old `JobConf::fail_reduce_once` knob as a degenerate plan.
    pub fn fail_reduce_once(job_ord: u32, reduce_idx: usize) -> Self {
        FaultPlan {
            events: vec![FaultEvent::FailReduceOnce {
                job_ord,
                reduce_idx,
            }],
        }
    }

    /// Appends an event (builder style).
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Number of crash events.
    pub fn crashes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Crash { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_transitions_and_epochs() {
        let l = NodeLiveness::new();
        assert!(l.alive());
        assert_eq!(l.epoch(), 0);
        assert!(l.kill());
        assert!(!l.kill(), "second kill is a no-op");
        assert!(!l.alive());
        assert_eq!(l.restart(), 1);
        assert!(l.alive());
        assert!(l.kill());
        assert_eq!(l.restart(), 2);
    }

    #[test]
    fn degenerate_plans_carry_one_event() {
        let p = FaultPlan::fail_map_once(0, 7);
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.crashes(), 0);
        assert!(FaultPlan::none().is_empty());
        let p = FaultPlan::none().with(FaultEvent::Crash {
            tt_idx: 1,
            at: SimTime::ZERO,
            restart_after: None,
        });
        assert_eq!(p.crashes(), 1);
    }
}
