//! The [`ShuffleEngine`] trait: one object per shuffle design, carrying both
//! halves of the data plane.
//!
//! * the **server side** (`start_server`): what listens on every TaskTracker
//!   when the cluster runtime comes up, and whether the serve path keeps a
//!   PrefetchCache;
//! * the **reduce side** (`run_reduce`): the copier/merge pipeline a
//!   ReduceTask runs.
//!
//! The runtime dispatches through this trait only — no code outside
//! [`crate::config`]'s construction factory branches on
//! [`ShuffleKind`] — so a new design plugs in by implementing the trait and
//! extending the factory. What is not a design lives elsewhere: the number
//! of rails is the fabric's (`FabricParams::with_rails`), the in-node
//! combiner a registration stage in front of every engine
//! ([`crate::combine`]).

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use rmr_net::Network;

use crate::config::ShuffleKind;
use crate::reduce::common::{ReduceCtx, ReduceError, ReduceStats};
use crate::reduce::rdma::{run_reduce_rdma, RdmaVariant};
use crate::reduce::vanilla::run_reduce_vanilla;
use crate::tasktracker::{start_http_server, start_rdma_server, TaskTracker, TtServerHandle};

/// A boxed single-threaded future (the DES executor is `!Send` throughout).
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// One shuffle design: the server the TaskTrackers run for it and the
/// reduce-side pipeline that pulls from those servers.
pub trait ShuffleEngine {
    /// The kind this engine implements (for labels and conf validation).
    fn kind(&self) -> ShuffleKind;

    /// Whether the TaskTracker serve path should keep a PrefetchCache.
    /// ANDed with `mapred.local.caching.enabled` at runtime start.
    fn server_cache(&self) -> bool {
        false
    }

    /// Starts this engine's shuffle server on one TaskTracker and returns
    /// its address.
    fn start_server(&self, tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle;

    /// Runs one ReduceTask's shuffle/merge/reduce pipeline. `Err` means a
    /// shuffle source died under the attempt; the runtime re-queues it.
    fn run_reduce(&self, ctx: ReduceCtx) -> LocalBoxFuture<Result<ReduceStats, ReduceError>>;
}

/// Stock Hadoop 0.20: HTTP servlets + copier pool + two-level disk merge.
pub struct VanillaEngine;

impl ShuffleEngine for VanillaEngine {
    fn kind(&self) -> ShuffleKind {
        ShuffleKind::Vanilla
    }

    fn start_server(&self, tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
        start_http_server(tt, net)
    }

    fn run_reduce(&self, ctx: ReduceCtx) -> LocalBoxFuture<Result<ReduceStats, ReduceError>> {
        Box::pin(run_reduce_vanilla(ctx))
    }
}

/// Hadoop-A (SC'11): verbs transport, fixed kv-count packets, header-first
/// levitated merge, refetch on buffer overflow.
pub struct HadoopAEngine;

impl ShuffleEngine for HadoopAEngine {
    fn kind(&self) -> ShuffleKind {
        ShuffleKind::HadoopA
    }

    fn start_server(&self, tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
        start_rdma_server(tt, net)
    }

    fn run_reduce(&self, ctx: ReduceCtx) -> LocalBoxFuture<Result<ReduceStats, ReduceError>> {
        Box::pin(run_reduce_rdma(ctx, RdmaVariant::hadoop_a()))
    }
}

/// OSU-IB (the paper): UCR RDMA, byte-budgeted packets, server-side
/// PrefetchCache, eager overlap, local spill on overflow.
pub struct OsuIbEngine;

impl ShuffleEngine for OsuIbEngine {
    fn kind(&self) -> ShuffleKind {
        ShuffleKind::OsuIb
    }

    fn server_cache(&self) -> bool {
        true
    }

    fn start_server(&self, tt: &Rc<TaskTracker>, net: &Network) -> TtServerHandle {
        start_rdma_server(tt, net)
    }

    fn run_reduce(&self, ctx: ReduceCtx) -> LocalBoxFuture<Result<ReduceStats, ReduceError>> {
        Box::pin(run_reduce_rdma(ctx, RdmaVariant::osu_ib()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_round_trips_kinds() {
        for kind in ShuffleKind::ALL {
            assert_eq!(kind.engine().kind(), kind);
        }
    }

    #[test]
    fn only_osu_ib_caches_on_the_server() {
        assert!(!ShuffleKind::Vanilla.engine().server_cache());
        assert!(!ShuffleKind::HadoopA.engine().server_cache());
        assert!(ShuffleKind::OsuIb.engine().server_cache());
    }
}
