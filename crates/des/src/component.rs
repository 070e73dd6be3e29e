//! The tag a task is spawned under.
//!
//! The simulated TaskTracker and ReduceTask are a fixed set of components
//! (the paper's `RDMAListener`, `RDMAReceiver`, `RDMAResponder` pool,
//! `RDMACopier`, prefetch daemons and the socket baseline's HTTP servlets),
//! so a task is a [`Component`] variant with up to two indices, not a string
//! built at spawn time. The tag is rendered only when read: the executor
//! folds its [`std::fmt::Display`] output into the trace hash, and a stall
//! report renders the live tasks' tags.

use std::fmt;
use std::rc::Rc;

/// What a spawned task is. Each production variant renders as the name its
/// task has always had (shown on the variant), so a trace hash does not
/// depend on how the name is built. `tt` is the TaskTracker's index in
/// `Heartbeat` and `ChaosCrash`, its node id elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Component {
    /// A map attempt: `j<job>-map-<map>`.
    Map { job: u32, map: u32 },
    /// A reduce attempt: `j<job>-reduce-<reduce>`.
    Reduce { job: u32, reduce: u32 },
    /// A TaskTracker's heartbeat loop: `tt<tt>-heartbeat`.
    Heartbeat { tt: u32 },
    /// The socket baseline's accept loop: `tt<tt>-http-listener`.
    HttpListener { tt: u32 },
    /// One accepted HTTP connection's servlet loop: `tt<tt>-http-conn`.
    HttpConn { tt: u32 },
    /// A thread of the `RDMAResponder` pool: `tt<tt>-rdma-responder-<thread>`.
    RdmaResponder { tt: u32, thread: u32 },
    /// The TaskTracker's one `RDMAReceiver`: `tt<tt>-rdma-receiver`.
    RdmaReceiver { tt: u32 },
    /// A prefetch staging thread: `prefetch-daemon-<thread>`.
    PrefetchDaemon { thread: u32 },
    /// A queue pair's HCA engine working through a send queue: `qp-engine`.
    QpEngine,
    /// A vanilla reducer's map-completion fetcher: `r<reduce>-event-fetcher`.
    EventFetcher { reduce: u32 },
    /// One of a vanilla reducer's copiers: `r<reduce>-copier-<thread>`.
    VanillaCopier { reduce: u32, thread: u32 },
    /// An RDMA reducer's `RDMACopier` receive loop: `r<reduce>-rdma-copier`.
    RdmaCopier { reduce: u32 },
    /// An RDMA reducer's reduce consumer: `r<reduce>-reduce-consumer`.
    ReduceConsumer { reduce: u32 },
    /// An OSU-IB packet spill write: `r<reduce>-shuffle-spill`.
    ShuffleSpill { reduce: u32 },
    /// A planned TaskTracker crash and restart: `chaos-crash-tt<tt>`.
    ChaosCrash { tt: u32 },
    /// One TeraGen writer: `teragen-<writer>`.
    TeragenWriter { writer: u32 },
    /// One RandomWriter writer: `randomwriter-<writer>`.
    RandomWriter { writer: u32 },
    /// A service-mode tenant submitting its arrivals: `tenant-<queue>`.
    Tenant { queue: u32 },
    /// An anonymous task, numbered in spawn order: `task-<n>`.
    Anon(u64),
    /// A task named by a string: drivers, tests and examples.
    Named(Rc<str>),
}

impl Component {
    /// True for server loops meant to stay alive (and blocked) as long as
    /// their node: they are left out of [`crate::Sim::step_until_no_events`]
    /// stall reports, exactly like Java's daemon threads don't block JVM
    /// exit. [`Component::Named`] and [`Component::Anon`] tasks never are.
    pub fn is_daemon(&self) -> bool {
        use Component::*;
        matches!(
            self,
            Heartbeat { .. }
                | HttpListener { .. }
                | HttpConn { .. }
                | RdmaResponder { .. }
                | RdmaReceiver { .. }
                | PrefetchDaemon { .. }
                | QpEngine
                | RdmaCopier { .. }
                | ShuffleSpill { .. }
        )
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Component::*;
        match self {
            Map { job, map } => write!(f, "j{job}-map-{map}"),
            Reduce { job, reduce } => write!(f, "j{job}-reduce-{reduce}"),
            Heartbeat { tt } => write!(f, "tt{tt}-heartbeat"),
            HttpListener { tt } => write!(f, "tt{tt}-http-listener"),
            HttpConn { tt } => write!(f, "tt{tt}-http-conn"),
            RdmaResponder { tt, thread } => write!(f, "tt{tt}-rdma-responder-{thread}"),
            RdmaReceiver { tt } => write!(f, "tt{tt}-rdma-receiver"),
            PrefetchDaemon { thread } => write!(f, "prefetch-daemon-{thread}"),
            QpEngine => f.write_str("qp-engine"),
            EventFetcher { reduce } => write!(f, "r{reduce}-event-fetcher"),
            VanillaCopier { reduce, thread } => write!(f, "r{reduce}-copier-{thread}"),
            RdmaCopier { reduce } => write!(f, "r{reduce}-rdma-copier"),
            ReduceConsumer { reduce } => write!(f, "r{reduce}-reduce-consumer"),
            ShuffleSpill { reduce } => write!(f, "r{reduce}-shuffle-spill"),
            ChaosCrash { tt } => write!(f, "chaos-crash-tt{tt}"),
            TeragenWriter { writer } => write!(f, "teragen-{writer}"),
            RandomWriter { writer } => write!(f, "randomwriter-{writer}"),
            Tenant { queue } => write!(f, "tenant-{queue}"),
            Anon(n) => write!(f, "task-{n}"),
            Named(name) => f.write_str(name),
        }
    }
}

impl From<&str> for Component {
    fn from(name: &str) -> Self {
        Component::Named(Rc::from(name))
    }
}

impl From<String> for Component {
    fn from(name: String) -> Self {
        Component::Named(Rc::from(name))
    }
}
