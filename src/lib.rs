//! # rdma-mapred — RDMA-based Hadoop MapReduce over InfiniBand, reproduced
//!
//! A simulation-backed, full-system reproduction of *"High-Performance
//! RDMA-based Design of Hadoop MapReduce over InfiniBand"* (Rahman et al.,
//! IPDPS Workshops 2013): the OSU-IB shuffle engine — RDMA data shuffle over
//! UCR endpoints, TaskTracker-side intermediate-data pre-fetching and
//! caching, and full shuffle/merge/reduce overlap — together with the two
//! systems it is evaluated against (stock Hadoop 0.20 over sockets, and
//! Hadoop-A's network-levitated merge), all running on simulated substrates
//! faithful enough to reproduce the paper's evaluation shapes.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`rmr_des`] | deterministic discrete-event kernel: virtual clock, async executor, fluid resources |
//! | [`rmr_net`] | interconnects: 1GigE / 10GigE / IPoIB socket paths, IB verbs, UCR endpoints |
//! | [`rmr_store`] | HDD/SSD models, JBOD local filesystem, OS page cache |
//! | [`rmr_hdfs`] | mini-HDFS: NameNode, DataNodes, pipelined replication, locality reads |
//! | [`rmr_core`] | the MapReduce engine and the three shuffle designs (the paper's contribution) |
//! | [`rmr_workloads`] | TeraGen/TeraSort/TeraValidate, RandomWriter/Sort, WordCount |
//! | [`rmr_cluster`] | the paper's testbed presets and the scenario driver every run goes through |
//!
//! ## Quickstart
//!
//! ```
//! use rdma_mapred::prelude::*;
//!
//! let sim = Sim::new(42);
//! let cluster = Cluster::build(
//!     &sim,
//!     FabricParams::ib_verbs_qdr(),
//!     &vec![NodeSpec::westmere_compute(); 3],
//!     HdfsConfig { block_size: 4 << 20, replication: 1, packet_size: 1 << 20 },
//! );
//! let c = cluster.clone();
//! // The driver's output comes back from `block_on`, which runs the
//! // simulation to quiescence (or names the stuck tasks if it hangs).
//! let res = sim.block_on(sim.spawn(async move {
//!     // Generate real records, sort them with the paper's RDMA engine,
//!     // and validate global order.
//!     let records = teragen(&c, "/in", 4 << 20, true).await;
//!     let mut conf = JobConf::osu_ib();
//!     conf.num_reduces = 3;
//!     let res = run_job(&c, conf, terasort_spec("/in", "/out")).await;
//!     teravalidate(&c, "/out", 3, records).await.expect("sorted");
//!     res
//! }));
//! assert!(res.duration_s > 0.0);
//! ```

pub use rmr_cluster as cluster;
pub use rmr_core as core;
pub use rmr_des as des;
pub use rmr_hdfs as hdfs;
pub use rmr_net as net;
pub use rmr_store as store;
pub use rmr_workloads as workloads;

/// Everything needed to build and run jobs.
pub mod prelude {
    pub use rmr_cluster::{run_experiment, Bench, Experiment, RunRecord, System, Testbed};
    pub use rmr_core::cluster::{Cluster, NodeSpec};
    pub use rmr_core::{
        run_job, run_job_with_faults, FaultEvent, FaultPlan, JobConf, JobResult, JobSpec, Record,
        ShuffleKind,
    };
    pub use rmr_des::prelude::*;
    pub use rmr_hdfs::{Blob, HdfsConfig};
    pub use rmr_net::FabricParams;
    pub use rmr_store::DiskParams;
    pub use rmr_workloads::{
        randomwriter, sort_spec, teragen, terasort_spec, teravalidate, validate_sort,
    };
}
