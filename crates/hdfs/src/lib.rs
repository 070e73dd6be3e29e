//! # rmr-hdfs — a miniature HDFS substrate
//!
//! The Hadoop Distributed File System as the MapReduce layer needs it:
//! a NameNode ([`namenode`]) managing the namespace and block placement,
//! DataNodes storing block replicas on their local disks, pipelined
//! replicated writes, and locality-aware reads ([`cluster`]).
//!
//! Input data (TeraGen / RandomWriter), job output, and nothing else flow
//! through HDFS — intermediate map outputs stay on TaskTracker-local disks,
//! exactly as in Hadoop 0.20.x.

pub mod cluster;
pub mod namenode;
pub mod types;

pub use cluster::{BlockRead, DataNode, HdfsCluster, HdfsReader, HdfsWriter};
pub use namenode::{BlockMeta, NameNode};
pub use types::{Blob, BlockData, BlockId, HdfsConfig, HdfsError, HeldPiece};
