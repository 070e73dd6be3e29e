//! # rmr-net — simulated interconnects for the RDMA-MapReduce reproduction
//!
//! Models the four fabrics the paper evaluates and the two software stacks
//! on top of them:
//!
//! * [`fabric`] — interconnect parameter presets: 1GigE, 10GigE (TOE),
//!   IPoIB (QDR), native IB verbs (QDR). Socket fabrics charge host CPU per
//!   byte and per packet; verbs is OS-bypassed.
//! * [`network`] — per-node full-duplex NICs behind a non-blocking switch;
//!   fluid bandwidth sharing reproduces incast/contention.
//! * [`chan`] — connection-oriented message channels ("Java sockets"): the
//!   transport under vanilla Hadoop's HTTP shuffle and HDFS pipelines.
//! * [`verbs`] — the IB verbs programming model: RC queue pairs, work
//!   requests, completion queues, one-sided RDMA READ/WRITE.
//! * [`ucr`] — OSU's Unified Communication Runtime endpoints over verbs;
//!   what the paper's OSU-IB shuffle engine is written against.

pub mod chan;
pub mod fabric;
pub mod network;
pub mod ucr;
pub mod verbs;

pub use chan::{listen, pair, Conn, Listener, ListenerHandle, Wire};
pub use fabric::{FabricKind, FabricParams};
pub use network::{FaultWindow, Network, NodeId};
pub use ucr::{
    ucr_listen, ucr_listen_into, EndPoint, EndpointSet, PrivateEndPoint, UcrConnector, UcrListener,
};
pub use verbs::{connect_qp, Completion, Cq, Op, Qp};
