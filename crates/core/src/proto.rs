//! The shuffle wire protocol shared by all three engines.
//!
//! Requests and responses carry the identification and control parameters
//! the paper lists (§III-B-1): map id, reduce id, packet sizing, and
//! kv-pair counts. Vanilla Hadoop moves these messages over socket
//! connections (HTTP request/response framing folded into the fixed header
//! size); the RDMA engines move them over UCR endpoints.

use crate::record::Segment;
use crate::runtime::JobId;
use rmr_net::Wire;

/// Fixed per-message framing/header bytes (HTTP headers or the RDMA
/// request/response control block).
pub const MSG_HEADER_BYTES: u64 = 64;

/// How much data a shuffle request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketBudget {
    /// Up to this many bytes of kv-pairs (OSU-IB's size-aware packets).
    Bytes(u64),
    /// Exactly this many kv-pairs regardless of size (Hadoop-A).
    Records(u64),
}

/// A shuffle message.
#[derive(Debug, Clone)]
pub enum ShufMsg {
    /// Reducer → TaskTracker: send me data of map `map_idx` for partition
    /// `reduce`.
    Request {
        /// Which job the map output belongs to (the server is shared by
        /// every job on the cluster runtime).
        job: JobId,
        /// Which map output.
        map_idx: usize,
        /// Which reduce partition.
        reduce: usize,
        /// The reducer's attempt number (monotone per partition). A retried
        /// reducer re-fetches every segment from the head, so the server
        /// rewinds its serve cursor when it sees a newer attempt; requests
        /// from an older (dead) attempt are answered empty.
        attempt: u32,
        /// How much.
        budget: PacketBudget,
    },
    /// TaskTracker → reducer: one packet of the requested segment.
    Response {
        /// Which map output.
        map_idx: usize,
        /// Which reduce partition.
        reduce: usize,
        /// The kv-pairs (real or synthetic).
        packet: Segment,
        /// Records still unsent after this packet (0 ⇒ segment complete).
        remaining_records: u64,
        /// Total records of this (map, reduce) segment.
        total_records: u64,
        /// Total bytes of this (map, reduce) segment.
        total_bytes: u64,
        /// True if the packet was served from the PrefetchCache.
        from_cache: bool,
    },
    /// TaskTracker → reducer: this TaskTracker does not hold map `map_idx`'s
    /// output. The request acted on a completion event older than the
    /// server's incarnation (it restarted since, or the map re-executed
    /// elsewhere); the map's next completion event says where it is now.
    Unavailable {
        /// Which map output.
        map_idx: usize,
        /// Which reduce partition.
        reduce: usize,
    },
}

impl Wire for ShufMsg {
    fn wire_size(&self) -> u64 {
        match self {
            ShufMsg::Request { .. } | ShufMsg::Unavailable { .. } => MSG_HEADER_BYTES,
            ShufMsg::Response { packet, .. } => MSG_HEADER_BYTES + packet.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let req = ShufMsg::Request {
            job: JobId(0),
            map_idx: 0,
            reduce: 0,
            attempt: 0,
            budget: PacketBudget::Records(1),
        };
        assert_eq!(req.wire_size(), MSG_HEADER_BYTES);
        let resp = ShufMsg::Response {
            map_idx: 0,
            reduce: 0,
            packet: Segment::synthetic(10, 1_000),
            remaining_records: 0,
            total_records: 10,
            total_bytes: 1_000,
            from_cache: false,
        };
        assert_eq!(resp.wire_size(), MSG_HEADER_BYTES + 1_000);
    }
}
