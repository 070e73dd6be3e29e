//! Interconnect models.
//!
//! A [`FabricParams`] captures what distinguishes the four interconnects the
//! paper evaluates (§II-B, §IV-A): raw link bandwidth, one-way latency,
//! segmentation size, and — crucially — how much *host CPU* the protocol
//! stack burns per byte and per packet. The socket paths (1GigE, 10GigE,
//! IPoIB) copy data through the kernel and pay per-packet interrupt/stack
//! costs; the verbs path is OS-bypassed and zero-copy, so its host CPU cost
//! is near zero and the HCA does the work. This difference, not raw bandwidth,
//! is why IPoIB (same 32 Gbps QDR link as verbs) loses to the RDMA designs.

use rmr_des::SimDuration;

/// Which software path a fabric uses; affects how transfers charge CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Kernel sockets over Ethernet or IPoIB: per-byte copies + per-packet
    /// stack costs on both hosts.
    Socket,
    /// Native IB verbs: OS bypass, zero copy; the host only posts work
    /// requests.
    Verbs,
}

/// Timing/cost parameters of one interconnect.
#[derive(Debug, Clone)]
pub struct FabricParams {
    /// Human-readable name used in reports ("IPoIB (32Gbps)" etc.).
    pub name: &'static str,
    /// Software path.
    pub kind: FabricKind,
    /// Per-direction link bandwidth in bytes/second (what one NIC port can
    /// move after protocol efficiency).
    pub link_bw: f64,
    /// One-way wire + switch latency for a message.
    pub latency: SimDuration,
    /// Segmentation unit (Ethernet MTU / IPoIB datagram / IB MTU); drives
    /// per-packet CPU charges.
    pub mtu: u64,
    /// Host CPU seconds consumed per byte on the send side (copies,
    /// checksums). Zero for verbs.
    pub cpu_send_per_byte: f64,
    /// Host CPU seconds consumed per byte on the receive side.
    pub cpu_recv_per_byte: f64,
    /// Host CPU seconds per packet (interrupts, protocol headers) on each
    /// side.
    pub cpu_per_packet: f64,
    /// Fixed host CPU seconds per message/work-request posting on each side.
    pub cpu_per_message: f64,
    /// Extra one-time cost of establishing a connection (TCP handshake /
    /// QP transition to RTS).
    pub connect_cost: SimDuration,
}

impl FabricParams {
    /// 1 Gigabit Ethernet: the stock data-center baseline (Fig 4(b), 5, 6).
    ///
    /// ~117 MB/s effective goodput, 50 µs one-way latency, and the full
    /// kernel socket path cost.
    pub fn gige_1() -> Self {
        FabricParams {
            name: "1GigE",
            kind: FabricKind::Socket,
            link_bw: 117.0e6,
            latency: SimDuration::from_micros(55),
            mtu: 1500,
            cpu_send_per_byte: 2.5e-9,
            cpu_recv_per_byte: 3.2e-9,
            cpu_per_packet: 1.6e-6,
            cpu_per_message: 4.0e-6,
            connect_cost: SimDuration::from_micros(250),
        }
    }

    /// 10 Gigabit Ethernet with TCP Offload Engine (the Chelsio T320 cards in
    /// the paper's testbed): high bandwidth, offload trims but does not
    /// remove the socket path cost.
    pub fn gige_10_toe() -> Self {
        FabricParams {
            name: "10GigE",
            kind: FabricKind::Socket,
            link_bw: 1.1e9,
            latency: SimDuration::from_micros(25),
            mtu: 9000,
            cpu_send_per_byte: 1.5e-9,
            cpu_recv_per_byte: 1.9e-9,
            cpu_per_packet: 1.0e-6,
            cpu_per_message: 3.5e-6,
            connect_cost: SimDuration::from_micros(200),
        }
    }

    /// IP-over-InfiniBand on the QDR (32 Gbps) fabric: the IB link presented
    /// as an IP NIC. Bandwidth well below the wire rate (kernel IP path) and
    /// full socket CPU costs — the paper's main socket comparison point.
    pub fn ipoib_qdr() -> Self {
        FabricParams {
            name: "IPoIB (32Gbps)",
            kind: FabricKind::Socket,
            link_bw: 1.25e9,
            latency: SimDuration::from_micros(18),
            mtu: 2044,
            cpu_send_per_byte: 1.2e-9,
            cpu_recv_per_byte: 1.5e-9,
            cpu_per_packet: 0.9e-6,
            cpu_per_message: 3.5e-6,
            connect_cost: SimDuration::from_micros(150),
        }
    }

    /// Native InfiniBand verbs on QDR (32 Gbps): OS-bypass RDMA. ~3.2 GB/s
    /// payload bandwidth, single-digit-µs latency, host CPU only posts WRs.
    pub fn ib_verbs_qdr() -> Self {
        FabricParams {
            name: "IB-verbs (32Gbps)",
            kind: FabricKind::Verbs,
            link_bw: 3.2e9,
            latency: SimDuration::from_micros(2),
            mtu: 2048,
            cpu_send_per_byte: 0.0,
            cpu_recv_per_byte: 0.0,
            cpu_per_packet: 0.0,
            cpu_per_message: 1.0e-6,
            connect_cost: SimDuration::from_micros(500),
        }
    }

    /// True when the fabric bypasses the kernel (RDMA capable).
    pub fn is_rdma(&self) -> bool {
        self.kind == FabricKind::Verbs
    }

    /// Number of wire packets a `bytes`-sized message segments into.
    pub fn packets(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.mtu)
        }
    }

    /// Host CPU seconds the *sender* burns for a `bytes`-sized message.
    pub fn send_cpu(&self, bytes: u64) -> f64 {
        self.cpu_per_message
            + self.cpu_send_per_byte * bytes as f64
            + self.cpu_per_packet * self.packets(bytes) as f64
    }

    /// Host CPU seconds the *receiver* burns for a `bytes`-sized message.
    pub fn recv_cpu(&self, bytes: u64) -> f64 {
        self.cpu_per_message
            + self.cpu_recv_per_byte * bytes as f64
            + self.cpu_per_packet * self.packets(bytes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let g1 = FabricParams::gige_1();
        let g10 = FabricParams::gige_10_toe();
        let ipoib = FabricParams::ipoib_qdr();
        let verbs = FabricParams::ib_verbs_qdr();
        assert!(g1.link_bw < g10.link_bw);
        assert!(g10.link_bw <= ipoib.link_bw);
        assert!(ipoib.link_bw < verbs.link_bw);
        assert!(verbs.latency < ipoib.latency);
        assert!(verbs.is_rdma());
        assert!(!ipoib.is_rdma());
    }

    #[test]
    fn verbs_burns_no_per_byte_cpu() {
        let verbs = FabricParams::ib_verbs_qdr();
        let one_mb = verbs.send_cpu(1 << 20);
        // Only the per-message posting cost, independent of size.
        assert!((one_mb - verbs.cpu_per_message).abs() < 1e-12);
    }

    #[test]
    fn socket_cpu_scales_with_bytes_and_packets() {
        let ipoib = FabricParams::ipoib_qdr();
        let small = ipoib.send_cpu(1_000);
        let big = ipoib.send_cpu(1_000_000);
        assert!(big > 100.0 * small);
    }

    #[test]
    fn packet_count_rounds_up() {
        let g1 = FabricParams::gige_1();
        assert_eq!(g1.packets(0), 1);
        assert_eq!(g1.packets(1), 1);
        assert_eq!(g1.packets(1500), 1);
        assert_eq!(g1.packets(1501), 2);
    }
}
