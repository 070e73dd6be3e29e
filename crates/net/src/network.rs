//! The cluster network: per-node NICs joined by a non-blocking switch.
//!
//! Every node owns a full-duplex NIC modelled as two [`Fluid`] resources
//! (tx and rx) at the fabric's link rate. The switch is non-blocking (the
//! paper's Mellanox QDR switch and the small Ethernet fabrics are nowhere
//! near saturation for these node counts), so a transfer contends only at
//! the sender's tx port, the receiver's rx port, and — on socket fabrics —
//! both hosts' CPUs.
//!
//! A message transfer completes when all four legs complete, plus one wire
//! latency. This fluid approximation captures the contention that drives
//! the paper's results (many reducers pulling from one TaskTracker, shuffle
//! competing with HDFS replication traffic) without per-packet events.
//!
//! The legs of one transfer are a fixed, small set — tx, rx, the two rack
//! legs, the two CPUs — so they live inline in the transfer's own future
//! (`Legs`) and are polled in place, in the order they were started; only
//! a multi-rail fabric's extra rails spill to a `Vec`. A transfer on a
//! single-rail fabric allocates nothing.
//!
//! With a hierarchical [`Topology`], cross-rack transfers additionally
//! contend on the source rack's core uplink and the destination rack's
//! downlink — two more fluid legs, sized at
//! `rack_size * link_bw / oversubscription`. A fully-provisioned core
//! (oversubscription 1.0) adds no legs at all and replays bit-identically
//! against the flat network (see [`Topology::constrains`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rmr_des::prelude::*;
use rmr_des::resource::fluid::ConsumeFuture;

use crate::fabric::FabricParams;
use crate::topology::Topology;

/// Identifies a simulated host. Dense indices, assigned by
/// [`Network::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

struct NodeNet {
    tx: Fluid,
    rx: Fluid,
    /// Extra (tx, rx) fluid pairs for rails 1..k on multi-rail fabrics;
    /// empty whenever `fabric.rails <= 1`, so single-rail runs never even
    /// allocate them. Rail 0 is the plain `tx`/`rx` pair above.
    rails: Vec<(Fluid, Fluid)>,
    /// Host CPU; `None` models an infinitely fast host (useful in unit
    /// tests that isolate wire behaviour).
    cpu: Option<Fluid>,
}

/// One rack's core connection (only materialised when the topology
/// constrains, i.e. oversubscription > 1.0).
struct RackNet {
    up: Fluid,
    down: Fluid,
}

/// The concurrent fluid legs of one transfer, in start order: the wire pair,
/// a multi-rail fabric's extra rails, then rack uplink/downlink and the two
/// host CPUs. Resolves when every leg has; a finished leg is dropped and not
/// polled again. Dropping it mid-flight cancels the unfinished legs in the
/// same order. `ConsumeFuture` is `Unpin`, so polling in place needs no
/// `unsafe`.
#[derive(Default)]
struct Legs {
    wire: [Option<ConsumeFuture>; 2],
    /// Rails 1..k, senders' tx then receivers' rx; never allocated on a
    /// single-rail fabric.
    rails: Vec<Option<ConsumeFuture>>,
    /// Rack up, rack down, send CPU, receive CPU.
    rest: [Option<ConsumeFuture>; 4],
}

impl Future for Legs {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let Legs { wire, rails, rest } = &mut *self;
        let mut all_done = true;
        for leg in wire.iter_mut().chain(rails).chain(rest) {
            if let Some(fut) = leg {
                match Pin::new(fut).poll(cx) {
                    Poll::Ready(()) => *leg = None,
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// A scheduled impairment window on one node's links, injected by a fault
/// plan. `factor` is the fraction of nominal bandwidth available during the
/// window; `0.0` is a full partition — transfers and connects touching the
/// node wait out the window instead of moving bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub start: rmr_des::SimTime,
    /// Window end (exclusive).
    pub end: rmr_des::SimTime,
    /// Available bandwidth fraction in `(0, 1]`, or `0.0` for a partition.
    pub factor: f64,
}

/// The shared network of one simulated cluster: a handle, so a clone is one
/// reference-count bump. Every queue pair and every HDFS packet replica
/// holds one.
#[derive(Clone)]
pub struct Network {
    inner: Rc<Shared>,
}

struct Shared {
    sim: Sim,
    fabric: FabricParams,
    topology: Topology,
    nodes: RefCell<Vec<NodeNet>>,
    /// Per-rack uplink/downlink fluids, indexed by rack; grown lazily as
    /// nodes are added. Empty on flat or fully-provisioned topologies.
    racks: RefCell<Vec<RackNet>>,
    /// Cached `net.bytes_transferred` handle; transfers are the hottest
    /// metric site in a shuffle-bound run.
    c_transferred: rmr_des::Counter,
    /// Cached `net.cross_rack_bytes` handle (0 on flat topologies).
    c_cross_rack: rmr_des::Counter,
    /// Per-node impairment windows keyed by node index. Empty on healthy
    /// runs: the only cost then is one host-side `is_empty` check per
    /// transfer, so fault-free runs replay bit-identically by construction.
    faults: RefCell<BTreeMap<u32, Vec<FaultWindow>>>,
}

const _: () = assert!(std::mem::size_of::<Network>() == 8);

impl Network {
    /// Creates an empty network over the given fabric with a flat (single
    /// non-blocking switch) topology.
    pub fn new(sim: &Sim, fabric: FabricParams) -> Self {
        Network::with_topology(sim, fabric, Topology::flat())
    }

    /// Creates an empty network over the given fabric and rack topology.
    pub fn with_topology(sim: &Sim, fabric: FabricParams, topology: Topology) -> Self {
        Network {
            inner: Rc::new(Shared {
                sim: sim.clone(),
                fabric,
                topology,
                nodes: RefCell::default(),
                racks: RefCell::default(),
                c_transferred: sim.metrics().counter("net.bytes_transferred"),
                c_cross_rack: sim.metrics().counter("net.cross_rack_bytes"),
                faults: RefCell::default(),
            }),
        }
    }

    /// Schedules a link-degradation window on `node`: transfers touching the
    /// node that start inside `[start, end)` see only `factor` of nominal
    /// bandwidth on their wire legs (protocol CPU cost is unchanged).
    pub fn inject_degradation(
        &self,
        node: NodeId,
        start: rmr_des::SimTime,
        end: rmr_des::SimTime,
        factor: f64,
    ) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1], got {factor}"
        );
        self.inner
            .faults
            .borrow_mut()
            .entry(node.0)
            .or_default()
            .push(FaultWindow { start, end, factor });
    }

    /// Schedules a partition window on `node`: transfers and connection
    /// attempts touching the node inside `[start, end)` stall until the
    /// window closes, then proceed (the fabric heals; nothing is lost).
    pub fn inject_partition(&self, node: NodeId, start: rmr_des::SimTime, end: rmr_des::SimTime) {
        self.inner
            .faults
            .borrow_mut()
            .entry(node.0)
            .or_default()
            .push(FaultWindow {
                start,
                end,
                factor: 0.0,
            });
    }

    /// End of the latest partition window covering `node` at `now`, if any.
    fn partition_end(&self, node: NodeId, now: rmr_des::SimTime) -> Option<rmr_des::SimTime> {
        let faults = self.inner.faults.borrow();
        faults.get(&node.0).and_then(|ws| {
            ws.iter()
                .filter(|w| w.factor == 0.0 && w.start <= now && now < w.end)
                .map(|w| w.end)
                .max()
        })
    }

    /// Worst active degradation factor for `node` at `now` (1.0 = healthy).
    fn degradation_factor(&self, node: NodeId, now: rmr_des::SimTime) -> f64 {
        let faults = self.inner.faults.borrow();
        faults
            .get(&node.0)
            .map(|ws| {
                ws.iter()
                    .filter(|w| w.factor > 0.0 && w.start <= now && now < w.end)
                    .map(|w| w.factor)
                    .fold(1.0, f64::min)
            })
            .unwrap_or(1.0)
    }

    /// Sleeps until neither endpoint is inside a partition window. Loops:
    /// the instant one window closes, a later one may already be open.
    async fn wait_out_partitions(&self, src: NodeId, dst: NodeId) {
        loop {
            let now = self.inner.sim.now();
            let until = match (self.partition_end(src, now), self.partition_end(dst, now)) {
                (None, None) => return,
                (a, b) => a.max(b).unwrap(),
            };
            self.inner.sim.sleep_until(until).await;
        }
    }

    /// Adds a host. `cpu` is the host's compute resource; socket fabrics
    /// charge protocol work to it, coupling communication and computation.
    pub fn add_node(&self, cpu: Option<Fluid>) -> NodeId {
        let Shared {
            sim,
            fabric,
            topology,
            nodes,
            racks,
            ..
        } = &*self.inner;
        let mut nodes = nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        let rails = (1..fabric.rails)
            .map(|_| {
                (
                    Fluid::new(sim, fabric.link_bw),
                    Fluid::new(sim, fabric.link_bw),
                )
            })
            .collect();
        nodes.push(NodeNet {
            tx: Fluid::new(sim, fabric.link_bw),
            rx: Fluid::new(sim, fabric.link_bw),
            rails,
            cpu,
        });
        if topology.constrains() {
            let rack = topology.rack_of(id);
            let mut racks = racks.borrow_mut();
            while racks.len() <= rack {
                let bw = topology.core_bw(fabric.link_bw);
                racks.push(RackNet {
                    up: Fluid::new(sim, bw),
                    down: Fluid::new(sim, bw),
                });
            }
        }
        id
    }

    /// The fabric this network runs on.
    pub fn fabric(&self) -> &FabricParams {
        &self.inner.fabric
    }

    /// The rack topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// Bytes that crossed rack boundaries so far (0 on flat topologies).
    pub fn cross_rack_bytes(&self) -> f64 {
        self.inner.c_cross_rack.get()
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// True when no hosts were added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts every leg of one message, in [`Legs`] order. The wire bytes
    /// split evenly over the fabric's rails (real multi-rail stacks stripe
    /// below the QP and socket abstractions); a single-rail fabric has the
    /// wire pair only.
    fn start_legs(&self, src: NodeId, dst: NodeId, bytes: u64, wire_scale: f64) -> Legs {
        let Shared {
            fabric,
            topology,
            nodes,
            racks,
            ..
        } = &*self.inner;
        let nodes = nodes.borrow();
        let s = &nodes[src.0 as usize];
        let d = &nodes[dst.0 as usize];
        // Degraded links stretch the wire legs only; `wire_scale` is exactly
        // 1.0 on healthy paths, leaving the consumed amount bit-identical.
        let wire = bytes as f64 * wire_scale;
        let mut legs = Legs::default();
        if src != dst {
            // Even fluid split: each rail moves 1/k of the wire bytes. Rail 0
            // is the node's plain tx/rx pair.
            let share = wire / (s.rails.len() + 1) as f64;
            legs.wire = [Some(s.tx.consume(share)), Some(d.rx.consume(share))];
            legs.rails.reserve_exact(s.rails.len() + d.rails.len());
            for (stx, _) in &s.rails {
                legs.rails.push(Some(stx.consume(share)));
            }
            for (_, drx) in &d.rails {
                legs.rails.push(Some(drx.consume(share)));
            }
            // Cross-rack messages also queue on the source rack's core
            // uplink and the destination rack's downlink — but only when
            // the core can actually bind (oversubscription > 1.0); a
            // fully-provisioned core is mathematically never the
            // bottleneck, and omitting its legs keeps flat replay exact.
            // The core carries the whole message however many rails fed it.
            if topology.constrains() && topology.cross_rack(src, dst) {
                let racks = racks.borrow();
                legs.rest[0] = Some(racks[topology.rack_of(src)].up.consume(wire));
                legs.rest[1] = Some(racks[topology.rack_of(dst)].down.consume(wire));
            }
        }
        // Protocol CPU is charged once for the whole message: striping
        // splits the wire, not the work-request posting.
        let send_cpu = fabric.send_cpu(bytes);
        let recv_cpu = fabric.recv_cpu(bytes);
        if let Some(cpu) = &s.cpu {
            if send_cpu > 0.0 {
                legs.rest[2] = Some(cpu.consume(send_cpu));
            }
        }
        if src != dst {
            if let Some(cpu) = &d.cpu {
                if recv_cpu > 0.0 {
                    legs.rest[3] = Some(cpu.consume(recv_cpu));
                }
            }
        }
        legs
    }

    /// Moves one `bytes`-sized message from `src` to `dst`, resolving when
    /// the last byte lands. Loopback (src == dst) skips the wire but still
    /// pays the protocol CPU cost on socket fabrics (local HTTP fetches in
    /// vanilla Hadoop are real socket traffic through loopback).
    pub async fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        let mut wire_scale = 1.0;
        if !self.inner.faults.borrow().is_empty() {
            if src != dst {
                self.wait_out_partitions(src, dst).await;
            }
            let now = self.inner.sim.now();
            wire_scale =
                1.0 / (self.degradation_factor(src, now) * self.degradation_factor(dst, now));
        }
        self.start_legs(src, dst, bytes, wire_scale).await;
        if src != dst {
            self.inner.sim.sleep(self.inner.fabric.latency).await;
        }
        self.inner.c_transferred.add(bytes as f64);
        if self.inner.topology.cross_rack(src, dst) {
            self.inner.c_cross_rack.add(bytes as f64);
        }
    }

    /// Connection-establishment delay between two hosts (handshake RTT plus
    /// fabric-specific setup).
    pub async fn connect_delay(&self, src: NodeId, dst: NodeId) {
        if src != dst {
            if !self.inner.faults.borrow().is_empty() {
                self.wait_out_partitions(src, dst).await;
            }
            let rtt = self.inner.fabric.latency * 2;
            self.inner.sim.sleep(rtt).await;
        }
        self.inner.sim.sleep(self.inner.fabric.connect_cost).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_des::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    fn secs(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn lone_transfer_runs_at_link_rate() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0; // 100 B/s for easy arithmetic
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let a = net.add_node(None);
        let b = net.add_node(None);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let sim2 = sim.clone();
        let net2 = net.clone();
        sim.spawn(async move {
            net2.transfer(a, b, 200).await;
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(2.0));
    }

    #[test]
    fn incast_shares_receiver_port() {
        // Two senders into one receiver: rx port is the bottleneck, so each
        // 100 B message takes 2 s instead of 1 s.
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let s1 = net.add_node(None);
        let s2 = net.add_node(None);
        let r = net.add_node(None);
        let t = Rc::new(std::cell::RefCell::new(Vec::new()));
        for s in [s1, s2] {
            let net = net.clone();
            let sim2 = sim.clone();
            let t2 = Rc::clone(&t);
            sim.spawn(async move {
                net.transfer(s, r, 100).await;
                t2.borrow_mut().push(sim2.now());
            })
            .detach();
        }
        sim.run();
        for done in t.borrow().iter() {
            assert_eq!(*done, secs(2.0));
        }
    }

    #[test]
    fn socket_fabric_charges_host_cpu() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ipoib_qdr();
        f.link_bw = 1e12; // wire "free" so CPU dominates
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_send_per_byte = 1e-3; // 1 ms per byte: absurd but measurable
        f.cpu_recv_per_byte = 0.0;
        f.cpu_per_packet = 0.0;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let cpu_a = Fluid::with_entry_cap(&sim, 1.0, 1.0);
        let a = net.add_node(Some(cpu_a.clone()));
        let b = net.add_node(None);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let sim2 = sim.clone();
        let net2 = net.clone();
        sim.spawn(async move {
            net2.transfer(a, b, 1000).await; // 1000 B * 1 ms/B = 1 s of CPU
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(1.0));
        assert!((cpu_a.served() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rdma_fabric_leaves_cpu_idle() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 1000.0;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let cpu_a = Fluid::with_entry_cap(&sim, 1.0, 1.0);
        let a = net.add_node(Some(cpu_a.clone()));
        let b = net.add_node(None);
        let net2 = net.clone();
        sim.spawn(async move {
            net2.transfer(a, b, 5000).await;
        })
        .detach();
        sim.run();
        assert_eq!(cpu_a.served(), 0.0);
    }

    #[test]
    fn loopback_skips_wire_but_pays_cpu() {
        let sim = Sim::new(1);
        let mut f = FabricParams::gige_1();
        f.cpu_send_per_byte = 1e-6;
        f.cpu_recv_per_byte = 1e-6;
        f.cpu_per_packet = 0.0;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let cpu = Fluid::with_entry_cap(&sim, 4.0, 1.0);
        let a = net.add_node(Some(cpu.clone()));
        let net2 = net.clone();
        let sim2 = sim.clone();
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            net2.transfer(a, a, 1_000_000).await; // only send-side CPU: 1 s
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(1.0));
    }

    #[test]
    fn latency_adds_once_per_message() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 1e15;
        f.latency = rmr_des::SimDuration::from_micros(7);
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let a = net.add_node(None);
        let b = net.add_node(None);
        let net2 = net.clone();
        let sim2 = sim.clone();
        let done = Rc::new(Cell::new(0u64));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            for _ in 0..3 {
                net2.transfer(a, b, 10).await;
            }
            d.set(sim2.now().as_nanos());
        })
        .detach();
        sim.run();
        // Each fluid leg rounds up to a whole nanosecond, so allow that.
        let got = done.get();
        assert!((3 * 7_000..3 * 7_000 + 10).contains(&got), "got {got}");
    }

    /// Runs one cross-rack transfer per sender on a 2-per-rack topology and
    /// returns (finish time, cross_rack_bytes).
    fn run_cross_rack(oversub: f64) -> (SimTime, f64) {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::with_topology(&sim, f, Topology::racks(2, oversub));
        // Rack 0: two senders. Rack 1: two receivers (distinct rx ports, so
        // only the rack legs can couple the flows).
        let s1 = net.add_node(None);
        let s2 = net.add_node(None);
        let r1 = net.add_node(None);
        let r2 = net.add_node(None);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        for (s, r) in [(s1, r1), (s2, r2)] {
            let net = net.clone();
            let sim2 = sim.clone();
            let d = Rc::clone(&done);
            sim.spawn(async move {
                net.transfer(s, r, 100).await;
                d.set(sim2.now());
            })
            .detach();
        }
        sim.run();
        (done.get(), net.cross_rack_bytes())
    }

    #[test]
    fn oversubscribed_core_throttles_cross_rack_aggregate() {
        // Core uplink = 2 * 100 / 4 = 50 B/s shared by two 100 B flows:
        // aggregate cross-rack throughput is pinned at core capacity, so
        // both finish at t = 200/50 = 4 s instead of 1 s.
        let (t, bytes) = run_cross_rack(4.0);
        assert_eq!(t, secs(4.0));
        assert_eq!(bytes, 200.0);
    }

    #[test]
    fn degradation_window_stretches_wire_legs() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let a = net.add_node(None);
        let b = net.add_node(None);
        // Half bandwidth on the receiver for the first 10 s: the 100 B
        // message takes 2 s instead of 1 s.
        net.inject_degradation(b, SimTime::ZERO, secs(10.0), 0.5);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let sim2 = sim.clone();
        let net2 = net.clone();
        sim.spawn(async move {
            net2.transfer(a, b, 100).await;
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(2.0));
    }

    #[test]
    fn partition_window_stalls_transfers_until_heal() {
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let a = net.add_node(None);
        let b = net.add_node(None);
        net.inject_partition(b, SimTime::ZERO, secs(3.0));
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let sim2 = sim.clone();
        let net2 = net.clone();
        sim.spawn(async move {
            net2.transfer(a, b, 100).await; // waits to 3 s, then 1 s wire
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(4.0));
    }

    #[test]
    fn expired_windows_cost_nothing() {
        // A window entirely in the past must not perturb a later transfer.
        let sim = Sim::new(1);
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(&sim, f);
        let a = net.add_node(None);
        let b = net.add_node(None);
        net.inject_degradation(a, SimTime::ZERO, secs(1.0), 0.1);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let sim2 = sim.clone();
        let net2 = net.clone();
        sim.spawn(async move {
            sim2.sleep(rmr_des::SimDuration::from_secs(5)).await;
            net2.transfer(a, b, 100).await;
            d.set(sim2.now());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), secs(6.0));
    }

    /// Two hosts on a flat `rails`-rail verbs fabric at 100 B/s per rail, no
    /// latency, no CPU.
    fn rail_net(sim: &Sim, rails: usize) -> (Network, NodeId, NodeId) {
        let mut f = FabricParams::ib_verbs_qdr().with_rails(rails);
        f.link_bw = 100.0;
        f.latency = rmr_des::SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        let net = Network::new(sim, f);
        let (a, b) = (net.add_node(None), net.add_node(None));
        (net, a, b)
    }

    /// Starts one `a → b` transfer per size at t = 0; finish times in
    /// completion order.
    fn finish_times(
        sim: &Sim,
        net: &Network,
        a: NodeId,
        b: NodeId,
        sizes: &[u64],
    ) -> Rc<std::cell::RefCell<Vec<SimTime>>> {
        let t = Rc::new(std::cell::RefCell::new(Vec::new()));
        for &bytes in sizes {
            let (net, sim2, t2) = (net.clone(), sim.clone(), Rc::clone(&t));
            sim.spawn(async move {
                net.transfer(a, b, bytes).await;
                t2.borrow_mut().push(sim2.now());
            })
            .detach();
        }
        t
    }

    #[test]
    fn striping_splits_the_wire_across_rails() {
        // 200 B at 100 B/s per rail: one rail takes 2 s, two rails 1 s.
        let sim = Sim::new(1);
        let (net, a, b) = rail_net(&sim, 2);
        let t = finish_times(&sim, &net, a, b, &[200]);
        sim.run();
        assert_eq!(*t.borrow(), vec![secs(1.0)]);
    }

    #[test]
    fn single_rail_transfer_is_two_wire_legs() {
        let sim = Sim::new(1);
        let (net, a, b) = rail_net(&sim, 1);
        let t = finish_times(&sim, &net, a, b, &[200]);
        sim.run_until(secs(0.5));
        assert_eq!(active_legs(&net), 2, "sender tx and receiver rx only");
        sim.run();
        assert_eq!(*t.borrow(), vec![secs(2.0)]);
    }

    #[test]
    fn concurrent_transfers_share_every_rail() {
        // 100 B and 200 B from one sender over two rails: each rail carries
        // 50 + 100. The small message has both rails' halves done at 1 s, the
        // large one then finishes its last 50 B per rail alone at 1.5 s.
        let sim = Sim::new(1);
        let (net, a, b) = rail_net(&sim, 2);
        let t = finish_times(&sim, &net, a, b, &[100, 200]);
        sim.run();
        assert_eq!(*t.borrow(), vec![secs(1.0), secs(1.5)]);
    }

    /// Two hosts in different racks of an oversubscribed, three-rail socket
    /// fabric, each with a CPU: a transfer between them has every kind of
    /// leg (wire pair, rails, rack up/down, both CPUs).
    fn every_leg_net(sim: &Sim) -> (Network, NodeId, NodeId) {
        let mut f = FabricParams::ipoib_qdr().with_rails(3);
        f.link_bw = 97.0;
        f.latency = rmr_des::SimDuration::from_micros(7);
        f.cpu_send_per_byte = 1e-3;
        f.cpu_recv_per_byte = 2e-3;
        let net = Network::with_topology(sim, f, Topology::racks(1, 4.0));
        let a = net.add_node(Some(Fluid::with_entry_cap(sim, 2.0, 1.0)));
        let b = net.add_node(Some(Fluid::with_entry_cap(sim, 2.0, 1.0)));
        (net, a, b)
    }

    /// In-flight consumers summed over every fluid of the network.
    fn active_legs(net: &Network) -> usize {
        let node = |n: &NodeNet| {
            let rails: usize = n.rails.iter().map(|(t, r)| t.active() + r.active()).sum();
            n.tx.active() + n.rx.active() + rails + n.cpu.as_ref().map_or(0, Fluid::active)
        };
        let nodes: usize = net.inner.nodes.borrow().iter().map(node).sum();
        let racks = net.inner.racks.borrow();
        nodes
            + racks
                .iter()
                .map(|r| r.up.active() + r.down.active())
                .sum::<usize>()
    }

    #[test]
    fn aborting_mid_transfer_releases_every_leg() {
        let sim = Sim::new(1);
        let (net, a, b) = every_leg_net(&sim);
        let group = sim.group();
        let net2 = net.clone();
        group
            .spawn_named("sender", async move {
                net2.transfer(a, b, 1_000).await;
                unreachable!("aborted before the last byte lands");
            })
            .detach();
        // The send CPU leg (1 s) is done; three tx, three rx, the two rack
        // legs and the receive CPU are mid-flight.
        sim.run_until(secs(1.5));
        assert_eq!(active_legs(&net), 9);
        group.abort();
        assert_eq!(active_legs(&net), 0);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn three_rail_striped_transfer_finishes_when_it_did_before_legs() {
        // Two messages over three rails and a rack core slower than the
        // rails: the finish times of the version that boxed every leg.
        let sim = Sim::new(1);
        let (net, a, b) = every_leg_net(&sim);
        let done = finish_times(&sim, &net, a, b, &[1_001, 703]);
        sim.run();
        let nanos: Vec<u64> = done.borrow().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(nanos, vec![57_979_388_444u64, 70_268_048_238]);
        assert_eq!(net.cross_rack_bytes(), 1_704.0);
    }

    #[test]
    fn fully_provisioned_racks_match_flat_timing() {
        // At oversub 1.0 no rack legs exist: each flow runs at the link
        // rate exactly as on the flat switch, but cross-rack accounting
        // still sees the traffic.
        let (t, bytes) = run_cross_rack(1.0);
        assert_eq!(t, secs(1.0));
        assert_eq!(bytes, 200.0);
    }
}
