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
//! The legs of one transfer are a fixed, small set — tx, rx, the two CPUs —
//! so they live inline in the transfer's own future (`Legs`) and are polled
//! in place, in the order they were started. A transfer allocates nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rmr_des::prelude::*;
use rmr_des::resource::fluid::ConsumeFuture;

use crate::fabric::FabricParams;

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
    /// Host CPU; `None` models an infinitely fast host (useful in unit
    /// tests that isolate wire behaviour).
    cpu: Option<Fluid>,
}

/// The concurrent fluid legs of one transfer, in start order: sender tx,
/// receiver rx, send CPU, receive CPU. Resolves when every leg has; a
/// finished leg is dropped and not polled again. Dropping it mid-flight
/// cancels the unfinished legs in the same order. `ConsumeFuture` is
/// `Unpin`, so polling in place needs no `unsafe`.
struct Legs([Option<ConsumeFuture>; 4]);

impl Future for Legs {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut all_done = true;
        for leg in &mut self.0 {
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
    nodes: RefCell<Vec<NodeNet>>,
    /// Cached `net.bytes_transferred` handle; transfers are the hottest
    /// metric site in a shuffle-bound run.
    c_transferred: rmr_des::Counter,
    /// Per-node impairment windows keyed by node index. Empty on healthy
    /// runs: the only cost then is one host-side `is_empty` check per
    /// transfer, so fault-free runs replay bit-identically by construction.
    faults: RefCell<BTreeMap<u32, Vec<FaultWindow>>>,
}

const _: () = assert!(std::mem::size_of::<Network>() == 8);

impl Network {
    /// Creates an empty network over the given fabric: every host hangs off
    /// one non-blocking switch.
    pub fn new(sim: &Sim, fabric: FabricParams) -> Self {
        Network {
            inner: Rc::new(Shared {
                sim: sim.clone(),
                fabric,
                nodes: RefCell::default(),
                c_transferred: sim.metrics().counter("net.bytes_transferred"),
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
            sim, fabric, nodes, ..
        } = &*self.inner;
        let mut nodes = nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        nodes.push(NodeNet {
            tx: Fluid::new(sim, fabric.link_bw),
            rx: Fluid::new(sim, fabric.link_bw),
            cpu,
        });
        id
    }

    /// The fabric this network runs on.
    pub fn fabric(&self) -> &FabricParams {
        &self.inner.fabric
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

    /// Starts every leg of one message, in [`Legs`] order.
    fn start_legs(&self, src: NodeId, dst: NodeId, bytes: u64, wire_scale: f64) -> Legs {
        let Shared { fabric, nodes, .. } = &*self.inner;
        let nodes = nodes.borrow();
        let s = &nodes[src.0 as usize];
        let d = &nodes[dst.0 as usize];
        // Degraded links stretch the wire legs only; `wire_scale` is exactly
        // 1.0 on healthy paths, leaving the consumed amount bit-identical.
        let wire = bytes as f64 * wire_scale;
        let mut legs: [Option<ConsumeFuture>; 4] = Default::default();
        if src != dst {
            legs[0] = Some(s.tx.consume(wire));
            legs[1] = Some(d.rx.consume(wire));
        }
        let send_cpu = fabric.send_cpu(bytes);
        let recv_cpu = fabric.recv_cpu(bytes);
        if let Some(cpu) = &s.cpu {
            if send_cpu > 0.0 {
                legs[2] = Some(cpu.consume(send_cpu));
            }
        }
        if src != dst {
            if let Some(cpu) = &d.cpu {
                if recv_cpu > 0.0 {
                    legs[3] = Some(cpu.consume(recv_cpu));
                }
            }
        }
        Legs(legs)
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
        let sim2 = sim.clone();
        let net2 = net.clone();
        let done = sim.block_on(sim.spawn(async move {
            net2.transfer(a, b, 200).await;
            sim2.now()
        }));
        assert_eq!(done, secs(2.0));
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
        let sim2 = sim.clone();
        let net2 = net.clone();
        let done = sim.block_on(sim.spawn(async move {
            net2.transfer(a, b, 1000).await; // 1000 B * 1 ms/B = 1 s of CPU
            sim2.now()
        }));
        assert_eq!(done, secs(1.0));
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
        sim.block_on(sim.spawn(async move { net2.transfer(a, b, 5000).await }));
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
        let done = sim.block_on(sim.spawn(async move {
            net2.transfer(a, a, 1_000_000).await; // only send-side CPU: 1 s
            sim2.now()
        }));
        assert_eq!(done, secs(1.0));
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
        let got = sim.block_on(sim.spawn(async move {
            for _ in 0..3 {
                net2.transfer(a, b, 10).await;
            }
            sim2.now().as_nanos()
        }));
        // Each fluid leg rounds up to a whole nanosecond, so allow that.
        assert!((3 * 7_000..3 * 7_000 + 10).contains(&got), "got {got}");
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
        let sim2 = sim.clone();
        let net2 = net.clone();
        let done = sim.block_on(sim.spawn(async move {
            net2.transfer(a, b, 100).await;
            sim2.now()
        }));
        assert_eq!(done, secs(2.0));
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
        let sim2 = sim.clone();
        let net2 = net.clone();
        let done = sim.block_on(sim.spawn(async move {
            net2.transfer(a, b, 100).await; // waits to 3 s, then 1 s wire
            sim2.now()
        }));
        assert_eq!(done, secs(4.0));
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
        let sim2 = sim.clone();
        let net2 = net.clone();
        let done = sim.block_on(sim.spawn(async move {
            sim2.sleep(rmr_des::SimDuration::from_secs(5)).await;
            net2.transfer(a, b, 100).await;
            sim2.now()
        }));
        assert_eq!(done, secs(6.0));
    }

    /// Two hosts on a flat verbs fabric at 100 B/s, no latency, no CPU.
    fn wire_net(sim: &Sim) -> (Network, NodeId, NodeId) {
        let mut f = FabricParams::ib_verbs_qdr();
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
    fn flat_transfer_is_two_wire_legs() {
        let sim = Sim::new(1);
        let (net, a, b) = wire_net(&sim);
        let t = finish_times(&sim, &net, a, b, &[200]);
        sim.run_until(secs(0.5));
        assert_eq!(active_legs(&net), 2, "sender tx and receiver rx only");
        sim.run();
        assert_eq!(*t.borrow(), vec![secs(2.0)]);
    }

    /// Two hosts of a socket fabric, each with a CPU: a transfer between
    /// them has every kind of leg (wire pair, both CPUs).
    fn every_leg_net(sim: &Sim) -> (Network, NodeId, NodeId) {
        let mut f = FabricParams::ipoib_qdr();
        f.link_bw = 97.0;
        f.latency = rmr_des::SimDuration::from_micros(7);
        f.cpu_send_per_byte = 1e-3;
        f.cpu_recv_per_byte = 2e-3;
        let net = Network::new(sim, f);
        let a = net.add_node(Some(Fluid::with_entry_cap(sim, 2.0, 1.0)));
        let b = net.add_node(Some(Fluid::with_entry_cap(sim, 2.0, 1.0)));
        (net, a, b)
    }

    /// In-flight consumers summed over every fluid of the network.
    fn active_legs(net: &Network) -> usize {
        let node =
            |n: &NodeNet| n.tx.active() + n.rx.active() + n.cpu.as_ref().map_or(0, Fluid::active);
        net.inner.nodes.borrow().iter().map(node).sum()
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
        // The send CPU leg (1 s) is done; tx, rx and the receive CPU are
        // mid-flight.
        sim.run_until(secs(1.5));
        assert_eq!(active_legs(&net), 3);
        group.abort();
        assert_eq!(active_legs(&net), 0);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn every_leg_transfer_finishes_when_it_did_before_legs() {
        // Two messages with every kind of leg: the finish times the version
        // with rack legs gave on the same flat network.
        let sim = Sim::new(1);
        let (net, a, b) = every_leg_net(&sim);
        let done = finish_times(&sim, &net, a, b, &[1_001, 703]);
        sim.run();
        let nanos: Vec<u64> = done.borrow().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(nanos, vec![14_494_852_361u64, 17_567_017_310]);
    }

    #[test]
    fn transfer_future_holds_four_legs() {
        // 296 B while `Legs` also held the two rack legs, 40 B each.
        let sim = Sim::new(1);
        let (net, a, b) = wire_net(&sim);
        let size = std::mem::size_of_val(&net.transfer(a, b, 1));
        assert!(size <= 216, "a transfer future is {size} B");
    }
}
