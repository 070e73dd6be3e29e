//! Connection-oriented message channels over the simulated network.
//!
//! This is the "Java sockets" layer of the reproduction: vanilla Hadoop's
//! HTTP servlet/copier traffic and HDFS data pipelines run over these
//! channels. A [`Conn`] is one end of an established duplex connection;
//! `send` charges the full socket timing model (CPU on both hosts, NIC
//! ports, wire latency) before the message appears at the peer's `recv`.
//!
//! Servers create a [`Listener`]; clients reach it through its cloneable
//! [`ListenerHandle`] — the moral equivalent of an `IP:port`.

use rmr_des::sync::{channel, Receiver, Sender};

use crate::network::{Network, NodeId};

/// Anything that can be sent over a simulated connection: it just needs to
/// know its wire size (headers included).
pub trait Wire: 'static {
    /// Total bytes this message occupies on the wire.
    fn wire_size(&self) -> u64;
}

/// Blanket impl for sized byte counts used in tests/benches.
impl Wire for u64 {
    fn wire_size(&self) -> u64 {
        *self
    }
}

/// One end of an established duplex connection carrying messages of type `M`.
pub struct Conn<M: Wire> {
    net: Network,
    local: NodeId,
    peer: NodeId,
    out: Sender<M>,
    inbox: Receiver<M>,
}

impl<M: Wire> Conn<M> {
    /// The node this end lives on.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// The node the other end lives on.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Transmits `m`, resolving when the last byte has landed at the peer.
    /// Returns `Err(m)` if the peer end was dropped.
    pub async fn send(&self, m: M) -> Result<(), M> {
        self.net
            .transfer(self.local, self.peer, m.wire_size())
            .await;
        self.out.send_now(m).map_err(|e| e.0)
    }

    /// Receives the next message; `None` once the peer end is dropped and
    /// the buffer drained.
    pub async fn recv(&self) -> Option<M> {
        self.inbox.recv().await
    }

    /// Messages already delivered and waiting locally.
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }
}

/// Creates an already-established connection pair between two nodes
/// (no handshake cost; use [`ListenerHandle::connect`] for the full path).
pub fn pair<M: Wire>(net: &Network, a: NodeId, b: NodeId) -> (Conn<M>, Conn<M>) {
    let (tx_ab, rx_ab) = channel::<M>();
    let (tx_ba, rx_ba) = channel::<M>();
    (
        Conn {
            net: net.clone(),
            local: a,
            peer: b,
            out: tx_ab,
            inbox: rx_ba,
        },
        Conn {
            net: net.clone(),
            local: b,
            peer: a,
            out: tx_ba,
            inbox: rx_ab,
        },
    )
}

/// A passive listening socket on one node.
pub struct Listener<M: Wire> {
    net: Network,
    node: NodeId,
    incoming: Receiver<Conn<M>>,
    handle_tx: Sender<Conn<M>>,
}

/// Cloneable address of a [`Listener`]; clients `connect` through it.
pub struct ListenerHandle<M: Wire> {
    net: Network,
    node: NodeId,
    tx: Sender<Conn<M>>,
}

/// Opens a listener on `node`.
pub fn listen<M: Wire>(net: &Network, node: NodeId) -> Listener<M> {
    let (tx, rx) = channel::<Conn<M>>();
    Listener {
        net: net.clone(),
        node,
        incoming: rx,
        handle_tx: tx,
    }
}

impl<M: Wire> Listener<M> {
    /// The address clients dial.
    pub fn handle(&self) -> ListenerHandle<M> {
        ListenerHandle {
            net: self.net.clone(),
            node: self.node,
            tx: self.handle_tx.clone(),
        }
    }

    /// Waits for the next inbound connection. `None` if every handle was
    /// dropped.
    pub async fn accept(&self) -> Option<Conn<M>> {
        self.incoming.recv().await
    }

    /// The node this listener runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

// Manual impl: `M` itself need not be `Clone` for the handle to be.
impl<M: Wire> Clone for ListenerHandle<M> {
    fn clone(&self) -> Self {
        ListenerHandle {
            net: self.net.clone(),
            node: self.node,
            tx: self.tx.clone(),
        }
    }
}

impl<M: Wire> ListenerHandle<M> {
    /// Establishes a connection from `from`, paying the fabric's handshake
    /// cost. Returns the client end.
    pub async fn connect(&self, from: NodeId) -> Conn<M> {
        self.try_connect(from)
            .await
            .expect("listener dropped while connecting")
    }

    /// [`ListenerHandle::connect`], but observing server death instead of
    /// panicking: returns `None` when the listener is gone (the node was
    /// killed). The handshake cost is paid either way — a client discovers
    /// the refusal only after the round trip, like a real RST.
    pub async fn try_connect(&self, from: NodeId) -> Option<Conn<M>> {
        self.net.connect_delay(from, self.node).await;
        let (client, server) = pair::<M>(&self.net, from, self.node);
        if self.tx.send_now(server).is_err() {
            return None;
        }
        Some(client)
    }

    /// The node the listener runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricParams;
    use rmr_des::{Sim, SimDuration};

    fn quiet_fabric(bw: f64) -> FabricParams {
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = bw;
        f.latency = SimDuration::ZERO;
        f.connect_cost = SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        f
    }

    #[test]
    fn request_response_round_trip() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, quiet_fabric(100.0));
        let server_node = net.add_node(None);
        let client_node = net.add_node(None);
        let listener = listen::<u64>(&net, server_node);
        let handle = listener.handle();

        // Server: echo double the request size back.
        sim.spawn(async move {
            while let Some(conn) = listener.accept().await {
                while let Some(req) = conn.recv().await {
                    let _ = conn.send(req * 2).await;
                }
            }
        })
        .detach();

        let sim2 = sim.clone();
        let (got, done_at) = sim.block_on(sim.spawn(async move {
            let conn = handle.connect(client_node).await;
            conn.send(100u64).await.unwrap(); // 1 s at 100 B/s
            let resp = conn.recv().await.unwrap(); // 200 B → 2 s
            (resp, sim2.now())
        }));
        assert_eq!(got, 200);
        assert_eq!(done_at.as_nanos(), 3_000_000_000);
    }

    #[test]
    fn messages_arrive_in_send_order() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, quiet_fabric(1e9));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let (ca, cb) = pair::<u64>(&net, a, b);
        let seen = sim.spawn(async move {
            let mut seen = Vec::new();
            while let Some(m) = cb.recv().await {
                seen.push(m);
            }
            seen
        });
        sim.spawn(async move {
            for i in 1..=4u64 {
                ca.send(i * 10).await.unwrap();
            }
            drop(ca);
        })
        .detach();
        assert_eq!(sim.block_on(seen), vec![10, 20, 30, 40]);
    }

    #[test]
    fn send_after_peer_drop_errors() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, quiet_fabric(1e9));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let (ca, cb) = pair::<u64>(&net, a, b);
        drop(cb);
        let failed = sim.block_on(sim.spawn(async move { ca.send(5).await.is_err() }));
        assert!(failed);
    }

    #[test]
    fn connect_pays_handshake() {
        let sim = Sim::new(1);
        let mut f = quiet_fabric(1e9);
        f.latency = SimDuration::from_micros(10);
        f.connect_cost = SimDuration::from_micros(30);
        let net = Network::new(&sim, f);
        let s = net.add_node(None);
        let c = net.add_node(None);
        let listener = listen::<u64>(&net, s);
        let handle = listener.handle();
        let sim2 = sim.clone();
        let t = sim.block_on(sim.spawn(async move {
            let _conn = handle.connect(c).await;
            sim2.now().as_nanos()
        }));
        assert_eq!(t, 2 * 10_000 + 30_000); // RTT + setup
    }
}
