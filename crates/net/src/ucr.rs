//! UCR — the Unified Communication Runtime endpoint library (§II-D).
//!
//! The paper's OSU-IB shuffle is programmed against UCR, OSU's light-weight
//! endpoint abstraction over IB verbs ("an end-point is analogous to a
//! socket connection"). This module reproduces that surface: a server opens
//! a [`UcrListener`] (the `RDMAListener` in the TaskTracker binds one), a
//! client [`UcrConnector`] establishes an [`EndPoint`], and both sides
//! exchange typed messages whose bytes move with verbs `SEND`/`RECV`
//! rendezvous over the RDMA fabric — zero host-CPU per byte.
//!
//! Endpoints pre-post a window of receives (credit-based flow control, as
//! UCR does internally) so senders never stall on RNR in normal operation.
//!
//! An endpoint is a 16-byte `(pair, side)` handle to a queue-pair end and
//! keeps no state of its own: its tag is the end's `qp_num`, its credit
//! counter the end's receive window (a replenish posts the id after the
//! newest), and the lock that orders its blocking sends lives in the end
//! too. Cloning an endpoint is two counter bumps; the connection closes when
//! the last clone drops. So a connection costs one allocation, the queue
//! pair's (see [`crate::verbs`]), however many holders — a set, a reducer's
//! table, a responder's request queue — share its ends: an idle one between
//! two sets is 184 bytes of queue pair plus a 24-byte member entry in each
//! set (`tests/memory/conn.rs` holds it to 232).
//!
//! Either side of a connection chooses how it receives: [`UcrListener::accept`]
//! and [`UcrConnector::connect`] hand out a [`PrivateEndPoint`], an endpoint
//! with a receive queue of its own; an endpoint that joined an
//! [`EndpointSet`] ([`ucr_listen_into`], [`UcrConnector::try_connect_into`])
//! delivers into the set's one queue, where a single task serves every
//! member — the paper's one `RDMAReceiver` per TaskTracker and one
//! `RDMACopier` per ReduceTask (§III-B-1). A blocking send waits on the queue
//! pair's completion counter for its own message, so no endpoint needs a
//! send CQ.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use rmr_des::sync::{channel, Receiver, Sender};

use crate::chan::Wire;
use crate::network::{Network, NodeId};
use crate::verbs::{connect_qp_opt, Completion, Cq, Op, Qp};

/// Receive-window credits each endpoint keeps pre-posted.
const RECV_WINDOW: u64 = 64;

/// One UCR endpoint: a handle to a connected, typed, duplex message pipe over
/// verbs. Clones share the connection; dropping the last one closes it, and
/// the peer learns of it in order, after everything this end had already
/// sent.
pub struct EndPoint<M: Wire> {
    qp: Qp<M>,
}

const _: () = assert!(std::mem::size_of::<EndPoint<u64>>() == 16);

/// Binds `qp`'s receive side to `cq` under `tag` and posts its credit window.
fn open<M: Wire>(qp: Qp<M>, cq: &Cq<M>, tag: u32) -> EndPoint<M> {
    qp.bind_recv_cq(cq, tag);
    for i in 0..RECV_WINDOW {
        qp.post_recv(i);
    }
    EndPoint { qp }
}

impl<M: Wire> EndPoint<M> {
    /// The node this endpoint lives on.
    pub fn local(&self) -> NodeId {
        self.qp.local()
    }

    /// The node the peer endpoint lives on.
    pub fn peer(&self) -> NodeId {
        self.qp.peer()
    }

    /// What tells this endpoint's deliveries apart in its [`EndpointSet`].
    pub fn tag(&self) -> u32 {
        self.qp.qp_num()
    }

    /// Sends `m` and waits for the send completion (the message is on the
    /// wire and landed; with RC semantics that means delivered). Concurrent
    /// callers are serialised per endpoint, first come first served: one
    /// posts only after the one before it has seen its own message land.
    /// The completion counter would keep them apart without that, but when
    /// they post is part of the model — on a loopback connection a transfer
    /// takes no time, and whether four responses go out back to back or one
    /// per completion decides which packet overflows a tight shuffle buffer.
    pub async fn send(&self, m: M) {
        self.qp.send_in_turn(0, m.wire_size(), m).await;
    }

    /// Posts a send without waiting for its completion ("fire and forget").
    /// Used where the paper's responders stream packets back-to-back.
    pub fn send_nowait(&self, m: M) {
        self.qp.post_send(0, m.wire_size(), m);
    }

    /// Re-posts the receive buffer one delivered message used up. The task
    /// serving an [`EndpointSet`] calls this once per message, when it has
    /// consumed it — that is the flow control: a member whose messages sit
    /// unconsumed runs its sender out of credits.
    pub fn replenish(&self) {
        self.qp.post_next_recv();
    }
}

// Manual impl: `M` itself need not be `Clone` for the handle to be.
impl<M: Wire> Clone for EndPoint<M> {
    fn clone(&self) -> Self {
        EndPoint {
            qp: self.qp.clone(),
        }
    }
}

/// An [`EndPoint`] with a receive queue of its own, behind
/// [`PrivateEndPoint::recv`]: what [`UcrListener::accept`] and
/// [`UcrConnector::connect`] hand out.
pub struct PrivateEndPoint<M: Wire> {
    ep: EndPoint<M>,
    rx: Receiver<Completion<M>>,
}

impl<M: Wire> PrivateEndPoint<M> {
    fn new(qp: Qp<M>) -> Self {
        let cq = Cq::new();
        let ep = open(qp, &cq, 0);
        PrivateEndPoint {
            ep,
            rx: cq.into_receiver(),
        }
    }

    /// The node this endpoint lives on.
    pub fn local(&self) -> NodeId {
        self.ep.local()
    }

    /// The node the peer endpoint lives on.
    pub fn peer(&self) -> NodeId {
        self.ep.peer()
    }

    /// [`EndPoint::send`].
    pub async fn send(&self, m: M) {
        self.ep.send(m).await;
    }

    /// [`EndPoint::send_nowait`].
    pub fn send_nowait(&self, m: M) {
        self.ep.send_nowait(m);
    }

    /// Receives the next message, re-posting a receive buffer to keep the
    /// credit window full. `None` once the peer has closed.
    pub async fn recv(&self) -> Option<M> {
        let c = self.rx.recv().await?;
        match c.op {
            Op::Recv => {
                self.ep.replenish();
                c.payload
            }
            _ => None, // flushed: the peer closed
        }
    }
}

/// Many endpoints, one receive queue, one task serving them all: the paper's
/// end-point list (§III-B-1), built on a CQ shared by the members' queue
/// pairs. A member leaves when its peer closes or by [`EndpointSet::remove`];
/// dropping the set closes every member nobody else holds.
pub struct EndpointSet<M: Wire> {
    cq: Cq<M>,
    /// Members in tag order (tags only grow, so adopting one appends), the
    /// tag inline so a delivery finds its member without touching the others.
    members: RefCell<Vec<(u32, EndPoint<M>)>>,
    next_tag: Cell<u32>,
}

impl<M: Wire> EndpointSet<M> {
    /// An empty set.
    pub fn new() -> Rc<Self> {
        Rc::new(EndpointSet {
            cq: Cq::new(),
            members: RefCell::default(),
            next_tag: Cell::new(0),
        })
    }

    /// Makes `qp` a member under the next tag (tags count up from 0 and are
    /// never reused, so a late delivery cannot be taken for a newer
    /// member's).
    fn adopt(&self, qp: Qp<M>) -> EndPoint<M> {
        let tag = self.next_tag.get();
        self.next_tag.set(tag + 1);
        let ep = open(qp, &self.cq, tag);
        self.members.borrow_mut().push((tag, ep.clone()));
        ep
    }

    /// The member under `tag`, if it still is one.
    fn member(&self, tag: u32) -> Option<EndPoint<M>> {
        let members = self.members.borrow();
        let at = members.binary_search_by_key(&tag, |m| m.0).ok()?;
        Some(members[at].1.clone())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.borrow().len()
    }

    /// True without members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the member with this tag, if it still is one; whatever it has
    /// yet to deliver is discarded.
    pub fn remove(&self, tag: u32) {
        let member = {
            let mut members = self.members.borrow_mut();
            let at = members.binary_search_by_key(&tag, |m| m.0);
            at.ok().map(|at| members.remove(at))
        };
        drop(member); // closes the endpoint; not under the borrow
    }

    /// The next message from any member, with the endpoint it came in on.
    /// The caller owes that endpoint a [`EndPoint::replenish`]. A member
    /// whose peer has closed is dropped from the set on the way.
    pub async fn recv(&self) -> (EndPoint<M>, M) {
        loop {
            let c = self.cq.next().await.expect("the set holds its own CQ open");
            match c.op {
                Op::Recv => {
                    if let (Some(ep), Some(m)) = (self.member(c.qp_num), c.payload) {
                        return (ep, m);
                    }
                }
                _ => self.remove(c.qp_num),
            }
        }
    }
}

/// Server side: accepts endpoint connection requests (the paper's
/// `RDMAListener`).
pub struct UcrListener<M: Wire> {
    node: NodeId,
    incoming: Receiver<PrivateEndPoint<M>>,
    tx: Sender<PrivateEndPoint<M>>,
    net: Network,
}

/// Where a connector's server-side endpoints go.
enum Accept<M: Wire> {
    /// To whoever calls [`UcrListener::accept`].
    Listener(Sender<PrivateEndPoint<M>>),
    /// Straight into a set ([`ucr_listen_into`]).
    Set(Weak<EndpointSet<M>>),
}

/// Cloneable connector used by clients to reach a [`UcrListener`] or an
/// [`EndpointSet`] opened with [`ucr_listen_into`].
pub struct UcrConnector<M: Wire> {
    node: NodeId,
    accept: Accept<M>,
    net: Network,
}

/// Opens a UCR listener on `node`.
pub fn ucr_listen<M: Wire>(net: &Network, node: NodeId) -> UcrListener<M> {
    let (tx, rx) = channel();
    UcrListener {
        node,
        incoming: rx,
        tx,
        net: net.clone(),
    }
}

/// Opens `set` for connections on `node`: the server end of every connection
/// made through the returned connector joins the set as it is established.
/// The connector does not keep the set alive; once it is dropped, connecting
/// fails the way it does to a dropped [`UcrListener`].
pub fn ucr_listen_into<M: Wire>(
    net: &Network,
    node: NodeId,
    set: &Rc<EndpointSet<M>>,
) -> UcrConnector<M> {
    UcrConnector {
        node,
        accept: Accept::Set(Rc::downgrade(set)),
        net: net.clone(),
    }
}

impl<M: Wire> UcrListener<M> {
    /// The connector clients use.
    pub fn connector(&self) -> UcrConnector<M> {
        UcrConnector {
            node: self.node,
            accept: Accept::Listener(self.tx.clone()),
            net: self.net.clone(),
        }
    }

    /// Waits for the next established endpoint.
    pub async fn accept(&self) -> Option<PrivateEndPoint<M>> {
        self.incoming.recv().await
    }

    /// The node the listener runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

// Manual impl: `M` itself need not be `Clone` for the connector handle to be.
impl<M: Wire> Clone for UcrConnector<M> {
    fn clone(&self) -> Self {
        UcrConnector {
            node: self.node,
            accept: match &self.accept {
                Accept::Listener(tx) => Accept::Listener(tx.clone()),
                Accept::Set(set) => Accept::Set(Weak::clone(set)),
            },
            net: self.net.clone(),
        }
    }
}

impl<M: Wire> UcrConnector<M> {
    /// Establishes an endpoint pair from `from`; returns the client end.
    /// Pays QP connection cost (heavier than a TCP handshake; paid once per
    /// ReduceTask × TaskTracker pair, exactly as in the paper's design).
    pub async fn connect(&self, from: NodeId) -> PrivateEndPoint<M> {
        self.try_connect(from)
            .await
            .expect("UCR listener dropped while connecting")
    }

    /// [`UcrConnector::connect`], but observing server death instead of
    /// panicking: returns `None` when the listener is gone (the node was
    /// killed). The QP setup cost is still paid — connection management
    /// discovers the dead peer only after the exchange times out.
    pub async fn try_connect(&self, from: NodeId) -> Option<PrivateEndPoint<M>> {
        let qp = self.establish(from).await?;
        Some(PrivateEndPoint::new(qp))
    }

    /// [`UcrConnector::try_connect`] with the client end joining `set`
    /// instead of getting a receive queue of its own.
    pub async fn try_connect_into(
        &self,
        from: NodeId,
        set: &EndpointSet<M>,
    ) -> Option<EndPoint<M>> {
        let qp = self.establish(from).await?;
        Some(set.adopt(qp))
    }

    /// Connects a queue pair, hands its server end over and returns the
    /// client end; `None` if nobody is listening any more.
    async fn establish(&self, from: NodeId) -> Option<Qp<M>> {
        let (client, server) = connect_qp_opt(&self.net, from, self.node, None, None).await;
        match &self.accept {
            Accept::Listener(tx) => tx.send_now(PrivateEndPoint::new(server)).ok()?,
            Accept::Set(set) => {
                set.upgrade()?.adopt(server);
            }
        }
        Some(client)
    }

    /// Server-side endpoints alive in the set this connector feeds; 0 once
    /// the set is gone, and for an `accept`-style listener (its endpoints
    /// belong to whoever accepted them).
    pub fn served(&self) -> usize {
        match &self.accept {
            Accept::Listener(_) => 0,
            Accept::Set(set) => set.upgrade().map_or(0, |set| set.len()),
        }
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
    use std::collections::BTreeMap;

    struct Msg {
        size: u64,
        tag: u32,
    }
    impl Wire for Msg {
        fn wire_size(&self) -> u64 {
            self.size
        }
    }

    fn fabric(bw: f64) -> FabricParams {
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = bw;
        f.latency = SimDuration::ZERO;
        f.connect_cost = SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        f
    }

    #[test]
    fn endpoint_round_trip() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(100.0));
        let server = net.add_node(None);
        let client = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let connector = listener.connector();

        sim.spawn(async move {
            let ep = listener.accept().await.unwrap();
            while let Some(m) = ep.recv().await {
                ep.send(Msg {
                    size: m.size * 2,
                    tag: m.tag + 1,
                })
                .await;
            }
        })
        .detach();

        let sim2 = sim.clone();
        let done = sim.block_on(sim.spawn(async move {
            let ep = connector.connect(client).await;
            ep.send(Msg { size: 100, tag: 7 }).await; // 1 s
            let resp = ep.recv().await.unwrap(); // 200 B → 2 s
            (sim2.now().as_nanos(), resp.tag)
        }));
        assert_eq!(done, (3_000_000_000, 8));
    }

    #[test]
    fn streaming_sends_preserve_order() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e6));
        let server = net.add_node(None);
        let client = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let connector = listener.connector();
        let tags = sim.spawn(async move {
            let ep = listener.accept().await.unwrap();
            let mut tags = Vec::new();
            for _ in 0..10 {
                tags.push(ep.recv().await.unwrap().tag);
            }
            tags
        });
        sim.spawn(async move {
            let ep = connector.connect(client).await;
            for tag in 0..10 {
                ep.send_nowait(Msg { size: 1_000, tag });
            }
            // Keep the endpoint alive long enough for delivery.
            std::mem::forget(ep);
        })
        .detach();
        assert_eq!(sim.block_on(tags), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn many_endpoints_share_one_listener() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e9));
        let server = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let connector = listener.connector();
        let served = Rc::new(Cell::new(0u32));
        let served2 = Rc::clone(&served);
        let sim2 = sim.clone();
        sim.spawn(async move {
            // One lightweight receiver task per endpoint, like the paper's
            // RDMAReceiver pulling from its endpoint list.
            while let Some(ep) = listener.accept().await {
                let served3 = Rc::clone(&served2);
                sim2.spawn(async move {
                    let m = ep.recv().await.unwrap();
                    assert!(m.size > 0);
                    served3.set(served3.get() + 1);
                })
                .detach();
            }
        })
        .detach();
        for i in 0..5u32 {
            let c = net.add_node(None);
            let connector = connector.clone();
            sim.spawn(async move {
                let ep = connector.connect(c).await;
                ep.send(Msg { size: 64, tag: i }).await;
            })
            .detach();
        }
        sim.run();
        assert_eq!(served.get(), 5);
    }

    /// A server over an [`EndpointSet`]: one task for every endpoint. It
    /// logs `(endpoint tag, message tag)` and, if `replenish`, returns the
    /// credit.
    fn serve_set(
        sim: &Sim,
        set: Rc<EndpointSet<Msg>>,
        replenish: bool,
    ) -> Rc<std::cell::RefCell<Vec<(u32, u32)>>> {
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        sim.spawn_named("set-server", async move {
            loop {
                let (ep, m) = set.recv().await;
                if replenish {
                    ep.replenish();
                }
                log2.borrow_mut().push((ep.tag(), m.tag));
            }
        })
        .detach();
        log
    }

    #[test]
    fn one_queue_serves_many_endpoints_and_tells_them_apart() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e9));
        let server = net.add_node(None);
        let set = EndpointSet::<Msg>::new();
        let connector = ucr_listen_into(&net, server, &set);
        let log = serve_set(&sim, Rc::clone(&set), true);
        // Client `i` sends `counts[i]` messages tagged `i * 1000 + k`; the
        // first pushes far more than one credit window through its endpoint.
        let counts = [200u32, 3, 70, 1, 9];
        for (i, n) in counts.into_iter().enumerate() {
            let c = net.add_node(None);
            let connector = connector.clone();
            sim.spawn(async move {
                let ep = connector.connect(c).await;
                for k in 0..n {
                    ep.send_nowait(Msg {
                        size: 64,
                        tag: i as u32 * 1000 + k,
                    });
                }
                ep.send(Msg {
                    size: 64,
                    tag: i as u32 * 1000 + n,
                })
                .await;
            })
            .detach();
        }
        sim.run();
        assert_eq!(
            sim.live_tasks(),
            1,
            "the server task, and no task per endpoint"
        );
        // Each client's messages arrived complete and in order under one
        // endpoint tag of its own.
        let log = log.borrow();
        let mut by_client: BTreeMap<u32, (u32, u32)> = BTreeMap::new(); // client -> (ep tag, next k)
        for &(ep_tag, m_tag) in log.iter() {
            let (client, k) = (m_tag / 1000, m_tag % 1000);
            let (tag, next) = by_client.entry(client).or_insert((ep_tag, 0));
            assert_eq!((*tag, *next), (ep_tag, k), "client {client}");
            *next += 1;
        }
        let got: Vec<u32> = by_client.values().map(|&(_, next)| next).collect();
        assert_eq!(got, counts.map(|n| n + 1));
        let mut tags: Vec<u32> = by_client.values().map(|&(tag, _)| tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, [0, 1, 2, 3, 4]);
        // Every client has closed: the set let every server end go.
        assert!(set.is_empty());
        assert_eq!(connector.served(), 0);
    }

    #[test]
    fn unreturned_credits_stall_that_endpoints_sender_only() {
        // The per-endpoint window is the flow control: a set whose server
        // never replenishes admits exactly one window per endpoint.
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e9));
        let server = net.add_node(None);
        let set = EndpointSet::<Msg>::new();
        let connector = ucr_listen_into(&net, server, &set);
        let log = serve_set(&sim, Rc::clone(&set), false);
        for (i, n) in [100u32, 5].into_iter().enumerate() {
            let c = net.add_node(None);
            let connector = connector.clone();
            sim.spawn(async move {
                let ep = connector.connect(c).await;
                for k in 0..n {
                    ep.send_nowait(Msg {
                        size: 64,
                        tag: i as u32 * 1000 + k,
                    });
                }
                std::future::pending::<()>().await; // hold the endpoint open
            })
            .detach();
        }
        sim.run();
        let arrived = |client: u32| log.borrow().iter().filter(|l| l.1 / 1000 == client).count();
        assert_eq!(arrived(0) as u64, RECV_WINDOW, "RNR after one window");
        assert_eq!(arrived(1), 5, "the other endpoint is not held up");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn closing_one_end_reaches_the_other_in_order() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(100.0));
        let server = net.add_node(None);
        let client = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let connector = listener.connector();
        let sim2 = sim.clone();
        let got = sim.spawn(async move {
            let ep = listener.accept().await.unwrap();
            let mut got = Vec::new();
            while let Some(m) = ep.recv().await {
                got.push(m.tag);
            }
            // `None`: the client closed — after its three messages landed,
            // 1 s of wire each, though it dropped the endpoint at t = 0.
            got.push(sim2.now().as_nanos() as u32 / 1_000_000_000);
            got
        });
        sim.spawn(async move {
            let ep = connector.connect(client).await;
            for tag in [7, 8, 9] {
                ep.send_nowait(Msg { size: 100, tag });
            }
        })
        .detach();
        assert_eq!(sim.block_on(got), [7, 8, 9, 3]);
        assert_eq!(sim.live_tasks(), 0, "both tasks ran to their end");
    }

    #[test]
    fn connecting_to_a_dropped_server_returns_none() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e9));
        let server = net.add_node(None);
        let client = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let set = EndpointSet::<Msg>::new();
        let connectors = [listener.connector(), ucr_listen_into(&net, server, &set)];
        drop(listener);
        drop(set);
        let refused = Rc::new(Cell::new(0));
        for connector in connectors {
            let refused = Rc::clone(&refused);
            sim.spawn(async move {
                assert!(connector.try_connect(client).await.is_none());
                let mine = EndpointSet::new();
                assert!(connector.try_connect_into(client, &mine).await.is_none());
                assert!(mine.is_empty());
                refused.set(refused.get() + 1);
            })
            .detach();
        }
        sim.run();
        assert_eq!(refused.get(), 2);
    }

    fn secs(s: f64) -> rmr_des::SimTime {
        rmr_des::SimTime::from_nanos((s * 1e9) as u64)
    }

    /// A connected pair of endpoints with receive queues of their own, on a
    /// 100 B/s fabric: `(client, server)`.
    fn connected(sim: &Sim) -> (PrivateEndPoint<Msg>, PrivateEndPoint<Msg>) {
        let net = Network::new(sim, fabric(100.0));
        let listener = ucr_listen::<Msg>(&net, net.add_node(None));
        let client = net.add_node(None);
        sim.block_on(sim.spawn(async move {
            let c = listener.connector().connect(client).await;
            let s = listener.accept().await.expect("connected");
            (c, s)
        }))
    }

    /// What has reached `ep`'s own receive queue so far: (op, message tag).
    fn drain(ep: &PrivateEndPoint<Msg>) -> Vec<(Op, Option<u32>)> {
        std::iter::from_fn(|| ep.rx.try_recv())
            .map(|c| (c.op, c.payload.map(|m| m.tag)))
            .collect()
    }

    #[test]
    fn an_endpoint_closes_at_its_last_handle_behind_what_it_posted() {
        let sim = Sim::new(1);
        let (client, server) = connected(&sim);
        let (a, b) = (client.ep.clone(), client.ep.clone());
        // Two of three handles post a second of wire each and drop while
        // the engine is still sending the first.
        a.send_nowait(Msg { size: 100, tag: 1 });
        b.send_nowait(Msg { size: 100, tag: 2 });
        drop((a, b));
        sim.run();
        assert_eq!(
            drain(&server),
            [(Op::Recv, Some(1)), (Op::Recv, Some(2))],
            "two drops of three close nothing"
        );
        // The third closes the end, behind its own message.
        client.send_nowait(Msg { size: 100, tag: 3 });
        drop(client);
        sim.run_until(secs(2.5));
        assert_eq!(drain(&server), [], "no flush before the message lands");
        sim.run();
        assert_eq!(drain(&server), [(Op::Recv, Some(3)), (Op::Flush, None)]);
        assert_eq!(sim.now(), secs(3.0));
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn dropping_a_clone_mid_send_leaves_the_sender_its_connection() {
        let sim = Sim::new(1);
        let (client, server) = connected(&sim);
        let other = client.ep.clone();
        sim.spawn(async move {
            client.send(Msg { size: 100, tag: 1 }).await;
            client.send_nowait(Msg { size: 100, tag: 2 });
            // `client` is the last handle: dropping it closes the end.
        })
        .detach();
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(500)).await;
            drop(other); // the blocking send is on the wire
        })
        .detach();
        sim.run_until(secs(0.75));
        assert_eq!(drain(&server), []);
        sim.run_until(secs(1.5));
        assert_eq!(drain(&server), [(Op::Recv, Some(1))]);
        sim.run();
        assert_eq!(drain(&server), [(Op::Recv, Some(2)), (Op::Flush, None)]);
        assert_eq!(sim.now(), secs(2.0));
    }

    #[test]
    fn blocking_sends_take_turns_in_arrival_order_past_a_cancelled_one() {
        // Four senders queue on one endpoint at t = 0; the second is
        // cancelled while it waits. The others post one after another, each
        // once the one before has landed (1 s of wire each), and the lock is
        // free again at the end.
        let sim = Sim::new(1);
        let (client, server) = connected(&sim);
        let cancelled = sim.group();
        for tag in 0..4 {
            let (ep, spawner) = (
                client.ep.clone(),
                if tag == 1 {
                    cancelled.clone()
                } else {
                    sim.group()
                },
            );
            spawner
                .spawn_named(
                    "sender",
                    async move { ep.send(Msg { size: 100, tag }).await },
                )
                .detach();
        }
        sim.run_until(secs(0.5));
        cancelled.abort();
        sim.run();
        assert_eq!(
            drain(&server),
            [
                (Op::Recv, Some(0)),
                (Op::Recv, Some(2)),
                (Op::Recv, Some(3))
            ]
        );
        assert_eq!(sim.now(), secs(3.0));
        let sim2 = sim.clone();
        sim.spawn(async move {
            client.send(Msg { size: 100, tag: 4 }).await;
            assert_eq!(sim2.now(), secs(4.0), "the lock was free");
        })
        .detach();
        sim.run();
        assert_eq!(drain(&server), [(Op::Recv, Some(4)), (Op::Flush, None)]);
    }
}
