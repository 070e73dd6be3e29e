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
//! An endpoint is a queue pair end, a tag and a counter — no task, and no
//! queue of its own unless it asks for one. Either side of a connection
//! chooses how it receives: an endpoint from [`UcrListener::accept`] or
//! [`UcrConnector::connect`] has a private receive queue behind
//! [`EndPoint::recv`]; an endpoint that joined an [`EndpointSet`]
//! ([`ucr_listen_into`], [`UcrConnector::try_connect_into`]) delivers into
//! the set's one queue, where a single task serves every member — the
//! paper's one `RDMAReceiver` per TaskTracker and one `RDMACopier` per
//! ReduceTask (§III-B-1). A blocking send waits on the queue pair's
//! completion counter for its own message, so no endpoint needs a send CQ.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use rmr_des::sync::{channel, Receiver, Semaphore, Sender};

use crate::chan::Wire;
use crate::network::{Network, NodeId};
use crate::verbs::{connect_qp_opt, Cq, Op, Qp};

/// Receive-window credits each endpoint keeps pre-posted.
const RECV_WINDOW: u64 = 64;

/// One UCR endpoint: a connected, typed, duplex message pipe over verbs.
/// Dropping it closes the connection; the peer learns of it in order, after
/// everything this end had already sent.
pub struct EndPoint<M: Wire> {
    qp: Qp<M>,
    /// This endpoint's own receive queue; `None` for a member of an
    /// [`EndpointSet`], which receives for it.
    recv_cq: Option<Cq<M>>,
    tag: u32,
    next_recv: Cell<u64>,
    /// Serialises blocking sends; made by the first one (an endpoint that
    /// only streams never pays for it). See [`EndPoint::send`].
    send_lock: OnceCell<Semaphore>,
}

impl<M: Wire> EndPoint<M> {
    /// Wraps `qp`, receiving into `shared` under the given tag or, without
    /// one, into a queue of its own.
    fn new(qp: Qp<M>, shared: Option<(&Cq<M>, u32)>) -> Self {
        let (recv_cq, tag) = match shared {
            Some((cq, tag)) => {
                qp.bind_recv_cq(cq, tag);
                (None, tag)
            }
            None => {
                let cq = Cq::new();
                qp.bind_recv_cq(&cq, 0);
                (Some(cq), 0)
            }
        };
        for i in 0..RECV_WINDOW {
            qp.post_recv(i);
        }
        EndPoint {
            qp,
            recv_cq,
            tag,
            next_recv: Cell::new(RECV_WINDOW),
            send_lock: OnceCell::new(),
        }
    }

    /// The node this endpoint lives on.
    pub fn local(&self) -> NodeId {
        self.qp.local()
    }

    /// The node the peer endpoint lives on.
    pub fn peer(&self) -> NodeId {
        self.qp.peer()
    }

    /// What tells this endpoint's deliveries apart in its [`EndpointSet`]
    /// (0 for an endpoint with a receive queue of its own).
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Sends `m` and waits for the send completion (the message is on the
    /// wire and landed; with RC semantics that means delivered). Concurrent
    /// callers are serialised per endpoint: one posts only after the one
    /// before it has seen its own message land. The completion counter
    /// would keep them apart without that, but when they post is part of
    /// the model — on a loopback connection a transfer takes no time, and
    /// whether four responses go out back to back or one per completion
    /// decides which packet overflows a tight shuffle buffer.
    pub async fn send(&self, m: M) {
        let lock = self.send_lock.get_or_init(|| Semaphore::new(1));
        let _guard = lock.acquire(1).await;
        let seq = self.qp.post_send(0, m.wire_size(), m);
        self.qp.completed(seq).await;
    }

    /// Posts a send without waiting for its completion ("fire and forget").
    /// Used where the paper's responders stream packets back-to-back.
    pub fn send_nowait(&self, m: M) {
        self.qp.post_send(0, m.wire_size(), m);
    }

    /// Receives the next message, re-posting a receive buffer to keep the
    /// credit window full. `None` once the peer has closed.
    ///
    /// # Panics
    /// On a member of an [`EndpointSet`]: the set receives for it.
    pub async fn recv(&self) -> Option<M> {
        let cq = self
            .recv_cq
            .as_ref()
            .expect("an EndpointSet member receives through its set");
        let c = cq.next().await?;
        match c.op {
            Op::Recv => {
                self.replenish();
                c.payload
            }
            _ => None, // flushed: the peer closed
        }
    }

    /// Re-posts the receive buffer one delivered message used up. The task
    /// serving an [`EndpointSet`] calls this once per message, when it has
    /// consumed it — that is the flow control: a member whose messages sit
    /// unconsumed runs its sender out of credits.
    pub fn replenish(&self) {
        let wr = self.next_recv.get();
        self.next_recv.set(wr + 1);
        self.qp.post_recv(wr);
    }
}

/// Many endpoints, one receive queue, one task serving them all: the paper's
/// end-point list (§III-B-1), built on a CQ shared by the members' queue
/// pairs. A member leaves when its peer closes or by [`EndpointSet::remove`];
/// dropping the set closes every member nobody else holds.
pub struct EndpointSet<M: Wire> {
    cq: Cq<M>,
    members: RefCell<BTreeMap<u32, Rc<EndPoint<M>>>>,
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
    fn adopt(&self, qp: Qp<M>) -> Rc<EndPoint<M>> {
        let tag = self.next_tag.get();
        self.next_tag.set(tag + 1);
        let ep = Rc::new(EndPoint::new(qp, Some((&self.cq, tag))));
        self.members.borrow_mut().insert(tag, Rc::clone(&ep));
        ep
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
        let member = self.members.borrow_mut().remove(&tag);
        drop(member); // closes the endpoint; not under the borrow
    }

    /// The next message from any member, with the endpoint it came in on.
    /// The caller owes that endpoint a [`EndPoint::replenish`]. A member
    /// whose peer has closed is dropped from the set on the way.
    pub async fn recv(&self) -> (Rc<EndPoint<M>>, M) {
        loop {
            let c = self.cq.next().await.expect("the set holds its own CQ open");
            match c.op {
                Op::Recv => {
                    let member = self.members.borrow().get(&c.qp_num).cloned();
                    if let (Some(ep), Some(m)) = (member, c.payload) {
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
    incoming: Receiver<EndPoint<M>>,
    tx: Sender<EndPoint<M>>,
    net: Network,
}

/// Where a connector's server-side endpoints go.
enum Accept<M: Wire> {
    /// To whoever calls [`UcrListener::accept`].
    Listener(Sender<EndPoint<M>>),
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
    pub async fn accept(&self) -> Option<EndPoint<M>> {
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
    pub async fn connect(&self, from: NodeId) -> EndPoint<M> {
        self.try_connect(from)
            .await
            .expect("UCR listener dropped while connecting")
    }

    /// [`UcrConnector::connect`], but observing server death instead of
    /// panicking: returns `None` when the listener is gone (the node was
    /// killed). The QP setup cost is still paid — connection management
    /// discovers the dead peer only after the exchange times out.
    pub async fn try_connect(&self, from: NodeId) -> Option<EndPoint<M>> {
        let qp = self.establish(from).await?;
        Some(EndPoint::new(qp, None))
    }

    /// [`UcrConnector::try_connect`] with the client end joining `set`
    /// instead of getting a receive queue of its own.
    pub async fn try_connect_into(
        &self,
        from: NodeId,
        set: &EndpointSet<M>,
    ) -> Option<Rc<EndPoint<M>>> {
        let qp = self.establish(from).await?;
        Some(set.adopt(qp))
    }

    /// Connects a queue pair, hands its server end over and returns the
    /// client end; `None` if nobody is listening any more.
    async fn establish(&self, from: NodeId) -> Option<Qp<M>> {
        let (client, server) = connect_qp_opt(&self.net, from, self.node, None, None).await;
        match &self.accept {
            Accept::Listener(tx) => tx.send_now(EndPoint::new(server, None)).ok()?,
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
    use std::cell::Cell;
    use std::rc::Rc;

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

        let done = Rc::new(Cell::new((0u64, 0u32)));
        let d2 = Rc::clone(&done);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let ep = connector.connect(client).await;
            ep.send(Msg { size: 100, tag: 7 }).await; // 1 s
            let resp = ep.recv().await.unwrap(); // 200 B → 2 s
            d2.set((sim2.now().as_nanos(), resp.tag));
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), (3_000_000_000, 8));
    }

    #[test]
    fn streaming_sends_preserve_order() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e6));
        let server = net.add_node(None);
        let client = net.add_node(None);
        let listener = ucr_listen::<Msg>(&net, server);
        let connector = listener.connector();
        let tags = Rc::new(std::cell::RefCell::new(Vec::new()));
        let tags2 = Rc::clone(&tags);
        sim.spawn(async move {
            let ep = listener.accept().await.unwrap();
            for _ in 0..10 {
                let m = ep.recv().await.unwrap();
                tags2.borrow_mut().push(m.tag);
            }
        })
        .detach();
        sim.spawn(async move {
            let ep = connector.connect(client).await;
            for tag in 0..10 {
                ep.send_nowait(Msg { size: 1_000, tag });
            }
            // Keep the endpoint alive long enough for delivery.
            std::mem::forget(ep);
        })
        .detach();
        sim.run();
        assert_eq!(*tags.borrow(), (0..10).collect::<Vec<_>>());
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
        sim.spawn_daemon("set-server", async move {
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
        let got = Rc::new(std::cell::RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let ep = listener.accept().await.unwrap();
            while let Some(m) = ep.recv().await {
                got2.borrow_mut().push(m.tag);
            }
            // `None`: the client closed — after its three messages landed,
            // 1 s of wire each, though it dropped the endpoint at t = 0.
            got2.borrow_mut()
                .push(sim2.now().as_nanos() as u32 / 1_000_000_000);
        })
        .detach();
        sim.spawn(async move {
            let ep = connector.connect(client).await;
            for tag in [7, 8, 9] {
                ep.send_nowait(Msg { size: 100, tag });
            }
        })
        .detach();
        sim.run();
        assert_eq!(*got.borrow(), [7, 8, 9, 3]);
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
}
