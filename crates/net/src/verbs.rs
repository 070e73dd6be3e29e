//! An InfiniBand-verbs-shaped interface over the simulated fabric.
//!
//! This mirrors the OpenFabrics programming model the paper's designs are
//! written against (§II-B-1a): reliable-connected queue pairs, work requests
//! posted to send/receive queues, and completions harvested from completion
//! queues. The shuffle engines built on top (UCR for OSU-IB, direct verbs
//! for Hadoop-A's levitated fetches) use exactly the operations a real
//! implementation would: `SEND`/`RECV` rendezvous for control messages and
//! one-sided `RDMA READ`/`RDMA WRITE` for bulk payload.
//!
//! Semantics reproduced:
//! * a QP processes its work queue strictly in order;
//! * a `SEND` does not complete until the peer has a posted receive
//!   (receiver-not-ready blocks the queue, as on real RC QPs);
//! * one-sided RDMA ops involve no remote CPU and no remote completion;
//! * completions carry their QP's number (`ibv_wc.qp_num`), so many QPs can
//!   bind one CQ and an event-loop server demultiplexes it;
//! * closing one end disconnects in order, behind whatever that end still
//!   has queued, and flushes the peer's posted receives to the peer's CQ.
//!
//! # A connection is one allocation
//!
//! A connected pair is one heap block: a 168-byte `Pair` (`const`-asserted)
//! behind an `Rc`'s two counts, 184 bytes in all. It holds the network handle
//! and two ends, each a handle count, an in-order completion counter, its
//! receive CQ's sender and a run-length-encoded window of posted receives.
//! An idle pair owns nothing else: no task, no channel, no ring buffer, no
//! waiter list. What only a busy end needs — the work requests queued behind
//! the one in flight, the tasks waiting for a completion or for the send
//! lock, the engine's receiver-not-ready waker — is one boxed `Busy` made by
//! the first of them and freed when the end is idle again. The window and the
//! `Busy` sit in `Cell`s with no borrow flag: whoever reads or changes one
//! takes it out and puts it back, touching only that state, and a wake it
//! makes only queues a task. The `qp-engine` task that models the HCA working
//! through a send queue exists only while that queue is non-empty: the
//! `post_*` that finds the end idle spawns it with the work request in hand,
//! later posts queue behind it, and it exits when the queue drains. Its
//! future holds the request in hand once, so an end with a send in flight and
//! three queued is 920 bytes (`tests/memory/conn.rs`). RC ordering lives in
//! the queue, not in a parked task, so a cluster with every reducer connected
//! to every TaskTracker costs memory in proportion to its connections and
//! tasks in proportion to its traffic.
//!
//! A [`Qp`] is a `(pair, side)` handle. Cloning one counts a handle on its
//! end; the end closes when the last handle drops, so however many holders
//! share an end, the peer sees one in-order close.

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use rmr_des::sync::{channel, Receiver, Sender};
use rmr_des::{note_current_blocked, Component};

use crate::network::{Network, NodeId};

/// Work-request opcode, as in `ibv_wr_opcode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Two-sided send (consumes a posted receive at the peer).
    Send,
    /// One-sided write into remote memory.
    RdmaWrite,
    /// One-sided read from remote memory.
    RdmaRead,
    /// Completion of a posted receive (receive-side only).
    Recv,
    /// The work did not execute because the peer end was closed
    /// (`IBV_WC_WR_FLUSH_ERR`). On a receive CQ: one completion per QP for
    /// every receive it still had posted (`wr_id` is the oldest). On a send
    /// CQ: a `SEND` the closed peer had no receive left for.
    Flush,
}

/// A harvested completion, as in `ibv_wc`. `payload` carries the typed
/// message attached to a `SEND` (delivered with the matching `Recv`
/// completion at the peer) — the simulation's stand-in for the bytes that a
/// real receive buffer would now contain.
pub struct Completion<P> {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// What completed.
    pub op: Op,
    /// Message size on the wire.
    pub bytes: u64,
    /// Message attached by the sender (only on `Recv` completions).
    pub payload: Option<P>,
    /// The number its QP was bound under ([`Qp::bind_recv_cq`]); 0 on
    /// send-side completions.
    pub qp_num: u32,
}

/// A completion queue; QPs hold a handle to it.
pub struct Cq<P> {
    rx: Receiver<Completion<P>>,
    tx: Sender<Completion<P>>,
}

impl<P: 'static> Cq<P> {
    /// Creates an empty CQ.
    pub fn new() -> Self {
        let (tx, rx) = channel();
        Cq { rx, tx }
    }

    /// Blocks until the next completion arrives. `None` if every producer
    /// (QP) has been dropped.
    pub async fn next(&self) -> Option<Completion<P>> {
        self.rx.recv().await
    }

    /// Non-blocking poll, as `ibv_poll_cq`.
    pub fn poll(&self) -> Option<Completion<P>> {
        self.rx.try_recv()
    }

    /// The consuming side alone, for an owner that binds this CQ to one QP
    /// and keeps no producer handle of its own: the queue then reports
    /// `None` once that QP's end has closed.
    pub(crate) fn into_receiver(self) -> Receiver<Completion<P>> {
        self.rx
    }

    fn sender(&self) -> Sender<Completion<P>> {
        self.tx.clone()
    }
}

impl<P: 'static> Default for Cq<P> {
    fn default() -> Self {
        Self::new()
    }
}

enum WorkRequest<P> {
    Send { wr_id: u64, bytes: u64, payload: P },
    Write { wr_id: u64, bytes: u64 },
    Read { wr_id: u64, bytes: u64 },
}

impl<P> WorkRequest<P> {
    /// Its id, opcode and size, and the payload of a `SEND`.
    fn into_parts(self) -> (u64, Op, u64, Option<P>) {
        match self {
            WorkRequest::Send {
                wr_id,
                bytes,
                payload,
            } => (wr_id, Op::Send, bytes, Some(payload)),
            WorkRequest::Write { wr_id, bytes } => (wr_id, Op::RdmaWrite, bytes, None),
            WorkRequest::Read { wr_id, bytes } => (wr_id, Op::RdmaRead, bytes, None),
        }
    }
}

/// Posted receives, consumed FIFO, as runs of consecutive `wr_id`s: an
/// endpoint that re-posts `n`, `n + 1`, … keeps its whole window in the one
/// inline run however many credits it holds.
#[derive(Default)]
struct RecvWindow {
    /// The oldest run: `len` receives starting at id `first`.
    first: u64,
    len: u64,
    /// Later runs, when posted ids were not consecutive, and only while
    /// there are any. Boxed: 8 bytes in every end instead of a 32-byte
    /// `VecDeque` that UCR's in-order re-posting never uses.
    #[allow(clippy::box_collection)]
    more: Option<Box<VecDeque<(u64, u64)>>>,
}

impl RecvWindow {
    fn push(&mut self, wr_id: u64) {
        if self.len == 0 {
            (self.first, self.len) = (wr_id, 1);
            return;
        }
        let (first, len) = match self.more.as_mut().and_then(|more| more.back_mut()) {
            Some(run) => (run.0, &mut run.1),
            None => (self.first, &mut self.len),
        };
        if wr_id == first + *len {
            *len += 1;
        } else {
            self.more.get_or_insert_default().push_back((wr_id, 1));
        }
    }

    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let wr_id = self.first;
        self.first += 1;
        self.len -= 1;
        if self.len == 0 {
            if let Some(more) = &mut self.more {
                if let Some(run) = more.pop_front() {
                    (self.first, self.len) = run;
                }
                if more.is_empty() {
                    self.more = None;
                }
            }
        }
        Some(wr_id)
    }

    /// The id that extends the newest run.
    fn next_id(&self) -> u64 {
        match self.more.as_ref().and_then(|more| more.back()) {
            Some(&(first, len)) => first + len,
            None => self.first + self.len,
        }
    }
}

/// What only a busy end needs. Made by the first post that queues behind
/// the engine, task that waits for a completion or for the send lock, or
/// receiver-not-ready stall; freed once the engine has drained and nobody
/// waits for the lock ([`End::settle`]).
struct Busy<P> {
    /// Work requests behind the one the engine holds.
    wq: VecDeque<WorkRequest<P>>,
    /// Tasks blocked in [`Qp::completed`], with the number they wait for.
    send_waiters: Vec<(u64, Waker)>,
    /// This end's engine, blocked on the peer's empty window (RNR).
    rnr: Option<Waker>,
    /// Tasks waiting for the send lock, by ticket, in arrival order.
    lock_waiters: VecDeque<(u64, Waker)>,
    /// The ticket the lock was handed to, until its task takes it.
    handoff: Option<u64>,
    next_ticket: u64,
}

impl<P> Default for Busy<P> {
    fn default() -> Self {
        Busy {
            wq: VecDeque::new(),
            send_waiters: Vec::new(),
            rnr: None,
            lock_waiters: VecDeque::new(),
            handoff: None,
            next_ticket: 0,
        }
    }
}

/// One end of a connected pair.
struct End<P> {
    node: NodeId,
    /// What its receive completions carry ([`Qp::bind_recv_cq`]).
    qp_num: Cell<u32>,
    /// Live [`Qp`] handles; the last one to drop closes the end.
    handles: Cell<u32>,
    /// An engine task is working through this end's send queue.
    engine: Cell<bool>,
    /// A task holds the send lock ([`Qp::send_in_turn`]).
    locked: Cell<bool>,
    /// Every handle has dropped. The window stays: what the peer had in
    /// flight still crosses the wire, to nobody.
    closed: Cell<bool>,
    /// Send-queue work requests posted and completed so far. The queue is
    /// in-order, so request number `n` is done once `completed > n`.
    posted: Cell<u64>,
    completed: Cell<u64>,
    /// Where this end's send-side completions go, if anywhere: a caller
    /// that waits on [`Qp::completed`] needs no send CQ.
    send_cq: Option<Sender<Completion<P>>>,
    recv_cq: Cell<Option<Sender<Completion<P>>>>,
    /// Posted receives ([`End::window`]).
    window: Cell<RecvWindow>,
    /// What only a busy end needs ([`End::busy`], [`End::if_busy`]).
    busy: Cell<Option<Box<Busy<P>>>>,
}

/// A connected pair: the one allocation behind every [`Qp`] handle to
/// either end and whichever engines are running.
struct Pair<P> {
    net: Network,
    ends: [End<P>; 2],
}

const _: () = assert!(std::mem::size_of::<End<()>>() == 80);
const _: () = assert!(std::mem::size_of::<Pair<()>>() == 168);

impl<P: 'static> End<P> {
    fn new(node: NodeId, send_cq: Option<&Cq<P>>) -> Self {
        End {
            node,
            qp_num: Cell::new(0),
            handles: Cell::new(1),
            engine: Cell::new(false),
            locked: Cell::new(false),
            closed: Cell::new(false),
            posted: Cell::new(0),
            completed: Cell::new(0),
            send_cq: send_cq.map(Cq::sender),
            recv_cq: Cell::new(None),
            window: Cell::default(),
            busy: Cell::new(None),
        }
    }

    /// Runs `f` on the receive window.
    fn window<R>(&self, f: impl FnOnce(&mut RecvWindow) -> R) -> R {
        let mut window = self.window.take();
        let out = f(&mut window);
        self.window.set(window);
        out
    }

    /// Runs `f` on the busy state, made if the end has none.
    fn busy<R>(&self, f: impl FnOnce(&mut Busy<P>) -> R) -> R {
        let mut busy = self.busy.take().unwrap_or_default();
        let out = f(&mut busy);
        self.busy.set(Some(busy));
        out
    }

    /// Runs `f` on the busy state, if the end has one.
    fn if_busy<R>(&self, f: impl FnOnce(&mut Busy<P>) -> R) -> Option<R> {
        let mut busy = self.busy.take()?;
        let out = f(&mut busy);
        self.busy.set(Some(busy));
        Some(out)
    }

    /// Frees the busy state once nothing needs it: no engine (so no queued
    /// work, completion waiter or RNR stall) and nobody waiting for the
    /// send lock.
    fn settle(&self) {
        if self.engine.get() {
            return;
        }
        let busy = self.busy.take();
        if busy
            .as_ref()
            .is_some_and(|b| !b.lock_waiters.is_empty() || b.handoff.is_some())
        {
            self.busy.set(busy);
        }
    }

    /// Takes this end's RNR-stalled engine waker, if it has one.
    fn take_rnr(&self) -> Option<Waker> {
        self.if_busy(|b| b.rnr.take()).flatten()
    }

    /// Retires the head of the send queue: bumps the completion counter,
    /// wakes the senders waiting for it, then feeds the send CQ.
    fn complete(&self, wr_id: u64, op: Op, bytes: u64) {
        let done = self.completed.get() + 1;
        self.completed.set(done);
        self.if_busy(|busy| {
            busy.send_waiters.retain(|(seq, waker)| {
                let reached = *seq < done;
                if reached {
                    waker.wake_by_ref();
                }
                !reached
            })
        });
        if let Some(cq) = &self.send_cq {
            let _ = cq.send_now(Completion {
                wr_id,
                op,
                bytes,
                payload: None,
                qp_num: 0,
            });
        }
    }

    /// Feeds the receive CQ, if one is (still) bound.
    fn deliver(&self, wr_id: u64, op: Op, bytes: u64, payload: Option<P>) {
        let cq = self.recv_cq.take();
        if let Some(cq) = &cq {
            let _ = cq.send_now(Completion {
                wr_id,
                op,
                bytes,
                payload,
                qp_num: self.qp_num.get(),
            });
        }
        self.recv_cq.set(cq);
    }

    /// Hands the send lock to the longest waiter, or unlocks it.
    fn pass_turn(&self) {
        let next = self
            .if_busy(|busy| {
                let (ticket, waker) = busy.lock_waiters.pop_front()?;
                busy.handoff = Some(ticket);
                Some(waker)
            })
            .flatten();
        match next {
            Some(waker) => waker.wake(),
            None => {
                self.locked.set(false);
                self.settle();
            }
        }
    }
}

impl<P: 'static> Pair<P> {
    /// Takes one of the peer's posted receives for a `SEND` from `side`'s
    /// engine, suspending the engine while the peer's window is empty.
    /// `None`: the peer is closed and has no receive left, so the send is
    /// flushed.
    fn poll_take_recv(&self, side: usize, cx: &mut Context<'_>) -> Poll<Option<u64>> {
        let peer = &self.ends[1 - side];
        if let Some(wr_id) = peer.window(RecvWindow::pop) {
            return Poll::Ready(Some(wr_id));
        }
        if peer.closed.get() {
            return Poll::Ready(None);
        }
        self.ends[side].busy(|b| b.rnr = Some(cx.waker().clone()));
        note_current_blocked("receiver not ready");
        Poll::Pending
    }

    /// Tells `side`'s peer that `side` is closed and has nothing left to
    /// send: the peer's posted receives can never complete, so they are
    /// flushed to its CQ.
    fn disconnect(&self, side: usize) {
        let peer = &self.ends[1 - side];
        let oldest = peer.window.take().first;
        if !peer.closed.get() {
            peer.deliver(oldest, Op::Flush, 0, None);
        }
    }
}

/// The HCA working through `side`'s send queue, strictly in order, starting
/// with `wr`. Lives until the queue is empty.
///
/// The future holds the request in hand once, as its parts: an `async fn`
/// keeps each parameter in a slot of its own for the future's whole life, so
/// `wr` is split before the future is made.
fn engine<P: 'static>(
    pair: Rc<Pair<P>>,
    side: usize,
    wr: WorkRequest<P>,
) -> impl Future<Output = ()> {
    let (mut wr_id, mut op, mut bytes, mut payload) = wr.into_parts();
    async move {
        let (end, peer) = (&pair.ends[side], &pair.ends[1 - side]);
        loop {
            // RNR: a `SEND` waits for the peer to post a receive, and is
            // flushed if the peer closed with none left.
            let mut recv = None;
            if op == Op::Send {
                recv = poll_fn(|cx| pair.poll_take_recv(side, cx)).await;
                if recv.is_none() {
                    op = Op::Flush;
                }
            }
            if op != Op::Flush {
                // An RDMA READ's data flows peer → local; no remote CPU is
                // involved (the remote HCA serves it).
                let (from, to) = match op {
                    Op::RdmaRead => (peer.node, end.node),
                    _ => (end.node, peer.node),
                };
                pair.net.transfer(from, to, bytes).await;
            }
            let sent = payload.take();
            end.complete(wr_id, op, bytes);
            if let Some(recv_wr_id) = recv {
                peer.deliver(recv_wr_id, Op::Recv, bytes, sent);
            }
            match end.if_busy(|b| b.wq.pop_front()).flatten() {
                Some(next) => (wr_id, op, bytes, payload) = next.into_parts(),
                None => break,
            }
        }
        // Drained: go idle and give the busy state back in the same poll, so
        // a post can never land between the two.
        end.engine.set(false);
        end.settle();
        if end.closed.get() {
            pair.disconnect(side);
        }
    }
}

/// A handle to one end of a connected reliable queue pair. Clones share the
/// end; dropping the last one closes it: what it already posted is still
/// sent, then the peer is told (see [`Op::Flush`]).
pub struct Qp<P: 'static> {
    pair: Rc<Pair<P>>,
    side: usize,
}

/// Creates a connected RC queue pair between `a` and `b`.
///
/// `send_cq_a`/`send_cq_b` receive the send-side completions of the
/// respective ends; receive completions go to the CQ registered via
/// [`Qp::bind_recv_cq`]. Connection setup cost is charged before the pair is
/// usable.
pub async fn connect_qp<P: 'static>(
    net: &Network,
    a: NodeId,
    b: NodeId,
    send_cq_a: &Cq<P>,
    send_cq_b: &Cq<P>,
) -> (Qp<P>, Qp<P>) {
    connect_qp_opt(net, a, b, Some(send_cq_a), Some(send_cq_b)).await
}

/// [`connect_qp`] with optional send CQs: an end without one reports its
/// send-side completions through [`Qp::completed`] only.
pub(crate) async fn connect_qp_opt<P: 'static>(
    net: &Network,
    a: NodeId,
    b: NodeId,
    send_cq_a: Option<&Cq<P>>,
    send_cq_b: Option<&Cq<P>>,
) -> (Qp<P>, Qp<P>) {
    net.connect_delay(a, b).await;
    let pair = Rc::new(Pair {
        net: net.clone(),
        ends: [End::new(a, send_cq_a), End::new(b, send_cq_b)],
    });
    let qp_a = Qp {
        pair: Rc::clone(&pair),
        side: 0,
    };
    (qp_a, Qp { pair, side: 1 })
}

impl<P: 'static> Qp<P> {
    fn end(&self) -> &End<P> {
        &self.pair.ends[self.side]
    }

    /// Registers the CQ that receives this end's `Recv` completions. They
    /// carry `qp_num`, so one CQ can serve many QPs.
    pub fn bind_recv_cq(&self, cq: &Cq<P>, qp_num: u32) {
        self.end().recv_cq.set(Some(cq.sender()));
        self.end().qp_num.set(qp_num);
    }

    /// The number this end's receive completions carry.
    pub(crate) fn qp_num(&self) -> u32 {
        self.end().qp_num.get()
    }

    /// Posts a receive buffer (`ibv_post_recv`). Each buffered receive
    /// admits exactly one inbound `SEND`.
    pub fn post_recv(&self, wr_id: u64) {
        self.end().window(|w| w.push(wr_id));
        if let Some(engine) = self.pair.ends[1 - self.side].take_rnr() {
            engine.wake();
        }
    }

    /// Posts a receive under the id that follows the newest one posted: an
    /// owner that only ever re-posts this way needs no counter of its own,
    /// and its window stays one run.
    pub(crate) fn post_next_recv(&self) {
        let wr_id = self.end().window(|w| w.next_id());
        self.post_recv(wr_id);
    }

    /// Queues `wr` behind whatever this end already posted, starting an
    /// engine if none is running. Returns the request's position in the send
    /// queue, for [`Qp::completed`].
    fn post(&self, wr: WorkRequest<P>) -> u64 {
        let end = self.end();
        let seq = end.posted.get();
        end.posted.set(seq + 1);
        if end.engine.replace(true) {
            end.busy(|b| b.wq.push_back(wr));
        } else {
            self.pair.net.sim().spawn_detached(
                Component::QpEngine,
                engine(Rc::clone(&self.pair), self.side, wr),
            );
        }
        seq
    }

    /// Posts a two-sided send carrying `payload` (`ibv_post_send`, opcode
    /// `IBV_WR_SEND`). Like every `post_*`, returns the request's position
    /// in this end's send queue.
    pub fn post_send(&self, wr_id: u64, bytes: u64, payload: P) -> u64 {
        self.post(WorkRequest::Send {
            wr_id,
            bytes,
            payload,
        })
    }

    /// Posts a one-sided RDMA write of `bytes` into the peer's registered
    /// memory.
    pub fn post_rdma_write(&self, wr_id: u64, bytes: u64) -> u64 {
        self.post(WorkRequest::Write { wr_id, bytes })
    }

    /// Posts a one-sided RDMA read of `bytes` from the peer's registered
    /// memory.
    pub fn post_rdma_read(&self, wr_id: u64, bytes: u64) -> u64 {
        self.post(WorkRequest::Read { wr_id, bytes })
    }

    /// Waits until the send-queue request at position `seq` (what its
    /// `post_*` returned) has completed; the queue is in-order, so every
    /// earlier one has too. Any number of tasks may wait on one QP.
    pub async fn completed(&self, seq: u64) {
        let end = self.end();
        let mut registered = false;
        poll_fn(|cx| {
            if end.completed.get() > seq {
                return Poll::Ready(());
            }
            // Once is enough: a task's waker never changes.
            if !registered {
                registered = true;
                end.busy(|b| b.send_waiters.push((seq, cx.waker().clone())));
            }
            note_current_blocked("send completion");
            Poll::Pending
        })
        .await
    }

    /// Posts a send and waits for its completion, in turn: callers on one
    /// end take a FIFO lock, so each posts only once the one before it has
    /// seen its own message land. The lock lives in the end and its waiters
    /// in the end's busy state; an end that never sends this way pays
    /// nothing for it.
    pub(crate) async fn send_in_turn(&self, wr_id: u64, bytes: u64, payload: P) {
        let _turn = WaitTurn {
            end: self.end(),
            ticket: None,
        }
        .await;
        let seq = self.post_send(wr_id, bytes, payload);
        self.completed(seq).await;
    }

    /// Local node.
    pub fn local(&self) -> NodeId {
        self.end().node
    }

    /// Remote node.
    pub fn peer(&self) -> NodeId {
        self.pair.ends[1 - self.side].node
    }

    /// The network this QP runs on.
    pub fn network(&self) -> &Network {
        &self.pair.net
    }
}

impl<P: 'static> Clone for Qp<P> {
    fn clone(&self) -> Self {
        let end = self.end();
        end.handles.set(end.handles.get() + 1);
        Qp {
            pair: Rc::clone(&self.pair),
            side: self.side,
        }
    }
}

impl<P: 'static> Drop for Qp<P> {
    fn drop(&mut self) {
        let end = self.end();
        let left = end.handles.get() - 1;
        end.handles.set(left);
        if left > 0 {
            return;
        }
        end.closed.set(true);
        end.recv_cq.take();
        // A peer engine blocked on this end's empty window must see the
        // close: its send is flushed now.
        if let Some(engine) = self.pair.ends[1 - self.side].take_rnr() {
            engine.wake();
        }
        // In-order close: a running engine disconnects when it has drained.
        if !end.engine.get() {
            self.pair.disconnect(self.side);
        }
    }
}

/// Waits for an end's send lock ([`Qp::send_in_turn`]): the lock is free and
/// nobody queued, or it was handed to this waiter's ticket.
struct WaitTurn<'a, P: 'static> {
    end: &'a End<P>,
    ticket: Option<u64>,
}

/// The send lock, held; dropping it passes the lock on.
struct Turn<'a, P: 'static>(&'a End<P>);

impl<'a, P: 'static> Future for WaitTurn<'a, P> {
    type Output = Turn<'a, P>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Turn<'a, P>> {
        let end = self.end;
        match self.ticket {
            None if !end.locked.get() => {
                end.locked.set(true);
                return Poll::Ready(Turn(end));
            }
            None => {
                self.ticket = Some(end.busy(|busy| {
                    let ticket = busy.next_ticket;
                    busy.next_ticket += 1;
                    busy.lock_waiters.push_back((ticket, cx.waker().clone()));
                    ticket
                }));
            }
            Some(ticket) => {
                let handed = end.busy(|busy| {
                    if busy.handoff == Some(ticket) {
                        busy.handoff = None;
                        return true;
                    }
                    if let Some(waiter) = busy.lock_waiters.iter_mut().find(|w| w.0 == ticket) {
                        waiter.1 = cx.waker().clone();
                    }
                    false
                });
                if handed {
                    self.ticket = None;
                    end.settle();
                    return Poll::Ready(Turn(end));
                }
            }
        }
        note_current_blocked("send lock");
        Poll::Pending
    }
}

impl<P: 'static> Drop for WaitTurn<'_, P> {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let handed = self.end.busy(|busy| {
            if busy.handoff == Some(ticket) {
                busy.handoff = None;
                true
            } else {
                busy.lock_waiters.retain(|w| w.0 != ticket);
                false
            }
        });
        // Handed the lock but never took it: pass it on.
        if handed {
            self.end.pass_turn();
        } else {
            self.end.settle();
        }
    }
}

impl<P: 'static> Drop for Turn<'_, P> {
    fn drop(&mut self) {
        self.0.pass_turn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricParams;
    use rmr_des::prelude::*;

    fn fabric(bw: f64) -> FabricParams {
        let mut f = FabricParams::ib_verbs_qdr();
        f.link_bw = bw;
        f.latency = SimDuration::ZERO;
        f.connect_cost = SimDuration::ZERO;
        f.cpu_per_message = 0.0;
        f
    }

    #[test]
    fn send_recv_rendezvous() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(100.0));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let net2 = net.clone();
        let sim2 = sim.clone();
        let (got, t) = sim.block_on(sim.spawn(async move {
            let cq_a = Cq::<u64>::new();
            let cq_b = Cq::<u64>::new();
            let recv_cq_b = Cq::<u64>::new();
            let (qa, qb) = connect_qp(&net2, a, b, &cq_a, &cq_b).await;
            qb.bind_recv_cq(&recv_cq_b, 0);
            qb.post_recv(7);
            qa.post_send(1, 100, 0xBEEF); // 100 B at 100 B/s → 1 s
            let c = recv_cq_b.next().await.unwrap();
            assert_eq!(c.wr_id, 7);
            assert_eq!(c.op, Op::Recv);
            let sc = cq_a.next().await.unwrap();
            assert_eq!(sc.op, Op::Send);
            assert_eq!(sc.wr_id, 1);
            (c.payload.unwrap(), sim2.now().as_nanos())
        }));
        assert_eq!(got, 0xBEEF);
        assert_eq!(t, 1_000_000_000);
    }

    #[test]
    fn send_blocks_until_recv_posted() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1e9));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let net2 = net.clone();
        let sim2 = sim.clone();
        let t = sim.block_on(sim.spawn(async move {
            let cq_a = Cq::<()>::new();
            let cq_b = Cq::<()>::new();
            let recv_b = Cq::<()>::new();
            let (qa, qb) = connect_qp(&net2, a, b, &cq_a, &cq_b).await;
            qb.bind_recv_cq(&recv_b, 0);
            qa.post_send(1, 8, ()); // no recv posted yet → RNR wait
            sim2.sleep(SimDuration::from_secs(3)).await;
            qb.post_recv(2);
            recv_b.next().await.unwrap();
            sim2.now().as_nanos()
        }));
        assert!(t >= 3_000_000_000);
    }

    #[test]
    fn rdma_read_pulls_from_peer() {
        // RDMA READ direction: bytes flow peer→local; the local send CQ gets
        // the completion.
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(100.0));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let net2 = net.clone();
        let sim2 = sim.clone();
        let t = sim.block_on(sim.spawn(async move {
            let cq_a = Cq::<()>::new();
            let cq_b = Cq::<()>::new();
            let (qa, _qb) = connect_qp(&net2, a, b, &cq_a, &cq_b).await;
            qa.post_rdma_read(9, 200); // 200 B at 100 B/s → 2 s
            let c = cq_a.next().await.unwrap();
            assert_eq!(c.op, Op::RdmaRead);
            assert_eq!(c.wr_id, 9);
            sim2.now().as_nanos()
        }));
        assert_eq!(t, 2_000_000_000);
    }

    #[test]
    fn work_queue_is_processed_in_order() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1_000.0));
        let a = net.add_node(None);
        let b = net.add_node(None);
        let net2 = net.clone();
        let order = sim.block_on(sim.spawn(async move {
            let cq_a = Cq::<u32>::new();
            let cq_b = Cq::<u32>::new();
            let recv_b = Cq::<u32>::new();
            let (qa, qb) = connect_qp(&net2, a, b, &cq_a, &cq_b).await;
            qb.bind_recv_cq(&recv_b, 0);
            for i in 0..4 {
                qb.post_recv(100 + i);
            }
            // Mixed sizes: a big message first must still arrive first.
            qa.post_send(1, 900, 1);
            qa.post_send(2, 10, 2);
            qa.post_send(3, 500, 3);
            qa.post_send(4, 10, 4);
            let mut order = Vec::new();
            for _ in 0..4 {
                order.push(recv_b.next().await.unwrap().payload.unwrap());
            }
            order
        }));
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn an_engine_future_holds_its_request_once() {
        // One lives per busy end: at `scale_256`'s peak, 16 320 with a
        // `SEND` of an 88-byte `ShufMsg` in hand. When the `async fn`
        // parameter, its destructured fields and a transfer per opcode each
        // kept a slot, one took 616 B.
        let sim = Sim::new(1);
        let net = Network::new(&sim, fabric(1.0));
        let (a, b) = (net.add_node(None), net.add_node(None));
        let pair = Rc::new(Pair {
            net,
            ends: [End::new(a, None), End::new(b, None)],
        });
        let payload = [0u64; 11];
        let wr = WorkRequest::Send {
            wr_id: 0,
            bytes: 1,
            payload,
        };
        let size = std::mem::size_of_val(&engine(pair, 0, wr));
        assert!(
            size <= 512,
            "an engine future with an 88-byte payload is {size} B"
        );
    }
}
