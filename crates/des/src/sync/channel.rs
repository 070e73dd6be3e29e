//! Async multi-producer multi-consumer channels for simulated processes.
//!
//! Channels carry work items between simulated threads exactly the way
//! Hadoop's internal queues do (`DataRequestQueue`, `DataToMergeQueue`,
//! `DataToReduceQueue` from the paper all map onto these). Both unbounded
//! and bounded (back-pressure) flavours are provided. Delivery order is
//! strict FIFO and receivers are served in arrival order, which keeps the
//! simulation deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{note_current_blocked, BlockedLabel};

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
    recv_wakers: VecDeque<Waker>,
    send_wakers: VecDeque<Waker>,
    /// Blocking labels ("send on <name>" / "recv on <name>"): static for an
    /// unnamed channel, pre-formatted once at construction for a named one,
    /// so `Pending` polls record them without a `format!` allocation.
    send_label: BlockedLabel,
    recv_label: BlockedLabel,
}

impl<T> Inner<T> {
    fn wake_one_recv(&mut self) {
        if let Some(w) = self.recv_wakers.pop_front() {
            w.wake();
        }
    }
    fn wake_one_send(&mut self) {
        if let Some(w) = self.send_wakers.pop_front() {
            w.wake();
        }
    }
    fn wake_all(&mut self) {
        for w in self.recv_wakers.drain(..) {
            w.wake();
        }
        for w in self.send_wakers.drain(..) {
            w.wake();
        }
    }
}

/// Creates an unbounded FIFO channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity_opt(None, None)
}

/// Creates an unbounded FIFO channel with a diagnostic name. Tasks stalled
/// on this channel appear as `recv on <name>` / `send on <name>` in
/// [`crate::executor::Sim::step_until_no_events`] reports.
pub fn channel_named<T>(name: &str) -> (Sender<T>, Receiver<T>) {
    with_capacity_opt(None, Some(name))
}

/// Creates a bounded FIFO channel; `send` suspends while `cap` items are
/// queued.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded channel capacity must be positive");
    with_capacity_opt(Some(cap), None)
}

/// Creates a bounded FIFO channel with a diagnostic name (see
/// [`channel_named`]).
pub fn bounded_named<T>(name: &str, cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded channel capacity must be positive");
    with_capacity_opt(Some(cap), Some(name))
}

fn with_capacity_opt<T>(capacity: Option<usize>, name: Option<&str>) -> (Sender<T>, Receiver<T>) {
    let (send_label, recv_label) = match name {
        Some(name) => (
            format!("send on {name}").into(),
            format!("recv on {name}").into(),
        ),
        None => ("send on channel".into(), "recv on channel".into()),
    };
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::new(),
        capacity,
        senders: 1,
        receivers: 1,
        recv_wakers: VecDeque::new(),
        send_wakers: VecDeque::new(),
        send_label,
        recv_label,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of a channel.
pub struct Sender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Error returned when sending into a channel with no live receivers.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().receivers += 1;
        Receiver {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.wake_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            inner.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends without waiting; only valid on unbounded channels (panics on a
    /// bounded channel — use `send().await` there).
    pub fn send_now(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.capacity.is_none(),
            "send_now on a bounded channel would break back-pressure"
        );
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        inner.wake_one_recv();
        Ok(())
    }

    /// Sends, suspending while a bounded channel is full. Resolves to an
    /// error if every receiver has been dropped.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            sender: self,
            value: Some(value),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, suspending while the channel is empty.
    /// Resolves to `None` once the channel is empty *and* every sender has
    /// been dropped.
    pub fn recv(&self) -> RecvFuture<'_, T> {
        RecvFuture { receiver: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let v = inner.queue.pop_front();
        if v.is_some() {
            inner.wake_one_send();
        }
        v
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
}

// `SendFuture` owns no self-referential state; moving it between polls is
// sound, so it is `Unpin` and `poll` can use `DerefMut` directly.
impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError<T>>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.sender.inner.borrow_mut();
        let value = self
            .value
            .take()
            .expect("SendFuture polled after completion");
        if inner.receivers == 0 {
            return Poll::Ready(Err(SendError(value)));
        }
        match inner.capacity {
            Some(cap) if inner.queue.len() >= cap => {
                inner.send_wakers.push_back(cx.waker().clone());
                let label = inner.send_label.clone();
                drop(inner);
                note_current_blocked(label);
                self.value = Some(value);
                Poll::Pending
            }
            _ => {
                inner.queue.push_back(value);
                inner.wake_one_recv();
                Poll::Ready(Ok(()))
            }
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFuture<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.receiver.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            inner.wake_one_send();
            return Poll::Ready(Some(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(None);
        }
        inner.recv_wakers.push_back(cx.waker().clone());
        let label = inner.recv_label.clone();
        drop(inner);
        note_current_blocked(label);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn fifo_order_is_preserved() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                got2.borrow_mut().push(v);
            }
        })
        .detach();
        sim.spawn(async move {
            for i in 0..5 {
                tx.send_now(i).unwrap();
            }
        })
        .detach();
        sim.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let done = Rc::new(StdRefCell::new(Vec::new()));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                done2.borrow_mut().push(v);
            }
            done2.borrow_mut().push(999);
        })
        .detach();
        tx.send_now(1).unwrap();
        drop(tx);
        sim.run();
        assert_eq!(*done.borrow(), vec![1, 999]);
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let sim = Sim::new(1);
        let (tx, rx) = bounded::<u32>(2);
        let sent_at = Rc::new(StdRefCell::new(Vec::new()));
        let sa = Rc::clone(&sent_at);
        let sim2 = sim.clone();
        sim.spawn(async move {
            for i in 0..4 {
                tx.send(i).await.unwrap();
                sa.borrow_mut().push(sim2.now().as_nanos());
            }
        })
        .detach();
        let sim3 = sim.clone();
        sim.spawn(async move {
            // Drain one item per second.
            loop {
                sim3.sleep(SimDuration::from_secs(1)).await;
                if rx.recv().await.is_none() {
                    break;
                }
            }
        })
        .detach();
        sim.run();
        let sent_at = sent_at.borrow();
        // First two fit immediately; 3rd waits for drain at t=1s, 4th at 2s.
        assert_eq!(sent_at[0], 0);
        assert_eq!(sent_at[1], 0);
        assert_eq!(sent_at[2], 1_000_000_000);
        assert_eq!(sent_at[3], 2_000_000_000);
    }

    #[test]
    fn send_fails_when_receiver_gone() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send_now(5), Err(SendError(5)));
        sim.run();
    }

    #[test]
    fn multiple_consumers_each_get_items() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let total = Rc::new(StdRefCell::new(0u32));
        for _ in 0..3 {
            let rx = rx.clone();
            let t = Rc::clone(&total);
            sim.spawn(async move {
                while let Some(v) = rx.recv().await {
                    *t.borrow_mut() += v;
                }
            })
            .detach();
        }
        drop(rx);
        sim.spawn(async move {
            for i in 1..=10 {
                tx.send_now(i).unwrap();
            }
        })
        .detach();
        sim.run();
        assert_eq!(*total.borrow(), 55);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (tx, rx) = channel::<u32>();
        assert_eq!(rx.try_recv(), None);
        tx.send_now(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
    }
}
