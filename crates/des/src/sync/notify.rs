//! Edge-triggered notification, the building block for condition-variable
//! style waiting inside the simulation.
//!
//! A waiter snapshots the notify epoch when the [`Notified`] future is
//! *created*; the future resolves once the epoch moves past the snapshot.
//! This gives the usual "no lost wakeups between check and wait" guarantee:
//! create the future while the predicate is false, re-check, then await.
//!
//! A [`Notified`] registers its task's waker once, at its first pending poll,
//! and takes it back when dropped, so the waiter list holds exactly the
//! futures that are live and were polled — however often a `select2` polls
//! them again, and however many are created and abandoned between two
//! notifications. (It must therefore be awaited from one task; a task's
//! waker never changes in this executor.)

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::note_current_blocked;

struct Inner {
    epoch: u64,
    /// Registered waiters in registration order, each under the ticket its
    /// [`Notified`] holds. `notify_all` drains the list.
    waiters: Vec<(u64, Waker)>,
    next_ticket: u64,
    /// Recycled buffer for the multi-waiter `notify_all` path so repeated
    /// fan-outs reuse one allocation instead of re-growing the waiter list
    /// from empty on every cycle.
    scratch: Vec<(u64, Waker)>,
    /// Pre-formatted blocking label ("notified on <name>"), built once at
    /// construction so `Pending` polls record it with an `Rc` clone instead
    /// of a `format!` allocation.
    label: Rc<str>,
}

/// A cloneable, edge-triggered event.
#[derive(Clone)]
pub struct Notify {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Creates a new notifier.
    pub fn new() -> Self {
        Self::new_named("notify")
    }

    /// Creates a named notifier. Tasks stalled waiting on it appear as
    /// `notified on <name>` in
    /// [`crate::executor::Sim::step_until_no_events`] reports.
    pub fn new_named(name: &str) -> Self {
        Notify {
            inner: Rc::new(RefCell::new(Inner {
                epoch: 0,
                waiters: Vec::new(),
                next_ticket: 0,
                scratch: Vec::new(),
                label: Rc::from(format!("notified on {name}").as_str()),
            })),
        }
    }

    /// Wakes every waiter whose [`Notified`] future was created before this
    /// call.
    ///
    /// The common runtime pattern is a single daemon parked on one notifier
    /// (per-node heartbeats on `work`, one joiner on `done`), so the hot
    /// path is exactly one waiter. That case pops the waker directly and
    /// keeps the waiter buffer; the fan-out case swaps the buffer with a
    /// recycled scratch vector. Wake *order* is identical to the naive
    /// drain in both cases, so replay trace hashes are unaffected.
    pub fn notify_all(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        match inner.waiters.len() {
            0 => {}
            1 => {
                // Single-waiter fast path: no buffer churn at all.
                let (_, w) = inner.waiters.pop().expect("len checked");
                drop(inner);
                w.wake();
            }
            _ => {
                let mut waiters = std::mem::take(&mut inner.scratch);
                std::mem::swap(&mut inner.waiters, &mut waiters);
                drop(inner);
                for (_, w) in waiters.drain(..) {
                    w.wake();
                }
                // Hand the (drained, still-allocated) buffer back for reuse.
                self.inner.borrow_mut().scratch = waiters;
            }
        }
    }

    /// Returns a future that resolves at the next `notify_all` after this
    /// call.
    pub fn notified(&self) -> Notified {
        Notified {
            inner: Rc::clone(&self.inner),
            seen: self.inner.borrow().epoch,
            ticket: None,
        }
    }

    /// Number of registered waiters (diagnostic).
    pub fn waiters(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    inner: Rc<RefCell<Inner>>,
    seen: u64,
    /// Set once this future's waker is in the waiter list.
    ticket: Option<u64>,
}

impl Future for Notified {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.inner.borrow_mut();
        if inner.epoch > this.seen {
            return Poll::Ready(());
        }
        if this.ticket.is_none() {
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            inner.waiters.push((ticket, cx.waker().clone()));
            this.ticket = Some(ticket);
        }
        let label = Rc::clone(&inner.label);
        drop(inner);
        note_current_blocked(label);
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut inner = self.inner.borrow_mut();
        // A notification since `seen` drained the list, this waiter with it.
        if inner.epoch == self.seen {
            if let Some(at) = inner.waiters.iter().position(|(t, _)| *t == ticket) {
                inner.waiters.remove(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn notified_wakes_waiter() {
        let sim = Sim::new(1);
        let n = Notify::new();

        let n2 = n.clone();
        let waiter = sim.spawn(async move {
            n2.notified().await;
        });

        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_secs(1)).await;
            n.notify_all();
        })
        .detach();

        sim.block_on(waiter);
        assert_eq!(sim.now().as_nanos(), 1_000_000_000);
    }

    #[test]
    fn notification_before_creation_is_missed() {
        // Edge semantics: a notify_all that happened before the future was
        // created must not satisfy it.
        let sim = Sim::new(1);
        let n = Notify::new();
        n.notify_all();
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        let fut = n.notified(); // created AFTER the notify above
        sim.spawn(async move {
            fut.await;
            hit2.set(true);
        })
        .detach();
        sim.run();
        assert!(!hit.get());
    }

    #[test]
    fn notification_between_creation_and_await_is_caught() {
        // The "check-then-wait" pattern: future created first, notify fires,
        // then the await must complete immediately.
        let sim = Sim::new(1);
        let n = Notify::new();
        let fut = n.notified();
        n.notify_all();
        sim.block_on(sim.spawn(fut));
    }

    #[test]
    fn repeated_cycles_hit_both_fast_paths() {
        // Alternating single-waiter and fan-out rounds through the same
        // notifier: the scratch-buffer recycling and the pop fast path must
        // both deliver every wakeup, round after round.
        let sim = Sim::new(7);
        let n = Notify::new();
        let count = Rc::new(Cell::new(0u32));
        let mut expected = 0u32;
        for round in 0..6u64 {
            let waiters = if round % 2 == 0 { 1 } else { 4 };
            expected += waiters;
            for _ in 0..waiters {
                let n2 = n.clone();
                let c = Rc::clone(&count);
                sim.spawn(async move {
                    n2.notified().await;
                    c.set(c.get() + 1);
                })
                .detach();
            }
            let n2 = n.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(round + 1)).await;
                n2.notify_all();
            })
            .detach();
            sim.run();
        }
        assert_eq!(count.get(), expected);
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let sim = Sim::new(1);
        let n = Notify::new();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let n2 = n.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                n2.notified().await;
                c.set(c.get() + 1);
            })
            .detach();
        }
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(1)).await;
            n.notify_all();
        })
        .detach();
        sim.run();
        assert_eq!(count.get(), 5);
    }

    /// Polls `fut` once with a waker that records nothing.
    fn poll_once(fut: &mut Notified) -> Poll<()> {
        let mut cx = Context::from_waker(Waker::noop());
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn repeated_pending_polls_register_one_waiter() {
        // A `select2` polls its losing branch on every wake of the task; a
        // shuffle run used to leave one waker per message behind.
        let n = Notify::new();
        let mut fut = n.notified();
        for _ in 0..100 {
            assert!(poll_once(&mut fut).is_pending());
        }
        assert_eq!(n.waiters(), 1);
        n.notify_all();
        assert_eq!(n.waiters(), 0);
        assert!(poll_once(&mut fut).is_ready());
    }

    #[test]
    fn abandoned_futures_leave_the_list() {
        // Created, polled and dropped without a notification in between —
        // the loser of a `select2` against a timer, once per loop turn.
        let n = Notify::new();
        let mut keeper = n.notified();
        assert!(poll_once(&mut keeper).is_pending());
        for _ in 0..100 {
            let mut fut = n.notified();
            assert!(poll_once(&mut fut).is_pending());
            assert_eq!(n.waiters(), 2);
            drop(fut);
            assert_eq!(n.waiters(), 1);
        }
        // Never polled: never registered, nothing to take back.
        drop(n.notified());
        assert_eq!(n.waiters(), 1);
        // Dropped after the notification that drained it: must not take a
        // later waiter's entry with it.
        n.notify_all();
        let mut later = n.notified();
        assert!(poll_once(&mut later).is_pending());
        drop(keeper);
        assert_eq!(n.waiters(), 1);
    }

    #[test]
    fn waiters_wake_in_registration_order() {
        // Registration order, with an abandoned waiter taken out of the
        // middle: replay determinism rests on this order.
        let sim = Sim::new(1);
        let n = Notify::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let gate = Notify::new();
        for i in 0..5u32 {
            let (n2, gate2, order2) = (n.clone(), gate.clone(), Rc::clone(&order));
            sim.spawn(async move {
                if i == 2 {
                    // Registers third, then walks away before the notify.
                    crate::sync::select2(n2.notified(), gate2.notified()).await;
                } else {
                    n2.notified().await;
                    order2.borrow_mut().push(i);
                }
            })
            .detach();
        }
        let sim2 = sim.clone();
        let n2 = n.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(1)).await;
            gate.notify_all();
            sim2.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(n2.waiters(), 4);
            n2.notify_all();
        })
        .detach();
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 3, 4]);
    }
}
