//! A fair (FIFO) counting semaphore.
//!
//! Used wherever the simulated systems limit concurrency or budget a finite
//! quantity: TaskTracker map/reduce slots, per-node memory budgets, shuffle
//! copier thread pools, HDFS transfer threads. Fairness matters: Hadoop's
//! slot scheduler is queue-ordered, and an unfair semaphore would let the
//! simulation starve early tasks in ways the real system cannot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{note_current_blocked, BlockedLabel};

struct Waiter {
    id: u64,
    need: u64,
    waker: Option<Waker>,
    granted: bool,
}

struct Inner {
    permits: u64,
    next_id: u64,
    waiters: VecDeque<Waiter>,
    /// Diagnostic name; shows up in deadlock reports as
    /// "acquire(n) on <name>". `None` for an unnamed semaphore, so creating
    /// one is a single allocation.
    name: Option<Rc<str>>,
}

impl Inner {
    /// Grants permits to waiters strictly in FIFO order; a large request at
    /// the head blocks smaller ones behind it (no barging).
    fn grant(&mut self) {
        while let Some(head) = self.waiters.front_mut() {
            if head.granted {
                // Already granted, waiting to be polled; look no further —
                // FIFO means nothing behind it may overtake.
                break;
            }
            if head.need <= self.permits {
                self.permits -= head.need;
                head.granted = true;
                if let Some(w) = head.waker.take() {
                    w.wake();
                }
            } else {
                break;
            }
        }
        // Drop granted-and-consumed entries from the front lazily; actual
        // removal happens in AcquireFuture::poll / drop.
    }

    fn remove_waiter(&mut self, id: u64) -> Option<Waiter> {
        let pos = self.waiters.iter().position(|w| w.id == id)?;
        self.waiters.remove(pos)
    }
}

/// A fair async counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<Inner>>,
}

impl Semaphore {
    /// Creates a semaphore holding `permits` permits.
    pub fn new(permits: u64) -> Self {
        Self::with_name(None, permits)
    }

    /// Creates a named semaphore. Tasks stalled acquiring it appear as
    /// `acquire(n) on <name>` in
    /// [`crate::executor::Sim::step_until_no_events`] reports.
    pub fn new_named(name: &str, permits: u64) -> Self {
        Self::with_name(Some(Rc::from(name)), permits)
    }

    fn with_name(name: Option<Rc<str>>, permits: u64) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(Inner {
                permits,
                next_id: 0,
                waiters: VecDeque::new(),
                name,
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.inner.borrow().permits
    }

    /// Number of queued waiters.
    pub fn queued(&self) -> usize {
        self.inner.borrow().waiters.len()
    }

    /// Acquires `n` permits, suspending until they are available. The permits
    /// are returned when the [`Permit`] guard drops (or leak with
    /// [`Permit::forget`]).
    pub fn acquire(&self, n: u64) -> AcquireFuture {
        AcquireFuture {
            sem: self.clone(),
            need: n,
            id: None,
        }
    }

    /// Tries to acquire `n` permits without waiting. Fails if other waiters
    /// are queued, preserving FIFO fairness.
    pub fn try_acquire(&self, n: u64) -> Option<Permit> {
        let mut inner = self.inner.borrow_mut();
        if inner.waiters.is_empty() && inner.permits >= n {
            inner.permits -= n;
            Some(Permit {
                sem: self.clone(),
                n,
            })
        } else {
            None
        }
    }

    /// Adds `n` permits (used to model releasing budget acquired elsewhere,
    /// e.g. when a cached buffer is evicted by a different component).
    pub fn release_raw(&self, n: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        inner.grant();
    }
}

/// RAII guard for acquired permits.
pub struct Permit {
    sem: Semaphore,
    n: u64,
}

impl Permit {
    /// Number of permits held.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Releases part of the permits early, keeping the rest.
    pub fn release_partial(&mut self, n: u64) {
        let n = n.min(self.n);
        self.n -= n;
        self.sem.release_raw(n);
    }

    /// Leaks the permits: they are never returned. Models permanently
    /// consumed budget.
    pub fn forget(mut self) {
        self.n = 0;
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.n > 0 {
            self.sem.release_raw(self.n);
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct AcquireFuture {
    sem: Semaphore,
    need: u64,
    id: Option<u64>,
}

impl AcquireFuture {
    /// Records "acquire(n) on <name>" as what the current task waits for —
    /// as its parts: a blocked acquire is one per queued disk I/O, and only
    /// a stall report ever reads the text.
    fn note_blocked(&self, on: Option<Rc<str>>) {
        let need = self.need;
        note_current_blocked(BlockedLabel::Acquire { need, on });
    }
}

impl Future for AcquireFuture {
    type Output = Permit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let mut inner = self.sem.inner.borrow_mut();
        match self.id {
            None => {
                // Fast path only when nobody is queued (fairness).
                if inner.waiters.is_empty() && inner.permits >= self.need {
                    inner.permits -= self.need;
                    drop(inner);
                    let n = self.need;
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                        n,
                    });
                }
                let id = inner.next_id;
                inner.next_id += 1;
                inner.waiters.push_back(Waiter {
                    id,
                    need: self.need,
                    waker: Some(cx.waker().clone()),
                    granted: false,
                });
                inner.grant();
                // grant() may have granted us synchronously.
                let granted = inner
                    .waiters
                    .iter()
                    .find(|w| w.id == id)
                    .map(|w| w.granted)
                    .unwrap_or(false);
                if granted {
                    inner.remove_waiter(id);
                    inner.grant();
                    drop(inner);
                    let n = self.need;
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                        n,
                    });
                }
                let name = inner.name.clone();
                drop(inner);
                self.note_blocked(name);
                self.id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                let granted = inner
                    .waiters
                    .iter()
                    .find(|w| w.id == id)
                    .map(|w| w.granted)
                    .unwrap_or(false);
                if granted {
                    inner.remove_waiter(id);
                    inner.grant();
                    drop(inner);
                    self.id = None;
                    let n = self.need;
                    Poll::Ready(Permit {
                        sem: self.sem.clone(),
                        n,
                    })
                } else {
                    if let Some(w) = inner.waiters.iter_mut().find(|w| w.id == id) {
                        w.waker = Some(cx.waker().clone());
                    }
                    let name = inner.name.clone();
                    drop(inner);
                    self.note_blocked(name);
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for AcquireFuture {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut inner = self.sem.inner.borrow_mut();
            if let Some(w) = inner.remove_waiter(id) {
                if w.granted {
                    // Granted but never observed: return the permits.
                    inner.permits += w.need;
                }
                inner.grant();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn limits_concurrency() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let peak = Rc::new(RefCell::new((0u32, 0u32))); // (current, peak)
        for _ in 0..6 {
            let sem = sem.clone();
            let sim2 = sim.clone();
            let peak2 = Rc::clone(&peak);
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                {
                    let mut g = peak2.borrow_mut();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                sim2.sleep(SimDuration::from_secs(1)).await;
                peak2.borrow_mut().0 -= 1;
            })
            .detach();
        }
        let end = sim.run();
        assert_eq!(peak.borrow().1, 2);
        assert_eq!(end.as_nanos(), 3_000_000_000); // 6 jobs / 2 wide / 1s each
    }

    #[test]
    fn fifo_no_barging() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let order = Rc::new(RefCell::new(Vec::new()));
        // t=0: task A takes both permits for 1s.
        {
            let sem = sem.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                let _p = sem.acquire(2).await;
                sim2.sleep(SimDuration::from_secs(1)).await;
            })
            .detach();
        }
        // B needs 2 (queued first), C needs 1 (queued second). C must NOT
        // sneak past B when 1 permit frees transiently.
        for (name, need) in [("B", 2u64), ("C", 1u64)] {
            let sem = sem.clone();
            let sim2 = sim.clone();
            let order2 = Rc::clone(&order);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(1)).await;
                if name == "C" {
                    sim2.sleep(SimDuration::from_millis(1)).await;
                }
                let _p = sem.acquire(need).await;
                order2.borrow_mut().push(name);
                sim2.sleep(SimDuration::from_secs(1)).await;
            })
            .detach();
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["B", "C"]);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let p = sem.try_acquire(1).unwrap();
        // A waiter queues up.
        {
            let sem = sem.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
            })
            .detach();
        }
        // Poll the waiter into the queue.
        sim.run_until(crate::time::SimTime::from_nanos(1));
        assert!(
            sem.try_acquire(1).is_none(),
            "queue is empty but waiter exists"
        );
        drop(p);
        sim.run();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn release_partial_and_forget() {
        let sem = Semaphore::new(10);
        let mut p = sem.try_acquire(8).unwrap();
        p.release_partial(3);
        assert_eq!(sem.available(), 5);
        p.forget();
        assert_eq!(sem.available(), 5); // 5 permits leaked
    }

    #[test]
    fn permits_return_on_drop() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(3);
        {
            let sem = sem.clone();
            sim.spawn(async move {
                let _a = sem.acquire(2).await;
            })
            .detach();
        }
        sim.run();
        assert_eq!(sem.available(), 3);
    }

    /// The stall report's text, pinned from the parent commit (which
    /// formatted the label at the first `Pending`; it is now rendered here,
    /// from the parts).
    #[test]
    fn blocked_acquire_reports_need_and_name() {
        let sim = Sim::new(1);
        let disk = Semaphore::new_named("dn3-disk0", 2);
        let anon = Semaphore::new(1);
        for (task, sem, need) in [
            ("writer", &disk, 3),
            ("reader", &disk, 1),
            ("other", &anon, 2),
        ] {
            let sem = sem.clone();
            sim.spawn_named(task, async move {
                let _p = sem.acquire(need).await;
            })
            .detach();
        }
        assert_eq!(
            sim.step_until_no_events().to_string(),
            "deadlock at 0.000000s: 3 task(s) live but unrunnable:\n  \
             - writer (blocked on acquire(3) on dn3-disk0)\n  \
             - reader (blocked on acquire(1) on dn3-disk0)\n  \
             - other (blocked on acquire(2) on semaphore)"
        );
    }
}
