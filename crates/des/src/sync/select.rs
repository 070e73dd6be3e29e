//! Minimal future combinators: `select2` (first of two) and `join_all`.
//!
//! The kernel deliberately avoids pulling in a futures library; simulated
//! components need only these two shapes — racing a timer against a
//! notification, and waiting for a batch of concurrent legs. Both poll their
//! futures in place, in a fixed order: `select2` holds its two inline,
//! `join_all` holds its batch in one allocation.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Outcome of [`select2`]: which future finished first, with its output.
/// The losing future is dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future won.
    Left(A),
    /// The second future won.
    Right(B),
}

/// Races two futures, resolving with the first to finish. If both are ready
/// on the same poll, the left future wins (deterministic tie-break).
pub fn select2<A: Future, B: Future>(a: A, b: B) -> Select2<A, B> {
    Select2 { a, b }
}

/// Future returned by [`select2`].
pub struct Select2<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Select2<A, B> {
    type Output = Either<A::Output, B::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning; `a` and `b` are never moved out of
        // `self` while pinned, only polled in place or dropped with the whole.
        let this = unsafe { self.get_unchecked_mut() };
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Awaits every future in `futs`, returning outputs in input order.
///
/// Every poll polls the unfinished futures in input order; a future that
/// finished is dropped at once and never polled again. The futures live side
/// by side in one pinned allocation.
pub fn join_all<F: Future>(futs: Vec<F>) -> JoinAll<F> {
    let slots: Box<[JoinSlot<F>]> = futs.into_iter().map(JoinSlot::Running).collect();
    JoinAll {
        slots: Box::into_pin(slots),
    }
}

enum JoinSlot<F: Future> {
    Running(F),
    Done(F::Output),
    /// The output moved into [`JoinAll`]'s result.
    Taken,
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    slots: Pin<Box<[JoinSlot<F>]>>,
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: the slots stay where the box put them. A running future is
        // only polled in place or dropped in place (the assignment below);
        // outputs are not futures and are free to move.
        let slots = unsafe { self.slots.as_mut().get_unchecked_mut() };
        let mut all_done = true;
        for slot in slots.iter_mut() {
            if let JoinSlot::Running(fut) = slot {
                match unsafe { Pin::new_unchecked(fut) }.poll(cx) {
                    Poll::Ready(v) => *slot = JoinSlot::Done(v),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if !all_done {
            return Poll::Pending;
        }
        let outputs = slots
            .iter_mut()
            .map(|slot| match std::mem::replace(slot, JoinSlot::Taken) {
                JoinSlot::Done(v) => v,
                _ => panic!("join_all polled after completion"),
            });
        Poll::Ready(outputs.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn select_picks_earlier_timer() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        let won = sim.block_on(sim.spawn(async move {
            let r = select2(
                sim2.sleep(SimDuration::from_secs(2)),
                sim2.sleep(SimDuration::from_secs(1)),
            )
            .await;
            match r {
                Either::Left(()) => 'L',
                Either::Right(()) => 'R',
            }
        }));
        assert_eq!(won, 'R');
        // The losing 2 s timer must have been cancelled: sim ends at 1 s.
        assert_eq!(sim.now().as_nanos(), 1_000_000_000);
    }

    #[test]
    fn select_tie_breaks_left() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        let r = sim.block_on(sim.spawn(async move {
            let d = SimDuration::from_secs(1);
            select2(sim2.sleep(d), sim2.sleep(d)).await
        }));
        assert!(matches!(r, Either::Left(())));
    }

    #[test]
    fn join_all_preserves_order() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        let results = sim.block_on(sim.spawn(async move {
            let mut futs = Vec::new();
            for i in [3u64, 1, 2] {
                let s = sim2.clone();
                futs.push(async move {
                    s.sleep(SimDuration::from_secs(i)).await;
                    i * 10
                });
            }
            join_all(futs).await
        }));
        assert_eq!(results, vec![30, 10, 20]);
        assert_eq!(sim.now().as_nanos(), 3_000_000_000);
    }

    /// Finishes on its `polls_needed`-th poll with `id * 10`; logs every poll
    /// and every drop, and refuses to be polled once finished.
    struct Probe {
        id: u32,
        polls_needed: u32,
        polls: u32,
        log: Rc<RefCell<Vec<(char, u32)>>>,
    }

    impl Future for Probe {
        type Output = u32;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            assert!(self.polls < self.polls_needed, "polled after it finished");
            self.polls += 1;
            self.log.borrow_mut().push(('p', self.id));
            if self.polls == self.polls_needed {
                return Poll::Ready(self.id * 10);
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.log.borrow_mut().push(('d', self.id));
        }
    }

    fn probes(polls_needed: &[u32], log: &Rc<RefCell<Vec<(char, u32)>>>) -> Vec<Probe> {
        let probe = |(id, &polls_needed)| Probe {
            id: id as u32,
            polls_needed,
            polls: 0,
            log: Rc::clone(log),
        };
        polls_needed.iter().enumerate().map(probe).collect()
    }

    #[test]
    fn join_all_polls_in_order_and_drops_each_future_once() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let futs = probes(&[2, 1, 3], &log);
        let out = sim.block_on(sim.spawn(join_all(futs)));
        assert_eq!(out, vec![0, 10, 20]);
        // Each round polls the unfinished probes in input order; a probe is
        // dropped the moment it finishes and never seen again.
        let (p, d) = (|id| ('p', id), |id| ('d', id));
        let want = vec![p(0), p(1), d(1), p(2), p(0), d(0), p(2), p(2), d(2)];
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn dropping_a_join_drops_its_unfinished_futures() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let futs = probes(&[1, 9, 9], &log);
        sim.spawn(async move {
            // The join gets one round, then loses to the ready right side.
            let r = select2(join_all(futs), std::future::ready(())).await;
            assert!(matches!(r, Either::Right(())));
        })
        .detach();
        sim.run();
        let (p, d) = (|id| ('p', id), |id| ('d', id));
        let want = vec![p(0), d(0), p(1), p(2), d(1), d(2)];
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let sim = Sim::new(1);
        sim.spawn(async move {
            let v: Vec<u32> = join_all(Vec::<std::future::Ready<u32>>::new()).await;
            assert!(v.is_empty());
        })
        .detach();
        assert_eq!(sim.run(), crate::time::SimTime::ZERO);
    }
}
