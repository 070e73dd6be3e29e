//! Fluid-flow (processor-sharing) resources.
//!
//! A [`Fluid`] models a capacity that concurrent consumers share fairly:
//! a NIC direction (bytes/s split across active transfers), a node's CPU
//! (core-seconds/s split across runnable workers, each capped at one core),
//! or an SSD's internal bandwidth. Each consumer asks to move `amount` units;
//! while `n` consumers are active each progresses at
//! `min(entry_cap, capacity / n)` units per second.
//!
//! # Virtual-service-time formulation
//!
//! The solver does *not* store per-entry remaining work. Every active entry
//! progresses at the *same rate* `r = min(capacity / n, entry_cap)` — in
//! both the contended and the cap-bound regime. So a single global virtual
//! clock `vt` with `dvt/dt = r` describes everyone: an entry arriving at
//! virtual time `v0` with `amount` units finishes exactly when `vt` reaches
//! `F = v0 + amount`, no matter how membership (and hence `r`) changes in
//! between. This is the classic fair-queuing virtual-time argument, and here
//! it is *exact* — no fallback is needed when `entry_cap` binds, because the
//! cap applies to every entry alike.
//!
//! Finish tags `F` live in a lazy-deletion min-heap. An arrival, departure,
//! or completion is O(log n); advancing the clock between events is O(1).
//! The previous implementation re-scanned every active entry on every event
//! (O(n) per event, O(n^2) per batch of n transfers); [`FLUID_ADVANCE_WORK`]
//! counts solver work (one per advance, one per heap pop) and is kept as the
//! regression oracle for that behaviour.
//!
//! The implementation schedules exactly one kernel event — the earliest
//! completion — recomputing it whenever a consumer arrives, departs, or
//! completes. The event's target is the shared state itself (an
//! `executor::Tick`) and a recomputation moves the pending event instead of
//! replacing it, so a busy resource holds one event slot and allocates
//! nothing per event. This is the standard fluid approximation used by
//! packet-level-accurate-enough network simulators; it reproduces bandwidth
//! contention without per-packet events.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{EventId, Sim, Tick};
use crate::time::{SimDuration, SimTime};

/// Residual work below this many units counts as complete (sub-microbyte /
/// sub-pico-core-second — far below anything the models can observe).
const EPS: f64 = 1e-6;

/// Relative slack on the virtual clock: residuals below `vt * VT_REL_EPS`
/// are float noise from accumulating `vt` over a long busy period (the tags
/// are absolute, so `F - vt` cancels catastrophically near completion) and
/// count as complete. ~4500 ulps; at `vt = 1e11` bytes this is 0.1 byte.
const VT_REL_EPS: f64 = 1e-12;

thread_local! {
    /// Diagnostic: units of solver work — one per clock advance plus one per
    /// heap pop. Scans linearly with completed transfers for the O(log n)
    /// solver; the old per-entry scan made it quadratic (see the
    /// `fluid_work_grows_linearly` regression test).
    pub static FLUID_ADVANCE_WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

struct Entry {
    /// Virtual finish tag: completes when `vt` reaches this.
    finish_v: f64,
    waker: Option<Waker>,
    done: bool,
    gen: u32,
}

/// Min-heap item (via `Reverse`): earliest finish tag first, slot index as
/// the deterministic tie-break (matching the old scan's slot-order wakes).
struct HeapItem {
    finish_v: f64,
    idx: u32,
    gen: u32,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_v
            .total_cmp(&other.finish_v)
            .then(self.idx.cmp(&other.idx))
            .then(self.gen.cmp(&other.gen))
    }
}

struct Inner {
    capacity: f64,
    entry_cap: f64,
    entries: Vec<Option<Entry>>,
    /// Per-slot generation, monotonically bumped on release so stale heap
    /// items (from cancelled consumers) never match a reused slot.
    slot_gens: Vec<u32>,
    free: Vec<usize>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    active: usize,
    /// The virtual clock: per-entry service since the last idle period.
    vt: f64,
    last: SimTime,
    /// The scheduled next-completion kernel event, while one is pending.
    next_event: Option<EventId>,
    /// Reused wake-batch buffer for [`Inner::complete_finished`].
    wake_batch: Vec<usize>,
    served: f64,
    busy: f64,
}

impl Inner {
    /// Per-entry service rate while `active > 0`.
    fn unit_rate(&self) -> f64 {
        if self.active == 0 {
            return 0.0;
        }
        (self.capacity / self.active as f64).min(self.entry_cap)
    }

    /// Advances the virtual clock from `self.last` to `now`. O(1).
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.last = now;
        if elapsed <= 0.0 || self.active == 0 {
            return;
        }
        FLUID_ADVANCE_WORK.with(|w| w.set(w.get() + 1));
        self.busy += elapsed;
        let r = self.unit_rate();
        self.vt += r * elapsed;
        self.served += r * elapsed * self.active as f64;
    }

    fn is_stale(&self, item: &HeapItem) -> bool {
        match &self.entries[item.idx as usize] {
            Some(e) => e.gen != item.gen || e.done,
            None => true,
        }
    }

    /// An entry's residual counts as complete once it is below the absolute
    /// EPS or below the virtual clock's float-noise floor.
    fn finished(&self, finish_v: f64) -> bool {
        let residual_v = finish_v - self.vt;
        residual_v <= EPS || residual_v <= self.vt * VT_REL_EPS
    }

    /// Pops and wakes every entry whose finish tag the clock has reached.
    /// Returns whether any entry completed (membership changed).
    ///
    /// Wakes are issued in slot order within the batch, matching the old
    /// per-entry scan's wake order exactly — downstream models (spill
    /// thresholds, disk stream interleaving) are sensitive to it.
    fn complete_finished(&mut self) -> bool {
        // Reuse the wake-batch buffer across calls: at 1k-node churn this
        // path runs once per completion batch and the per-call Vec alloc
        // shows up in profiles. Host-side only — wake order is unchanged.
        let mut batch = std::mem::take(&mut self.wake_batch);
        batch.clear();
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.is_stale(top) {
                FLUID_ADVANCE_WORK.with(|w| w.set(w.get() + 1));
                self.heap.pop();
                continue;
            }
            let idx = top.idx as usize;
            let finish_v = self.entries[idx].as_ref().unwrap().finish_v;
            if !self.finished(finish_v) {
                break;
            }
            FLUID_ADVANCE_WORK.with(|w| w.set(w.get() + 1));
            self.heap.pop();
            // `advance` billed this entry through `vt`; refund the overshoot
            // past its own finish tag so `served` stays exact.
            self.served -= (self.vt - finish_v).max(0.0);
            self.active -= 1;
            self.entries[idx].as_mut().unwrap().done = true;
            batch.push(idx);
        }
        let changed = !batch.is_empty();
        batch.sort_unstable();
        for idx in batch.drain(..) {
            let e = self.entries[idx].as_mut().unwrap();
            if let Some(w) = e.waker.take() {
                w.wake();
            }
        }
        self.wake_batch = batch;
        if self.active == 0 {
            self.reset_clock();
        }
        changed
    }

    /// With no active entries, rebase the virtual clock (kills accumulated
    /// float error) and drop stale heap leftovers from cancellations.
    fn reset_clock(&mut self) {
        self.vt = 0.0;
        self.heap.clear();
    }

    /// Seconds until the earliest active entry finishes at current rates.
    fn time_to_next_completion(&mut self) -> Option<f64> {
        if self.active == 0 {
            return None;
        }
        let r = self.unit_rate();
        if r <= 0.0 {
            return None;
        }
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.is_stale(top) {
                FLUID_ADVANCE_WORK.with(|w| w.set(w.get() + 1));
                self.heap.pop();
                continue;
            }
            let residual_v = (top.finish_v - self.vt).max(0.0);
            return Some(residual_v / r);
        }
        None
    }
}

/// A shared-capacity resource. Cheap to clone (handle).
#[derive(Clone)]
pub struct Fluid {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl Fluid {
    /// Creates a resource with `capacity` units/second and no per-consumer
    /// cap (a transfer alone gets the whole capacity).
    pub fn new(sim: &Sim, capacity: f64) -> Self {
        Self::with_entry_cap(sim, capacity, f64::INFINITY)
    }

    /// Creates a resource where a single consumer can progress at
    /// most `entry_cap` units/second even when the resource is idle. Used for
    /// CPUs: capacity = cores, entry_cap = 1 core.
    pub fn with_entry_cap(sim: &Sim, capacity: f64, entry_cap: f64) -> Self {
        assert!(capacity > 0.0, "fluid capacity must be positive");
        Fluid {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(Inner {
                capacity,
                entry_cap,
                entries: Vec::new(),
                slot_gens: Vec::new(),
                free: Vec::new(),
                heap: BinaryHeap::new(),
                active: 0,
                vt: 0.0,
                last: sim.now(),
                next_event: None,
                wake_batch: Vec::new(),
                served: 0.0,
                busy: 0.0,
            })),
        }
    }

    /// The configured capacity in units/second.
    pub fn capacity(&self) -> f64 {
        self.inner.borrow().capacity
    }

    /// Number of in-flight consumers.
    pub fn active(&self) -> usize {
        self.inner.borrow().active
    }

    /// Total units served so far (progressed to `sim.now()`).
    pub fn served(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        inner.served
    }

    /// Seconds during which at least one consumer was active.
    pub fn busy_seconds(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        inner.busy
    }

    /// Consumes `amount` units at an equal share of the capacity.
    ///
    /// The consumer starts progressing immediately (at call time), even
    /// before the returned future is first polled; dropping the future
    /// cancels the remaining work.
    pub fn consume(&self, amount: f64) -> ConsumeFuture {
        assert!(amount.is_finite() && amount >= 0.0, "bad amount {amount}");
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        inner.advance(now);
        inner.complete_finished();
        let done = amount <= EPS;
        let finish_v = inner.vt + amount;
        let idx = if let Some(idx) = inner.free.pop() {
            idx
        } else {
            inner.entries.push(None);
            inner.slot_gens.push(0);
            inner.entries.len() - 1
        };
        let gen = inner.slot_gens[idx];
        inner.entries[idx] = Some(Entry {
            finish_v,
            waker: None,
            done,
            gen,
        });
        if !done {
            inner.active += 1;
            inner.heap.push(Reverse(HeapItem {
                finish_v,
                idx: idx as u32,
                gen,
            }));
        }
        drop(inner);
        reschedule(&self.sim, &self.inner);
        ConsumeFuture {
            fluid: self.clone(),
            idx,
            gen,
            finished: false,
        }
    }

    fn release_slot(&self, idx: usize) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        // Settle progress up to `now` before changing membership, otherwise
        // the departing consumer's share is retroactively handed to the
        // survivors.
        inner.advance(now);
        inner.complete_finished();
        if let Some(e) = inner.entries[idx].take() {
            // Bump the slot generation so this entry's heap item goes stale.
            inner.slot_gens[idx] = inner.slot_gens[idx].wrapping_add(1);
            inner.free.push(idx);
            if !e.done {
                // Cancelled mid-flight.
                inner.active -= 1;
                if inner.active == 0 {
                    inner.reset_clock();
                }
                drop(inner);
                reschedule(&self.sim, &self.inner);
            }
        }
    }
}

/// Recomputes `inner`'s next completion and makes its kernel event fire then.
///
/// The event always ends up under a *fresh* sequence number, exactly as if it
/// had been cancelled and scheduled anew: keeping the old number when the
/// time did not move was measured to reorder same-instant events against
/// other schedulers, which perturbs verbs-engine results — the
/// replay-identity gates forbid it. [`Sim::reschedule`] does that in one
/// sift of the pending entry, in its slot.
fn reschedule(sim: &Sim, inner: &Rc<RefCell<Inner>>) {
    let (pending, next) = {
        let mut inner = inner.borrow_mut();
        (inner.next_event, inner.time_to_next_completion())
    };
    let next = next.map(|dt| sim.now() + SimDuration::from_secs_f64(dt));
    match (pending, next) {
        (Some(ev), Some(at)) => {
            let moved = sim.reschedule(ev, at);
            debug_assert!(moved, "the fluid's own event is pending until it ticks");
        }
        (Some(ev), None) => {
            sim.cancel(ev);
            inner.borrow_mut().next_event = None;
        }
        (None, Some(at)) => {
            let ev = sim.schedule_tick(at, Rc::clone(inner) as Rc<dyn Tick>);
            inner.borrow_mut().next_event = Some(ev);
        }
        (None, None) => {}
    }
}

/// The next-completion event: advance, complete, reschedule.
impl Tick for RefCell<Inner> {
    fn tick(self: Rc<Self>, sim: &Sim) {
        {
            let mut inner = self.borrow_mut();
            inner.next_event = None;
            inner.advance(sim.now());
            inner.complete_finished();
        }
        reschedule(sim, &self);
    }
}

/// Future returned by [`Fluid::consume`]; resolves when the requested amount
/// has been transferred.
pub struct ConsumeFuture {
    fluid: Fluid,
    idx: usize,
    gen: u32,
    finished: bool,
}

impl Future for ConsumeFuture {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.fluid.inner.borrow_mut();
        let entry = inner.entries[self.idx]
            .as_mut()
            .filter(|e| e.gen == self.gen)
            .expect("ConsumeFuture entry vanished");
        if entry.done {
            drop(inner);
            self.finished = true;
            let idx = self.idx;
            self.fluid.release_slot(idx);
            Poll::Ready(())
        } else {
            entry.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl Drop for ConsumeFuture {
    fn drop(&mut self) {
        if !self.finished {
            // Verify generation before releasing (slot may have been reused
            // after normal completion path already released it).
            let matches = {
                let inner = self.fluid.inner.borrow();
                inner.entries[self.idx]
                    .as_ref()
                    .map(|e| e.gen == self.gen)
                    .unwrap_or(false)
            };
            if matches {
                self.fluid.release_slot(self.idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn at_secs(ns: u64) -> SimTime {
        SimTime::from_nanos(ns * 1_000_000_000)
    }

    #[test]
    fn lone_consumer_gets_full_capacity() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 100.0); // 100 units/s
        let sim2 = sim.clone();
        let done = sim.block_on(sim.spawn(async move {
            f.consume(200.0).await;
            sim2.now()
        }));
        assert_eq!(done, at_secs(2));
    }

    #[test]
    fn two_consumers_share_fairly() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 100.0);
        let consume = |amount| {
            let (f, sim2) = (f.clone(), sim.clone());
            sim.spawn(async move {
                f.consume(amount).await;
                sim2.now()
            })
        };
        let (small, big) = (consume(100.0), consume(300.0));
        // Shared 50/50 until small (100u) finishes at t=2s; big then has
        // 200u left alone at 100u/s → finishes at t=4s.
        assert_eq!(sim.block_on(big), at_secs(4));
        assert_eq!(sim.block_on(small), at_secs(2));
    }

    #[test]
    fn late_arrival_slows_first_consumer() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 100.0);
        let first = {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                f.consume(150.0).await;
                sim2.now()
            })
        };
        {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_secs(1)).await;
                f.consume(1000.0).await;
            })
            .detach();
        }
        // First mover does 100u in [0,1), then shares: 50u left at 50u/s →
        // finishes at t=2s.
        assert_eq!(sim.block_on(first), at_secs(2));
    }

    #[test]
    fn entry_cap_limits_lone_consumer() {
        let sim = Sim::new(1);
        // 8 "cores", each consumer capped at 1 core.
        let f = Fluid::with_entry_cap(&sim, 8.0, 1.0);
        let sim2 = sim.clone();
        let t = sim.block_on(sim.spawn(async move {
            f.consume(3.0).await; // 3 core-seconds at 1 core
            sim2.now()
        }));
        assert_eq!(t, at_secs(3));
    }

    #[test]
    fn oversubscribed_cpu_shares() {
        let sim = Sim::new(1);
        let f = Fluid::with_entry_cap(&sim, 2.0, 1.0); // 2 cores
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let f = f.clone();
            let sim2 = sim.clone();
            let fin = Rc::clone(&finishes);
            sim.spawn(async move {
                f.consume(1.0).await; // 1 core-second each
                fin.borrow_mut().push(sim2.now());
            })
            .detach();
        }
        sim.run();
        // 4 consumers on 2 cores → each runs at 0.5 core → all done at 2s.
        for t in finishes.borrow().iter() {
            assert_eq!(*t, at_secs(2));
        }
    }

    #[test]
    fn zero_amount_completes_immediately() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 10.0);
        sim.block_on(sim.spawn(async move { f.consume(0.0).await }));
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn cancelled_consumer_frees_bandwidth() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 100.0);
        // Consumer A: 100u, will race a 0.5s timer and lose, cancelling.
        {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                use crate::sync::select::{select2, Either};
                let r = select2(
                    f.consume(1_000.0),
                    sim2.sleep(SimDuration::from_millis(500)),
                )
                .await;
                assert!(matches!(r, Either::Right(())));
            })
            .detach();
        }
        // Consumer B: 100u, should finish at 0.5s(shared)+0.5s... compute:
        // [0,0.5]: both share 50u/s → B has 75u left; A cancels at 0.5s;
        // B alone: 75u at 100u/s → done at 1.25s.
        let b = {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                f.consume(100.0).await;
                sim2.now()
            })
        };
        assert_eq!(sim.block_on(b).as_nanos(), 1_250_000_000);
    }

    #[test]
    fn served_and_busy_account_correctly() {
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 10.0);
        {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                f.consume(10.0).await; // busy [0,1]
                sim2.sleep(SimDuration::from_secs(1)).await; // idle [1,2]
                f.consume(20.0).await; // busy [2,4]
            })
            .detach();
        }
        sim.run();
        assert!((f.served() - 30.0).abs() < 1e-3);
        assert!((f.busy_seconds() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn slot_reuse_after_cancel_ignores_stale_heap_items() {
        // A cancelled consumer leaves a stale heap item behind; a new
        // consumer reusing the slot must not be completed by it.
        let sim = Sim::new(1);
        let f = Fluid::new(&sim, 100.0);
        {
            // Cancels at 0.1s with ~990u left → stale tag far in the future.
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                use crate::sync::select::{select2, Either};
                let r = select2(
                    f.consume(1_000.0),
                    sim2.sleep(SimDuration::from_millis(100)),
                )
                .await;
                assert!(matches!(r, Either::Right(())));
            })
            .detach();
        }
        // Starts after the cancel, reuses the freed slot.
        let late = {
            let f = f.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(200)).await;
                f.consume(100.0).await;
                sim2.now()
            })
        };
        // Sole consumer of 100u at 100u/s from t=0.2 → done at 1.2s.
        assert_eq!(sim.block_on(late).as_nanos(), 1_200_000_000);
    }
}
