//! Property-based tests on the DES kernel: fluid conservation, semaphore
//! bounds, channel FIFO order, and the event queue against the queue it
//! replaced — under randomly generated programs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};

use proptest::prelude::*;

use rmr_des::prelude::*;
use rmr_des::EventId;

/// The event queue as it was before the indexed heap, kept verbatim as the
/// reference: a `BinaryHeap` with lazy deletion. `cancel` clears the slot's
/// action and leaves the entry to be skipped when popped, slots are released
/// on the fire path alone, `run_until` pops and pushes back, and moving an
/// event is a cancel plus a fresh schedule. An action is reduced to its
/// payload; firing hands it back instead of running it.
mod oracle {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct EventId {
        index: u32,
        gen: u32,
    }

    struct EventSlot {
        gen: u32,
        /// `None` when the slot is vacant or the event was cancelled.
        action: Option<u32>,
    }

    #[derive(PartialEq, Eq)]
    struct HeapEntry {
        time: u64,
        seq: u64,
        event: EventId,
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.seq).cmp(&(other.time, other.seq))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    pub struct Queue {
        pub now: u64,
        seq: u64,
        heap: BinaryHeap<Reverse<HeapEntry>>,
        events: Vec<EventSlot>,
        free_events: Vec<u32>,
        pub events_fired: u64,
        pub trace_hash: u64,
    }

    fn fold_hash(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= b as u64;
            *hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }

    impl Queue {
        pub fn new() -> Self {
            Queue {
                now: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                events: Vec::new(),
                free_events: Vec::new(),
                events_fired: 0,
                trace_hash: 0xcbf2_9ce4_8422_2325,
            }
        }

        fn alloc_event(&mut self, action: u32) -> EventId {
            if let Some(index) = self.free_events.pop() {
                let slot = &mut self.events[index as usize];
                slot.action = Some(action);
                EventId {
                    index,
                    gen: slot.gen,
                }
            } else {
                let index = self.events.len() as u32;
                self.events.push(EventSlot {
                    gen: 0,
                    action: Some(action),
                });
                EventId { index, gen: 0 }
            }
        }

        fn release_event(&mut self, id: EventId) {
            let slot = &mut self.events[id.index as usize];
            debug_assert_eq!(slot.gen, id.gen);
            slot.gen = slot.gen.wrapping_add(1);
            slot.action = None;
            self.free_events.push(id.index);
        }

        pub fn schedule(&mut self, at: u64, action: u32) -> EventId {
            let at = at.max(self.now);
            let id = self.alloc_event(action);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(HeapEntry {
                time: at,
                seq,
                event: id,
            }));
            id
        }

        pub fn cancel(&mut self, id: EventId) {
            let slot = &mut self.events[id.index as usize];
            if slot.gen == id.gen {
                // Leave the heap entry in place; it is skipped when popped.
                slot.action = None;
            }
        }

        /// What `Fluid::reschedule` did: cancel, then schedule the same
        /// action afresh. `None` if the event is no longer pending.
        pub fn reschedule(&mut self, id: EventId, at: u64) -> Option<EventId> {
            let slot = &self.events[id.index as usize];
            let action = slot.action.filter(|_| slot.gen == id.gen)?;
            self.cancel(id);
            Some(self.schedule(at, action))
        }

        pub fn pending(&self) -> usize {
            let live = |e: &&Reverse<HeapEntry>| {
                let slot = &self.events[e.0.event.index as usize];
                slot.gen == e.0.event.gen && slot.action.is_some()
            };
            self.heap.iter().filter(live).count()
        }

        /// One turn of the executor's phase 2: fires the earliest live event
        /// at or before `limit` and returns its `(time, action)`; `None` once
        /// the heap is drained or the limit is reached (the clock then stops
        /// at the limit).
        pub fn fire_next(&mut self, limit: Option<u64>) -> Option<(u64, u32)> {
            loop {
                let Reverse(entry) = self.heap.pop()?;
                {
                    let slot = &self.events[entry.event.index as usize];
                    if slot.gen != entry.event.gen || slot.action.is_none() {
                        continue; // cancelled or stale
                    }
                }
                if let Some(limit) = limit {
                    if entry.time > limit {
                        // Push back and stop at the limit.
                        self.heap.push(Reverse(entry));
                        self.now = limit;
                        return None;
                    }
                }
                self.now = entry.time;
                self.events_fired += 1;
                let mut h = self.trace_hash;
                fold_hash(&mut h, &entry.time.to_le_bytes());
                fold_hash(&mut h, &entry.seq.to_le_bytes());
                self.trace_hash = h;
                let id = entry.event;
                let action = self.events[id.index as usize].action.take();
                // Release after take so the id can be reused.
                self.release_event(id);
                return Some((entry.time, action.expect("live event")));
            }
        }
    }
}

/// One step of a random event-queue program. Offsets are small so that times
/// collide and the sequence number decides; an offset below 2 lands in the
/// past and is clamped to now.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule a closure (`wake == false`) or a waker at `now - 2 + dt`.
    Schedule { dt: u64, wake: bool },
    /// Cancel the `which`-th event the program scheduled, pending or not.
    Cancel { which: usize },
    /// Move it to `now - 2 + dt`.
    Reschedule { which: usize, dt: u64 },
    /// `run_until(now + dt)`.
    RunUntil { dt: u64 },
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..9, 0u8..2).prop_map(|(dt, w)| QueueOp::Schedule { dt, wake: w == 1 }),
        (0u64..9, 0u8..2).prop_map(|(dt, w)| QueueOp::Schedule { dt, wake: w == 1 }),
        (0usize..64).prop_map(|which| QueueOp::Cancel { which }),
        (0usize..64, 0u64..9).prop_map(|(which, dt)| QueueOp::Reschedule { which, dt }),
        (0u64..5).prop_map(|dt| QueueOp::RunUntil { dt }),
    ]
}

/// Payloads: the program's `n`-th `Schedule` is `2n` for a closure and
/// `2n + 1` for a waker. Every third closure schedules a follow-up closure
/// when it fires — from inside the run, into the slot the firing event just
/// vacated; follow-ups (`>= 10_000`) have none of their own.
fn follow_up(payload: u32) -> Option<(u64, u32)> {
    let n = payload / 2;
    (payload.is_multiple_of(2) && n.is_multiple_of(3) && payload < 10_000)
        .then_some((u64::from(n % 4), payload + 10_000))
}

type FireLog = Arc<Mutex<Vec<u32>>>;

/// Schedules closure event `payload` on the real queue: it logs itself,
/// checks the queue from inside the run, and schedules its follow-up.
fn arm(sim: &Sim, log: &FireLog, at: u64, payload: u32) -> EventId {
    let log = Arc::clone(log);
    sim.schedule_fn(SimTime::from_nanos(at), move |sim| {
        log.lock().unwrap().push(payload);
        sim.check_event_queue();
        if let Some((dt, child)) = follow_up(payload) {
            arm(sim, &log, sim.now().as_nanos() + dt, child);
        }
    })
}

/// A timer's side of the queue: a waker that logs its payload.
struct LogWake {
    payload: u32,
    log: FireLog,
}

impl Wake for LogWake {
    fn wake(self: Arc<Self>) {
        self.log.lock().unwrap().push(self.payload);
    }
}

/// Drives the oracle to `limit` the way `run_with_limit` drives the executor,
/// applying the follow-up rule, and returns the payloads that fired.
fn run_oracle(q: &mut oracle::Queue, limit: Option<u64>) -> Vec<u32> {
    let mut fired = Vec::new();
    while let Some((time, payload)) = q.fire_next(limit) {
        fired.push(payload);
        if let Some((dt, child)) = follow_up(payload) {
            q.schedule(time + dt, child);
        }
    }
    fired
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed event queue fires exactly what the lazy-deletion queue it
    /// replaced fired: same payloads in the same order at the same times
    /// under the same sequence numbers (the trace hash folds every firing's
    /// `(time, seq)`), with the slab never larger than the most events ever
    /// pending at once and every slot pointing at its heap entry throughout.
    #[test]
    fn event_queue_matches_the_lazy_deletion_oracle(
        ops in proptest::collection::vec(queue_op(), 1..120),
    ) {
        let sim = Sim::new(5);
        let mut q = oracle::Queue::new();
        let log: FireLog = Arc::default();
        // The ids of the program's `n`-th scheduled event on either side.
        let mut ids: Vec<(EventId, oracle::EventId)> = Vec::new();
        let mut peak_pending = 0;
        // One step per op, then a final run to quiescence.
        for step in 0..=ops.len() {
            let now = q.now;
            let at = |dt: u64| (now + dt).saturating_sub(2);
            match ops.get(step).copied() {
                Some(QueueOp::Schedule { dt, wake }) => {
                    let payload = 2 * ids.len() as u32 + u32::from(wake);
                    let real = if wake {
                        let log = Arc::clone(&log);
                        let waker = Waker::from(Arc::new(LogWake { payload, log }));
                        sim.schedule_wake(SimTime::from_nanos(at(dt)), waker)
                    } else {
                        arm(&sim, &log, at(dt), payload)
                    };
                    ids.push((real, q.schedule(at(dt), payload)));
                }
                Some(QueueOp::Cancel { which }) if !ids.is_empty() => {
                    let (real, reference) = ids[which % ids.len()];
                    sim.cancel(real);
                    q.cancel(reference);
                }
                Some(QueueOp::Reschedule { which, dt }) if !ids.is_empty() => {
                    let which = which % ids.len();
                    let moved = q.reschedule(ids[which].1, at(dt));
                    let to = SimTime::from_nanos(at(dt));
                    prop_assert_eq!(sim.reschedule(ids[which].0, to), moved.is_some());
                    // The real queue keeps the id; the old one handed out a new one.
                    ids[which].1 = moved.unwrap_or(ids[which].1);
                }
                Some(QueueOp::Cancel { .. } | QueueOp::Reschedule { .. }) => {}
                run => {
                    let limit = match run {
                        Some(QueueOp::RunUntil { dt }) => Some(now + dt),
                        _ => None,
                    };
                    let end = match limit {
                        Some(limit) => sim.run_until(SimTime::from_nanos(limit)),
                        None => sim.run(),
                    };
                    let fired = run_oracle(&mut q, limit);
                    prop_assert_eq!(std::mem::take(&mut *log.lock().unwrap()), fired);
                    prop_assert_eq!(end.as_nanos(), q.now);
                }
            }
            sim.check_event_queue();
            prop_assert_eq!(sim.now().as_nanos(), q.now);
            prop_assert_eq!(sim.pending_events(), q.pending());
            prop_assert_eq!(sim.events_fired(), q.events_fired);
            prop_assert_eq!(sim.trace_hash(), q.trace_hash);
            peak_pending = peak_pending.max(q.pending());
            prop_assert!(sim.event_slots() <= peak_pending.max(1));
        }
        prop_assert_eq!(sim.pending_events(), 0);
    }

    /// Every unit asked of a fluid resource is eventually served, exactly
    /// once, no matter how consumers arrive.
    #[test]
    fn fluid_conserves_work(
        jobs in proptest::collection::vec((1u64..5_000, 0u64..2_000), 1..24),
        capacity in 1u64..1_000,
    ) {
        let sim = Sim::new(1);
        let fluid = Fluid::new(&sim, capacity as f64);
        let total: u64 = jobs.iter().map(|(amount, _)| *amount).sum();
        let done = Rc::new(RefCell::new(0u64));
        for (amount, delay_ms) in jobs {
            let sim2 = sim.clone();
            let fluid = fluid.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(delay_ms)).await;
                fluid.consume(amount as f64).await;
                *done.borrow_mut() += amount;
            })
            .detach();
        }
        sim.run();
        prop_assert_eq!(*done.borrow(), total, "all consumers complete");
        prop_assert!((fluid.served() - total as f64).abs() < 1.0, "served ≈ requested");
        // Work conservation: busy time is at least total/capacity.
        let lower = total as f64 / capacity as f64;
        prop_assert!(fluid.busy_seconds() + 1e-6 >= lower * 0.999,
            "busy {} < lower bound {}", fluid.busy_seconds(), lower);
    }

    /// Semaphore-guarded critical sections never exceed the permit count.
    #[test]
    fn semaphore_bounds_concurrency(
        permits in 1u64..6,
        tasks in proptest::collection::vec((1u64..4, 0u64..50), 1..32),
    ) {
        let sim = Sim::new(2);
        let sem = Semaphore::new(permits);
        let state = Rc::new(RefCell::new((0u64, 0u64))); // (current, peak)
        let mut expected_done = 0usize;
        for (need, delay_ms) in tasks {
            let need = need.min(permits);
            expected_done += 1;
            let sim2 = sim.clone();
            let sem = sem.clone();
            let state = Rc::clone(&state);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(delay_ms)).await;
                let _p = sem.acquire(need).await;
                {
                    let mut s = state.borrow_mut();
                    s.0 += need;
                    s.1 = s.1.max(s.0);
                }
                sim2.sleep(SimDuration::from_millis(1)).await;
                state.borrow_mut().0 -= need;
            })
            .detach();
        }
        sim.run();
        let (current, peak) = *state.borrow();
        prop_assert_eq!(current, 0);
        prop_assert!(peak <= permits, "peak {} > permits {}", peak, permits);
        prop_assert_eq!(sem.available(), permits, "all permits returned");
        let _ = expected_done;
    }

    /// Channels deliver every message exactly once, in order per sender.
    #[test]
    fn channel_is_fifo_per_sender(
        counts in proptest::collection::vec(0usize..40, 1..5),
    ) {
        let sim = Sim::new(3);
        let (tx, rx) = rmr_des::sync::channel::<(usize, usize)>();
        for (sender, n) in counts.clone().into_iter().enumerate() {
            let tx = tx.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                for i in 0..n {
                    sim2.sleep(SimDuration::from_micros(1)).await;
                    tx.send_now((sender, i)).unwrap();
                }
            })
            .detach();
        }
        drop(tx);
        let got = sim.block_on(sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(m) = rx.recv().await {
                got.push(m);
            }
            got
        }));
        let total: usize = counts.iter().sum();
        prop_assert_eq!(got.len(), total);
        // Per-sender order preserved.
        for (sender, n) in counts.iter().enumerate() {
            let seq: Vec<usize> = got.iter().filter(|(s, _)| *s == sender).map(|(_, i)| *i).collect();
            prop_assert_eq!(seq, (0..*n).collect::<Vec<_>>());
        }
    }

    /// Timers fire in timestamp order regardless of creation order.
    #[test]
    fn timers_fire_in_order(delays in proptest::collection::vec(0u64..10_000, 1..40)) {
        let sim = Sim::new(4);
        let fired = Rc::new(RefCell::new(Vec::new()));
        for d in delays {
            let sim2 = sim.clone();
            let fired = Rc::clone(&fired);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(d)).await;
                fired.borrow_mut().push(sim2.now().as_nanos());
            })
            .detach();
        }
        sim.run();
        let fired = fired.borrow();
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    }
}
