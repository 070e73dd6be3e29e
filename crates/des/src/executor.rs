//! A deterministic single-threaded async executor driven by a virtual clock.
//!
//! Simulated processes are ordinary `async` blocks spawned onto a [`Sim`].
//! The event loop alternates two phases:
//!
//! 1. drain the ready queue, polling every runnable task at the current
//!    virtual instant;
//! 2. when no task is runnable, pop the earliest scheduled event, advance the
//!    clock to its timestamp, and fire it (waking a task, running a closure,
//!    or ticking a recurring `Tick` target).
//!
//! Pending events live in a slab of `EventSlot`s indexed by a binary
//! min-heap of `(time, seq, slot)` entries; every heap move writes the
//! entry's position back into its slot. The heap therefore holds pending
//! events only: [`Sim::cancel`] removes the entry and recycles the slot on
//! the spot, [`Sim::reschedule`] re-keys it in one sift, and the slab never
//! grows past the peak number of events pending at once
//! ([`Sim::event_slots`]).
//!
//! All state lives behind a single `Rc<RefCell<Core>>`; user code is never
//! invoked while the core is borrowed, so re-entrant calls into the [`Sim`]
//! handle from inside tasks and event closures are always safe.
//!
//! Determinism: ties in the event heap break on a monotonically increasing
//! sequence number — firing order is a total order on `(time, seq)`, so it
//! does not depend on how the heap is laid out or which slot an event got —
//! the ready queue is FIFO, and nothing consults wall-clock
//! time or OS entropy (randomness comes from the seeded [`rand`] generator on
//! the [`Sim`] handle).
//!
//! Runtime checkers: every task carries a [`Component`] tag
//! ([`Sim::spawn_named`]), which also decides whether it is a daemon; sync
//! primitives record what a pending task is blocked on
//! ([`note_current_blocked`]); the executor folds every event firing and task
//! poll into a running trace hash ([`Sim::trace_hash`]), which
//! [`assert_deterministic`] uses to diff two runs of the same seed; and
//! [`Sim::step_until_no_events`] reports tasks that are still live when the
//! event heap drains — the lost-waker/deadlock detector.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::component::Component;
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task. Carries a generation so stale wakers for a
/// recycled slot are ignored instead of waking an unrelated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    index: u32,
    gen: u32,
}

/// Identifier of a scheduled event; cancellable until it fires. Carries its
/// slot's generation, which is bumped when the event fires or is cancelled,
/// so an id outliving its event never touches the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    index: u32,
    gen: u32,
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;
type EventFn = Box<dyn FnOnce(&Sim) + 'static>;

/// The target of a recurring kernel event (a [`crate::resource::Fluid`]'s
/// next completion): scheduling the shared state itself costs no boxed
/// closure and no handle clone per event.
pub(crate) trait Tick {
    /// Called when the event fires, outside the core borrow.
    fn tick(self: Rc<Self>, sim: &Sim);
}

enum EventAction {
    Wake(Waker),
    Call(EventFn),
    Tick(Rc<dyn Tick>),
}

struct EventSlot {
    /// Matches an [`EventId`] exactly while that event is pending.
    gen: u32,
    /// Where the event's entry sits in `Core::heap` (meaningless while the
    /// slot is vacant).
    pos: u32,
    /// `Some` exactly while the event is pending.
    action: Option<EventAction>,
}

struct TaskSlot {
    gen: u32,
    /// Taken out of the slot while the future is being polled.
    future: Option<LocalFuture>,
    live: bool,
    /// What the task is; [`Component::Anon`] in spawn order by default.
    /// Daemons ([`Component::is_daemon`]) are left out of stall reports.
    tag: Component,
    /// What the task reported waiting on at its last `Pending` poll
    /// (set by sync primitives via [`note_current_blocked`]).
    blocked_on: Option<BlockedLabel>,
    /// Wake entry for this (slot, generation), built once at spawn; every
    /// poll makes its `Waker` from a clone (an `Arc` bump) instead of
    /// allocating a fresh entry.
    wake: Arc<WakeEntry>,
}

/// The shared FIFO of tasks made runnable by wakers. `Waker` must be
/// `Send + Sync`, hence the `Arc<Mutex<..>>` even though the executor itself
/// is single-threaded (the mutex is never contended).
type ReadyQueue = Arc<Mutex<VecDeque<TaskId>>>;

struct WakeEntry {
    task: TaskId,
    ready: ReadyQueue,
    /// True while the task sits in the ready queue, so broadcast wake
    /// fan-out (a fluid completion batch finishing every leg of one
    /// transfer at the same instant) collapses to a single
    /// queue entry and a single poll. Redundant wakes while the task is
    /// already queued are dropped; the executor clears the flag when it pops
    /// the task, so wakes arriving during a poll still re-queue it.
    queued: AtomicBool,
}

impl Wake for WakeEntry {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::Relaxed) {
            self.ready.lock().unwrap().push_back(self.task);
        }
    }
}

/// One pending event in the min-heap, ordered by `(time, seq)`; `slot`
/// indexes `Core::events`.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// `(time, seq)` as one integer: a comparison is a subtract-with-borrow,
    /// not two branches, so picking the earlier of two children — a coin
    /// flip to the branch predictor — compiles to a conditional move.
    fn key(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }
}

struct Core {
    now: SimTime,
    seq: u64,
    /// Binary min-heap of the pending events, and nothing else.
    heap: Vec<HeapEntry>,
    /// The event slab; `heap[events[i].pos].slot == i` for every pending `i`.
    events: Vec<EventSlot>,
    /// Vacant slots, reused last-freed-first.
    free_events: Vec<u32>,
    tasks: Vec<TaskSlot>,
    free_tasks: Vec<u32>,
    live_tasks: usize,
    ready: ReadyQueue,
    rng: SmallRng,
    events_fired: u64,
    polls: u64,
    spawns: u64,
    /// FNV-1a fold of every (time, seq) event firing and every
    /// (time, poll-seq, task) poll. Identical programs on identical seeds
    /// must produce identical hashes — `assert_deterministic` diffs them.
    trace_hash: u64,
}

/// FNV-1a fold of `bytes` into `hash`.
fn fold_hash(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds whatever is written into it into a trace hash. FNV-1a is
/// byte-sequential, so writing a value's [`std::fmt::Display`] output piece
/// by piece folds exactly what hashing the whole rendered string would.
struct HashWriter<'a>(&'a mut u64);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        fold_hash(self.0, s.as_bytes());
        Ok(())
    }
}

thread_local! {
    /// The task currently being polled by the executor on this thread, so
    /// sync primitives can attribute their `Pending` to it without holding
    /// a reference into the core.
    static CURRENT_TASK: RefCell<Option<(std::rc::Weak<RefCell<Core>>, TaskId)>> =
        const { RefCell::new(None) };
}

/// A blocking-reason label: a static description, a shared, pre-formatted
/// string owned by the sync primitive that records it, or the parts of one
/// that differs per call. Sync primitives format their label once at
/// construction and hand out `Rc` clones on every `Pending` poll, so the
/// per-poll cost is a refcount bump rather than a `format!` allocation; the
/// text is rendered ([`std::fmt::Display`]) only when a report asks for it.
#[derive(Clone)]
pub enum BlockedLabel {
    /// A compile-time constant reason (e.g. `"join on spawned task"`).
    Static(&'static str),
    /// A shared, pre-formatted reason (e.g. `"recv on map-output"`).
    Shared(Rc<str>),
    /// `"acquire(<need>) on <name>"`; `None` is an unnamed semaphore.
    Acquire {
        /// Permits asked for.
        need: u64,
        /// The semaphore's diagnostic name.
        on: Option<Rc<str>>,
    },
}

impl std::fmt::Display for BlockedLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedLabel::Static(s) => f.write_str(s),
            BlockedLabel::Shared(s) => f.write_str(s),
            BlockedLabel::Acquire { need, on } => {
                let name = on.as_deref().unwrap_or("semaphore");
                write!(f, "acquire({need}) on {name}")
            }
        }
    }
}

impl From<&'static str> for BlockedLabel {
    fn from(s: &'static str) -> Self {
        BlockedLabel::Static(s)
    }
}

impl From<Rc<str>> for BlockedLabel {
    fn from(s: Rc<str>) -> Self {
        BlockedLabel::Shared(s)
    }
}

impl From<&Rc<str>> for BlockedLabel {
    fn from(s: &Rc<str>) -> Self {
        BlockedLabel::Shared(Rc::clone(s))
    }
}

impl From<String> for BlockedLabel {
    fn from(s: String) -> Self {
        BlockedLabel::Shared(Rc::from(s.as_str()))
    }
}

/// Records what the currently-polled task is blocked on. Called by the sync
/// primitives (channels, semaphores, notify, join handles) on their
/// `Pending` path; a no-op outside a task poll. The label surfaces in
/// [`Sim::step_until_no_events`]'s stall report.
pub fn note_current_blocked(label: impl Into<BlockedLabel>) {
    CURRENT_TASK.with(|c| {
        if let Some((core, id)) = c.borrow().as_ref() {
            if let Some(core) = core.upgrade() {
                let mut core = core.borrow_mut();
                if let Some(slot) = core.tasks.get_mut(id.index as usize) {
                    if slot.gen == id.gen && slot.live {
                        slot.blocked_on = Some(label.into());
                    }
                }
            }
        }
    });
}

impl Core {
    /// Puts a new event on the queue under the next sequence number.
    fn push_event(&mut self, at: SimTime, action: EventAction) -> EventId {
        let (index, gen) = if let Some(index) = self.free_events.pop() {
            let slot = &mut self.events[index as usize];
            slot.action = Some(action);
            (index, slot.gen)
        } else {
            self.events.push(EventSlot {
                gen: 0,
                pos: 0,
                action: Some(action),
            });
            (self.events.len() as u32 - 1, 0)
        };
        let entry = HeapEntry {
            time: at.max(self.now),
            seq: self.next_seq(),
            slot: index,
        };
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
        EventId { index, gen }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// The slot of `id` if that event is still pending: firing and
    /// cancelling both bump the generation, so a match means neither
    /// happened yet.
    fn pending(&mut self, id: EventId) -> Option<&mut EventSlot> {
        self.events
            .get_mut(id.index as usize)
            .filter(|slot| slot.gen == id.gen)
    }

    /// Removes the heap entry at `pos` and frees its slot, handing back the
    /// action for the caller to run or drop outside the core borrow.
    fn take_event(&mut self, pos: usize) -> Option<EventAction> {
        let index = self.heap[pos].slot;
        let last = self.heap.pop().expect("heap entry to remove");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            self.sift_from_bottom(pos);
        }
        let slot = &mut self.events[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free_events.push(index);
        slot.action.take()
    }

    /// Restores heap order around `pos` after its key changed either way.
    fn sift(&mut self, pos: usize) {
        if self.sift_up(pos) == pos {
            self.sift_down(pos);
        }
    }

    /// Restores heap order after the last leaf was moved into `pos`: such an
    /// entry nearly always belongs near the bottom again, so the hole is
    /// walked down along the earlier children (one comparison a level, not
    /// two) and the entry sifted up from there — as far as it takes, above
    /// `pos` too.
    fn sift_from_bottom(&mut self, mut pos: usize) {
        let (heap, events) = (&mut self.heap[..], &mut self.events[..]);
        let entry = heap[pos];
        // While there are two children, take the earlier one.
        while 2 * pos + 2 < heap.len() {
            let left = 2 * pos + 1;
            let child = left + usize::from(heap[left + 1].key() < heap[left].key());
            place(heap, events, pos, heap[child]);
            pos = child;
        }
        if 2 * pos + 1 < heap.len() {
            place(heap, events, pos, heap[2 * pos + 1]);
            pos = 2 * pos + 1;
        }
        heap[pos] = entry;
        self.sift_up(pos);
    }

    /// Moves the entry at `pos` towards the root until its parent is not
    /// later; returns where it ended up.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        let (heap, events) = (&mut self.heap[..], &mut self.events[..]);
        let entry = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent].key() <= entry.key() {
                break;
            }
            place(heap, events, pos, heap[parent]);
            pos = parent;
        }
        place(heap, events, pos, entry);
        pos
    }

    /// Moves the entry at `pos` towards the leaves until no child is earlier.
    fn sift_down(&mut self, mut pos: usize) {
        let (heap, events) = (&mut self.heap[..], &mut self.events[..]);
        let entry = heap[pos];
        loop {
            let left = 2 * pos + 1;
            if left >= heap.len() {
                break;
            }
            let right_is_earlier = left + 1 < heap.len() && heap[left + 1].key() < heap[left].key();
            let child = left + usize::from(right_is_earlier);
            if entry.key() <= heap[child].key() {
                break;
            }
            place(heap, events, pos, heap[child]);
            pos = child;
        }
        place(heap, events, pos, entry);
    }
}

/// Writes `entry` at heap position `pos` and the position into its slot.
fn place(heap: &mut [HeapEntry], events: &mut [EventSlot], pos: usize, entry: HeapEntry) {
    heap[pos] = entry;
    events[entry.slot as usize].pos = pos as u32;
}

/// Cloneable handle to a running simulation. All simulation primitives
/// (timers, channels, resources) are built on this handle.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    metrics: Metrics,
}

impl Sim {
    /// Creates a fresh simulation whose random generator is seeded with
    /// `seed`. Equal seeds (and equal programs) produce identical runs.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                heap: Vec::with_capacity(1024),
                events: Vec::with_capacity(1024),
                free_events: Vec::with_capacity(1024),
                tasks: Vec::with_capacity(256),
                free_tasks: Vec::with_capacity(256),
                live_tasks: 0,
                ready: Arc::new(Mutex::new(VecDeque::with_capacity(256))),
                rng: SmallRng::seed_from_u64(seed),
                events_fired: 0,
                polls: 0,
                spawns: 0,
                trace_hash: 0xcbf2_9ce4_8422_2325,
            })),
            metrics: Metrics::new(),
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// The metrics registry shared by every component of this simulation.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Runs `f` with the simulation's deterministic random generator.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.core.borrow_mut().rng)
    }

    /// Number of events fired so far (diagnostic).
    pub fn events_fired(&self) -> u64 {
        self.core.borrow().events_fired
    }

    /// Number of task polls so far (diagnostic).
    pub fn polls(&self) -> u64 {
        self.core.borrow().polls
    }

    /// Running hash of the event trace: every event firing folds its
    /// `(time, seq)` and every task poll folds `(time, poll-seq, task)`.
    /// Two runs of the same program on the same seed must agree; see
    /// [`assert_deterministic`].
    pub fn trace_hash(&self) -> u64 {
        self.core.borrow().trace_hash
    }

    /// Schedules `action` to run at absolute time `at` (clamped to now if in
    /// the past). Returns an id that can cancel the event before it fires.
    pub fn schedule_fn(&self, at: SimTime, action: impl FnOnce(&Sim) + 'static) -> EventId {
        self.schedule(at, EventAction::Call(Box::new(action)))
    }

    /// Schedules `waker` to be woken at absolute time `at`.
    pub fn schedule_wake(&self, at: SimTime, waker: Waker) -> EventId {
        self.schedule(at, EventAction::Wake(waker))
    }

    /// Schedules `target.tick()` at absolute time `at`: [`Sim::schedule_fn`]
    /// without the boxed closure, for events that recur on shared state.
    pub(crate) fn schedule_tick(&self, at: SimTime, target: Rc<dyn Tick>) -> EventId {
        self.schedule(at, EventAction::Tick(target))
    }

    /// Takes the slab slot last freed (or grows the slab by one) and pushes
    /// the event onto the heap under the next sequence number.
    fn schedule(&self, at: SimTime, action: EventAction) -> EventId {
        self.core.borrow_mut().push_event(at, action)
    }

    /// Cancels a pending event: its heap entry is removed and its slot is
    /// free for the next `schedule` before this returns. Harmless if the
    /// event already fired or was cancelled, even if the slot has been reused
    /// since (the generation check rejects stale ids).
    pub fn cancel(&self, id: EventId) {
        let action = {
            let mut core = self.core.borrow_mut();
            let Some(slot) = core.pending(id) else {
                return;
            };
            let pos = slot.pos as usize;
            core.take_event(pos)
        };
        // Dropped outside the core borrow: what a closure captured may
        // re-enter the Sim handle from its destructor.
        drop(action);
    }

    /// Moves a pending event to absolute time `at` (clamped to now) under a
    /// *fresh* sequence number, keeping its action and id: the same
    /// `(time, seq)` stream as [`Sim::cancel`] followed by a `schedule` of the
    /// same action, in one sift and without touching the slab. Returns
    /// `false`, consuming no sequence number, if the event is not pending.
    ///
    /// Kernel-internal ([`crate::resource::Fluid`] moves its next-completion
    /// event with it); public only so the out-of-crate queue oracle in
    /// `tests/prop_kernel.rs` can drive it.
    #[doc(hidden)]
    pub fn reschedule(&self, id: EventId, at: SimTime) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(slot) = core.pending(id) else {
            return false;
        };
        let pos = slot.pos as usize;
        let (time, seq) = (at.max(core.now), core.next_seq());
        let entry = &mut core.heap[pos];
        (entry.time, entry.seq) = (time, seq);
        core.sift(pos);
        true
    }

    /// Replaces the waker of a pending timer event (used when a timer future
    /// is polled again with a different waker). Returns whether the event was
    /// still pending.
    pub(crate) fn reset_wake(&self, id: EventId, waker: Waker) -> bool {
        let mut core = self.core.borrow_mut();
        match core.pending(id) {
            Some(slot) => {
                slot.action = Some(EventAction::Wake(waker));
                true
            }
            None => false,
        }
    }

    /// Spawns an anonymous task ([`Component::Anon`], `task-<n>` in spawn
    /// order) and returns a [`JoinHandle`] yielding its output. Prefer
    /// [`Sim::spawn_named`]: tags are what the deadlock detector and stall
    /// reports print. A driver's handle goes to [`Sim::block_on`], which
    /// runs the sim and hands back the output.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.spawn_tracked(None, fut).0
    }

    /// Spawns a task under a [`Component`] tag, or under a string name
    /// ([`Component::Named`]). The tag surfaces in
    /// [`Sim::step_until_no_events`]'s stall report when the task is still
    /// live after the event heap drains — unless the component is a daemon
    /// ([`Component::is_daemon`]): a server loop meant to stay alive (and
    /// blocked) as long as its node.
    pub fn spawn_named<T: 'static>(
        &self,
        tag: impl Into<Component>,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        self.spawn_tracked(Some(tag.into()), fut).0
    }

    /// [`Sim::spawn_named`] for a task nobody joins: no [`JoinHandle`] state
    /// and no wrapper future — two allocations a spawn (the boxed future and
    /// its wake entry). For tasks that come and go by the million, such as a
    /// queue pair's engine.
    pub fn spawn_detached(
        &self,
        tag: impl Into<Component>,
        fut: impl Future<Output = ()> + 'static,
    ) {
        self.spawn_unit(Some(tag.into()), fut);
    }

    fn spawn_tracked<T: 'static>(
        &self,
        tag: Option<Component>,
        fut: impl Future<Output = T> + 'static,
    ) -> (JoinHandle<T>, TaskId) {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = Rc::clone(&state);
        let id = self.spawn_unit(tag, async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });
        (JoinHandle { state }, id)
    }

    fn spawn_unit(
        &self,
        tag: Option<Component>,
        fut: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        let mut core = self.core.borrow_mut();
        let tag = tag.unwrap_or(Component::Anon(core.spawns));
        core.spawns += 1;
        // Spawn order and names are part of the program shape: fold them so
        // a renamed or reordered task set changes the trace hash. The tag is
        // rendered straight into the hash, never into a string.
        let mut h = core.trace_hash;
        write!(HashWriter(&mut h), "{tag}").expect("hashing cannot fail");
        core.trace_hash = h;
        let future: LocalFuture = Box::pin(fut);
        let ready = Arc::clone(&core.ready);
        // Spawned tasks are enqueued immediately below, so the flag starts
        // true: a wake landing before the first poll must not double-queue.
        let wake = |task| {
            Arc::new(WakeEntry {
                task,
                ready,
                queued: AtomicBool::new(true),
            })
        };
        let id = if let Some(index) = core.free_tasks.pop() {
            let slot = &mut core.tasks[index as usize];
            let id = TaskId {
                index,
                gen: slot.gen,
            };
            slot.future = Some(future);
            slot.live = true;
            slot.tag = tag;
            slot.blocked_on = None;
            // The slot's generation changed since it was last occupied, so
            // the wake entry must be rebuilt for the new id.
            slot.wake = wake(id);
            id
        } else {
            let index = core.tasks.len() as u32;
            let id = TaskId { index, gen: 0 };
            core.tasks.push(TaskSlot {
                gen: 0,
                future: Some(future),
                live: true,
                tag,
                blocked_on: None,
                wake: wake(id),
            });
            id
        };
        core.live_tasks += 1;
        core.ready.lock().unwrap().push_back(id);
        id
    }

    /// Creates a [`TaskGroup`]: a cancellable scope for tasks that share a
    /// lifetime (all the daemons and attempts owned by one simulated node).
    pub fn group(&self) -> TaskGroup {
        TaskGroup {
            sim: self.clone(),
            members: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Aborts a live task: its future is dropped in place, which cancels any
    /// pending timers it owns (`Timer::drop`), closes its channel endpoints
    /// (peers observe `None` / send errors), and releases held semaphore
    /// permits. Harmless on completed or already-aborted ids (generation
    /// check). Safe to call from inside the aborted task's own poll: the
    /// slot is retired immediately and the in-flight poll result discarded.
    fn abort_task(&self, id: TaskId) {
        let future = {
            let mut core = self.core.borrow_mut();
            let slot = match core.tasks.get_mut(id.index as usize) {
                Some(s) if s.gen == id.gen && s.live => s,
                _ => return,
            };
            // `future` is `None` when the task is currently being polled;
            // retiring the slot here makes `poll_task`'s post-poll
            // generation re-check discard the future instead of restoring
            // it into the recycled slot.
            let future = slot.future.take();
            slot.live = false;
            slot.gen = slot.gen.wrapping_add(1);
            slot.blocked_on = None;
            core.free_tasks.push(id.index);
            core.live_tasks -= 1;
            future
        };
        // Drop outside the core borrow: destructors re-enter the Sim handle
        // (timer cancellation, channel close wakes, permit release).
        drop(future);
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Timer {
        Timer {
            sim: self.clone(),
            deadline: self.now() + d,
            event: None,
        }
    }

    /// Sleeps until the absolute instant `at`.
    pub fn sleep_until(&self, at: SimTime) -> Timer {
        Timer {
            sim: self.clone(),
            deadline: at,
            event: None,
        }
    }

    /// Yields once, letting every other currently-runnable task proceed
    /// before this one resumes (still at the same virtual instant).
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    fn poll_task(&self, id: TaskId) {
        let (future, waker) = {
            let mut core = self.core.borrow_mut();
            core.polls += 1;
            let (polls, now) = (core.polls, core.now);
            let mut h = core.trace_hash;
            fold_hash(&mut h, &now.as_nanos().to_le_bytes());
            fold_hash(&mut h, &polls.to_le_bytes());
            fold_hash(&mut h, &id.index.to_le_bytes());
            fold_hash(&mut h, &id.gen.to_le_bytes());
            core.trace_hash = h;
            let slot = match core.tasks.get_mut(id.index as usize) {
                Some(s) if s.gen == id.gen && s.live => s,
                _ => return, // stale waker
            };
            // Popped out of the ready queue: clear the dedup flag first so a
            // wake arriving during the poll below re-queues the task.
            slot.wake.queued.store(false, Ordering::Relaxed);
            // Cleared before every poll; a primitive that suspends the task
            // again will re-record the reason.
            slot.blocked_on = None;
            match slot.future.take() {
                Some(f) => (f, Waker::from(Arc::clone(&slot.wake))),
                // Already being polled higher up the stack (a waker fired
                // synchronously during poll); the re-queued id handles it.
                None => return,
            }
        };
        let mut cx = Context::from_waker(&waker);
        let mut future = future;
        let prev = CURRENT_TASK.with(|c| c.borrow_mut().replace((Rc::downgrade(&self.core), id)));
        let poll = future.as_mut().poll(&mut cx);
        CURRENT_TASK.with(|c| *c.borrow_mut() = prev);
        let mut core = self.core.borrow_mut();
        let slot = &mut core.tasks[id.index as usize];
        if slot.gen != id.gen || !slot.live {
            // Aborted while its own poll was on the stack: the slot is
            // already retired (possibly reused). Discard the future without
            // touching the slot — and without holding the core borrow, since
            // its destructors re-enter the Sim handle.
            drop(core);
            drop(future);
            return;
        }
        match poll {
            Poll::Ready(()) => {
                slot.live = false;
                slot.gen = slot.gen.wrapping_add(1);
                core.free_tasks.push(id.index);
                core.live_tasks -= 1;
            }
            Poll::Pending => {
                slot.future = Some(future);
            }
        }
    }

    /// Runs the event loop until no runnable task and no pending event
    /// remains, or until `limit` (if given) — whichever comes first.
    /// Returns the final virtual time.
    pub fn run(&self) -> SimTime {
        self.run_with_limit(None)
    }

    /// Runs to quiescence, exactly like [`Sim::run`], and returns `task`'s
    /// output: the way a driver hands its result back to the caller.
    ///
    /// # Panics
    ///
    /// If `task` never finished, with [`Sim::live_report`]: every live task
    /// and what it blocks on.
    pub fn block_on<T>(&self, task: JoinHandle<T>) -> T {
        self.run();
        let out = task.state.borrow_mut().result.take();
        out.unwrap_or_else(|| panic!("block_on: the task never finished; {}", self.live_report()))
    }

    /// [`Sim::run`] with a hard virtual-time limit; events scheduled past the
    /// limit are left unfired.
    pub fn run_until(&self, limit: SimTime) -> SimTime {
        self.run_with_limit(Some(limit))
    }

    fn run_with_limit(&self, limit: Option<SimTime>) -> SimTime {
        loop {
            // Phase 1: drain runnable tasks at the current instant.
            loop {
                let next = self.core.borrow().ready.lock().unwrap().pop_front();
                match next {
                    Some(id) => self.poll_task(id),
                    None => break,
                }
            }
            // Phase 2: advance to the next event.
            let fired = {
                let mut core = self.core.borrow_mut();
                match core.heap.first().copied() {
                    Some(next) => {
                        if let Some(limit) = limit {
                            if next.time > limit {
                                // Stays queued; stop at the limit.
                                core.now = limit;
                                return limit;
                            }
                        }
                        core.now = next.time;
                        core.events_fired += 1;
                        let mut h = core.trace_hash;
                        fold_hash(&mut h, &next.time.as_nanos().to_le_bytes());
                        fold_hash(&mut h, &next.seq.to_le_bytes());
                        core.trace_hash = h;
                        // The slot is free before the action runs, so the
                        // action's own next `schedule` reuses it.
                        core.take_event(0)
                    }
                    None => None,
                }
            };
            match fired {
                Some(EventAction::Wake(w)) => w.wake(),
                Some(EventAction::Call(f)) => f(self),
                Some(EventAction::Tick(t)) => t.tick(self),
                None => {
                    let core = self.core.borrow();
                    debug_assert!(
                        core.ready.lock().unwrap().is_empty(),
                        "ready queue must be empty at quiescence"
                    );
                    return core.now;
                }
            }
        }
    }

    /// Number of event slots ever allocated: the slab's length. Slots are
    /// recycled when their event fires or is cancelled, so this is the peak
    /// of [`Sim::pending_events`], not the number of events scheduled — the
    /// leak canary for the event queue.
    pub fn event_slots(&self) -> usize {
        self.core.borrow().events.len()
    }

    /// Number of events scheduled and neither fired nor cancelled yet.
    pub fn pending_events(&self) -> usize {
        self.core.borrow().heap.len()
    }

    /// Panics unless the event queue is consistent: heap order holds, every
    /// entry's slot points back at it and holds an action, and every other
    /// slot is vacant and on the free list. For tests.
    #[doc(hidden)]
    pub fn check_event_queue(&self) {
        let core = self.core.borrow();
        for (pos, entry) in core.heap.iter().enumerate() {
            let parent = &core.heap[pos.saturating_sub(1) / 2];
            assert!(parent.key() <= entry.key(), "heap order broken at {pos}");
            let slot = &core.events[entry.slot as usize];
            assert_eq!(slot.pos as usize, pos, "slot {} lost its entry", entry.slot);
            assert!(slot.action.is_some(), "pending slot without an action");
        }
        assert_eq!(core.heap.len() + core.free_events.len(), core.events.len());
        for &index in &core.free_events {
            assert!(core.events[index as usize].action.is_none());
        }
    }

    /// Number of tasks that have been spawned but not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.borrow().live_tasks
    }

    /// Runs until the ready queue and the event heap are both empty, then
    /// reports quiescence. Any task still live at that point can never run
    /// again — no event will wake it — so a non-empty `stalled` list is a
    /// deadlock or a lost waker, named task by task.
    pub fn step_until_no_events(&self) -> QuiescenceReport {
        self.run_with_limit(None);
        self.live_report()
    }

    /// The tasks live right now and what each last blocked on, without
    /// running anything. After [`Sim::run`] this is the deadlock list; after
    /// a [`Sim::run_until`] limit expired it names whoever was still working.
    pub fn live_report(&self) -> QuiescenceReport {
        let core = self.core.borrow();
        let time = core.now;
        let stalled = core
            .tasks
            .iter()
            .filter(|t| t.live && !t.tag.is_daemon())
            .map(|t| StalledTask {
                name: t.tag.to_string(),
                blocked_on: t.blocked_on.as_ref().map(|b| b.to_string()),
            })
            .collect();
        QuiescenceReport {
            time,
            stalled,
            daemons: core
                .tasks
                .iter()
                .filter(|t| t.live && t.tag.is_daemon())
                .count(),
            trace_hash: core.trace_hash,
        }
    }
}

/// A cancellable scope of tasks sharing one lifetime — the supervision unit
/// for everything a simulated node owns (server loops, responder pools,
/// heartbeat daemons, running attempts).
///
/// Tasks spawned through the group behave exactly like [`Sim::spawn_named`]
/// until [`TaskGroup::abort`] is called, which drops
/// every member's future in place: pending timers are cancelled, channel
/// endpoints close (peers observe `None` / send errors rather than hanging),
/// and held semaphore permits are released. Aborted tasks leave the live set,
/// so deadlock reports stay accurate. The group is reusable after an abort —
/// a restarted node spawns its fresh daemons into the same group.
///
/// The `JoinHandle` of an aborted task never resolves; group members that
/// await each other must live (and die) together in the same group.
#[derive(Clone)]
pub struct TaskGroup {
    sim: Sim,
    members: Rc<RefCell<Vec<TaskId>>>,
}

impl TaskGroup {
    /// [`Sim::spawn_named`], scoped to this group.
    pub fn spawn_named<T: 'static>(
        &self,
        tag: impl Into<Component>,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let (handle, id) = self.sim.spawn_tracked(Some(tag.into()), fut);
        self.members.borrow_mut().push(id);
        handle
    }

    /// Aborts every member task (see [`TaskGroup::abort`] docs on the type).
    /// Members that already completed are skipped via the generation check.
    /// Abort order is spawn order, so cascaded destructor effects replay
    /// deterministically.
    pub fn abort(&self) {
        // Drain first: a destructor running during an abort may re-enter the
        // group (e.g. a task spawning a replacement into it on teardown).
        let members: Vec<TaskId> = self.members.borrow_mut().drain(..).collect();
        for id in members {
            self.sim.abort_task(id);
        }
    }
}

/// A task that is still live after the event heap drained: nothing can ever
/// wake it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledTask {
    /// The task's tag, rendered.
    pub name: String,
    /// What the task last reported blocking on, if a sync primitive told us.
    pub blocked_on: Option<String>,
}

/// Result of [`Sim::step_until_no_events`].
#[derive(Debug, Clone)]
pub struct QuiescenceReport {
    /// Virtual time at quiescence.
    pub time: SimTime,
    /// Live-but-unrunnable tasks (deadlocked or lost their waker).
    /// Daemons ([`Component::is_daemon`]) are not counted here.
    pub stalled: Vec<StalledTask>,
    /// Daemon tasks still parked at quiescence (expected for server loops).
    pub daemons: usize,
    /// The trace hash at quiescence (see [`Sim::trace_hash`]).
    pub trace_hash: u64,
}

impl QuiescenceReport {
    /// True when every spawned task ran to completion.
    pub fn is_clean(&self) -> bool {
        self.stalled.is_empty()
    }

    /// Panics with the stall list unless the run was clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }
}

impl std::fmt::Display for QuiescenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.stalled.is_empty() {
            return write!(f, "quiescent at {} with no stalled tasks", self.time);
        }
        write!(
            f,
            "deadlock at {}: {} task(s) live but unrunnable:",
            self.time,
            self.stalled.len()
        )?;
        for t in &self.stalled {
            match &t.blocked_on {
                Some(b) => write!(f, "\n  - {} (blocked on {})", t.name, b)?,
                None => write!(f, "\n  - {} (no blocking reason recorded)", t.name)?,
            }
        }
        Ok(())
    }
}

/// Runs `build` twice on fresh sims with the same `seed` and panics unless
/// both runs fire the same events and polls in the same order (trace-hash
/// equality), finishing at the same virtual time. This is the workspace's
/// replay-determinism harness: any wall-clock read, entropy draw, or
/// unordered iteration feeding the schedule shows up as a hash diff.
pub fn assert_deterministic(seed: u64, build: impl Fn(&Sim)) {
    let run_once = || {
        let sim = Sim::new(seed);
        build(&sim);
        let end = sim.run();
        (sim.trace_hash(), end, sim.events_fired(), sim.polls())
    };
    let (hash_a, end_a, events_a, polls_a) = run_once();
    let (hash_b, end_b, events_b, polls_b) = run_once();
    assert_eq!(
        (hash_a, end_a, events_a, polls_a),
        (hash_b, end_b, events_b, polls_b),
        "two runs with seed {seed} diverged: \
         trace {hash_a:#018x} vs {hash_b:#018x}, \
         end {end_a} vs {end_b}, \
         events {events_a} vs {events_b}, polls {polls_a} vs {polls_b}",
    );
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Awaitable completion of a spawned task.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Drops the handle; the task runs on (dropping a handle never cancels
    /// its task in this executor). A plain drop, kept for call sites that
    /// state the intent.
    pub fn detach(self) {}

    /// True once the task has finished.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waker = Some(cx.waker().clone());
                note_current_blocked("join on spawned task");
                Poll::Pending
            }
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Timer {
    sim: Sim,
    deadline: SimTime,
    event: Option<EventId>,
}

impl Future for Timer {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            if let Some(ev) = self.event.take() {
                self.sim.cancel(ev);
            }
            return Poll::Ready(());
        }
        let rearmed = self
            .event
            .is_some_and(|ev| self.sim.reset_wake(ev, cx.waker().clone()));
        if !rearmed {
            let ev = self.sim.schedule_wake(self.deadline, cx.waker().clone());
            self.event = Some(ev);
        }
        Poll::Pending
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(ev) = self.event.take() {
            self.sim.cancel(ev);
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero_and_advances_with_sleep() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        let done = sim.block_on(sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(5)).await;
            sim2.now()
        }));
        assert_eq!(done, SimTime::from_nanos(5_000_000));
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let sim2 = sim.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                for i in 0..3u32 {
                    sim2.sleep(SimDuration::from_millis(1)).await;
                    log2.borrow_mut().push(format!("{name}{i}"));
                }
            })
            .detach();
        }
        sim.run();
        let got = log.borrow().join(",");
        // FIFO spawn order is preserved at every shared instant.
        assert_eq!(got, "a0,b0,c0,a1,b1,c1,a2,b2,c2");
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            let h = sim2.spawn(async move {
                sim3.sleep(SimDuration::from_secs(1)).await;
                42u64
            });
            out2.set(h.await);
        })
        .detach();
        sim.run();
        assert_eq!(out.get(), 42);
    }

    /// A named driver summing what an anonymous producer sends it over a
    /// channel, one number per timer.
    fn summing_driver(sim: &Sim) -> impl Future<Output = u64> {
        let (tx, rx) = crate::sync::channel_named::<u64>("numbers");
        let sim2 = sim.clone();
        sim.spawn(async move {
            for i in 1..=3 {
                sim2.sleep(SimDuration::from_millis(i)).await;
                tx.send_now(i).unwrap();
            }
        })
        .detach();
        async move {
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            sum
        }
    }

    #[test]
    fn block_on_runs_like_a_result_slot_and_run() {
        let observed = |sim: &Sim, out| (out, sim.trace_hash(), sim.events_fired(), sim.polls());
        let through_slot = {
            let sim = Sim::new(3);
            let driver = summing_driver(&sim);
            let out = Rc::new(Cell::new(0));
            let out2 = Rc::clone(&out);
            sim.spawn_named("driver", async move { out2.set(driver.await) })
                .detach();
            sim.run();
            observed(&sim, out.get())
        };
        let sim = Sim::new(3);
        let out = sim.block_on(sim.spawn_named("driver", summing_driver(&sim)));
        assert_eq!(observed(&sim, out), through_slot);
        assert_eq!(out, 6);
    }

    #[test]
    #[should_panic(expected = "parked-driver (blocked on notified on never-fired)")]
    fn block_on_names_the_task_that_never_finished() {
        let sim = Sim::new(1);
        let never = crate::sync::Notify::new_named("never-fired");
        sim.block_on(sim.spawn_named("parked-driver", async move { never.notified().await }));
    }

    #[test]
    fn schedule_fn_runs_at_requested_time() {
        let sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        for ms in [30u64, 10, 20] {
            let hits2 = Rc::clone(&hits);
            sim.schedule_fn(SimTime::from_nanos(ms * 1_000_000), move |s| {
                hits2.borrow_mut().push((ms, s.now()));
            });
        }
        sim.run();
        let hits = hits.borrow();
        assert_eq!(
            hits.iter().map(|(ms, _)| *ms).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        for (ms, t) in hits.iter() {
            assert_eq!(t.as_nanos(), ms * 1_000_000);
        }
    }

    #[test]
    fn cancelled_event_does_not_fire() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let fired2 = Rc::clone(&fired);
        let id = sim.schedule_fn(SimTime::from_nanos(100), move |_| fired2.set(true));
        sim.cancel(id);
        sim.run();
        assert!(!fired.get());
    }

    #[test]
    fn schedule_cancel_cycles_reuse_one_slot() {
        // A cancelled event used to keep its slot for good and its heap
        // entry until its time came round.
        let sim = Sim::new(1);
        for i in 0..1_000_000u64 {
            let id = sim.schedule_fn(SimTime::from_nanos(1 + i % 977), |_| {});
            sim.cancel(id);
        }
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.event_slots() <= 2, "{} slots", sim.event_slots());
        sim.check_event_queue();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.events_fired(), 0);
    }

    #[test]
    fn timer_losing_a_million_races_leaves_no_slots_behind() {
        // The heartbeat shape: wait for a notification or a long timeout,
        // and the notification always wins, so every timeout is cancelled.
        const ROUNDS: u32 = 1_000_000;
        let sim = Sim::new(1);
        let work = crate::sync::Notify::new();
        let (sim2, work2) = (sim.clone(), work.clone());
        sim.spawn_named("waiter", async move {
            for _ in 0..ROUNDS {
                let timeout = sim2.sleep(SimDuration::from_secs(3));
                let r = crate::sync::select2(work2.notified(), timeout).await;
                assert!(matches!(r, crate::sync::Either::Left(())));
            }
        })
        .detach();
        let sim3 = sim.clone();
        sim.spawn_named("notifier", async move {
            for _ in 0..ROUNDS {
                sim3.sleep(SimDuration::from_millis(1)).await;
                work.notify_all();
            }
        })
        .detach();
        sim.step_until_no_events().assert_clean();
        assert_eq!(sim.events_fired(), ROUNDS as u64);
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.event_slots() <= 2, "{} slots", sim.event_slots());
    }

    #[test]
    fn fluid_with_many_arrivals_holds_one_slot() {
        // Every arrival moves the fluid's next-completion event; none of the
        // moves may take a second slot.
        let sim = Sim::new(1);
        let fluid = crate::resource::Fluid::new(&sim, 100.0);
        let consumers: Vec<_> = (0..64)
            .map(|i| {
                let c = fluid.consume(1_000.0 - i as f64);
                assert_eq!((sim.pending_events(), sim.event_slots()), (1, 1));
                c
            })
            .collect();
        sim.check_event_queue();
        drop(consumers);
        assert_eq!((sim.pending_events(), sim.event_slots()), (0, 1));
    }

    #[test]
    fn stale_event_ids_are_ignored() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        let bump = |hits: &Rc<Cell<u32>>| {
            let hits = Rc::clone(hits);
            move |_: &Sim| hits.set(hits.get() + 1)
        };
        // Fired: cancelling or moving it afterwards does nothing.
        let fired = sim.schedule_fn(SimTime::from_nanos(1), bump(&hits));
        sim.run();
        assert_eq!(hits.get(), 1);
        sim.cancel(fired);
        assert!(!sim.reschedule(fired, SimTime::from_nanos(5)));
        // Cancelled twice.
        let cancelled = sim.schedule_fn(SimTime::from_nanos(10), bump(&hits));
        sim.cancel(cancelled);
        sim.cancel(cancelled);
        // The slot both ids named now belongs to a third event, which the
        // stale ids must not reach.
        let live = sim.schedule_fn(SimTime::from_nanos(20), bump(&hits));
        assert_eq!(sim.event_slots(), 1);
        sim.cancel(fired);
        sim.cancel(cancelled);
        assert!(!sim.reschedule(cancelled, SimTime::from_nanos(30)));
        assert_eq!(sim.pending_events(), 1);
        sim.check_event_queue();
        assert_eq!(sim.run().as_nanos(), 20);
        assert_eq!(hits.get(), 2);
        sim.cancel(live);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn reschedule_is_cancel_plus_schedule() {
        // Same firing order and trace hash, ties included: the moved event
        // goes behind everything already scheduled for its new instant.
        let run = |in_place: bool| {
            let sim = Sim::new(1);
            let log = Rc::new(RefCell::new(Vec::new()));
            let push = |tag: char| {
                let log = Rc::clone(&log);
                move |s: &Sim| log.borrow_mut().push((tag, s.now().as_nanos()))
            };
            let a = sim.schedule_fn(SimTime::from_nanos(50), push('a'));
            sim.schedule_fn(SimTime::from_nanos(10), push('b'));
            sim.schedule_fn(SimTime::from_nanos(10), push('c'));
            if in_place {
                assert!(sim.reschedule(a, SimTime::from_nanos(10)));
            } else {
                sim.cancel(a);
                sim.schedule_fn(SimTime::from_nanos(10), push('a'));
            }
            sim.schedule_fn(SimTime::from_nanos(10), push('d'));
            sim.check_event_queue();
            sim.run();
            let order: String = log.borrow().iter().map(|(tag, _)| *tag).collect();
            (order, sim.trace_hash(), sim.events_fired())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).0, "bcad");
    }

    #[test]
    fn run_until_stops_at_limit() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(SimDuration::from_secs(1)).await;
            }
        })
        .detach();
        let end = sim.run_until(SimTime::from_nanos(3_500_000_000));
        assert_eq!(end.as_nanos(), 3_500_000_000);
        assert_eq!(sim.now().as_nanos(), 3_500_000_000);
    }

    #[test]
    fn yield_now_lets_peers_run_first() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let s1 = sim.clone();
        sim.spawn(async move {
            l1.borrow_mut().push(1);
            s1.yield_now().await;
            l1.borrow_mut().push(3);
        })
        .detach();
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l2.borrow_mut().push(2);
        })
        .detach();
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn redundant_wakes_collapse_to_one_poll() {
        // Broadcast fan-out (a fluid completion batch waking one task once
        // per finished leg) must cost one queue entry, not one poll per wake.
        struct Capture {
            polls: Rc<Cell<u32>>,
            waker: Rc<RefCell<Option<Waker>>>,
        }
        impl Future for Capture {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.polls.set(self.polls.get() + 1);
                if self.polls.get() >= 2 {
                    return Poll::Ready(());
                }
                *self.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
        let sim = Sim::new(1);
        let polls = Rc::new(Cell::new(0u32));
        let waker: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        sim.spawn_named(
            "capture",
            Capture {
                polls: Rc::clone(&polls),
                waker: Rc::clone(&waker),
            },
        )
        .detach();
        let w2 = Rc::clone(&waker);
        sim.schedule_fn(SimTime::from_nanos(1), move |_| {
            let w = w2.borrow().as_ref().unwrap().clone();
            w.wake_by_ref();
            w.wake_by_ref();
            w.wake();
        });
        sim.run();
        // First poll at spawn + exactly one re-poll for the wake burst.
        assert_eq!(polls.get(), 2);
    }

    #[test]
    fn wake_during_poll_requeues_the_task() {
        // A wake landing while the task is being polled (flag already
        // cleared) must re-queue it — dedup only spans time-in-queue.
        struct SelfWake {
            polls: Rc<Cell<u32>>,
        }
        impl Future for SelfWake {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.polls.set(self.polls.get() + 1);
                if self.polls.get() >= 3 {
                    return Poll::Ready(());
                }
                // Wake mid-poll, twice: one re-queue, not two.
                cx.waker().wake_by_ref();
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let sim = Sim::new(1);
        let polls = Rc::new(Cell::new(0u32));
        sim.spawn_named(
            "self-wake",
            SelfWake {
                polls: Rc::clone(&polls),
            },
        )
        .detach();
        sim.run();
        assert_eq!(polls.get(), 3);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn identical_seeds_reproduce_rng_streams() {
        use rand::Rng;
        let a = Sim::new(7);
        let b = Sim::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.with_rng(|r| r.gen())).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.with_rng(|r| r.gen())).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn timer_drop_cancels_event() {
        let sim = Sim::new(1);
        {
            let _t = sim.sleep(SimDuration::from_secs(10));
            // dropped immediately without being polled — no event scheduled
        }
        let sim2 = sim.clone();
        sim.spawn(async move {
            // Poll a timer once, then drop it via select-like abandonment:
            // emulate by polling manually inside a wrapper future.
            struct PollOnce(Timer);
            impl Future for PollOnce {
                type Output = ();
                fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                    // SAFETY: structural pinning of the only field.
                    let timer = unsafe { self.map_unchecked_mut(|s| &mut s.0) };
                    let _ = timer.poll(cx);
                    Poll::Ready(())
                }
            }
            PollOnce(sim2.sleep(SimDuration::from_secs(100))).await;
        })
        .detach();
        let end = sim.run();
        // The abandoned 100 s timer must not hold the clock hostage.
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn quiescence_report_is_clean_when_all_tasks_finish() {
        let sim = Sim::new(1);
        let sim2 = sim.clone();
        sim.spawn_named("sleeper", async move {
            sim2.sleep(SimDuration::from_secs(1)).await;
        })
        .detach();
        let report = sim.step_until_no_events();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.time.as_nanos(), 1_000_000_000);
        report.assert_clean();
    }

    #[test]
    fn deadlock_detector_names_both_stuck_tasks() {
        // Two tasks each waiting on a channel only the other could feed:
        // a classic lost-progress cycle. Once the event heap drains, both
        // must be reported by name with their blocking reason.
        let sim = Sim::new(1);
        let (tx_a, rx_a) = crate::sync::channel_named::<u32>("a-to-b");
        let (tx_b, rx_b) = crate::sync::channel_named::<u32>("b-to-a");
        sim.spawn_named("task-alpha", async move {
            let _keep = tx_b; // held, never used: rx_b can never resolve
            rx_a.recv().await;
        })
        .detach();
        sim.spawn_named("task-beta", async move {
            let _keep = tx_a;
            rx_b.recv().await;
        })
        .detach();
        let report = sim.step_until_no_events();
        assert_eq!(report.stalled.len(), 2, "{report}");
        let names: Vec<&str> = report.stalled.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"task-alpha"), "{names:?}");
        assert!(names.contains(&"task-beta"), "{names:?}");
        let alpha = report
            .stalled
            .iter()
            .find(|t| t.name == "task-alpha")
            .unwrap();
        assert_eq!(alpha.blocked_on.as_deref(), Some("recv on a-to-b"));
        let rendered = report.to_string();
        assert!(rendered.contains("deadlock"), "{rendered}");
        assert!(rendered.contains("recv on b-to-a"), "{rendered}");
    }

    #[test]
    fn anonymous_tasks_get_sequential_names() {
        let sim = Sim::new(1);
        let (_tx, rx) = crate::sync::channel::<u32>();
        sim.spawn(async move {
            rx.recv().await;
        })
        .detach();
        let report = sim.step_until_no_events();
        assert_eq!(report.stalled.len(), 1);
        assert_eq!(report.stalled[0].name, "task-0");
        assert_eq!(
            report.stalled[0].blocked_on.as_deref(),
            Some("recv on channel")
        );
    }

    #[test]
    fn stalled_join_on_spawned_task_is_reported() {
        let sim = Sim::new(1);
        let (_tx, rx) = crate::sync::channel::<u32>();
        let inner = sim.spawn_named("stuck-inner", async move {
            rx.recv().await;
        });
        sim.spawn_named("waiter", async move {
            inner.await;
        })
        .detach();
        let report = sim.step_until_no_events();
        let waiter = report.stalled.iter().find(|t| t.name == "waiter").unwrap();
        assert_eq!(waiter.blocked_on.as_deref(), Some("join on spawned task"));
    }

    #[test]
    fn trace_hash_is_stable_across_identical_runs() {
        let run = || {
            let sim = Sim::new(99);
            for i in 0..4 {
                let sim2 = sim.clone();
                sim.spawn_named(format!("worker-{i}"), async move {
                    sim2.sleep(SimDuration::from_millis(i + 1)).await;
                })
                .detach();
            }
            sim.run();
            sim.trace_hash()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_hash_distinguishes_different_schedules() {
        let run = |delay_ms: u64| {
            let sim = Sim::new(99);
            let sim2 = sim.clone();
            sim.spawn_named("only", async move {
                sim2.sleep(SimDuration::from_millis(delay_ms)).await;
            })
            .detach();
            sim.run();
            sim.trace_hash()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn assert_deterministic_accepts_a_deterministic_sim() {
        assert_deterministic(7, |sim| {
            for i in 0..3 {
                let sim2 = sim.clone();
                sim.spawn_named(format!("t{i}"), async move {
                    let jitter = sim2.with_rng(|r| rand::Rng::gen_range(r, 1..10u64));
                    sim2.sleep(SimDuration::from_millis(jitter)).await;
                })
                .detach();
            }
        });
    }

    #[test]
    fn group_abort_drops_futures_and_cancels_their_timers() {
        let sim = Sim::new(1);
        let group = sim.group();
        let sim2 = sim.clone();
        let sleeper = group.spawn_named("long-sleeper", async move {
            sim2.sleep(SimDuration::from_secs(100)).await;
        });
        let g2 = group.clone();
        sim.schedule_fn(SimTime::from_nanos(1_000_000_000), move |_| g2.abort());
        let end = sim.run();
        // The aborted task's 100 s timer must not hold the clock hostage.
        assert_eq!(end.as_nanos(), 1_000_000_000);
        assert!(!sleeper.is_finished());
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn group_abort_closes_channel_endpoints_for_peers() {
        // A peer outside the group blocked on recv must observe `None`
        // when the group member holding the sender is aborted — not hang.
        let sim = Sim::new(1);
        let group = sim.group();
        let (tx, rx) = crate::sync::channel_named::<u32>("group-to-peer");
        let sim2 = sim.clone();
        group
            .spawn_named("holder", async move {
                let _keep = tx;
                sim2.sleep(SimDuration::from_secs(100)).await;
            })
            .detach();
        let peer = sim.spawn_named("peer", async move { rx.recv().await });
        let g2 = group.clone();
        sim.schedule_fn(SimTime::from_nanos(5), move |_| g2.abort());
        assert_eq!(sim.block_on(peer), None);
        sim.live_report().assert_clean();
    }

    #[test]
    fn group_abort_keeps_deadlock_report_accurate() {
        // A task that would otherwise be reported as stalled disappears
        // from the report once aborted: it is no longer live.
        let sim = Sim::new(1);
        let group = sim.group();
        let (_tx, rx) = crate::sync::channel::<u32>();
        group
            .spawn_named("stuck", async move {
                rx.recv().await;
            })
            .detach();
        let g2 = group.clone();
        sim.schedule_fn(SimTime::from_nanos(10), move |_| g2.abort());
        let report = sim.step_until_no_events();
        report.assert_clean();
        assert_eq!(report.daemons, 0);
    }

    #[test]
    fn group_abort_from_inside_own_poll_is_safe() {
        // A member aborting its own group mid-poll: the current poll runs to
        // its next suspension, then the future is discarded — it never
        // resumes, and the executor must not corrupt the (recycled) slot.
        let sim = Sim::new(1);
        let group = sim.group();
        let g2 = group.clone();
        let sim2 = sim.clone();
        let slayer = group.spawn_named("self-slayer", async move {
            g2.abort();
            sim2.sleep(SimDuration::from_secs(1)).await;
        });
        let end = sim.run();
        assert_eq!(end, SimTime::ZERO);
        assert!(!slayer.is_finished());
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn group_is_reusable_after_abort_and_slots_recycle() {
        let sim = Sim::new(1);
        let group = sim.group();
        let sim2 = sim.clone();
        group
            .spawn_named("first-gen", async move {
                sim2.sleep(SimDuration::from_secs(100)).await;
            })
            .detach();
        group.abort();
        assert_eq!(sim.live_tasks(), 0);
        let sim3 = sim.clone();
        // Reuses the aborted task's slot; the stale generation must not leak.
        let second = group.spawn_named("second-gen", async move {
            sim3.sleep(SimDuration::from_secs(2)).await;
        });
        assert_eq!(sim.live_tasks(), 1);
        sim.block_on(second);
        let report = sim.live_report();
        report.assert_clean();
        assert_eq!(report.time.as_nanos(), 2_000_000_000);
    }

    #[test]
    fn group_abort_releases_semaphore_permits() {
        let sim = Sim::new(1);
        let group = sim.group();
        let sem = crate::sync::Semaphore::new_named("slots", 1);
        let sem2 = sem.clone();
        let sim2 = sim.clone();
        group
            .spawn_named("permit-holder", async move {
                let _permit = sem2.acquire(1).await;
                sim2.sleep(SimDuration::from_secs(100)).await;
            })
            .detach();
        let sem3 = sem.clone();
        let waiter = sim.spawn_named("waiter", async move {
            let _permit = sem3.acquire(1).await;
        });
        let g2 = group.clone();
        sim.schedule_fn(SimTime::from_nanos(10), move |_| g2.abort());
        sim.step_until_no_events().assert_clean();
        assert!(waiter.is_finished(), "abort must release the held permit");
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn assert_deterministic_catches_run_to_run_divergence() {
        // Smuggle cross-run mutable state through a thread-local — the moral
        // equivalent of reading the wall clock inside a sim.
        thread_local! {
            static RUNS: Cell<u64> = const { Cell::new(0) };
        }
        assert_deterministic(7, |sim| {
            let n = RUNS.with(|r| {
                r.set(r.get() + 1);
                r.get()
            });
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(n)).await;
            })
            .detach();
        });
    }
}
