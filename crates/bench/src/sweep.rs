//! A hand-rolled scoped worker pool for running many independent
//! single-threaded simulations in parallel, with deterministic output
//! ordering.
//!
//! Every harness sweep (figure grids, wall-clock scenarios, scale probes)
//! funnels through [`sweep`]: `n` work items are claimed off a shared atomic
//! counter by `threads` scoped workers, and each result lands in its item's
//! own slot. Which *thread* runs which item varies run to run; which *slot*
//! an item's result occupies never does, so the returned `Vec` — and
//! anything serialised from it — is byte-identical at any thread count.
//! Determinism inside an item is the simulator's job (each item owns a whole
//! single-threaded [`rmr_des::Sim`]); determinism across items is this
//! module's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `run(0..n)` across `threads` OS-thread workers and returns the
/// results in index order.
///
/// `run` must not communicate between items (no shared mutable state beyond
/// its own index) — that is what keeps the sweep replay-deterministic.
/// Panics in `run` propagate: the scope unwinds and re-raises after all
/// workers stop.
pub fn sweep<T, F>(n: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Host-side parallelism only: each item owns a whole single-threaded
    // Sim, workers share nothing but the claim counter, and results are
    // written to per-item slots, so output order (and every byte derived
    // from it) is identical at any thread count.
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side pool: each worker runs whole single-threaded sims"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap() = Some(run(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker skipped a slot"))
        .collect()
}

/// [`sweep`] over a slice: `f` sees each item (and its index) and the
/// results come back in input order.
pub fn sweep_map<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    sweep(items.len(), threads, |i| f(&items[i], i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 8, 64] {
            let out = sweep(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<u32> = sweep(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_map_passes_items_and_indices() {
        let items = ["a", "bb", "ccc"];
        let out = sweep_map(&items, 2, |s, i| (i, s.len()));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let out = sweep(100, 8, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }
}
