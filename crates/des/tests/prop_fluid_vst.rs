//! Property tests pinning the virtual-service-time fluid solver against a
//! brute-force oracle, plus the work-complexity regression guard.
//!
//! The solver in `resource/fluid.rs` tracks one virtual clock and per-entry
//! finish tags in a min-heap; the oracle below re-derives completion times
//! the slow, obvious way — advance every active entry at
//! `min(capacity / n, entry_cap)` until the next arrival or completion,
//! O(n) per event. Both must agree on *when* every consumer finishes, for
//! arbitrary arrival schedules and entry caps.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use rmr_des::prelude::*;
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_des::sync::{select2, Either};

/// One generated consumer: `(amount, arrival)` in units and seconds.
type Job = (f64, f64);

/// Brute-force processor-sharing oracle: event-stepped, O(n) per step.
/// Returns each job's completion time in seconds. Matches the solver's
/// completion tolerance (residual ≤ 1e-6 units counts as done).
fn oracle_finish_times(jobs: &[Job], capacity: f64, entry_cap: f64) -> Vec<f64> {
    const EPS: f64 = 1e-6;
    let n = jobs.len();
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.0).collect();
    let mut finish = vec![f64::NAN; n];
    let mut t: f64 = 0.0;
    loop {
        let active: Vec<usize> = (0..n)
            .filter(|&i| finish[i].is_nan() && jobs[i].1 <= t)
            .collect();
        let next_arrival = (0..n)
            .filter(|&i| finish[i].is_nan() && jobs[i].1 > t)
            .map(|i| jobs[i].1)
            .fold(f64::INFINITY, f64::min);
        if active.is_empty() {
            if next_arrival.is_finite() {
                t = next_arrival;
                continue;
            }
            break;
        }
        // Every active entry progresses at the same rate.
        let r = (capacity / active.len() as f64).min(entry_cap);
        let dt_done = active
            .iter()
            .map(|&i| (remaining[i] - EPS) / r)
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        let dt = dt_done.min(next_arrival - t);
        for &i in &active {
            remaining[i] -= dt * r;
        }
        t += dt;
        for &i in &active {
            if remaining[i] <= EPS {
                finish[i] = t;
            }
        }
    }
    finish
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heap solver and the brute-force oracle agree on every
    /// completion time, across random arrival schedules and entry caps.
    /// This is the end-to-end correctness property of the
    /// virtual-service-time rewrite.
    #[test]
    fn fluid_matches_brute_force_oracle(
        raw in proptest::collection::vec((1u64..5_000, 0u64..2_000), 1..16),
        capacity in 1u64..1_000,
        // 0 = uncapped; otherwise units/second per consumer.
        cap_raw in 0u64..500,
    ) {
        let capacity = capacity as f64;
        let entry_cap = if cap_raw == 0 { f64::INFINITY } else { cap_raw as f64 };
        let jobs: Vec<Job> = raw
            .iter()
            .map(|&(a, d)| (a as f64, d as f64 / 1e3))
            .collect();

        let sim = Sim::new(11);
        let fluid = Fluid::with_entry_cap(&sim, capacity, entry_cap);
        let finish: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![f64::NAN; jobs.len()]));
        for (i, &(amount, _)) in jobs.iter().enumerate() {
            let delay_ms = raw[i].1;
            let sim2 = sim.clone();
            let fluid = fluid.clone();
            let finish = Rc::clone(&finish);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(delay_ms)).await;
                fluid.consume(amount).await;
                finish.borrow_mut()[i] = sim2.now().as_nanos() as f64 / 1e9;
            })
            .detach();
        }
        sim.run();

        let expected = oracle_finish_times(&jobs, capacity, entry_cap);
        let got = finish.borrow();
        for (i, (&g, &e)) in got.iter().zip(expected.iter()).enumerate() {
            prop_assert!(!g.is_nan(), "job {i} never completed");
            // Slack: the solver's 1e-6-unit completion tolerance divided by
            // the slowest possible entry rate, plus relative float drift
            // over a long virtual-clock run, plus nanosecond quantisation.
            let slowest_rate = (capacity / jobs.len() as f64).min(entry_cap);
            let tol = 2e-6 / slowest_rate + 1e-6 * e + 1e-6;
            prop_assert!(
                (g - e).abs() <= tol,
                "job {i}: solver {g} vs oracle {e} (tol {tol})"
            );
        }
        // Conservation: everything asked for was served.
        let total: f64 = jobs.iter().map(|j| j.0).sum();
        prop_assert!((fluid.served() - total).abs() < 1.0,
            "served {} vs requested {total}", fluid.served());
        prop_assert_eq!(fluid.active(), 0);
    }

    /// Cancelling consumers mid-flight (dropping the `ConsumeFuture` when a
    /// timeout wins a `select2` race) must not wedge or corrupt the solver:
    /// every surviving consumer still completes and accounting stays sane.
    /// Exercises the slot-generation (ABA) protection on heap entries.
    #[test]
    fn fluid_survives_cancellation(
        raw in proptest::collection::vec(
            // (amount, arrival ms, cancel-after ms; 0 = never)
            (1u64..5_000, 0u64..500, 0u64..200),
            1..16,
        ),
        capacity in 1u64..100,
    ) {
        let sim = Sim::new(13);
        let fluid = Fluid::new(&sim, capacity as f64);
        let completed: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let cancelled: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &(amount, delay_ms, cancel_ms)) in raw.iter().enumerate() {
            let sim2 = sim.clone();
            let fluid = fluid.clone();
            let completed = Rc::clone(&completed);
            let cancelled = Rc::clone(&cancelled);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(delay_ms)).await;
                let consume = fluid.consume(amount as f64);
                if cancel_ms == 0 {
                    consume.await;
                    completed.borrow_mut().push(i);
                } else {
                    let timeout = sim2.sleep(SimDuration::from_millis(cancel_ms));
                    match select2(timeout, consume).await {
                        Either::Left(()) => cancelled.borrow_mut().push(i),
                        Either::Right(()) => completed.borrow_mut().push(i),
                    }
                }
            })
            .detach();
        }
        sim.run(); // liveness: quiesces instead of wedging

        let completed = completed.borrow();
        let cancelled = cancelled.borrow();
        prop_assert_eq!(completed.len() + cancelled.len(), raw.len(),
            "every consumer resolved one way or the other");
        for (i, &(_, _, cancel_ms)) in raw.iter().enumerate() {
            if cancel_ms == 0 {
                prop_assert!(completed.contains(&i), "job {i} (no timeout) must complete");
            }
        }
        prop_assert_eq!(fluid.active(), 0, "no entries left behind");
        // Served lies between the completed total (their full amounts went
        // through) and the requested total (cancelled ones stop early).
        let total: f64 = raw.iter().map(|j| j.0 as f64).sum();
        let completed_total: f64 = completed.iter().map(|&i| raw[i].0 as f64).sum();
        prop_assert!(fluid.served() >= completed_total - 1.0,
            "served {} < completed {completed_total}", fluid.served());
        prop_assert!(fluid.served() <= total + 1.0,
            "served {} > requested {total}", fluid.served());
    }
}

/// Runs the fluid-churn pattern at size `n`: staggered consumers each
/// doing several transfers on one shared resource, so completions happen
/// under persistently high concurrency. Returns (solver work, completions).
fn churn_work(n: usize) -> (u64, u64) {
    const ROUNDS: usize = 4;
    let sim = Sim::new(7);
    let f = Fluid::new(&sim, 1e6);
    for i in 0..n {
        let f = f.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis((i % 97) as u64)).await;
            for r in 0..ROUNDS {
                f.consume(1_000.0 + ((i * 31 + r * 7) % 500) as f64).await;
            }
        })
        .detach();
    }
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    sim.run();
    let work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;
    (work, (n * ROUNDS) as u64)
}

/// Regression guard on solver complexity: doubling the number of transfers
/// must roughly double `FLUID_ADVANCE_WORK`, not quadruple it. The old
/// every-entry rescan scored ~4× here (work/completion itself grew with n);
/// the heap solver stays ~2× with constant work/completion.
#[test]
fn fluid_work_grows_linearly() {
    let (work1, done1) = churn_work(200);
    let (work2, done2) = churn_work(400);
    assert_eq!(done2, 2 * done1);
    let ratio = work2 as f64 / work1 as f64;
    assert!(
        ratio < 3.0,
        "FLUID_ADVANCE_WORK grew {ratio:.2}x for 2x transfers (quadratic regression?): \
         {work1} -> {work2}"
    );
    // And work per completion is bounded by a small constant, independent
    // of n (one clock advance + one heap pop per completion, plus churn).
    let per1 = work1 as f64 / done1 as f64;
    let per2 = work2 as f64 / done2 as f64;
    assert!(
        per1 < 16.0 && per2 < 16.0,
        "work/completion {per1:.1} / {per2:.1}"
    );
}
