//! Leak gate for the persistent runtime: a long job sequence must not grow
//! any job-keyed state. Before the completion-time cleanup pass, finished
//! jobs stayed in the scheduler's job map forever and the PrefetchCache
//! kept per-job admission stats for every job ever run — both scale-out
//! killers for a sweep that pushes hundreds of jobs through one runtime.

use std::collections::BTreeMap;

use rmr_bench::chaos::TwinTiming;
use rmr_bench::scenarios;
use rmr_cluster::{run_scenario, RunReport, System};
use rmr_core::{FaultEvent, FaultPlan, Runtime, ShuffleKind, StateFootprint};
use rmr_des::{Sim, SimDuration};
use rmr_obs::{AttemptOutcome, Ev, ObsEvent, TaskFlavor};
use rmr_workloads::{teragen, terasort_spec};

mod support;

#[test]
fn hundred_job_sequence_leaves_no_job_keyed_state() {
    const JOBS: usize = 100;
    let sim = Sim::new(0xB0B);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 2, false);
    let conf = support::conf(ShuffleKind::OsuIb, 2, false);
    let sim2 = sim.clone();
    let (peak, fp) = sim.block_on(sim.spawn_named("bounded-driver", async move {
        teragen(&cluster, "/in", 8 << 20, false).await;
        let rt = Runtime::start(&cluster, conf.clone());
        let mut slots_at_10 = 0;
        let mut peak: Option<StateFootprint> = None;
        for i in 0..JOBS {
            let id = rt.submit(conf.clone(), terasort_spec("/in", &format!("/out{i}")));
            let res = rt.join(id).await;
            assert!(res.duration_s > 0.0, "job {i} produced no work");
            let fp = rt.state_footprint();
            // Between jobs everything is joined: the footprint must be a
            // small per-cluster constant, never a function of `i`.
            assert!(fp.total() <= 4, "job-keyed state grew by job {i}: {fp:?}");
            if peak.is_none_or(|prev| fp.total() > prev.total()) {
                peak = Some(fp);
            }
            // The kernel's event slab is the high-water mark of events
            // pending at once — a property of one job's concurrency, which
            // the first ten jobs have shown. Every timer that lost its race
            // (a heartbeat woken early, a fluid event moved) used to add a
            // slot for good.
            if i == 9 {
                slots_at_10 = sim2.event_slots();
            }
        }
        assert_eq!(
            sim2.event_slots(),
            slots_at_10,
            "event slab grew between job 10 and job {JOBS}"
        );
        (peak, rt.state_footprint())
    }));
    assert_eq!(
        fp,
        StateFootprint::default(),
        "state left after {JOBS} jobs"
    );
    // The slab that held the whole sequence's events is a cluster-sized
    // constant (thousands at the cancellation rate of a single job, were
    // cancelled slots not reused).
    let slots = sim.event_slots();
    assert!((1..=64).contains(&slots), "{slots} event slots");
    // The assertions above are the gate; the peak is diagnostic context.
    eprintln!("peak between-job footprint: {peak:?}");
}

#[test]
fn kill_restart_complete_drains_to_zero_footprint() {
    // The footprint gate must also hold across a node death: killing a
    // TaskTracker mid-job re-queues its work (and marks the node down in
    // the footprint); after a restart and the job's completion, every piece
    // of job-keyed *and* liveness state must drain back to zero.
    let sim = Sim::new(0xDEAD);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 3, false);
    let conf = support::conf(ShuffleKind::OsuIb, 2, false);
    let sim2 = sim.clone();
    let fp = sim.block_on(sim.spawn_named("kill-restart-driver", async move {
        teragen(&cluster, "/in", 32 << 20, false).await;
        let rt = Runtime::start(&cluster, conf.clone());
        let id = rt.submit(conf.clone(), terasort_spec("/in", "/out"));
        // Wait until the map wave is under way, then pull a node out.
        for i in 0..=500 {
            assert!(i < 500, "map wave never started:\n{}", rt.dump().render());
            sim2.sleep(rmr_des::SimDuration::from_secs_f64(0.2)).await;
            let snap = rt.dump();
            if snap.jobs.first().is_some_and(|j| j.maps_completed >= 1) {
                break;
            }
        }
        rt.kill_node(1);
        let mid = rt.state_footprint();
        assert_eq!(
            mid.down_nodes, 1,
            "kill not reflected in footprint: {mid:?}"
        );
        assert!(
            rt.dump().nodes[1].epoch >= 1 || !rt.dump().nodes[1].alive,
            "snapshot must show the node down"
        );
        sim2.sleep(rmr_des::SimDuration::from_secs_f64(3.0)).await;
        rt.restart_node(1);
        let mut done = false;
        for _ in 0..3000 {
            if rt.poll(id).is_some() {
                done = true;
                break;
            }
            sim2.sleep(rmr_des::SimDuration::from_secs_f64(0.2)).await;
        }
        assert!(done, "job hung after kill/restart:\n{}", rt.dump().render());
        let res = rt.join(id).await;
        assert!(res.duration_s > 0.0, "job died with the node");
        rt.state_footprint()
    }));
    assert_eq!(
        fp,
        StateFootprint::default(),
        "state left after kill/restart: {fp:?}"
    );
}

#[test]
fn concurrent_batch_drains_to_zero_footprint() {
    // Same gate under concurrent submission: 10 jobs at once, joined after.
    let sim = Sim::new(7);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 3, false);
    let conf = support::conf(ShuffleKind::OsuIb, 2, false);
    let fp = sim.block_on(sim.spawn_named("batch-driver", async move {
        teragen(&cluster, "/in", 8 << 20, false).await;
        let rt = Runtime::start(&cluster, conf.clone());
        let ids: Vec<_> = (0..10)
            .map(|i| rt.submit(conf.clone(), terasort_spec("/in", &format!("/b{i}"))))
            .collect();
        // In-flight state is naturally non-zero while jobs run; the gate is
        // that joining everything returns it all.
        for id in ids {
            rt.join(id).await;
        }
        rt.state_footprint()
    }));
    assert_eq!(fp, StateFootprint::default(), "batch left state: {fp:?}");
}

type AttemptKey = (usize, u32, TaskFlavor, usize);

/// The attempts left holding a slot or running at the end of `events`,
/// keyed `(node, job, kind, idx)`. Panics on a `SlotRelease` or an
/// `AttemptFinish` without an earlier `SlotAcquire` or `AttemptStart`.
fn unreleased(events: &[ObsEvent]) -> Vec<AttemptKey> {
    let mut open: BTreeMap<(AttemptKey, &str), usize> = BTreeMap::new();
    for e in events {
        let (key, what) = match e.ev {
            Ev::SlotAcquire {
                node,
                job,
                kind,
                idx,
            }
            | Ev::SlotRelease {
                node,
                job,
                kind,
                idx,
            } => ((node, job, kind, idx), "slot"),
            Ev::AttemptStart {
                node,
                job,
                kind,
                idx,
            }
            | Ev::AttemptFinish {
                node,
                job,
                kind,
                idx,
                ..
            } => ((node, job, kind, idx), "run"),
            _ => continue,
        };
        let n = open.entry((key, what)).or_default();
        if matches!(e.ev, Ev::SlotAcquire { .. } | Ev::AttemptStart { .. }) {
            *n += 1;
        } else {
            assert!(
                *n > 0,
                "{:?} at {:.6}s closes no open {what}",
                e.ev,
                e.t_s()
            );
            *n -= 1;
        }
    }
    open.into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|((key, _), _)| key)
        .collect()
}

/// Slots balance: after a fault-free two-job run and one whose node crashes
/// late in the map wave and restarts, every node is up with all its slots
/// free, and the only attempts that never released their slot are the ones
/// the crash aborted.
#[test]
fn slots_balance_at_quiescence() {
    const CRASHED: usize = 1;
    let run = |plan: &FaultPlan| {
        let mut sc = scenarios::chaos(System::OsuIb, false, 8, 2, 1.0, 42, plan);
        sc.record = true;
        // Small enough that reducers are mid-pull from the crashed node's
        // outputs, so its death ends their attempts as source-lost.
        sc.conf.shuffle_buffer = 4 << 20;
        run_scenario(&sc).unwrap_or_else(|hung| panic!("{hung}"))
    };
    let twin = run(&FaultPlan::none());
    let crashed = run(&FaultPlan::none().with(FaultEvent::Crash {
        tt_idx: CRASHED,
        at: TwinTiming::of(&twin.jobs).mid_map_wave(0.7),
        restart_after: Some(SimDuration::from_secs(2)),
    }));
    let check = |report: &RunReport, aborted_on: Option<usize>| {
        let last = report
            .snapshots
            .last()
            .expect("a recorded run keeps snapshots");
        for n in &last.nodes {
            assert!(n.alive, "node{} still down", n.node);
            assert_eq!(
                (n.free_map_slots, n.free_reduce_slots),
                (n.total_map_slots, n.total_reduce_slots),
                "node{} holds slots after the last job",
                n.node
            );
        }
        let events = report.recorder.events();
        for (node, job, kind, idx) in unreleased(&events) {
            assert_eq!(
                Some(node),
                aborted_on,
                "j{job} {kind:?} {idx} on node{node} never released its slot"
            );
        }
        events
    };
    check(&twin, None);
    let events = check(&crashed, Some(CRASHED));
    // The crash must reach the reducers' source-lost ending.
    assert!(events.iter().any(|e| matches!(
        e.ev,
        Ev::AttemptFinish {
            kind: TaskFlavor::Reduce,
            outcome: AttemptOutcome::Failed,
            ..
        }
    )));
}

/// A connection is state, not tasks: with every reducer connected to every
/// TaskTracker, live tasks are counted in nodes and reducers — daemons per
/// node, a few tasks per attempt — never in (reducer × TaskTracker) pairs.
#[test]
fn connect_all_costs_no_task_per_connection() {
    const NODES: usize = 16;
    const REDUCES: usize = 32;
    let sim = Sim::new(0xC0DE);
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, NODES, false);
    let mut conf = support::conf(ShuffleKind::OsuIb, 2, false);
    conf.num_reduces = REDUCES;
    let driver = sim.spawn_named("bounded-driver", async move {
        teragen(&cluster, "/in", 256 << 20, false).await;
        let rt = Runtime::start(&cluster, conf.clone());
        let id = rt.submit(conf, terasort_spec("/in", "/out"));
        rt.join(id).await;
        assert_eq!(rt.state_footprint().total(), 0);
    });
    // All 32 reducers fit the 16 × 2 reduce slots at once, so at the peak all
    // 512 connections are up.
    let mut peak = 0;
    while !driver.is_finished() {
        sim.run_until(sim.now() + SimDuration::from_millis(20));
        peak = peak.max(sim.live_tasks());
    }
    assert!(
        peak <= 24 * NODES + 8 * REDUCES,
        "{peak} live tasks on {NODES} nodes with {REDUCES} reducers"
    );
}
