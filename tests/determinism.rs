//! Replay-determinism gates: the same seed must reproduce the exact event
//! schedule (checked via the executor's trace hash), and a full job run must
//! leave no live-but-unrunnable task behind. The multi-job tests drive the
//! persistent cluster runtime with concurrent submissions.

use rmr_core::{run_job, JobResult, Runtime, ShuffleKind};
use rmr_des::{assert_deterministic, Sim};
use rmr_workloads::{teragen, terasort_spec, textgen, wordcount_spec};

mod support;

fn spawn_terasort(sim: &Sim, kind: ShuffleKind, total_bytes: u64) {
    let cluster = support::cluster(sim, kind, 3, false);
    let conf = support::conf(kind, 2, false);
    sim.spawn_named("terasort-driver", async move {
        teragen(&cluster, "/in", total_bytes, false).await;
        let res = run_job(&cluster, conf, terasort_spec("/in", "/out")).await;
        assert!(res.duration_s > 0.0);
    })
    .detach();
}

/// Two jobs — a TeraSort and a WordCount — submitted back-to-back onto one
/// runtime, shuffling through the same TaskTrackers concurrently.
fn spawn_two_concurrent_jobs(sim: &Sim) {
    let cluster = support::cluster(sim, ShuffleKind::OsuIb, 3, false);
    let conf = support::conf(ShuffleKind::OsuIb, 2, false);
    sim.spawn_named("multijob-driver", async move {
        teragen(&cluster, "/tera", 12 << 20, false).await;
        textgen(&cluster, "/text", 400, 12).await;
        let rt = Runtime::start(&cluster, conf.clone());
        let a = rt.submit(conf.clone(), terasort_spec("/tera", "/out-a"));
        let b = rt.submit(conf.clone(), wordcount_spec("/text", "/out-b"));
        let ra = rt.join(a).await;
        let rb = rt.join(b).await;
        assert!(ra.duration_s > 0.0);
        assert!(rb.duration_s > 0.0);
        assert_eq!(rt.active_jobs(), 0);
    })
    .detach();
}

#[test]
fn terasort_replays_identically_per_engine() {
    for kind in [
        ShuffleKind::Vanilla,
        ShuffleKind::HadoopA,
        ShuffleKind::OsuIb,
    ] {
        assert_deterministic(41, |sim| spawn_terasort(sim, kind, 16 << 20));
    }
}

/// Run-to-run equality cannot tell a host-only change from one that moved
/// the schedule: these are the trace hashes of the 16 MiB TeraSort at seed
/// 41 as of commit `a582acf`. A PR that claims "same schedule, less host
/// time" must leave them alone; a PR that changes the model updates them
/// and says why.
#[test]
fn terasort_trace_hashes_are_pinned() {
    for (kind, want) in [
        (ShuffleKind::Vanilla, 0x0848_4b3a_8520_5a96u64),
        (ShuffleKind::HadoopA, 0x8b6d_6cc8_a477_51f5),
        (ShuffleKind::OsuIb, 0x1e91_8b7b_0ebd_4369),
    ] {
        let sim = Sim::new(41);
        spawn_terasort(&sim, kind, 16 << 20);
        sim.run();
        assert_eq!(
            sim.trace_hash(),
            want,
            "{kind:?}: trace hash {:#018x} differs from the pinned schedule",
            sim.trace_hash()
        );
    }
}

#[test]
fn concurrent_terasort_and_wordcount_replay_identically() {
    assert_deterministic(43, spawn_two_concurrent_jobs);
}

#[test]
fn four_concurrent_jobs_on_eight_nodes_are_deterministic() {
    let run = || -> (u64, Vec<JobResult>) {
        let sim = Sim::new(91);
        let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 8, false);
        let conf = support::conf(ShuffleKind::OsuIb, 2, false);
        let results = sim.block_on(sim.spawn_named("multijob-driver", async move {
            for i in 0..4 {
                teragen(&cluster, &format!("/in{i}"), 8 << 20, false).await;
            }
            let rt = Runtime::start(&cluster, conf.clone());
            let ids: Vec<_> = (0..4)
                .map(|i| {
                    rt.submit(
                        conf.clone(),
                        terasort_spec(&format!("/in{i}"), &format!("/out{i}")),
                    )
                })
                .collect();
            let mut results = Vec::new();
            for id in ids {
                results.push(rt.join(id).await);
            }
            results
        }));
        (sim.trace_hash(), results)
    };
    let (h1, res1) = run();
    let (h2, res2) = run();
    assert_eq!(h1, h2, "same seed must reproduce the event trace exactly");
    assert_eq!(res1.len(), 4, "all four jobs must complete");
    for (a, b) in res1.iter().zip(&res2) {
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.queue_wait_s, b.queue_wait_s);
        assert_eq!(a.slot_occupancy, b.slot_occupancy);
    }
    for r in &res1 {
        assert!(r.queue_wait_s >= 0.0);
        assert!(
            r.slot_occupancy > 0.0 && r.slot_occupancy <= 1.0,
            "slot occupancy must be a fraction of the cluster's slot-seconds, got {}",
            r.slot_occupancy
        );
        assert_eq!(r.shuffled_bytes, r.input_bytes, "per-job conservation");
    }
}

#[test]
fn different_workloads_follow_different_schedules() {
    // The hash must actually depend on the schedule, not collapse to a
    // constant: a different input size changes packet counts and timing, so
    // the traces must diverge.
    let hash_of = |total: u64| {
        let sim = Sim::new(41);
        spawn_terasort(&sim, ShuffleKind::OsuIb, total);
        sim.run();
        sim.trace_hash()
    };
    assert_ne!(hash_of(16 << 20), hash_of(24 << 20));
}

#[test]
fn terasort_quiesces_with_no_stalled_tasks() {
    // Server loops (responder pools, listeners, prefetchers, parked
    // heartbeat daemons) are daemons and expected to park forever;
    // everything else must have finished.
    let sim = Sim::new(77);
    spawn_terasort(&sim, ShuffleKind::OsuIb, 16 << 20);
    let report = sim.step_until_no_events();
    report.assert_clean();
    assert!(report.daemons > 0, "OSU-IB runs spawn daemon server loops");
    assert!(report.time.as_nanos() > 0);
}

#[test]
fn multijob_quiesces_with_no_stalled_tasks() {
    let sim = Sim::new(78);
    spawn_two_concurrent_jobs(&sim);
    let report = sim.step_until_no_events();
    report.assert_clean();
}
