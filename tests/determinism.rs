//! Replay-determinism gates: the same seed must reproduce the exact event
//! schedule (checked via the executor's trace hash), and a full job run must
//! leave no live-but-unrunnable task behind. The multi-job tests drive the
//! persistent cluster runtime with concurrent submissions.

use rmr_core::{run_job, JobResult, Runtime, ShuffleKind};
use rmr_des::{assert_deterministic, Component, Sim};
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

/// Every spawn folds its tag's rendering into the trace hash, and the hash
/// pins above cover only the components a pinned run spawns: a tenant, a
/// chaos crash or a RandomWriter writer renamed by one byte would pass every
/// replay gate and still move the benchmark's trace hash. So each production
/// tag is held to the name its task has always had, and a daemon is exactly
/// a server loop.
#[test]
fn every_component_renders_its_historic_name() {
    use Component::*;
    let table = [
        (Map { job: 3, map: 7 }, "j3-map-7", false),
        (Reduce { job: 0, reduce: 2 }, "j0-reduce-2", false),
        (Heartbeat { tt: 4 }, "tt4-heartbeat", true),
        (HttpListener { tt: 5 }, "tt5-http-listener", true),
        (HttpConn { tt: 5 }, "tt5-http-conn", true),
        (
            RdmaResponder { tt: 2, thread: 1 },
            "tt2-rdma-responder-1",
            true,
        ),
        (RdmaReceiver { tt: 12 }, "tt12-rdma-receiver", true),
        (PrefetchDaemon { thread: 0 }, "prefetch-daemon-0", true),
        (QpEngine, "qp-engine", true),
        (EventFetcher { reduce: 9 }, "r9-event-fetcher", false),
        (
            VanillaCopier {
                reduce: 1,
                thread: 3,
            },
            "r1-copier-3",
            false,
        ),
        (RdmaCopier { reduce: 0 }, "r0-rdma-copier", true),
        (ReduceConsumer { reduce: 11 }, "r11-reduce-consumer", false),
        (ShuffleSpill { reduce: 4 }, "r4-shuffle-spill", true),
        (ChaosCrash { tt: 6 }, "chaos-crash-tt6", false),
        (TeragenWriter { writer: 2 }, "teragen-2", false),
        (RandomWriter { writer: 0 }, "randomwriter-0", false),
        (Tenant { queue: 1 }, "tenant-1", false),
        (Anon(5), "task-5", false),
        (Component::from("bench-driver"), "bench-driver", false),
        (Component::from("tenant-1".to_string()), "tenant-1", false),
    ];
    // What a spawn folds into the trace hash: the tag's rendering, written
    // piece by piece, must fold exactly like the whole name.
    let hash = |tag: Component| {
        let sim = Sim::new(1);
        sim.spawn_named(tag, async {}).detach();
        sim.trace_hash()
    };
    for (tag, name, daemon) in table {
        assert_eq!(tag.to_string(), name);
        assert_eq!(tag.is_daemon(), daemon, "{name}");
        assert_eq!(hash(tag), hash(Component::from(name)), "{name}");
    }
}
