//! Property-based tests on the JobTracker scheduler: locality preference,
//! slowstart gating, and no-double-completion must hold under arbitrary
//! interleavings of heartbeats, completions, and failures — the interleaving
//! a multi-job runtime produces when several jobs share the same trackers.
//!
//! The capacity-queue invariants ride the same harness: delay scheduling
//! may defer a job by at most its skip budget, and a queue with a slot
//! guarantee must overtake a FIFO backlog whenever it has demand.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use proptest::prelude::*;

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::jobtracker::{JobTracker, MapTaskDesc};
use rmr_core::{CapacityPlan, JobConf, JobResult, JobSpec, Runtime, SchedulePolicy, ShuffleKind};
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::{Blob, BlockId, BlockMeta, HdfsConfig};
use rmr_net::{FabricParams, NodeId};

fn desc(idx: usize, loc: u32) -> MapTaskDesc {
    MapTaskDesc {
        idx,
        block: BlockMeta {
            id: BlockId(idx as u64),
            size: 4 << 20,
            replicas: vec![0],
        },
        locations: vec![NodeId(loc)],
    }
}

/// One step of the random schedule: a heartbeat from some node with some
/// free slots, or completing / failing one of the currently running
/// attempts (picked by the `u8` selector modulo the running count).
fn arb_step() -> impl Strategy<Value = (u32, usize, usize, u8, u8)> {
    (0u32..4, 0usize..4, 0usize..3, any::<u8>(), any::<u8>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Without speculation every launched attempt is unique, locality is
    /// honoured within each heartbeat batch, unfilled slots imply an empty
    /// pending queue, and the slowstart threshold gates every reduce launch.
    #[test]
    fn scheduler_invariants_under_random_interleavings(
        total_maps in 1usize..12,
        total_reduces in 0usize..5,
        slowstart_pct in 0u32..101,
        steps in proptest::collection::vec(arb_step(), 1..100),
    ) {
        let slowstart = slowstart_pct as f64 / 100.0;
        let descs: Vec<MapTaskDesc> =
            (0..total_maps).map(|i| desc(i, (i % 4) as u32)).collect();
        let mut jt = JobTracker::new(descs, total_reduces, slowstart);

        // Shadow model of the scheduler's visible state. Each running
        // attempt remembers the tracker it launched on — failure reporting
        // is per-tracker now.
        let mut pending: BTreeSet<usize> = (0..total_maps).collect();
        let mut running: Vec<(MapTaskDesc, usize)> = Vec::new();
        let mut completed: BTreeSet<usize> = BTreeSet::new();
        let mut reduces_launched: BTreeSet<usize> = BTreeSet::new();

        for (node, mslots, rslots, action, pick) in steps {
            match action % 3 {
                0 => {
                    let gate_open = jt.maps_completed() as f64
                        >= slowstart * total_maps as f64;
                    let (maps, reduces) =
                        jt.heartbeat(NodeId(node), node as usize, mslots, rslots);
                    prop_assert!(maps.len() <= mslots, "over-assignment");
                    prop_assert!(reduces.len() <= rslots, "over-assignment");
                    // Pass 1 drains data-local maps before pass 2 touches the
                    // rest, so locals must precede non-locals in the batch.
                    let mut seen_nonlocal = false;
                    for m in &maps {
                        if m.locations.contains(&NodeId(node)) {
                            prop_assert!(
                                !seen_nonlocal,
                                "data-local map scheduled after a remote one"
                            );
                        } else {
                            seen_nonlocal = true;
                        }
                    }
                    for m in &maps {
                        prop_assert!(
                            pending.remove(&m.idx),
                            "map {} launched while not pending", m.idx
                        );
                        running.push((m.clone(), node as usize));
                    }
                    if maps.len() < mslots {
                        prop_assert!(
                            pending.is_empty(),
                            "slots left idle while maps were pending"
                        );
                    }
                    if !reduces.is_empty() {
                        prop_assert!(
                            gate_open,
                            "reduce launched below the slowstart threshold \
                             ({} of {} maps done, slowstart {slowstart})",
                            jt.maps_completed(), total_maps
                        );
                    }
                    for r in reduces {
                        prop_assert!(r < total_reduces);
                        prop_assert!(
                            reduces_launched.insert(r),
                            "reduce {r} launched twice without failing"
                        );
                    }
                }
                1 => {
                    if running.is_empty() {
                        continue;
                    }
                    let (d, tt) = running.remove(pick as usize % running.len());
                    let before = jt.maps_completed();
                    prop_assert!(
                        jt.map_completed(d.idx, tt),
                        "without speculation every completion is the first"
                    );
                    prop_assert!(completed.insert(d.idx), "double completion");
                    prop_assert_eq!(jt.maps_completed(), before + 1);
                }
                _ => {
                    if running.is_empty() {
                        continue;
                    }
                    let (d, tt) = running.remove(pick as usize % running.len());
                    pending.insert(d.idx);
                    jt.map_failed(d, tt);
                }
            }
            prop_assert!(jt.maps_completed() <= total_maps);
            prop_assert_eq!(jt.maps_completed(), completed.len());
        }
    }

    /// With speculation on, duplicate attempts exist but `map_completed`
    /// returns `true` exactly once per task, and the completed count stays
    /// monotonic and bounded by the task count.
    #[test]
    fn speculative_completions_count_once(
        total_maps in 1usize..10,
        steps in proptest::collection::vec(arb_step(), 1..100),
    ) {
        let descs: Vec<MapTaskDesc> =
            (0..total_maps).map(|i| desc(i, (i % 4) as u32)).collect();
        let mut jt = JobTracker::new(descs, 0, 0.05);
        jt.set_speculative(true);

        let mut attempts: Vec<(usize, usize)> = Vec::new();
        let mut completed: BTreeSet<usize> = BTreeSet::new();

        for (node, mslots, _, action, pick) in steps {
            if action % 2 == 0 {
                let (maps, _) = jt.heartbeat(NodeId(node), node as usize, mslots, 0);
                prop_assert!(maps.len() <= mslots);
                for m in maps {
                    prop_assert!(
                        !completed.contains(&m.idx),
                        "completed map {} speculated again", m.idx
                    );
                    attempts.push((m.idx, node as usize));
                }
            } else {
                if attempts.is_empty() {
                    continue;
                }
                let (idx, tt) = attempts.remove(pick as usize % attempts.len());
                let before = jt.maps_completed();
                let first = jt.map_completed(idx, tt);
                prop_assert_eq!(
                    first,
                    completed.insert(idx),
                    "map_completed must return true exactly once per task"
                );
                prop_assert_eq!(
                    jt.maps_completed(),
                    before + usize::from(first),
                    "only first completions advance the counter"
                );
            }
            prop_assert!(jt.maps_completed() <= total_maps);
            prop_assert_eq!(jt.maps_completed(), completed.len());
        }

        // Drain: finish every remaining attempt; the tracker must converge
        // to exactly one counted completion per task regardless of losers.
        while let Some((idx, tt)) = attempts.pop() {
            let first = jt.map_completed(idx, tt);
            prop_assert_eq!(first, completed.insert(idx));
        }
        prop_assert_eq!(jt.maps_completed(), completed.len());
    }

    /// Delay scheduling bounds the wait: a job may decline at most
    /// `locality_delay` consecutive non-local launch opportunities before it
    /// must accept one, and a granted non-local launch re-arms the budget.
    #[test]
    fn delay_scheduling_bounds_nonlocal_wait(
        total_maps in 2usize..12,
        delay in 0u32..6,
        steps in proptest::collection::vec((1u32..4, 1usize..3), 1..120),
    ) {
        // Every map is local to node 0; heartbeats only ever come from
        // nodes 1..4, so each offered slot is a non-local opportunity.
        let descs: Vec<MapTaskDesc> = (0..total_maps).map(|i| desc(i, 0)).collect();
        let mut jt = JobTracker::new(descs, 0, 0.05);
        jt.set_locality_delay(delay);

        let mut pending = total_maps;
        let mut declines = 0u32;
        for (node, mslots) in steps {
            if pending == 0 {
                break;
            }
            let (maps, _) = jt.heartbeat(NodeId(node), node as usize, mslots, 0);
            if maps.is_empty() {
                declines += 1;
                prop_assert!(
                    declines <= delay,
                    "declined {declines} consecutive non-local offers, budget {delay}"
                );
            } else {
                // The budget had to be exhausted before a non-local grant.
                prop_assert_eq!(
                    declines, delay,
                    "non-local launch granted before the skip budget ran out"
                );
                declines = 0;
                pending -= maps.len();
            }
        }
    }
}

/// One two-queue backlog run: `batch_jobs` six-block sort jobs flood queue 1
/// at t = 0, a one-block queue-0 job arrives at t = 1 s. Returns every
/// [`JobResult`] (queue field distinguishes tenants); asserts quiescence.
fn backlog_run(policy: SchedulePolicy, batch_jobs: usize, seed: u64) -> Vec<JobResult> {
    let sim = Sim::new(seed);
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![NodeSpec::westmere_compute(); 2],
        HdfsConfig {
            block_size: 4 << 20,
            replication: 1,
            packet_size: 1 << 20,
        },
    );
    let mut conf = JobConf::for_kind(ShuffleKind::OsuIb);
    conf.num_reduces = 1;
    conf.map_slots = 2;
    conf.reduce_slots = 1;
    let results: Rc<RefCell<Vec<JobResult>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&results);
    let c2 = cluster.clone();
    let sim2 = sim.clone();
    sim.spawn_named("backlog-driver", async move {
        for (path, blocks) in [("/cap/big", 6u64), ("/cap/small", 1)] {
            for b in 0..blocks {
                let node = c2.workers[(b % 2) as usize].id;
                let mut w = c2
                    .hdfs
                    .create(&format!("{path}/part-{b}"), node)
                    .await
                    .expect("create backlog input");
                w.write(Blob::synthetic(4 << 20)).await.expect("write");
                w.close().await.expect("close");
            }
        }
        let rt = Runtime::with_policy(&c2, conf.clone(), policy);
        let mut ids = Vec::new();
        for i in 0..batch_jobs {
            let mut c = conf.clone();
            c.queue = 1;
            ids.push(rt.submit(c, JobSpec::sort("/cap/big", &format!("/cap/outb{i}"), 100)));
        }
        sim2.sleep(SimDuration::from_secs_f64(1.0)).await;
        let mut c = conf.clone();
        c.queue = 0;
        ids.push(rt.submit(c, JobSpec::sort("/cap/small", "/cap/outi", 100)));
        for id in ids {
            let res = rt.join(id).await;
            r2.borrow_mut().push(res);
        }
        assert_eq!(rt.state_footprint().total(), 0, "job-keyed state leaked");
    })
    .detach();
    sim.run();
    let out = results.borrow().clone();
    assert_eq!(out.len(), batch_jobs + 1, "backlog run hung");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Slot guarantees are honoured under demand: with a capacity share, the
    /// late-arriving queue-0 job must never wait longer than it does under
    /// FIFO, and with a real backlog it overtakes queue 1's tail entirely
    /// instead of draining behind it.
    #[test]
    fn capacity_guarantee_overtakes_fifo_backlog(
        batch_jobs in 2usize..5,
        share0 in 300u32..701,
        seed in 0u64..1000,
    ) {
        let plan = CapacityPlan::new(&[(0, share0), (1, 1000 - share0)]);
        let cap = backlog_run(SchedulePolicy::Capacity(plan), batch_jobs, seed);
        let fifo = backlog_run(SchedulePolicy::Fifo, batch_jobs, seed);

        let q0 = |rs: &[JobResult]| {
            rs.iter().find(|r| r.queue == 0).expect("queue-0 job").clone()
        };
        let (cap0, fifo0) = (q0(&cap), q0(&fifo));
        prop_assert!(
            cap0.queue_wait_s <= fifo0.queue_wait_s,
            "guaranteed queue waited {:.2}s under capacity vs {:.2}s under FIFO",
            cap0.queue_wait_s, fifo0.queue_wait_s
        );
        // FIFO drains the backlog first, so queue 0 finishes last; with a
        // guarantee it must jump the queue and finish inside the backlog.
        let cap_tail = cap
            .iter()
            .filter(|r| r.queue == 1)
            .map(|r| r.end_s)
            .fold(0.0, f64::max);
        prop_assert!(
            cap0.end_s < cap_tail,
            "guaranteed job finished at {:.2}s, after the batch tail {:.2}s",
            cap0.end_s, cap_tail
        );
    }
}
