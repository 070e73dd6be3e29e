//! Refill-equivalence gates for the RDMA reducer (`reduce/rdma.rs`).
//!
//! The reducer's refill step walks a maintained candidate set instead of
//! sweeping every map source per merge-loop iteration. That is host-side
//! bookkeeping only: which `(map_idx, budget, reserved)` requests go out, and
//! in what order, must be exactly what the sweep issued. Each run below uses
//! a shuffle buffer too small to hold one packet per source, so nearly every
//! refill decision is made by the budget (reserve / skip / overdraft / spill
//! / tail-packet estimates), and pins
//!
//! * the executor's trace hash (the whole event schedule),
//! * the number of `Ev::ShuffleRequest`s, and
//! * an FNV-1a fold over the `(t_ns, node, server, map_idx, reduce)` request
//!   stream in emission order
//!
//! to the values the sweep-based reducer of commit `a582acf` produced. The
//! faulted run drives the Phase A re-home / reconnect / `SourceLost` paths
//! under the same pin. Seed-derived fault plans then drive the same job
//! through restarts that leave reducers holding stale completion events: no
//! run may panic, hang or lose output.

use std::panic::AssertUnwindSafe;

use rmr_bench::chaos::{derive_plan, TwinTiming};
use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{FaultEvent, FaultPlan, JobConf, JobResult, Runtime, SchedulePolicy, ShuffleKind};
use rmr_des::{Sim, SimDuration, SimTime};
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_obs::{Ev, Recorder};
use rmr_workloads::{teragen, terasort_spec};

/// What a run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trace_hash: u64,
    requests: u64,
    request_stream: u64,
}

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A 48 MiB synthetic TeraSort (24 maps × 4 reducers on 5 nodes) through a
/// 1 MiB shuffle buffer: 24 sources × one 64 KiB packet (OSU-IB) or one
/// 500-record packet (Hadoop-A) do not fit, so refill is budget-bound.
fn tight_run(kind: ShuffleKind, plan: &FaultPlan) -> (Pin, JobResult) {
    tight_run_with(kind, plan, 500, 1 << 20)
}

/// [`tight_run`] with Hadoop-A's packet size and the shuffle buffer given.
fn tight_run_with(
    kind: ShuffleKind,
    plan: &FaultPlan,
    kv_per_packet: u64,
    shuffle_buffer: u64,
) -> (Pin, JobResult) {
    let sim = Sim::new(7);
    let obs = Recorder::on(&sim);
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 64 << 20;
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![spec; 5],
        HdfsConfig {
            block_size: 2 << 20,
            replication: 1,
            packet_size: 1 << 20,
        },
    );
    let mut conf = JobConf::for_kind(kind);
    conf.num_reduces = 4;
    conf.map_slots = 2;
    conf.reduce_slots = 2;
    conf.shuffle_buffer = shuffle_buffer;
    conf.io_sort_buffer = 8 << 20;
    conf.prefetch_cache_bytes = 16 << 20;
    conf.osu_packet_bytes = 64 << 10;
    conf.hadoop_a_kv_per_packet = kv_per_packet;

    let (obs2, plan) = (obs.clone(), plan.clone());
    let res = sim.block_on(sim.spawn_named("refill-driver", async move {
        teragen(&cluster, "/in", 48 << 20, false).await;
        let rt = Runtime::with_obs(&cluster, conf.clone(), SchedulePolicy::Fifo, obs2);
        rt.apply_fault_plan(&plan);
        let id = rt.submit(conf, terasort_spec("/in", "/out"));
        rt.join(id).await
    }));
    assert_eq!(res.shuffled_bytes, res.input_bytes, "shuffle conservation");

    let (mut requests, mut stream) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for e in obs.events() {
        if let Ev::ShuffleRequest {
            node,
            server,
            map_idx,
            reduce,
            ..
        } = e.ev
        {
            requests += 1;
            for v in [
                e.t_ns,
                node as u64,
                server as u64,
                map_idx as u64,
                reduce as u64,
            ] {
                fnv1a(&mut stream, v);
            }
        }
    }
    let pin = Pin {
        trace_hash: sim.trace_hash(),
        requests,
        request_stream: stream,
    };
    (pin, res)
}

#[test]
fn hadoop_a_tight_buffer_issues_the_sweeps_request_sequence() {
    let (pin, _) = tight_run(ShuffleKind::HadoopA, &FaultPlan::none());
    assert_eq!(
        pin,
        Pin {
            trace_hash: 0xcf59_ae7d_4a87_7afb,
            requests: 1160,
            request_stream: 0x979c_451f_70e8_426d,
        }
    );
}

#[test]
fn osu_ib_tight_buffer_issues_the_sweeps_request_sequence() {
    let (pin, _) = tight_run(ShuffleKind::OsuIb, &FaultPlan::none());
    assert_eq!(
        pin,
        Pin {
            trace_hash: 0xd6a8_6c79_3a7c_7c76,
            requests: 780,
            request_stream: 0xedec_0a87_399a_bd5a,
        }
    );
}

/// Two crashes with restarts inside the map wave: sources re-home, copiers
/// reconnect, and attempts that lost a partially pulled source restart.
#[test]
fn faulted_runs_keep_the_sweeps_request_sequence() {
    for (kind, want) in [
        (
            ShuffleKind::HadoopA,
            Pin {
                trace_hash: 0xfba7_c7f8_fb9d_4b55,
                requests: 1232,
                request_stream: 0xff3b_3ec7_30e0_9731,
            },
        ),
        (
            ShuffleKind::OsuIb,
            Pin {
                trace_hash: 0x8e4c_c17f_ab26_9bdd,
                requests: 844,
                request_stream: 0x1645_5417_30a9_6f62,
            },
        ),
    ] {
        let (_, twin) = tight_run(kind, &FaultPlan::none());
        let at = |frac: f64| {
            let t = twin.start_s + frac * (twin.map_phase_end_s - twin.start_s);
            SimTime::from_nanos((t * 1e9) as u64)
        };
        let plan = FaultPlan::none()
            .with(FaultEvent::Crash {
                tt_idx: 1,
                at: at(0.5),
                restart_after: Some(SimDuration::from_secs_f64(2.0)),
            })
            .with(FaultEvent::Crash {
                tt_idx: 3,
                at: at(0.9),
                restart_after: Some(SimDuration::from_secs_f64(4.0)),
            });
        let (pin, res) = tight_run(kind, &plan);
        assert_eq!(res.output_bytes, twin.output_bytes, "{kind:?}: output lost");
        assert_eq!(pin, want, "{kind:?}");
    }
}

/// Runs `probe chaos`' seed-derived plans (five nodes, timed off the
/// fault-free twin) against the tight-buffer job with 700-record Hadoop-A
/// packets, and returns every seed whose run panicked, hung, or lost output.
fn chaos_sweep(kind: ShuffleKind, seeds: &[u64], shuffle_buffer: u64) -> Vec<String> {
    let run = |plan: &FaultPlan| tight_run_with(kind, plan, 700, shuffle_buffer).1;
    let twin = run(&FaultPlan::none());
    let timing = TwinTiming::of(std::slice::from_ref(&twin));
    let verdict = |seed: u64| {
        let plan = derive_plan(seed, 5, &timing);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(&plan)));
        let why = match outcome {
            Ok(res) if res.output_bytes == twin.output_bytes => return None,
            Ok(res) => format!("output {} of {} bytes", res.output_bytes, twin.output_bytes),
            Err(panic) => (panic.downcast_ref::<String>().cloned())
                .or_else(|| panic.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_default(),
        };
        Some(format!("{kind:?} seed {seed}: {why}"))
    };
    seeds.iter().filter_map(|&seed| verdict(seed)).collect()
}

/// The fourteen points of the sweep below that panicked while a request
/// could act on a completion event older than its server's incarnation: the
/// server took the output for granted (`request for unknown map output`), or
/// served another TaskTracker's copy, and the answer was booked after the
/// source had been re-homed (`over-delivered: 5244 > 5243`).
#[test]
fn stale_completion_events_neither_panic_nor_over_deliver() {
    let mut failed = chaos_sweep(ShuffleKind::HadoopA, &[12, 15, 17, 18, 38, 43, 44], 1 << 20);
    failed.extend(chaos_sweep(
        ShuffleKind::OsuIb,
        &[15, 17, 18, 38, 43, 44, 51],
        1 << 20,
    ));
    assert!(failed.is_empty(), "{failed:#?}");
}

/// Both engines × a tight and a roomy shuffle buffer × 60 seeds: 240 faulted
/// runs, none of which may panic or hang (CI's chaos smoke runs it).
#[test]
#[ignore = "240 runs: run in release, by name"]
fn tight_buffer_fault_sweep_never_panics_or_hangs() {
    let seeds: Vec<u64> = (0..60).collect();
    let mut failed = Vec::new();
    for kind in [ShuffleKind::HadoopA, ShuffleKind::OsuIb] {
        for shuffle_buffer in [1 << 20, 8 << 20] {
            failed.extend(chaos_sweep(kind, &seeds, shuffle_buffer));
        }
    }
    assert!(failed.is_empty(), "{failed:#?}");
}
