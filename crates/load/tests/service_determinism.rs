//! Service-mode determinism and capacity-isolation gates.
//!
//! Debug builds downscale the grid so `cargo test -q` stays fast; release
//! runs (`cargo test --release`, and the CI `service-smoke` probe which
//! embeds the same replay gate) exercise the full 1 000-job / 64-node run
//! from the issue's acceptance criteria.

use rmr_load::{
    run_service, Arrival, BoundedPareto, JobKind, JobMix, ServicePolicy, ServiceSpec, TenantSpec,
};

#[cfg(debug_assertions)]
const SCALE: (usize, usize, usize) = (8, 30, 18); // nodes, t0 jobs, t1 jobs
#[cfg(not(debug_assertions))]
const SCALE: (usize, usize, usize) = (64, 600, 400);

/// Two tenants: an interactive stream of small jobs (Poisson) and a batch
/// stream of heavy-tailed jobs arriving in a diurnal wave. Arrival rates
/// scale with the cluster so per-node offered load — and with it the
/// queueing pressure the capacity gate needs — is the same at both scales.
fn two_tenants(policy: ServicePolicy, record_events: bool) -> ServiceSpec {
    let (nodes, t0_jobs, t1_jobs) = SCALE;
    let load = nodes as f64 / 8.0;
    ServiceSpec {
        nodes,
        seed: 42,
        policy,
        locality_delay: 1,
        record_events,
        tenants: vec![
            TenantSpec {
                queue: 0,
                jobs: t0_jobs,
                arrival: Arrival::Poisson {
                    rate_hz: 0.8 * load,
                },
                mix: JobMix::new(
                    &[(JobKind::TeraSort, 700), (JobKind::WordCount, 300)],
                    BoundedPareto::new(1.5, 32e6, 64e6),
                    2,
                ),
                share_mille: 600,
            },
            TenantSpec {
                queue: 1,
                jobs: t1_jobs,
                arrival: Arrival::Diurnal {
                    base_hz: 0.1 * load,
                    peak_hz: 1.2 * load,
                    period_s: 120.0,
                },
                mix: JobMix::new(
                    &[(JobKind::TeraSort, 500), (JobKind::Sort, 500)],
                    BoundedPareto::new(1.3, 64e6, 512e6),
                    4,
                ),
                share_mille: 400,
            },
        ],
    }
}

#[test]
fn double_run_replays_bit_identically() {
    let spec = two_tenants(ServicePolicy::Capacity { preempt: true }, false);
    let a = run_service(&spec);
    let b = run_service(&spec);
    assert_eq!(a.trace_hash, b.trace_hash, "seeded replay must be exact");
    assert_eq!(a.events_fired, b.events_fired);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.footprint_total, 0, "job-keyed state leaked");

    // Turning the recorder on must not perturb the simulation.
    let c = run_service(&two_tenants(
        ServicePolicy::Capacity { preempt: true },
        true,
    ));
    assert_eq!(a.trace_hash, c.trace_hash, "recorder perturbed the run");
    assert!(!c.events.is_empty());
}

#[test]
fn service_reports_tails_and_fairness() {
    let spec = two_tenants(ServicePolicy::Capacity { preempt: true }, false);
    let rep = run_service(&spec);
    let (_, t0_jobs, t1_jobs) = SCALE;
    assert_eq!(rep.jobs, t0_jobs + t1_jobs);
    assert_eq!(rep.tenants.len(), 2);
    for t in &rep.tenants {
        assert!(t.jobs > 0);
        assert!(t.latency.p99() > 0.0, "tenant {} empty p99", t.queue);
        assert!(t.latency.p50() <= t.latency.p99());
        assert!(t.slot_share > 0.0 && t.slot_share < 1.0);
    }
    assert!(rep.makespan_s > 0.0);
    assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
    let share_sum: f64 = rep.tenants.iter().map(|t| t.slot_share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares must sum to 1");
}

#[test]
fn capacity_guarantee_cuts_interactive_queue_tail() {
    // The guaranteed interactive tenant must see no worse a queue-wait tail
    // under capacity scheduling than under FIFO (where heavy batch jobs
    // block it head-of-line).
    let fifo = run_service(&two_tenants(ServicePolicy::Fifo, false));
    let cap = run_service(&two_tenants(
        ServicePolicy::Capacity { preempt: true },
        false,
    ));
    let fifo_t0 = fifo.tenant(0);
    let cap_t0 = cap.tenant(0);
    assert!(
        cap_t0.wait.p99() <= fifo_t0.wait.p99(),
        "capacity wait-p99 {:.2}s must not exceed FIFO {:.2}s",
        cap_t0.wait.p99(),
        fifo_t0.wait.p99()
    );
    assert!(
        cap_t0.latency.p99() < fifo_t0.latency.p99(),
        "capacity p99 {:.2}s must beat FIFO {:.2}s for the guaranteed tenant",
        cap_t0.latency.p99(),
        fifo_t0.latency.p99()
    );
}

#[test]
fn closed_loop_mode_drains() {
    let (nodes, ..) = SCALE;
    let spec = ServiceSpec {
        nodes,
        seed: 9,
        policy: ServicePolicy::Fifo,
        locality_delay: 0,
        record_events: false,
        tenants: vec![TenantSpec {
            queue: 0,
            jobs: 10,
            arrival: Arrival::Closed { think_s: 5.0 },
            mix: JobMix::new(
                &[(JobKind::Sort, 1000)],
                BoundedPareto::new(2.0, 32e6, 32e6),
                1,
            ),
            share_mille: 1000,
        }],
    };
    let rep = run_service(&spec);
    assert_eq!(rep.jobs, 10);
    assert_eq!(rep.footprint_total, 0);
    // Closed loop: at most one job in flight, so waits stay near zero.
    assert!(rep.tenant(0).wait.p99() < rep.tenant(0).latency.p99());
}
