//! The open-arrival service driver: pre-sampled tenant schedules feeding
//! `Runtime::submit`, with per-tenant tail-latency accounting.
//!
//! Determinism contract: all randomness (arrival instants, job kinds and
//! sizes) is drawn from tenant-private host-side RNGs *before* the
//! simulation starts; the catalog of shared inputs is generated before the
//! first submission; and every submission instant is an absolute virtual
//! time. Two runs of the same [`ServiceSpec`] therefore replay bit-identical
//! trace hashes, with the recorder on or off.

use std::collections::BTreeSet;

use rmr_cluster::{run_with, Bench, Driver, Hung, Scenario, System, Testbed};
use rmr_core::{CapacityPlan, Cluster, JobConf, JobSpec, Runtime, SchedulePolicy};
use rmr_des::prelude::*;
use rmr_hdfs::Blob;
use rmr_workloads::{sort_spec, terasort_spec, textgen, wordcount_spec};

use crate::arrival::{tenant_rng, Arrival, Schedule};
use crate::mix::{JobKind, JobMix, JobSample};
use crate::report::{ServiceReport, TenantReport};

/// HDFS block size for service runs: small enough that the size ladder
/// changes per-job map counts, big enough to keep attempt counts sane at
/// thousands of jobs.
pub const SERVICE_BLOCK: u64 = 32 << 20;

/// Scheduling regime for a service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePolicy {
    /// Strict job-arrival order (head-of-line blocking under heavy tails).
    Fifo,
    /// Capacity queues built from each tenant's `share_mille`. `preempt`
    /// only selects the `cap+preempt` report label; it stays because
    /// `benchmark/` sets it.
    Capacity { preempt: bool },
}

/// One tenant's submission stream.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Capacity queue id (also the tenant label in reports).
    pub queue: u32,
    /// Jobs to submit.
    pub jobs: usize,
    pub arrival: Arrival,
    pub mix: JobMix,
    /// Per-mille slot guarantee under [`ServicePolicy::Capacity`].
    pub share_mille: u32,
}

/// A full service-mode experiment.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    pub nodes: usize,
    pub seed: u64,
    pub policy: ServicePolicy,
    /// Delay-scheduling budget applied to every job (0 = off).
    pub locality_delay: u32,
    pub tenants: Vec<TenantSpec>,
    /// Record the obs event stream (tenant heatmaps, jsonl export).
    pub record_events: bool,
}

impl ServiceSpec {
    fn schedule_policy(&self) -> SchedulePolicy {
        match self.policy {
            ServicePolicy::Fifo => SchedulePolicy::Fifo,
            ServicePolicy::Capacity { .. } => {
                let shares: Vec<(u32, u32)> = self
                    .tenants
                    .iter()
                    .map(|t| (t.queue, t.share_mille))
                    .collect();
                SchedulePolicy::Capacity(CapacityPlan::new(&shares))
            }
        }
    }
}

/// Catalog path for one (kind, size) rung.
fn rung_path(kind: JobKind, bytes: u64) -> String {
    format!("/svc/in/{}/{bytes}", kind.label())
}

/// Writes one synthetic input of `bytes` under `path` as block-sized part
/// files rotated across workers, so the rung's splits carry diverse
/// locality hints (the delay scheduler needs real choices to make).
async fn gen_synthetic(cluster: &Cluster, path: &str, bytes: u64, salt: usize) {
    let workers = cluster.worker_count();
    let parts = bytes.div_ceil(SERVICE_BLOCK).max(1);
    for p in 0..parts {
        let node = cluster.workers[(salt + p as usize) % workers].id;
        let size = SERVICE_BLOCK.min(bytes - p * SERVICE_BLOCK);
        let mut w = cluster
            .hdfs
            .create(&format!("{path}/part-{p:05}"), node)
            .await
            .expect("service datagen create");
        w.write(Blob::synthetic(size)).await.expect("datagen write");
        w.close().await.expect("datagen close");
    }
}

/// Sizes a job's conf from its sampled input: queue tag, locality-delay
/// budget, and a reduce count proportional to the map count.
fn conf_for(base: &JobConf, queue: u32, locality_delay: u32, bytes: u64) -> JobConf {
    let maps = bytes.div_ceil(SERVICE_BLOCK).max(1) as usize;
    let mut conf = base.clone();
    conf.queue = queue;
    conf.locality_delay = locality_delay;
    conf.num_reduces = (maps / 2).clamp(1, 8);
    conf
}

fn spec_for(job: &JobSample, queue: u32, idx: usize) -> JobSpec {
    let input = rung_path(job.kind, job.input_bytes);
    let output = format!("/svc/out/t{queue}/j{idx}");
    match job.kind {
        JobKind::TeraSort => terasort_spec(&input, &output),
        JobKind::Sort => sort_spec(&input, &output),
        JobKind::WordCount => wordcount_spec(&input, &output),
    }
}

/// WordCount rungs carry real records (its mapper tokenises lines), so the
/// byte ladder maps to a bounded line count.
fn wordcount_lines(bytes: u64) -> usize {
    ((bytes / 64) as usize).clamp(200, 20_000)
}

struct TenantPlan {
    queue: u32,
    schedule: Schedule,
    jobs: Vec<JobSample>,
}

/// One tenant's submission stream: open-loop plans sleep to each absolute
/// arrival instant and join at the end; closed-loop plans join each job,
/// then think.
async fn tenant(plan: TenantPlan, rt: Runtime, d: Driver, locality_delay: u32) {
    let sim = d.cluster.sim.clone();
    let submit = |i: usize, job: &JobSample| {
        let conf = conf_for(&d.conf, plan.queue, locality_delay, job.input_bytes);
        rt.submit(conf, spec_for(job, plan.queue, i))
    };
    match &plan.schedule {
        Schedule::Open(times) => {
            let mut ids = Vec::with_capacity(plan.jobs.len());
            for (i, (t, job)) in times.iter().zip(&plan.jobs).enumerate() {
                let now = sim.now().as_secs_f64();
                if *t > now {
                    sim.sleep(SimDuration::from_secs_f64(t - now)).await;
                }
                ids.push(submit(i, job));
            }
            for id in ids {
                d.finished(rt.join(id).await);
            }
        }
        Schedule::Closed(gaps) => {
            for (i, (gap, job)) in gaps.iter().zip(&plan.jobs).enumerate() {
                let id = submit(i, job);
                d.finished(rt.join(id).await);
                sim.sleep(SimDuration::from_secs_f64(*gap)).await;
            }
        }
    }
}

/// Runs one service-mode experiment to completion and aggregates the
/// per-tenant report. Panics with the [`Hung`] report if any job hangs
/// (see [`try_run_service`]).
pub fn run_service(spec: &ServiceSpec) -> ServiceReport {
    try_run_service(spec).unwrap_or_else(|hung| panic!("{hung}"))
}

/// [`run_service`], with a run that drains (or reaches `RMR_LIMIT`) with
/// jobs unfinished returned as [`Hung`] instead of a panic.
pub fn try_run_service(spec: &ServiceSpec) -> Result<ServiceReport, Hung> {
    assert!(spec.nodes > 0, "need at least one worker");
    assert!(!spec.tenants.is_empty(), "need at least one tenant");

    // Pre-sample every tenant's plan from its private RNG (host-side).
    let plans: Vec<TenantPlan> = spec
        .tenants
        .iter()
        .map(|t| {
            let mut rng = tenant_rng(spec.seed, t.queue);
            TenantPlan {
                queue: t.queue,
                schedule: t.arrival.sample(t.jobs, &mut rng),
                jobs: (0..t.jobs).map(|_| t.mix.sample(&mut rng)).collect(),
            }
        })
        .collect();
    let total_jobs: usize = plans.iter().map(|p| p.jobs.len()).sum();

    // The shared input catalog: one dataset per distinct (kind, size) rung.
    let catalog: BTreeSet<(JobKind, u64)> = plans
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| (j.kind, j.input_bytes)))
        .collect();

    // Sim, cluster, runtime and counters come from the shared driver; what
    // is service-specific is the submission loop below (the scenario's own
    // job list stays empty). Stock OSU-IB conf rather than the figures'
    // benchmark tuning: per-job reduce counts are sized in `conf_for`.
    let mut sc = Scenario::tuned(
        "service-driver",
        System::OsuIb,
        Bench::TeraSort,
        Testbed::compute(spec.nodes, 1),
        spec.seed,
    );
    sc.hdfs.block_size = SERVICE_BLOCK;
    sc.conf = JobConf::osu_ib();
    sc.policy = spec.schedule_policy();
    sc.record = spec.record_events;
    let slots = (sc.conf.map_slots + sc.conf.reduce_slots) as f64;
    let locality_delay = spec.locality_delay;

    let report = run_with(&sc, |d| async move {
        // Catalog datagen strictly precedes the first submission so input
        // generation never perturbs arrival timing.
        for (salt, (kind, bytes)) in catalog.iter().enumerate() {
            let path = rung_path(*kind, *bytes);
            match kind {
                JobKind::TeraSort | JobKind::Sort => {
                    gen_synthetic(&d.cluster, &path, *bytes, salt).await;
                }
                JobKind::WordCount => {
                    textgen(&d.cluster, &path, wordcount_lines(*bytes), 8).await;
                }
            }
        }
        let rt = d.start_runtime();
        let mut tenants = Vec::new();
        for plan in plans {
            tenants.push(d.cluster.sim.spawn_named(
                format!("tenant-{}", plan.queue),
                tenant(plan, rt.clone(), d.clone(), locality_delay),
            ));
        }
        for t in tenants {
            t.await;
        }
    })?;
    let results = &report.jobs;
    assert_eq!(results.len(), total_jobs, "driver finished early");

    // Per-tenant rollup, tenants sorted by queue id.
    let mut queues: Vec<(u32, u32)> = spec
        .tenants
        .iter()
        .map(|t| (t.queue, t.share_mille))
        .collect();
    queues.sort_unstable();
    let total_slot_secs: f64 = results.iter().map(|r| r.slot_secs).sum();
    let tenants: Vec<TenantReport> = queues
        .iter()
        .map(|&(q, share_mille)| {
            let mut rep = TenantReport::new(q, share_mille);
            for r in results.iter().filter(|r| r.queue == q) {
                rep.jobs += 1;
                rep.latency.record(r.duration_s);
                rep.wait.record(r.queue_wait_s);
                rep.exec.record(r.duration_s - r.queue_wait_s);
                rep.slot_secs += r.slot_secs;
            }
            if total_slot_secs > 0.0 {
                rep.slot_share = rep.slot_secs / total_slot_secs;
            }
            rep
        })
        .collect();

    let makespan_s = report.makespan_s();
    let utilization = if makespan_s > 0.0 {
        total_slot_secs / (makespan_s * spec.nodes as f64 * slots)
    } else {
        0.0
    };

    Ok(ServiceReport {
        policy: spec.policy,
        nodes: spec.nodes,
        seed: spec.seed,
        jobs: total_jobs,
        tenants,
        makespan_s,
        utilization,
        trace_hash: report.trace_hash,
        events_fired: report.events,
        polls: report.polls,
        footprint_total: report.footprint.total(),
        events: report.recorder.events(),
    })
}
