//! One scenario type, one driver.
//!
//! The paper's evaluation is one procedure repeated — pick a system, a
//! testbed and a workload, generate the input, run the jobs, report job
//! execution time. [`Scenario`] is that choice as a value and
//! [`run_scenario`] is the procedure; figure points, the multi-job mix, the
//! scale and chaos probes and the observability run are all constructors
//! filling in a `Scenario`, and service mode ([`run_with`]) swaps only the
//! submission loop.
//!
//! Task names and spawn order are folded into the simulation's trace hash
//! (`rmr_des` hashes every spawn name), so the driver task's name is part of
//! a constructor's identity: each constructor sets [`Scenario::driver`] to
//! the name its entry point has always had, and a replayed run hashes equal
//! only under the same name.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use rmr_core::cluster::Cluster;
use rmr_core::{FaultPlan, JobConf, JobResult, JobSpec, Runtime, SchedulePolicy, StateFootprint};
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_des::{QuiescenceReport, Sim, SimTime};
use rmr_hdfs::HdfsConfig;
use rmr_obs::{Recorder, RuntimeSnapshot};
use rmr_workloads::{
    randomwriter, sort_spec, teragen, terasort_spec, textgen_blocks, textgen_vocab,
};

use crate::testbed::{tuned_block_size, tuned_conf, Bench, System, Testbed};

/// Gigabytes (the figures' x-axis unit, 2^30 bytes) to bytes.
pub fn gb_to_bytes(gb: f64) -> u64 {
    (gb * (1u64 << 30) as f64) as u64
}

/// How a job's input comes to exist in HDFS before submission.
#[derive(Debug, Clone, Copy)]
pub enum Datagen {
    /// `teragen`: this many bytes of size-only 100-byte records.
    Tera(u64),
    /// `randomwriter`: this many bytes of size-only variable-length records.
    Random(u64),
    /// Real text, ten words a line, one blob (and so one map split) per
    /// `lines_per_block` lines; `vocab` swaps the built-in fourteen words
    /// for a synthetic vocabulary of that size.
    Text {
        lines: usize,
        lines_per_block: usize,
        vocab: Option<usize>,
    },
}

impl Datagen {
    async fn run(self, cluster: &Cluster, path: &str) {
        match self {
            Datagen::Tera(bytes) => {
                teragen(cluster, path, bytes, false).await;
            }
            Datagen::Random(bytes) => {
                randomwriter(cluster, path, bytes, false).await;
            }
            Datagen::Text {
                lines,
                lines_per_block,
                vocab: None,
            } => textgen_blocks(cluster, path, lines, 10, lines_per_block).await,
            Datagen::Text {
                lines,
                lines_per_block,
                vocab: Some(vocab),
            } => textgen_vocab(cluster, path, lines, 10, lines_per_block, vocab).await,
        }
    }
}

/// HDFS sizing for real-text inputs: `textgen` blobs run ~0.9 MB, so 512 KB
/// blocks turn every blob into its own block — each job spans several map
/// splits and the in-node combiner has co-located waves to fold.
pub const TEXT_HDFS: HdfsConfig = HdfsConfig {
    block_size: 512 << 10,
    replication: 1,
    packet_size: 256 << 10,
};

/// One job of a scenario: its input generator (written to `spec.input`)
/// and what it computes.
#[derive(Clone)]
pub struct Job {
    pub datagen: Datagen,
    pub spec: JobSpec,
}

impl Job {
    /// A sort-benchmark job over `bytes` of generated input.
    pub fn sort_bench(bench: Bench, input: &str, output: &str, bytes: u64) -> Job {
        match bench {
            Bench::TeraSort => Job {
                datagen: Datagen::Tera(bytes),
                spec: terasort_spec(input, output),
            },
            Bench::Sort => Job {
                datagen: Datagen::Random(bytes),
                spec: sort_spec(input, output),
            },
        }
    }
}

/// Everything that determines a run. Plain data: build one with a
/// constructor, adjust fields, hand it to [`run_scenario`].
#[derive(Clone)]
pub struct Scenario {
    /// Simulation seed.
    pub seed: u64,
    /// Which system: picks the fabric (the engine rides in `conf.shuffle`).
    pub system: System,
    /// Cluster shape.
    pub testbed: Testbed,
    pub hdfs: HdfsConfig,
    /// Cluster-wide configuration, and every job's.
    pub conf: JobConf,
    pub policy: SchedulePolicy,
    /// Inputs are generated for all jobs, in order, before the runtime
    /// starts.
    pub jobs: Vec<Job>,
    /// Submit everything up front and join in order (true), or join each
    /// job before submitting the next.
    pub concurrent: bool,
    /// Armed when the runtime starts; an empty plan performs no simulation
    /// operations, so fault-free scenarios replay as if it were absent.
    pub faults: FaultPlan,
    /// Attach an observability recorder (perturbation-free) and keep a
    /// mid-run and a final runtime snapshot.
    pub record: bool,
    /// Stop at this virtual time; a driver still unfinished is [`Hung`].
    pub limit: Option<SimTime>,
    /// The driver task's spawn name — part of the trace hash (module docs).
    pub driver: &'static str,
}

/// `RMR_LIMIT=<sim-seconds>` bounds every scenario, whichever entry point
/// built it: a run that would spin forever reports [`Hung`] instead.
fn env_limit() -> Option<SimTime> {
    let v = std::env::var("RMR_LIMIT").ok()?;
    let secs: u64 = v
        .parse()
        .unwrap_or_else(|_| panic!("RMR_LIMIT must be whole sim-seconds, got {v:?}"));
    Some(SimTime::from_nanos(secs * 1_000_000_000))
}

impl Scenario {
    /// The paper's tuning for (system, bench, testbed): tuned block size and
    /// `JobConf`, FIFO, fault-free, recorder off, no jobs yet.
    pub fn tuned(
        driver: &'static str,
        system: System,
        bench: Bench,
        testbed: Testbed,
        seed: u64,
    ) -> Scenario {
        Scenario {
            seed,
            system,
            hdfs: HdfsConfig {
                block_size: tuned_block_size(system, bench),
                replication: 1,
                packet_size: 4 << 20,
            },
            conf: tuned_conf(system, bench, &testbed),
            testbed,
            policy: SchedulePolicy::Fifo,
            jobs: Vec::new(),
            concurrent: true,
            faults: FaultPlan::none(),
            record: false,
            limit: env_limit(),
            driver,
        }
    }

    /// `jobs` identical TeraSort jobs of `bytes_per_job` each, reading
    /// `{dir}/in{n}` and writing `{dir}/out{n}`, submitted concurrently.
    pub fn terasort_mix(
        driver: &'static str,
        dir: &str,
        system: System,
        testbed: Testbed,
        jobs: usize,
        bytes_per_job: u64,
        seed: u64,
    ) -> Scenario {
        let mut sc = Scenario::tuned(driver, system, Bench::TeraSort, testbed, seed);
        sc.jobs = (0..jobs)
            .map(|i| {
                Job::sort_bench(
                    Bench::TeraSort,
                    &format!("{dir}/in{i}"),
                    &format!("{dir}/out{i}"),
                    bytes_per_job,
                )
            })
            .collect();
        sc
    }
}

/// What a finished run leaves behind.
pub struct RunReport {
    /// Per-job results, in join order.
    pub jobs: Vec<JobResult>,
    /// Replay fingerprint of the whole run.
    pub trace_hash: u64,
    /// Executor events fired / task polls.
    pub events: u64,
    pub polls: u64,
    /// `FLUID_ADVANCE_WORK` delta over the run.
    pub fluid_work: u64,
    /// Job-keyed runtime state left after the simulation drained (a crash
    /// task whose restart lands beyond the jobs' lifetime has fired by
    /// then). All zero unless something leaked.
    pub footprint: StateFootprint,
    /// The obs bus ([`Recorder::off`] unless the scenario recorded).
    pub recorder: Recorder,
    /// With the recorder on: the runtime after the first join of a
    /// concurrent submission (the rest still in flight) and after the last.
    pub snapshots: Vec<RuntimeSnapshot>,
    /// Live handles, for metric and per-node resource reads.
    pub sim: Sim,
    pub cluster: Cluster,
}

impl RunReport {
    /// Virtual time the last job finished.
    pub fn makespan_s(&self) -> f64 {
        self.jobs.iter().map(|r| r.end_s).fold(0.0, f64::max)
    }

    /// Task attempts launched across all jobs, failed ones included.
    pub fn attempts(&self) -> usize {
        self.jobs
            .iter()
            .map(|r| r.maps + r.reduces + r.failed_map_attempts + r.failed_reduce_attempts)
            .sum()
    }

    /// Shuffle bytes actually served across all jobs.
    pub fn shuffled_bytes(&self) -> u64 {
        self.jobs.iter().map(|r| r.shuffled_bytes).sum()
    }
}

/// A run whose driver never finished: the simulation drained, or the
/// scenario's limit expired, with jobs outstanding.
#[derive(Debug, Clone)]
pub struct Hung {
    /// The driver task's name.
    pub driver: &'static str,
    /// Jobs that did finish.
    pub finished: usize,
    /// The limit, if that is what stopped the run.
    pub limit: Option<SimTime>,
    /// Every live task and what it blocks on.
    pub tasks: QuiescenceReport,
    /// `Runtime::dump().render()`, or `None` if the run hung before the
    /// runtime started (in datagen).
    pub runtime: Option<String>,
}

impl fmt::Display for Hung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.limit {
            Some(l) => format!("limit {l} expired"),
            None => "simulation drained".to_string(),
        };
        writeln!(
            f,
            "{} hung: {why} with {} job(s) finished; {} task(s) still live:",
            self.driver,
            self.finished,
            self.tasks.stalled.len()
        )?;
        for t in &self.tasks.stalled {
            let on = t.blocked_on.as_deref().unwrap_or("nothing recorded");
            writeln!(f, "  - {} (blocked on {on})", t.name)?;
        }
        match &self.runtime {
            Some(dump) => write!(f, "{dump}"),
            None => write!(f, "runtime not started (still generating input)"),
        }
    }
}

/// What [`run_with`] hands the driver task.
#[derive(Clone)]
pub struct Driver {
    pub cluster: Cluster,
    /// The scenario's base configuration.
    pub conf: JobConf,
    policy: SchedulePolicy,
    faults: FaultPlan,
    recorder: Recorder,
    shared: Rc<Shared>,
}

#[derive(Default)]
struct Shared {
    results: RefCell<Vec<JobResult>>,
    runtime: RefCell<Option<Runtime>>,
    snapshots: RefCell<Vec<RuntimeSnapshot>>,
}

impl Driver {
    /// Starts the runtime and arms the fault plan. Call once, after datagen:
    /// the heartbeat daemons spawn here, and spawn order is hashed.
    pub fn start_runtime(&self) -> Runtime {
        let rt = Runtime::with_obs(
            &self.cluster,
            self.conf.clone(),
            self.policy.clone(),
            self.recorder.clone(),
        );
        rt.apply_fault_plan(&self.faults);
        *self.shared.runtime.borrow_mut() = Some(rt.clone());
        rt
    }

    /// Records a joined job's result.
    pub fn finished(&self, res: JobResult) {
        self.shared.results.borrow_mut().push(res);
    }

    fn snapshot(&self, rt: &Runtime) {
        if self.recorder.is_on() {
            self.shared.snapshots.borrow_mut().push(rt.dump());
        }
    }
}

/// Runs `sc` to completion: datagen, runtime, submission, join.
pub fn run_scenario(sc: &Scenario) -> Result<RunReport, Hung> {
    let (jobs, concurrent) = (sc.jobs.clone(), sc.concurrent);
    run_with(sc, |d| async move {
        for job in &jobs {
            job.datagen.run(&d.cluster, &job.spec.input).await;
        }
        let rt = d.start_runtime();
        if concurrent {
            let ids: Vec<_> = jobs
                .iter()
                .map(|job| rt.submit(d.conf.clone(), job.spec.clone()))
                .collect();
            for (n, id) in ids.into_iter().enumerate() {
                d.finished(rt.join(id).await);
                if n == 0 {
                    d.snapshot(&rt);
                }
            }
        } else {
            for job in &jobs {
                let id = rt.submit(d.conf.clone(), job.spec.clone());
                d.finished(rt.join(id).await);
            }
        }
        d.snapshot(&rt);
    })
}

/// The shared part of every run: builds the simulation, cluster and
/// recorder from `sc`, runs `body` as the driver task (it generates input,
/// calls [`Driver::start_runtime`], submits and reports each joined job
/// through [`Driver::finished`]; `sc.jobs` is `body`'s to interpret) up to
/// the limit, and collects the report.
pub fn run_with<Fut>(sc: &Scenario, body: impl FnOnce(Driver) -> Fut) -> Result<RunReport, Hung>
where
    Fut: Future<Output = ()> + 'static,
{
    let sim = Sim::new(sc.seed);
    let cluster = Cluster::build(
        &sim,
        sc.system.fabric(),
        &sc.testbed.node_specs(),
        sc.hdfs.clone(),
    );
    let recorder = if sc.record {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let shared = Rc::new(Shared::default());
    let done = sim.spawn_named(
        sc.driver,
        body(Driver {
            cluster: cluster.clone(),
            conf: sc.conf.clone(),
            policy: sc.policy.clone(),
            faults: sc.faults.clone(),
            recorder: recorder.clone(),
            shared: Rc::clone(&shared),
        }),
    );
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    let end = match sc.limit {
        Some(limit) => sim.run_until(limit),
        None => sim.run(),
    };
    let fluid_work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;
    let runtime = shared.runtime.borrow_mut().take();
    if !done.is_finished() {
        return Err(Hung {
            driver: sc.driver,
            finished: shared.results.borrow().len(),
            limit: sc.limit.filter(|&limit| end >= limit),
            tasks: sim.live_report(),
            runtime: runtime.map(|rt| rt.dump().render()),
        });
    }
    Ok(RunReport {
        jobs: shared.results.take(),
        trace_hash: sim.trace_hash(),
        events: sim.events_fired(),
        polls: sim.polls(),
        fluid_work,
        footprint: runtime
            .expect("driver finished without starting the runtime")
            .state_footprint(),
        recorder,
        snapshots: shared.snapshots.take(),
        sim,
        cluster,
    })
}
