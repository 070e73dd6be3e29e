//! Seed-derived fault plans for the chaos campaign (`probe chaos`).
//!
//! A chaos campaign is a sweep of deterministic [`FaultPlan`]s, each derived
//! from a seed and from the timing of a fault-free *twin* run of the same
//! workload. Deriving from the twin is what makes "mid-map-wave" a real
//! guarantee rather than a guess: the twin tells us when the map wave and
//! shuffle actually happen for this cluster size and data volume, and the
//! plan places crashes and network-fault windows inside those phases.
//!
//! Everything here is plain arithmetic on a splitmix64 stream — no host
//! randomness, no wall clock — so a (seed, workload) pair always produces
//! the same plan, and the driver can replay any failing campaign point.

use rmr_core::{FaultEvent, FaultPlan, JobResult};
use rmr_des::{SimDuration, SimTime};

/// splitmix64: a tiny, well-mixed deterministic stream. Good enough to
/// scatter fault times; never used for anything statistical.
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Stream seeded so that nearby seeds still diverge immediately.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Phase timing extracted from the fault-free twin, in virtual seconds.
#[derive(Debug, Clone, Copy)]
pub struct TwinTiming {
    /// Earliest job submission.
    pub submit_s: f64,
    /// Latest map-phase end across jobs.
    pub map_end_s: f64,
    /// Latest job end.
    pub end_s: f64,
}

impl TwinTiming {
    /// The timing of a finished fault-free run: earliest submission, latest
    /// map-wave end, latest job end.
    pub fn of(jobs: &[JobResult]) -> TwinTiming {
        let fold = |f: fn(&JobResult) -> f64, init: f64, pick: fn(f64, f64) -> f64| {
            jobs.iter().map(f).fold(init, pick)
        };
        TwinTiming {
            submit_s: fold(|r| r.start_s, f64::INFINITY, f64::min),
            map_end_s: fold(|r| r.map_phase_end_s, 0.0, f64::max),
            end_s: fold(|r| r.end_s, 0.0, f64::max),
        }
    }

    fn at(&self, frac: f64) -> SimTime {
        let s = self.submit_s + frac * (self.end_s - self.submit_s);
        SimTime::from_nanos((s.max(0.0) * 1e9) as u64)
    }

    /// A point inside the map wave (`frac` ∈ [0, 1] across it).
    pub fn mid_map_wave(&self, frac: f64) -> SimTime {
        let s = self.submit_s + frac * (self.map_end_s - self.submit_s);
        SimTime::from_nanos((s.max(0.0) * 1e9) as u64)
    }

    /// A point inside the shuffle/reduce tail (`frac` ∈ [0, 1] from map-wave
    /// end to job end) — where staged in-node aggregates are at risk.
    pub fn mid_shuffle(&self, frac: f64) -> SimTime {
        let s = self.map_end_s + frac * (self.end_s - self.map_end_s);
        SimTime::from_nanos((s.max(0.0) * 1e9) as u64)
    }
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_nanos((s * 1e9) as u64)
}

/// The campaign's fixed opening number: kill `victims` of `nodes` workers
/// mid-map-wave (staggered by a couple of seconds, like a rack PDU browning
/// out), and bring both back while the job is still running. This is the
/// acceptance-gate storm — it must survive on every seed.
pub fn storm_plan(nodes: usize, victims: usize, twin: &TwinTiming) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let victims = victims.min(nodes.saturating_sub(1));
    for v in 0..victims {
        // Spread victims across the cluster; never the same node twice.
        let tt_idx = 1 + v * (nodes - 1) / victims.max(1);
        plan = plan.with(FaultEvent::Crash {
            tt_idx,
            at: twin.mid_map_wave(0.45) + secs(2.0) * v as u64,
            restart_after: Some(secs(20.0 + 15.0 * v as f64)),
        });
    }
    plan
}

/// The combiner-engine acceptance plan: one worker killed mid-shuffle and
/// restarted while the job is still running. Against the in-node combiner
/// engine the crash drops that node's staged per-node aggregates, so a
/// campaign point passing no-lost-work with this plan proves the fold
/// re-runs after node loss.
pub fn combiner_plan(twin: &TwinTiming) -> FaultPlan {
    FaultPlan::none().with(FaultEvent::Crash {
        tt_idx: 1,
        at: twin.mid_shuffle(0.30),
        restart_after: Some(secs(15.0)),
    })
}

/// A seed-derived plan: 1–3 staggered crash+restart cycles placed across
/// the job's lifetime, plus up to two link-degradation windows and at most
/// one (lossless) partition window. All crashes restart, so a campaign
/// point can also gate on the runtime's state footprint draining to zero.
pub fn derive_plan(seed: u64, nodes: usize, twin: &TwinTiming) -> FaultPlan {
    let mut rng = ChaosRng::new(seed);
    let mut plan = FaultPlan::none();

    let crashes = 1 + rng.below(3) as usize;
    let mut used = std::collections::BTreeSet::new();
    for _ in 0..crashes {
        let tt_idx = rng.below(nodes as u64) as usize;
        // Distinct victims keep the plan readable; a double-kill of one
        // node is covered by restart epochs anyway.
        if !used.insert(tt_idx) {
            continue;
        }
        plan = plan.with(FaultEvent::Crash {
            tt_idx,
            at: twin.at(rng.range(0.10, 0.80)),
            restart_after: Some(secs(rng.range(10.0, 60.0))),
        });
    }

    for _ in 0..rng.below(3) {
        let tt_idx = rng.below(nodes as u64) as usize;
        let start = rng.range(0.05, 0.70);
        let len = rng.range(0.05, 0.25);
        plan = plan.with(FaultEvent::Degrade {
            tt_idx,
            start: twin.at(start),
            end: twin.at((start + len).min(0.95)),
            factor: rng.range(0.2, 0.8),
        });
    }

    if rng.below(2) == 1 {
        let tt_idx = rng.below(nodes as u64) as usize;
        let start = rng.range(0.10, 0.70);
        plan = plan.with(FaultEvent::Partition {
            tt_idx,
            start: twin.at(start),
            end: twin.at(start) + secs(rng.range(2.0, 12.0)),
        });
    }
    plan
}

/// One-line human rendering of a plan for campaign logs.
pub fn render_plan(plan: &FaultPlan) -> String {
    let mut parts = Vec::new();
    for ev in &plan.events {
        parts.push(match ev {
            FaultEvent::Crash {
                tt_idx,
                at,
                restart_after,
            } => match restart_after {
                Some(d) => format!(
                    "crash tt{} @{:.0}s +{:.0}s",
                    tt_idx,
                    at.as_secs_f64(),
                    d.as_secs_f64()
                ),
                None => format!("crash tt{} @{:.0}s (down)", tt_idx, at.as_secs_f64()),
            },
            FaultEvent::Degrade {
                tt_idx,
                start,
                end,
                factor,
            } => format!(
                "degrade tt{} [{:.0},{:.0}]s x{:.2}",
                tt_idx,
                start.as_secs_f64(),
                end.as_secs_f64(),
                factor
            ),
            FaultEvent::Partition { tt_idx, start, end } => format!(
                "partition tt{} [{:.0},{:.0}]s",
                tt_idx,
                start.as_secs_f64(),
                end.as_secs_f64()
            ),
            FaultEvent::FailMapOnce { job_ord, map_idx } => {
                format!("fail-map j{job_ord}#{map_idx}")
            }
            FaultEvent::FailReduceOnce {
                job_ord,
                reduce_idx,
            } => format!("fail-reduce j{job_ord}#{reduce_idx}"),
        });
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWIN: TwinTiming = TwinTiming {
        submit_s: 10.0,
        map_end_s: 110.0,
        end_s: 210.0,
    };

    #[test]
    fn storm_kills_two_of_sixteen_mid_map_wave() {
        let plan = storm_plan(16, 2, &TWIN);
        assert_eq!(plan.crashes(), 2);
        let mut victims = std::collections::BTreeSet::new();
        for ev in &plan.events {
            if let FaultEvent::Crash {
                tt_idx,
                at,
                restart_after,
            } = ev
            {
                victims.insert(*tt_idx);
                let t = at.as_secs_f64();
                assert!(
                    t > TWIN.submit_s && t < TWIN.map_end_s,
                    "storm crash at {t:.0}s is outside the map wave"
                );
                assert!(restart_after.is_some(), "storm victims must come back");
            }
        }
        assert_eq!(victims.len(), 2, "storm victims are distinct nodes");
    }

    #[test]
    fn combiner_plan_kills_one_mid_shuffle_and_restarts() {
        let plan = combiner_plan(&TWIN);
        assert_eq!(plan.crashes(), 1);
        match &plan.events[0] {
            FaultEvent::Crash {
                at, restart_after, ..
            } => {
                let t = at.as_secs_f64();
                assert!(
                    t > TWIN.map_end_s && t < TWIN.end_s,
                    "crash at {t:.0}s is not inside the shuffle tail"
                );
                assert!(restart_after.is_some(), "the victim must come back");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn derived_plans_are_seed_deterministic() {
        let a = derive_plan(7, 16, &TWIN);
        let b = derive_plan(7, 16, &TWIN);
        assert_eq!(a, b);
        let c = derive_plan(8, 16, &TWIN);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn derived_plans_always_restart_their_victims() {
        for seed in 0..64 {
            let plan = derive_plan(seed, 12, &TWIN);
            assert!(plan.crashes() >= 1, "seed {seed}: at least one crash");
            for ev in &plan.events {
                if let FaultEvent::Crash { restart_after, .. } = ev {
                    assert!(restart_after.is_some(), "seed {seed}: permanent kill");
                }
                if let FaultEvent::Degrade { factor, .. } = ev {
                    assert!(*factor > 0.0 && *factor <= 1.0, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn render_covers_every_variant() {
        let plan = FaultPlan::fail_map_once(0, 3)
            .with(FaultEvent::Crash {
                tt_idx: 1,
                at: SimTime::ZERO,
                restart_after: None,
            })
            .with(FaultEvent::Partition {
                tt_idx: 2,
                start: SimTime::ZERO,
                end: SimTime::ZERO,
            });
        let s = render_plan(&plan);
        assert!(s.contains("fail-map"));
        assert!(s.contains("crash tt1"));
        assert!(s.contains("partition tt2"));
    }
}
