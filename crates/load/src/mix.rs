//! Heavy-tailed job-size mixes over the repo's benchmark workloads.
//!
//! Input sizes are drawn from a bounded Pareto (the classic heavy-tail model
//! for job sizes) and then snapped onto a small geometric ladder so that a
//! multi-thousand-job run shares a bounded catalog of pre-generated inputs
//! instead of generating one dataset per job.

use rand::rngs::SmallRng;
use rand::Rng;

/// Which benchmark job a sampled unit of work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// TeraSort over TeraGen input (100 B records, total-order partition).
    TeraSort,
    /// Sort over RandomWriter input (10–1000 B keys, hash partition).
    Sort,
    /// WordCount over generated text (real records; kept small).
    WordCount,
}

impl JobKind {
    pub fn label(self) -> &'static str {
        match self {
            JobKind::TeraSort => "terasort",
            JobKind::Sort => "sort",
            JobKind::WordCount => "wordcount",
        }
    }
}

/// Bounded Pareto over `[lo, hi]` with shape `alpha` (smaller = heavier
/// tail; `alpha < 2` gives the mice-and-elephants mix the scheduler work
/// needs to matter).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPareto {
    pub alpha: f64,
    pub lo: f64,
    pub hi: f64,
}

impl BoundedPareto {
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && lo > 0.0 && hi >= lo);
        BoundedPareto { alpha, lo, hi }
    }

    /// Inverse-CDF draw: `x = L (1 - u (1 - (L/H)^α))^(-1/α)`.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        let u: f64 = rng.gen();
        let ratio = (self.lo / self.hi).powf(self.alpha);
        self.lo * (1.0f64 - u * (1.0 - ratio)).powf(-1.0 / self.alpha)
    }
}

/// One sampled job: what to run and over how much input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobSample {
    pub kind: JobKind,
    /// Input bytes, already quantized to the catalog ladder.
    pub input_bytes: u64,
}

/// A tenant's workload mix: job kinds with integer per-mille weights and a
/// heavy-tailed size distribution shared by all kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// `(kind, weight_mille)`; weights must sum to 1000.
    pub kinds: Vec<(JobKind, u32)>,
    pub size: BoundedPareto,
    /// Rungs on the geometric size ladder between `size.lo` and `size.hi`
    /// (inclusive of both ends). Bounds the input catalog.
    pub size_steps: usize,
}

impl JobMix {
    pub fn new(kinds: &[(JobKind, u32)], size: BoundedPareto, size_steps: usize) -> Self {
        assert!(size_steps >= 1);
        let total: u32 = kinds.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 1000, "kind weights must sum to 1000 per-mille");
        JobMix {
            kinds: kinds.to_vec(),
            size,
            size_steps,
        }
    }

    /// Snaps a raw size onto the nearest rung of the geometric ladder.
    pub fn quantize(&self, bytes: f64) -> u64 {
        if self.size_steps == 1 || self.size.hi <= self.size.lo {
            return self.size.lo as u64;
        }
        let lr = (bytes.max(self.size.lo).min(self.size.hi) / self.size.lo).ln();
        let span = (self.size.hi / self.size.lo).ln();
        let step = (lr / span * (self.size_steps - 1) as f64).round() as usize;
        let rung = self.size.lo * (span * step as f64 / (self.size_steps - 1) as f64).exp();
        rung.round() as u64
    }

    /// Every rung a quantized sample can land on (the catalog to pre-build).
    pub fn ladder(&self) -> Vec<u64> {
        (0..self.size_steps)
            .map(|i| {
                if self.size_steps == 1 {
                    self.size.lo as u64
                } else {
                    let span = (self.size.hi / self.size.lo).ln();
                    (self.size.lo * (span * i as f64 / (self.size_steps - 1) as f64).exp()).round()
                        as u64
                }
            })
            .collect()
    }

    /// Draws one job (kind by weighted choice, size by bounded Pareto).
    pub fn sample(&self, rng: &mut SmallRng) -> JobSample {
        let pick = rng.gen_range(0u32..1000);
        let mut acc = 0;
        let mut kind = self.kinds[0].0;
        for &(k, w) in &self.kinds {
            acc += w;
            if pick < acc {
                kind = k;
                break;
            }
        }
        let raw = self.size.sample(rng);
        JobSample {
            kind,
            input_bytes: self.quantize(raw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::tenant_rng;

    #[test]
    fn bounded_pareto_respects_bounds_and_skew() {
        let bp = BoundedPareto::new(1.2, 1e6, 1e9);
        let mut rng = tenant_rng(5, 0);
        let draws: Vec<f64> = (0..2000).map(|_| bp.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&x| (1e6..=1e9).contains(&x)));
        // Heavy tail: the median sits far below the mean.
        let mut sorted = draws.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[1000];
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
    }

    #[test]
    fn quantize_lands_on_ladder() {
        let mix = JobMix::new(
            &[(JobKind::TeraSort, 1000)],
            BoundedPareto::new(1.5, 16e6, 256e6),
            5,
        );
        let ladder = mix.ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0], 16_000_000);
        assert_eq!(*ladder.last().unwrap(), 256_000_000);
        let mut rng = tenant_rng(5, 1);
        for _ in 0..500 {
            let s = mix.sample(&mut rng);
            assert!(
                ladder.contains(&s.input_bytes),
                "{} off-ladder",
                s.input_bytes
            );
        }
    }

    #[test]
    fn kind_weights_are_respected() {
        let mix = JobMix::new(
            &[(JobKind::WordCount, 250), (JobKind::TeraSort, 750)],
            BoundedPareto::new(1.5, 1e6, 1e6),
            1,
        );
        let mut rng = tenant_rng(9, 2);
        let n = 2000;
        let wc = (0..n)
            .filter(|_| mix.sample(&mut rng).kind == JobKind::WordCount)
            .count();
        let frac = wc as f64 / n as f64;
        assert!((0.18..0.32).contains(&frac), "wordcount fraction {frac}");
    }

    #[test]
    fn single_rung_mix_is_constant_size() {
        let mix = JobMix::new(
            &[(JobKind::Sort, 1000)],
            BoundedPareto::new(2.0, 64e6, 64e6),
            1,
        );
        let mut rng = tenant_rng(1, 0);
        for _ in 0..50 {
            assert_eq!(mix.sample(&mut rng).input_bytes, 64_000_000);
        }
    }
}
