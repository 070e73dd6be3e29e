//! A tiny metrics registry shared by every component of a simulation.
//!
//! Components record named counters (bytes shuffled, cache hits, …) and
//! busy-time accumulators (disk busy seconds, CPU busy core-seconds). The
//! benchmark harness reads these out after a run to report utilisation and
//! to sanity-check conservation properties (e.g. bytes leaving TaskTrackers
//! equal bytes arriving at ReduceTasks).
//!
//! Counters are `Rc<Cell<f64>>` slots behind shared `Rc<str>` keys, so
//! neither updating an existing counter nor snapshotting allocates per key.
//! Hot paths (per-I/O, per-packet updates) should grab a [`Counter`] handle
//! once via [`Metrics::counter`] and bump it directly — that skips even the
//! map lookup.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::time::SimDuration;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Rc<str>, Rc<Cell<f64>>>,
}

impl Registry {
    fn slot(&mut self, key: &str) -> Rc<Cell<f64>> {
        if let Some(c) = self.counters.get(key) {
            return Rc::clone(c);
        }
        let c = Rc::new(Cell::new(0.0));
        self.counters.insert(Rc::from(key), Rc::clone(&c));
        c
    }
}

/// Cloneable handle to a simulation's metrics registry.
///
/// Keys are free-form dotted strings (`"disk.node3.busy_s"`). A `BTreeMap`
/// keeps report ordering stable across runs.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<Registry>>,
}

/// A cached handle to one counter: updates are a `Cell` bump — no key
/// hashing, lookup, or allocation. Obtain via [`Metrics::counter`].
#[derive(Clone)]
pub struct Counter {
    cell: Rc<Cell<f64>>,
}

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: f64) {
        self.cell.set(self.cell.get() + v);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.cell.get()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a cached handle to counter `key` (creating it at zero). The
    /// handle stays live even if the registry is dropped.
    pub fn counter(&self, key: &str) -> Counter {
        Counter {
            cell: self.inner.borrow_mut().slot(key),
        }
    }

    /// Adds `v` to counter `key` (creating it at zero). Allocates only on
    /// the first sighting of a key.
    pub fn add(&self, key: &str, v: f64) {
        if let Some(c) = self.inner.borrow().counters.get(key) {
            c.set(c.get() + v);
            return;
        }
        self.inner.borrow_mut().slot(key).set(v);
    }

    /// Increments counter `key` by one.
    pub fn incr(&self, key: &str) {
        self.add(key, 1.0);
    }

    /// Adds a duration (in seconds) to counter `key`; used for busy-time
    /// accounting.
    pub fn add_duration(&self, key: &str, d: SimDuration) {
        self.add(key, d.as_secs_f64());
    }

    /// Records `v` only if it exceeds the stored maximum.
    pub fn record_max(&self, key: &str, v: f64) {
        let slot = {
            let mut reg = self.inner.borrow_mut();
            if !reg.counters.contains_key(key) {
                reg.counters
                    .insert(Rc::from(key), Rc::new(Cell::new(f64::MIN)));
            }
            Rc::clone(reg.counters.get(key).unwrap())
        };
        if v > slot.get() {
            slot.set(v);
        }
    }

    /// Current value of `key`, or 0 if never written.
    pub fn get(&self, key: &str) -> f64 {
        self.inner
            .borrow()
            .counters
            .get(key)
            .map(|c| c.get())
            .unwrap_or(0.0)
    }

    /// Snapshot of every counter, sorted by key. Keys are shared (`Rc`), so
    /// the snapshot does not copy the key strings.
    pub fn snapshot(&self) -> Vec<(Rc<str>, f64)> {
        self.inner
            .borrow()
            .counters
            .iter()
            .map(|(k, v)| (Rc::clone(k), v.get()))
            .collect()
    }

    /// Sum of all counters whose key starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.inner
            .borrow()
            .counters
            .range::<str, _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.get())
            .sum()
    }
}

/// Sub-buckets per power of two in a [`Histogram`].
const BUCKETS_PER_OCTAVE: usize = 8;
/// 64 octaves above [`HIST_MIN`]: values up to ~1.8e10 s land in a real
/// bucket; anything larger clamps into the last one.
const N_BUCKETS: usize = 64 * BUCKETS_PER_OCTAVE;
/// Lower edge of bucket 0 (1 ns, in seconds). Smaller samples clamp up.
const HIST_MIN: f64 = 1e-9;

/// A fixed log-bucket histogram for latency/interval distributions.
///
/// Buckets are geometric (`BUCKETS_PER_OCTAVE` per power of two), so the
/// relative error of a percentile estimate is bounded by one bucket width
/// (~9%) across the whole nanoseconds-to-hours range, and recording is two
/// float ops plus an array bump — cheap enough for per-request use.
/// Percentile queries return the upper edge of the bucket holding the rank,
/// clamped into the observed `[min, max]` range. Exact extremes and the sum
/// are tracked on the side, so `min`/`max`/`mean` are not quantised.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v <= HIST_MIN {
            return 0;
        }
        let idx = ((v / HIST_MIN).log2() * BUCKETS_PER_OCTAVE as f64).floor();
        (idx as usize).min(N_BUCKETS - 1)
    }

    /// Upper edge of bucket `i`, in the recorded unit.
    fn bucket_upper(i: usize) -> f64 {
        HIST_MIN * 2f64.powf((i + 1) as f64 / BUCKETS_PER_OCTAVE as f64)
    }

    /// Records one sample. Non-finite samples are dropped; negatives clamp
    /// into the lowest bucket.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-quantile (`p` in `[0, 1]`): upper edge of the bucket holding
    /// the rank, clamped into the observed range. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Folds `other`'s samples into `self` (pooling per-node histograms).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add("bytes", 10.0);
        m.add("bytes", 5.0);
        m.incr("ops");
        assert_eq!(m.get("bytes"), 15.0);
        assert_eq!(m.get("ops"), 1.0);
        assert_eq!(m.get("missing"), 0.0);
    }

    #[test]
    fn record_max_keeps_peak() {
        let m = Metrics::new();
        m.record_max("peak", 3.0);
        m.record_max("peak", 1.0);
        m.record_max("peak", 9.0);
        assert_eq!(m.get("peak"), 9.0);
    }

    #[test]
    fn sum_prefix_covers_exactly_the_prefix() {
        let m = Metrics::new();
        m.add("disk.n0.busy", 1.0);
        m.add("disk.n1.busy", 2.0);
        m.add("diskette", 100.0);
        m.add("net.n0.tx", 7.0);
        assert_eq!(m.sum_prefix("disk."), 3.0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let m = Metrics::new();
        m.add("b", 1.0);
        m.add("a", 1.0);
        let snap = m.snapshot();
        assert_eq!(snap[0].0.as_ref(), "a");
        assert_eq!(snap[1].0.as_ref(), "b");
    }

    #[test]
    fn add_duration_converts_to_seconds() {
        let m = Metrics::new();
        m.add_duration("busy", SimDuration::from_millis(1500));
        assert!((m.get("busy") - 1.5).abs() < 1e-12);
    }

    #[test]
    fn counter_handle_tracks_shared_slot() {
        let m = Metrics::new();
        let c = m.counter("hot.path");
        c.add(2.0);
        c.incr();
        m.add("hot.path", 1.0);
        assert_eq!(c.get(), 4.0);
        assert_eq!(m.get("hot.path"), 4.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn percentiles_bound_within_bucket_error() {
        let mut h = Histogram::new();
        // Uniform 1..=1000 ms.
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
        // A log-bucket estimate sits within one bucket (~9%) of the truth.
        let p50 = h.p50();
        assert!((0.45..=0.55).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((0.9..=1.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max(), 1.0);
        assert_eq!(h.min(), 1e-3);
    }

    #[test]
    fn percentile_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(0.25);
        // Single sample: every quantile is that sample (bucket upper edge
        // would overshoot; the clamp pulls it back to max).
        assert_eq!(h.p50(), 0.25);
        assert_eq!(h.p99(), 0.25);
    }

    #[test]
    fn extreme_samples_clamp_into_edge_buckets() {
        let mut h = Histogram::new();
        h.record(0.0); // below HIST_MIN → bucket 0
        h.record(-5.0); // negative → bucket 0
        h.record(1e30); // beyond the last bucket
        h.record(f64::NAN); // dropped
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1e30);
    }

    #[test]
    fn merge_pools_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=500 {
            a.record(i as f64 * 1e-3);
        }
        for i in 501..=1000 {
            b.record(i as f64 * 1e-3);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.p50();
        assert!((0.45..=0.55).contains(&p50), "p50 = {p50}");
        assert_eq!(a.min(), 1e-3);
        assert_eq!(a.max(), 1.0);
    }
}
