//! Intermediate-data pre-fetching and caching (§III-B-3) — the paper's
//! headline mechanism.
//!
//! * [`PrefetchCache`] — a bounded in-heap cache of whole map-output files
//!   on the TaskTracker. Eviction prefers low priority, then stale entries;
//!   demand-missed outputs are re-cached with elevated priority so
//!   "successive requests for this output file can be served from the
//!   cache". The cache is cluster-lifetime: entries are keyed by
//!   `(JobId, map_idx)`, so outputs of concurrent jobs compete for the same
//!   capacity and the priority logic sees cross-job pressure.
//! * [`Prefetcher`] — the `MapOutputPrefetcher`: a daemon pool that pulls
//!   (map, priority) requests from a queue and stages the file from local
//!   disk into the cache. A request is enqueued the moment a map finishes,
//!   so caching overlaps the map wave.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_des::sync::{channel, Receiver, Sender};
use rmr_obs::{Ev, Recorder};
use rmr_store::LocalFs;

use crate::runtime::JobId;

/// Cache key: which job's map output.
pub type CacheKey = (JobId, usize);

/// Caching priority; higher survives eviction longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Proactively cached after map completion.
    Prefetch = 0,
    /// Re-cached after a demand miss (§III-B-3: "cache this particular map
    /// output data with more priority").
    Demand = 1,
}

struct Entry {
    bytes: u64,
    priority: Priority,
    last_touch: u64,
}

struct CacheInner {
    capacity: u64,
    used: u64,
    entries: BTreeMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Per-job (hits, misses) so a shared cache still reports per-job
    /// effectiveness in each `JobResult`.
    by_job: BTreeMap<JobId, (u64, u64)>,
    /// Observability bus (off unless the owning TaskTracker enables it) and
    /// the node index stamped on emitted cache events.
    obs: Recorder,
    obs_node: usize,
}

/// The TaskTracker-side map-output cache.
#[derive(Clone)]
pub struct PrefetchCache {
    inner: Rc<RefCell<CacheInner>>,
}

impl PrefetchCache {
    /// Creates a cache of `capacity` bytes (0 = disabled).
    pub fn new(capacity: u64) -> Self {
        PrefetchCache {
            inner: Rc::new(RefCell::new(CacheInner {
                capacity,
                used: 0,
                entries: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                by_job: BTreeMap::new(),
                obs: Recorder::off(),
                obs_node: 0,
            })),
        }
    }

    /// Attaches the observability bus; insert/evict events are stamped with
    /// `node`. Tests constructing caches directly skip this (bus stays off).
    pub fn set_obs(&self, obs: &Recorder, node: usize) {
        let mut i = self.inner.borrow_mut();
        i.obs = obs.clone();
        i.obs_node = node;
    }

    /// Bytes resident.
    pub fn used(&self) -> u64 {
        self.inner.borrow().used
    }

    /// Configured capacity in bytes (0 = disabled).
    pub fn capacity(&self) -> u64 {
        self.inner.borrow().capacity
    }

    /// (hits, misses) of `lookup` so far, across all jobs.
    pub fn stats(&self) -> (u64, u64) {
        let i = self.inner.borrow();
        (i.hits, i.misses)
    }

    /// (hits, misses) of `lookup` attributed to `job`.
    pub fn job_stats(&self, job: JobId) -> (u64, u64) {
        self.inner
            .borrow()
            .by_job
            .get(&job)
            .copied()
            .unwrap_or((0, 0))
    }

    /// True if the keyed map output is resident (without counting a
    /// hit/miss or touching recency).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.inner.borrow().entries.contains_key(&key)
    }

    /// Serve-path lookup: touches recency and counts hit/miss.
    pub fn lookup(&self, key: CacheKey) -> bool {
        let mut i = self.inner.borrow_mut();
        i.tick += 1;
        let tick = i.tick;
        let hit = match i.entries.get_mut(&key) {
            Some(e) => {
                e.last_touch = tick;
                true
            }
            None => false,
        };
        if hit {
            i.hits += 1;
        } else {
            i.misses += 1;
        }
        let per = i.by_job.entry(key.0).or_insert((0, 0));
        if hit {
            per.0 += 1;
        } else {
            per.1 += 1;
        }
        hit
    }

    /// Would an insert of `bytes` at `priority` be admitted right now?
    /// Used by the prefetcher to avoid wasting disk reads on data the cache
    /// cannot hold (the paper's adaptive "limit the amount of data to be
    /// cached" behaviour).
    pub fn would_admit(&self, key: CacheKey, bytes: u64, priority: Priority) -> bool {
        let i = self.inner.borrow();
        if bytes > i.capacity {
            return false;
        }
        if i.entries.contains_key(&key) {
            return true;
        }
        let evictable: u64 = i
            .entries
            .values()
            .filter(|e| e.priority < priority)
            .map(|e| e.bytes)
            .sum();
        i.used + bytes <= i.capacity + evictable
    }

    /// Inserts (or re-prioritises) a map output of `bytes`. Admission is
    /// conservative to prevent thrash: an insert may evict only entries of
    /// *strictly lower* priority; if space still doesn't suffice the insert
    /// is rejected and the data keeps being served from disk. Returns
    /// whether the entry is now resident.
    pub fn insert(&self, key: CacheKey, bytes: u64, priority: Priority) -> bool {
        if !self.would_admit(key, bytes, priority) {
            return false;
        }
        let mut i = self.inner.borrow_mut();
        i.tick += 1;
        let tick = i.tick;
        if let Some(e) = i.entries.get_mut(&key) {
            e.priority = e.priority.max(priority);
            e.last_touch = tick;
            return true;
        }
        while i.used + bytes > i.capacity {
            let victim = i
                .entries
                .iter()
                .filter(|(_, e)| e.priority < priority)
                .min_by_key(|(_, e)| (e.priority, e.last_touch))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let e = i.entries.remove(&k).unwrap();
                    i.used -= e.bytes;
                    i.obs.emit(|| Ev::CacheEvict {
                        node: i.obs_node,
                        job: k.0 .0,
                        map_idx: k.1,
                        bytes: e.bytes,
                    });
                }
                None => return false, // would_admit guarantees this is rare
            }
        }
        i.used += bytes;
        i.entries.insert(
            key,
            Entry {
                bytes,
                priority,
                last_touch: tick,
            },
        );
        i.obs.emit(|| Ev::CacheInsert {
            node: i.obs_node,
            job: key.0 .0,
            map_idx: key.1,
            bytes,
            demand: priority == Priority::Demand,
        });
        true
    }

    /// Drops an entry (map output deleted or invalidated).
    pub fn remove(&self, key: CacheKey) {
        let mut i = self.inner.borrow_mut();
        if let Some(e) = i.entries.remove(&key) {
            i.used -= e.bytes;
        }
    }

    /// Drops every entry of `job` (job cleanup at commit). The job's
    /// hit/miss counters are kept so late stat reads stay correct; drop
    /// them separately with [`PrefetchCache::forget_job_stats`].
    pub fn remove_job(&self, job: JobId) {
        let mut i = self.inner.borrow_mut();
        let mut freed = 0;
        i.entries.retain(|(j, _), e| {
            if *j == job {
                freed += e.bytes;
                false
            } else {
                true
            }
        });
        i.used -= freed;
    }

    /// Drops every entry (node death: the cached heap dies with the JVM).
    /// Hit/miss counters survive — they describe history, not residency.
    pub fn clear(&self) {
        let mut i = self.inner.borrow_mut();
        i.entries.clear();
        i.used = 0;
    }

    /// Drops `job`'s per-job hit/miss counters (after the final stat read
    /// at job commit); without this the `by_job` map grows one entry per
    /// job ever run. Cluster-wide totals ([`PrefetchCache::stats`]) are
    /// unaffected.
    pub fn forget_job_stats(&self, job: JobId) {
        self.inner.borrow_mut().by_job.remove(&job);
    }

    /// Number of jobs with live per-job stat counters (leak test hook).
    pub fn tracked_jobs(&self) -> usize {
        self.inner.borrow().by_job.len()
    }
}

/// A prefetch request: stage this map's output file.
#[derive(Debug, Clone)]
pub struct PrefetchRequest {
    /// Which job.
    pub job: JobId,
    /// Which map.
    pub map_idx: usize,
    /// The file to stage.
    pub file: String,
    /// Its size.
    pub bytes: u64,
    /// Requested priority.
    pub priority: Priority,
}

impl PrefetchRequest {
    fn key(&self) -> CacheKey {
        (self.job, self.map_idx)
    }
}

/// Handle to a TaskTracker's `MapOutputPrefetcher` daemon pool.
#[derive(Clone)]
pub struct Prefetcher {
    tx: Sender<PrefetchRequest>,
    cache: PrefetchCache,
    queued: Rc<RefCell<std::collections::BTreeSet<CacheKey>>>,
}

impl Prefetcher {
    /// Spawns `threads` staging daemons reading from `fs` into `cache`. They
    /// join `group`, so a node kill ([`crate::runtime::Runtime::kill_node`])
    /// aborts them with the rest of the TaskTracker.
    pub fn spawn_in(
        sim: &Sim,
        group: &TaskGroup,
        fs: &LocalFs,
        cache: &PrefetchCache,
        threads: usize,
    ) -> Self {
        let (tx, rx): (Sender<PrefetchRequest>, Receiver<PrefetchRequest>) = channel();
        let queued: Rc<RefCell<std::collections::BTreeSet<CacheKey>>> =
            Rc::new(RefCell::new(std::collections::BTreeSet::new()));
        for i in 0..threads.max(1) {
            let rx = rx.clone();
            let fs = fs.clone();
            let cache = cache.clone();
            let sim2 = sim.clone();
            let queued = Rc::clone(&queued);
            let body = async move {
                while let Some(req) = rx.recv().await {
                    queued.borrow_mut().remove(&req.key());
                    if cache.contains(req.key()) {
                        continue;
                    }
                    // Don't burn disk bandwidth staging data the cache
                    // cannot admit anyway.
                    if !cache.would_admit(req.key(), req.bytes, req.priority) {
                        sim2.metrics().incr("prefetch.rejected");
                        continue;
                    }
                    // Stage the whole file from disk (page-cache aware).
                    if fs.exists(&req.file) {
                        let mut r = match fs.reader(&req.file) {
                            Ok(r) => r,
                            Err(_) => continue,
                        };
                        if r.read_exact(req.bytes).await.is_ok()
                            && cache.insert(req.key(), req.bytes, req.priority)
                        {
                            sim2.metrics().incr("prefetch.staged");
                        }
                    }
                }
            };
            group
                .spawn_named(Component::PrefetchDaemon { thread: i as u32 }, body)
                .detach();
        }
        Prefetcher {
            tx,
            cache: cache.clone(),
            queued,
        }
    }

    /// Enqueues a staging request (non-blocking; daemons drain the queue).
    /// Duplicate requests for an already-queued map are coalesced.
    pub fn request(&self, req: PrefetchRequest) {
        if self.cache.contains(req.key()) {
            return;
        }
        if !self.queued.borrow_mut().insert(req.key()) {
            return;
        }
        let _ = self.tx.send_now(req);
    }

    /// The cache daemons stage into.
    pub fn cache(&self) -> &PrefetchCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_des::SimDuration;
    use rmr_store::DiskParams;

    /// All single-job cache tests run under job 0.
    fn k(idx: usize) -> CacheKey {
        (JobId(0), idx)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = PrefetchCache::new(1_000);
        assert!(!c.lookup(k(1)));
        assert!(c.insert(k(1), 100, Priority::Prefetch));
        assert!(c.lookup(k(1)));
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.job_stats(JobId(0)), (1, 1));
        assert_eq!(c.job_stats(JobId(9)), (0, 0));
    }

    #[test]
    fn same_priority_insert_never_thrashes() {
        let c = PrefetchCache::new(300);
        c.insert(k(1), 100, Priority::Prefetch);
        c.insert(k(2), 100, Priority::Demand);
        c.insert(k(3), 100, Priority::Prefetch);
        // Full; a same-priority insert must be rejected (no Prefetch-vs-
        // Prefetch eviction churn).
        assert!(!c.insert(k(4), 100, Priority::Prefetch));
        assert!(c.contains(k(1)) && c.contains(k(2)) && c.contains(k(3)));
        // A Demand insert may evict the least-recent Prefetch entry.
        assert!(c.insert(k(5), 100, Priority::Demand));
        assert!(!c.contains(k(1)), "oldest Prefetch entry evicted");
        assert!(c.contains(k(2)) && c.contains(k(3)) && c.contains(k(5)));
    }

    #[test]
    fn would_admit_predicts_insert() {
        let c = PrefetchCache::new(200);
        assert!(c.would_admit(k(1), 150, Priority::Prefetch));
        c.insert(k(1), 150, Priority::Prefetch);
        assert!(!c.would_admit(k(2), 100, Priority::Prefetch));
        assert!(c.would_admit(k(2), 100, Priority::Demand));
        assert!(
            c.would_admit(k(1), 150, Priority::Prefetch),
            "resident is admitted"
        );
    }

    #[test]
    fn lower_priority_cannot_evict_higher() {
        let c = PrefetchCache::new(200);
        c.insert(k(1), 100, Priority::Demand);
        c.insert(k(2), 100, Priority::Demand);
        assert!(!c.insert(k(3), 100, Priority::Prefetch));
        assert!(c.contains(k(1)) && c.contains(k(2)));
    }

    #[test]
    fn demand_insert_evicts_prefetch() {
        let c = PrefetchCache::new(200);
        c.insert(k(1), 100, Priority::Prefetch);
        c.insert(k(2), 100, Priority::Prefetch);
        assert!(c.insert(k(3), 150, Priority::Demand));
        assert!(c.contains(k(3)));
        assert_eq!(c.used(), 150);
    }

    #[test]
    fn cross_job_demand_pressure_evicts_prefetch_entries() {
        // Two jobs share the cache: job 1's demand traffic may push out
        // job 0's prefetched (not-yet-demanded) outputs, but not its
        // demand-priority ones.
        let c = PrefetchCache::new(300);
        c.insert((JobId(0), 1), 100, Priority::Prefetch);
        c.insert((JobId(0), 2), 100, Priority::Demand);
        assert!(c.insert((JobId(1), 1), 200, Priority::Demand));
        assert!(!c.contains((JobId(0), 1)), "cross-job eviction");
        assert!(c.contains((JobId(0), 2)), "demand entry survives");
        assert!(c.contains((JobId(1), 1)));
    }

    #[test]
    fn remove_job_frees_only_that_job() {
        let c = PrefetchCache::new(1_000);
        c.insert((JobId(0), 1), 100, Priority::Prefetch);
        c.insert((JobId(1), 1), 200, Priority::Prefetch);
        c.remove_job(JobId(0));
        assert_eq!(c.used(), 200);
        assert!(!c.contains((JobId(0), 1)));
        assert!(c.contains((JobId(1), 1)));
    }

    #[test]
    fn prefetcher_coalesces_duplicate_requests() {
        use rmr_des::Sim;
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, DiskParams::ssd_sata(), 1, 0, "t");
        let cache = PrefetchCache::new(1 << 20);
        let pf = Prefetcher::spawn_in(&sim, &sim.group(), &fs, &cache, 1);
        let fs2 = fs.clone();
        let pf2 = pf.clone();
        sim.block_on(sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(1_000).await.unwrap();
            for _ in 0..10 {
                pf2.request(PrefetchRequest {
                    job: JobId(0),
                    map_idx: 0,
                    file: "f".to_string(),
                    bytes: 1_000,
                    priority: Priority::Demand,
                });
            }
        }));
        assert!(cache.contains(k(0)));
        assert_eq!(sim.metrics().get("prefetch.staged"), 1.0);
    }

    #[test]
    fn oversized_entry_rejected() {
        let c = PrefetchCache::new(100);
        assert!(!c.insert(k(1), 200, Priority::Demand));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_upgrades_priority() {
        let c = PrefetchCache::new(200);
        c.insert(k(1), 100, Priority::Prefetch);
        c.insert(k(1), 100, Priority::Demand);
        assert_eq!(c.used(), 100, "no double counting");
        // Now a Prefetch insert must not evict it.
        assert!(!c.insert(k(2), 200, Priority::Prefetch));
        assert!(c.contains(k(1)));
    }

    #[test]
    fn remove_releases_space() {
        let c = PrefetchCache::new(100);
        c.insert(k(1), 100, Priority::Demand);
        c.remove(k(1));
        assert_eq!(c.used(), 0);
        assert!(c.insert(k(2), 100, Priority::Prefetch));
    }

    #[test]
    fn prefetcher_daemon_stages_files() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, DiskParams::ssd_sata(), 1, 0, "t");
        let cache = PrefetchCache::new(1 << 20);
        let pf = Prefetcher::spawn_in(&sim, &sim.group(), &fs, &cache, 2);
        let fs2 = fs.clone();
        let pf2 = pf.clone();
        sim.spawn(async move {
            let w = fs2.writer("map_0.out").unwrap();
            w.append(10_000).await.unwrap();
            pf2.request(PrefetchRequest {
                job: JobId(0),
                map_idx: 0,
                file: "map_0.out".to_string(),
                bytes: 10_000,
                priority: Priority::Prefetch,
            });
        })
        .detach();
        sim.run();
        assert!(cache.contains(k(0)));
        assert_eq!(cache.used(), 10_000);
    }

    #[test]
    fn prefetcher_charges_disk_time() {
        let sim = Sim::new(1);
        // 0 cache budget on the fs page cache → staging must hit the disk.
        let mut p = DiskParams::ssd_sata();
        p.seq_bw = 1_000.0; // 1 kB/s for visibility
        p.access_latency = SimDuration::ZERO;
        let fs = LocalFs::new(&sim, p, 1, 0, "t");
        let cache = PrefetchCache::new(1 << 20);
        let pf = Prefetcher::spawn_in(&sim, &sim.group(), &fs, &cache, 1);
        let fs2 = fs.clone();
        sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(1_000).await.unwrap(); // 1 s
            pf.request(PrefetchRequest {
                job: JobId(0),
                map_idx: 7,
                file: "f".to_string(),
                bytes: 1_000,
                priority: Priority::Prefetch,
            });
        })
        .detach();
        let end = sim.run();
        // 1 s write + 1 s staging read.
        assert_eq!(end.as_nanos(), 2_000_000_000);
        assert!(cache.contains(k(7)));
    }
}
