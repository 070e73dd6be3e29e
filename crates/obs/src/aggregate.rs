//! Aggregators: turn the raw event stream into per-node / per-job series.
//!
//! All functions are pure over `&[ObsEvent]` (plus span inputs where noted)
//! so they can run post-hoc on an exported stream as well as in-process.

use std::collections::BTreeMap;

use rmr_des::Histogram;

use crate::event::{Ev, ObsEvent};
use crate::json::Obj;
use crate::span::Span;

/// Row cap for [`slot_heatmap`]: past this many nodes, adjacent nodes are
/// folded together so the output stays `O(rows x buckets)` instead of
/// growing with the cluster (a 1k-node sweep would otherwise emit 4x the
/// cells of the figures it rides along with).
pub const MAX_HEATMAP_ROWS: usize = 256;

/// Slot-occupancy heatmap: rows are node groups (`node_stride` physical
/// nodes each, 1 for small clusters), columns are time buckets, cells are
/// mean occupied slots (map + reduce) per node during the bucket.
#[derive(Debug, Clone)]
pub struct Heatmap {
    pub t0_s: f64,
    pub bucket_s: f64,
    /// Physical nodes folded into each row (1 = one row per node).
    pub node_stride: usize,
    /// `rows[node / node_stride][bucket]` = mean occupied slots per node.
    pub rows: Vec<Vec<f64>>,
}

impl Heatmap {
    pub fn n_buckets(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// ASCII rendering: one row per node, one char per bucket, shaded by
    /// occupancy relative to the hottest cell.
    pub fn to_ascii(&self) -> String {
        shaded_grid(
            &self.rows,
            |max| {
                format!(
                    "slot occupancy — {} nodes x {} buckets of {:.2}s (max {max:.2} slots)\n",
                    self.rows.len(),
                    self.n_buckets(),
                    self.bucket_s,
                )
            },
            |group| format!("node{:>3}", group * self.node_stride),
        )
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .fixed("t0_s", self.t0_s, 6)
            .fixed("bucket_s", self.bucket_s, 6)
            .val("node_stride", self.node_stride)
            .val("nodes", self.rows.len())
            .val("buckets", self.n_buckets())
            .raw("rows", &cells_json(&self.rows))
            .finish()
    }
}

/// Renders `rows` one char per cell, shaded against the hottest cell, under
/// the header `head(max)`; row `i` is framed as `label(i) |...|`.
fn shaded_grid(
    rows: &[Vec<f64>],
    head: impl FnOnce(f64) -> String,
    label: impl Fn(usize) -> String,
) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = rows.iter().flatten().fold(0.0f64, |m, &v| m.max(v));
    let mut out = head(max);
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&label(i));
        out.push_str(" |");
        for &v in row {
            let shade = if max > 0.0 {
                ((v / max) * (RAMP.len() - 1) as f64).round() as usize
            } else {
                0
            };
            out.push(RAMP[shade.min(RAMP.len() - 1)] as char);
        }
        out.push_str("|\n");
    }
    out
}

/// A heatmap's cells as a JSON array of rows, 4 decimals each.
fn cells_json(rows: &[Vec<f64>]) -> String {
    Obj::list(
        rows.iter()
            .map(|row| Obj::list(row.iter().map(|v| format!("{v:.4}")))),
    )
}

/// Build the occupancy heatmap from attempt spans (`n_nodes` fixes the row
/// count so idle nodes still show). `n_buckets` caps resolution; bucket width
/// stretches to cover the span envelope.
pub fn slot_heatmap(spans: &[Span], n_nodes: usize, n_buckets: usize) -> Heatmap {
    let node_stride = n_nodes.div_ceil(MAX_HEATMAP_ROWS).max(1);
    let n_rows = n_nodes.div_ceil(node_stride);
    let (lo, hi) = spans.iter().fold((f64::MAX, f64::MIN), |(lo, hi), s| {
        (lo.min(s.start_s), hi.max(s.end_s))
    });
    if spans.is_empty() || hi <= lo || n_buckets == 0 {
        return Heatmap {
            t0_s: 0.0,
            bucket_s: 1.0,
            node_stride,
            rows: vec![Vec::new(); n_rows],
        };
    }
    let bucket_s = (hi - lo) / n_buckets as f64;
    let mut rows = vec![vec![0.0f64; n_buckets]; n_rows];
    for s in spans {
        if s.node >= n_nodes {
            continue;
        }
        let group = s.node / node_stride;
        // Nodes actually folded into this row (the last group may be short).
        let group_nodes = node_stride.min(n_nodes - group * node_stride) as f64;
        // Distribute the span's busy time over the buckets it crosses.
        let b0 = (((s.start_s - lo) / bucket_s) as usize).min(n_buckets - 1);
        let b1 = (((s.end_s - lo) / bucket_s) as usize).min(n_buckets - 1);
        for (b, cell) in rows[group].iter_mut().enumerate().take(b1 + 1).skip(b0) {
            let bl = lo + b as f64 * bucket_s;
            let bh = bl + bucket_s;
            let overlap = (s.end_s.min(bh) - s.start_s.max(bl)).max(0.0);
            *cell += overlap / bucket_s / group_nodes;
        }
    }
    Heatmap {
        t0_s: lo,
        bucket_s,
        node_stride,
        rows,
    }
}

/// One heartbeat observation on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePoint {
    pub t_s: f64,
    pub node: usize,
    pub active_jobs: usize,
    pub pending_maps: u64,
    pub pending_reduces: u64,
    pub free_map_slots: u64,
    pub free_reduce_slots: u64,
}

impl QueuePoint {
    pub fn to_json(&self) -> String {
        Obj::new()
            .fixed("t_s", self.t_s, 6)
            .val("node", self.node)
            .val("active_jobs", self.active_jobs)
            .val("pending_maps", self.pending_maps)
            .val("pending_reduces", self.pending_reduces)
            .val("free_map_slots", self.free_map_slots)
            .val("free_reduce_slots", self.free_reduce_slots)
            .finish()
    }
}

/// Per-node heartbeat/queue-depth traces, keyed by node index.
pub fn queue_depth_traces(events: &[ObsEvent]) -> BTreeMap<usize, Vec<QueuePoint>> {
    let mut out: BTreeMap<usize, Vec<QueuePoint>> = BTreeMap::new();
    for e in events {
        if let Ev::Heartbeat {
            node,
            active_jobs,
            pending_maps,
            pending_reduces,
            free_map_slots,
            free_reduce_slots,
        } = &e.ev
        {
            out.entry(*node).or_default().push(QueuePoint {
                t_s: e.t_s(),
                node: *node,
                active_jobs: *active_jobs,
                pending_maps: *pending_maps,
                pending_reduces: *pending_reduces,
                free_map_slots: *free_map_slots,
                free_reduce_slots: *free_reduce_slots,
            });
        }
    }
    out
}

/// Cache-pressure gauge sample for one job: cumulative counters at `t_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePoint {
    pub t_s: f64,
    pub job: u32,
    pub hits: u64,
    pub misses: u64,
    pub hit_bytes: u64,
    pub miss_bytes: u64,
    pub prefetch_insert_bytes: u64,
    pub demand_insert_bytes: u64,
    pub evicted_bytes: u64,
}

impl CachePoint {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .fixed("t_s", self.t_s, 6)
            .val("job", self.job)
            .val("hits", self.hits)
            .val("misses", self.misses)
            .fixed("hit_ratio", self.hit_ratio(), 4)
            .val("hit_bytes", self.hit_bytes)
            .val("miss_bytes", self.miss_bytes)
            .val("prefetch_insert_bytes", self.prefetch_insert_bytes)
            .val("demand_insert_bytes", self.demand_insert_bytes)
            .val("evicted_bytes", self.evicted_bytes)
            .finish()
    }
}

/// How one cache event folds into a job's cumulative [`CachePoint`].
type CacheUpdate = Box<dyn FnOnce(&mut CachePoint)>;

/// Per-job cache-pressure series: one cumulative sample per cache event that
/// touches the job (hit/miss/insert/evict), cluster-wide.
pub fn cache_pressure(events: &[ObsEvent]) -> BTreeMap<u32, Vec<CachePoint>> {
    let mut out: BTreeMap<u32, Vec<CachePoint>> = BTreeMap::new();
    let mut acc: BTreeMap<u32, CachePoint> = BTreeMap::new();
    for e in events {
        let (job, update): (u32, CacheUpdate) = match &e.ev {
            Ev::CacheHit { job, bytes, .. } => {
                let b = *bytes;
                (
                    *job,
                    Box::new(move |p| {
                        p.hits += 1;
                        p.hit_bytes += b;
                    }),
                )
            }
            Ev::CacheMiss { job, bytes, .. } => {
                let b = *bytes;
                (
                    *job,
                    Box::new(move |p| {
                        p.misses += 1;
                        p.miss_bytes += b;
                    }),
                )
            }
            Ev::CacheInsert {
                job, bytes, demand, ..
            } => {
                let b = *bytes;
                let d = *demand;
                (
                    *job,
                    Box::new(move |p| {
                        if d {
                            p.demand_insert_bytes += b;
                        } else {
                            p.prefetch_insert_bytes += b;
                        }
                    }),
                )
            }
            Ev::CacheEvict { job, bytes, .. } => {
                let b = *bytes;
                (*job, Box::new(move |p| p.evicted_bytes += b))
            }
            _ => continue,
        };
        let p = acc.entry(job).or_insert_with(|| CachePoint {
            t_s: 0.0,
            job,
            hits: 0,
            misses: 0,
            hit_bytes: 0,
            miss_bytes: 0,
            prefetch_insert_bytes: 0,
            demand_insert_bytes: 0,
            evicted_bytes: 0,
        });
        update(p);
        p.t_s = e.t_s();
        out.entry(job).or_default().push(p.clone());
    }
    out
}

/// One shuffle-serving throughput bucket on a server node.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    pub t_s: f64,
    pub node: usize,
    pub bytes: u64,
    pub responses: u64,
    pub cache_hits: u64,
}

impl ThroughputPoint {
    pub fn to_json(&self) -> String {
        Obj::new()
            .fixed("t_s", self.t_s, 6)
            .val("node", self.node)
            .val("bytes", self.bytes)
            .val("responses", self.responses)
            .val("cache_hits", self.cache_hits)
            .finish()
    }
}

/// Shuffle-throughput timeline per serving node: `ShuffleResponse` bytes
/// bucketed into `bucket_s`-wide bins.
pub fn shuffle_throughput(
    events: &[ObsEvent],
    bucket_s: f64,
) -> BTreeMap<usize, Vec<ThroughputPoint>> {
    let mut out: BTreeMap<usize, BTreeMap<u64, ThroughputPoint>> = BTreeMap::new();
    for e in events {
        if let Ev::ShuffleResponse {
            node,
            bytes,
            from_cache,
            ..
        } = &e.ev
        {
            let bucket = (e.t_s() / bucket_s) as u64;
            let p = out
                .entry(*node)
                .or_default()
                .entry(bucket)
                .or_insert_with(|| ThroughputPoint {
                    t_s: bucket as f64 * bucket_s,
                    node: *node,
                    bytes: 0,
                    responses: 0,
                    cache_hits: 0,
                });
            p.bytes += bytes;
            p.responses += 1;
            if *from_cache {
                p.cache_hits += 1;
            }
        }
    }
    out.into_iter()
        .map(|(node, buckets)| (node, buckets.into_values().collect()))
        .collect()
}

/// Heartbeat-interval histogram (seconds between consecutive heartbeats,
/// pooled over all nodes).
pub fn heartbeat_intervals(events: &[ObsEvent]) -> Histogram {
    let mut last: BTreeMap<usize, f64> = BTreeMap::new();
    let mut h = Histogram::new();
    for e in events {
        if let Ev::Heartbeat { node, .. } = &e.ev {
            let t = e.t_s();
            if let Some(prev) = last.insert(*node, t) {
                h.record(t - prev);
            }
        }
    }
    h
}

/// Server-side shuffle-serve latency histogram (seconds per `serve()` call).
pub fn shuffle_latencies(events: &[ObsEvent]) -> Histogram {
    let mut h = Histogram::new();
    for e in events {
        if let Ev::ShuffleResponse { serve_ns, .. } = &e.ev {
            h.record(*serve_ns as f64 / 1e9);
        }
    }
    h
}

/// Job → capacity-queue (tenant) mapping from `JobQueued` events. Jobs that
/// never saw a `JobQueued` (Fifo runs, or streams from before the
/// service mode existed) fold into tenant 0 by the callers below.
pub fn job_tenants(events: &[ObsEvent]) -> BTreeMap<u32, u32> {
    let mut out = BTreeMap::new();
    for e in events {
        if let Ev::JobQueued { job, queue } = &e.ev {
            out.insert(*job, *queue);
        }
    }
    out
}

/// Tenant x time heatmap: one row per capacity queue, columns are time
/// buckets. The same exporter serves the recovery-disruption view (cells
/// count lost/re-executed attempts) and the latency view (cells are mean
/// finished-job latency) — only the cell semantics differ.
#[derive(Debug, Clone)]
pub struct TenantHeatmap {
    /// What the cells mean ("lost attempts", "mean latency (s)").
    pub what: String,
    pub t0_s: f64,
    pub bucket_s: f64,
    /// Row labels: the tenant (queue) ids present, sorted.
    pub tenants: Vec<u32>,
    /// `rows[i][bucket]` for tenant `tenants[i]`.
    pub rows: Vec<Vec<f64>>,
}

impl TenantHeatmap {
    pub fn n_buckets(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// ASCII rendering mirroring [`Heatmap::to_ascii`]: one row per tenant,
    /// shaded against the hottest cell.
    pub fn to_ascii(&self) -> String {
        shaded_grid(
            &self.rows,
            |max| {
                format!(
                    "{} — {} tenants x {} buckets of {:.2}s (max {max:.3})\n",
                    self.what,
                    self.tenants.len(),
                    self.n_buckets(),
                    self.bucket_s,
                )
            },
            |i| format!("tenant{:>3}", self.tenants[i]),
        )
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .str("what", &self.what)
            .fixed("t0_s", self.t0_s, 6)
            .fixed("bucket_s", self.bucket_s, 6)
            .raw("tenants", &Obj::list(&self.tenants))
            .val("buckets", self.n_buckets())
            .raw("rows", &cells_json(&self.rows))
            .finish()
    }
}

/// Envelope of the whole stream, for bucketing tenant heatmaps.
fn stream_envelope(events: &[ObsEvent]) -> Option<(f64, f64)> {
    let lo = events.first()?.t_s();
    let hi = events.last()?.t_s();
    (hi > lo).then_some((lo, hi))
}

fn empty_tenant_heatmap(what: &str, tenants: Vec<u32>) -> TenantHeatmap {
    let n = tenants.len();
    TenantHeatmap {
        what: what.to_string(),
        t0_s: 0.0,
        bucket_s: 1.0,
        tenants,
        rows: vec![Vec::new(); n],
    }
}

/// Recovery-disruption heatmap: for each tenant, how many of its running
/// attempts were lost to node failures (`AttemptLost`) or had completed map
/// outputs invalidated (`MapReExecute`) per time bucket. Built purely from
/// events the chaos runs already emit.
pub fn tenant_recovery_heatmap(events: &[ObsEvent], n_buckets: usize) -> TenantHeatmap {
    let tenants_of = job_tenants(events);
    let mut ids: Vec<u32> = tenants_of.values().copied().collect();
    ids.push(0); // unmapped jobs fold here
    ids.sort_unstable();
    ids.dedup();
    let what = "recovery disruptions (lost + re-executed attempts)";
    let Some((lo, hi)) = stream_envelope(events) else {
        return empty_tenant_heatmap(what, ids);
    };
    if n_buckets == 0 {
        return empty_tenant_heatmap(what, ids);
    }
    let bucket_s = (hi - lo) / n_buckets as f64;
    let mut rows = vec![vec![0.0f64; n_buckets]; ids.len()];
    for e in events {
        let job = match &e.ev {
            Ev::AttemptLost { job, .. } => *job,
            Ev::MapReExecute { job, .. } => *job,
            _ => continue,
        };
        let tenant = tenants_of.get(&job).copied().unwrap_or(0);
        let row = ids.binary_search(&tenant).expect("tenant id collected");
        let b = (((e.t_s() - lo) / bucket_s) as usize).min(n_buckets - 1);
        rows[row][b] += 1.0;
    }
    TenantHeatmap {
        what: what.to_string(),
        t0_s: lo,
        bucket_s,
        tenants: ids,
        rows,
    }
}

/// Latency heatmap: for each tenant, the mean end-to-end latency of jobs
/// *finishing* in each time bucket — the service-mode view of "who is slow
/// right now".
pub fn tenant_latency_heatmap(events: &[ObsEvent], n_buckets: usize) -> TenantHeatmap {
    let tenants_of = job_tenants(events);
    let mut ids: Vec<u32> = tenants_of.values().copied().collect();
    ids.push(0);
    ids.sort_unstable();
    ids.dedup();
    let what = "mean job latency (s) by finish bucket";
    let Some((lo, hi)) = stream_envelope(events) else {
        return empty_tenant_heatmap(what, ids);
    };
    if n_buckets == 0 {
        return empty_tenant_heatmap(what, ids);
    }
    let bucket_s = (hi - lo) / n_buckets as f64;
    let mut sums = vec![vec![0.0f64; n_buckets]; ids.len()];
    let mut counts = vec![vec![0u64; n_buckets]; ids.len()];
    let mut submitted: BTreeMap<u32, f64> = BTreeMap::new();
    for e in events {
        if let Ev::JobState { job, state } = &e.ev {
            match state {
                crate::event::JobState::Submitted => {
                    submitted.insert(*job, e.t_s());
                }
                crate::event::JobState::Finished => {
                    let Some(sub) = submitted.get(job) else {
                        continue;
                    };
                    let tenant = tenants_of.get(job).copied().unwrap_or(0);
                    let row = ids.binary_search(&tenant).expect("tenant id collected");
                    let b = (((e.t_s() - lo) / bucket_s) as usize).min(n_buckets - 1);
                    sums[row][b] += e.t_s() - sub;
                    counts[row][b] += 1;
                }
                _ => {}
            }
        }
    }
    let rows = sums
        .into_iter()
        .zip(counts)
        .map(|(srow, crow)| {
            srow.into_iter()
                .zip(crow)
                .map(|(s, c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect()
        })
        .collect();
    TenantHeatmap {
        what: what.to_string(),
        t0_s: lo,
        bucket_s,
        tenants: ids,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptOutcome, TaskFlavor};

    fn span(node: usize, start_s: f64, end_s: f64) -> Span {
        Span {
            node,
            job: 0,
            kind: TaskFlavor::Map,
            idx: 0,
            start_s,
            end_s,
            outcome: AttemptOutcome::Completed,
        }
    }

    fn at(t_s: f64, ev: Ev) -> ObsEvent {
        ObsEvent {
            t_ns: (t_s * 1e9) as u64,
            ev,
        }
    }

    #[test]
    fn heatmap_distributes_span_time_across_buckets() {
        // One span covering [0, 10) on node 0 of 2; 5 buckets of 2s.
        let hm = slot_heatmap(&[span(0, 0.0, 10.0)], 2, 5);
        assert_eq!(hm.rows.len(), 2);
        assert_eq!(hm.n_buckets(), 5);
        for b in 0..5 {
            assert!((hm.rows[0][b] - 1.0).abs() < 1e-9, "bucket {b}");
            assert_eq!(hm.rows[1][b], 0.0);
        }
        let ascii = hm.to_ascii();
        assert!(ascii.contains("node  0"));
        assert!(ascii.lines().count() >= 3);
        let json = hm.to_json();
        assert!(json.contains("\"nodes\":2"));
        assert!(json.contains("\"buckets\":5"));
    }

    #[test]
    fn heatmap_partial_overlap_is_fractional() {
        // Span [0, 1) in a 2s bucket → 0.5 mean occupancy; envelope [0,4).
        let hm = slot_heatmap(&[span(0, 0.0, 1.0), span(0, 3.9, 4.0)], 1, 2);
        assert!((hm.rows[0][0] - 0.5).abs() < 1e-9);
        assert!((hm.rows[0][1] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_heatmap_is_harmless() {
        let hm = slot_heatmap(&[], 3, 10);
        assert_eq!(hm.rows.len(), 3);
        assert_eq!(hm.node_stride, 1);
        assert_eq!(hm.n_buckets(), 0);
        assert!(!hm.to_ascii().is_empty());
        assert!(hm.to_json().starts_with('{'));
    }

    #[test]
    fn heatmap_node_axis_is_capped_at_scale() {
        // 1024 nodes fold 4-to-a-row: output stays O(256 x buckets), and a
        // row's cell is the *per-node* mean over its group so shading stays
        // comparable with small clusters.
        let spans: Vec<Span> = (0..1024).map(|n| span(n, 0.0, 10.0)).collect();
        let hm = slot_heatmap(&spans, 1024, 8);
        assert_eq!(hm.node_stride, 4);
        assert_eq!(hm.rows.len(), 256);
        for row in &hm.rows {
            for &v in row {
                assert!((v - 1.0).abs() < 1e-9);
            }
        }
        assert!(hm.to_json().contains("\"node_stride\":4"));

        // A short last group still averages over its real size.
        let spans: Vec<Span> = (0..257).map(|n| span(n, 0.0, 2.0)).collect();
        let hm = slot_heatmap(&spans, 257, 2);
        assert_eq!(hm.node_stride, 2);
        assert_eq!(hm.rows.len(), 129);
        assert!((hm.rows[128][0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_traces_group_by_node() {
        let events = vec![
            at(
                1.0,
                Ev::Heartbeat {
                    node: 0,
                    active_jobs: 1,
                    pending_maps: 5,
                    pending_reduces: 2,
                    free_map_slots: 0,
                    free_reduce_slots: 2,
                },
            ),
            at(
                1.5,
                Ev::Heartbeat {
                    node: 1,
                    active_jobs: 1,
                    pending_maps: 3,
                    pending_reduces: 2,
                    free_map_slots: 1,
                    free_reduce_slots: 2,
                },
            ),
            at(
                2.0,
                Ev::Heartbeat {
                    node: 0,
                    active_jobs: 1,
                    pending_maps: 1,
                    pending_reduces: 2,
                    free_map_slots: 0,
                    free_reduce_slots: 2,
                },
            ),
        ];
        let traces = queue_depth_traces(&events);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[&0].len(), 2);
        assert_eq!(traces[&1].len(), 1);
        assert_eq!(traces[&0][1].pending_maps, 1);
        assert!(traces[&0][0].to_json().contains("\"pending_maps\":5"));

        let h = heartbeat_intervals(&events);
        assert_eq!(h.count(), 1); // only node 0 has two beats
        assert!((h.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_pressure_accumulates_per_job() {
        let events = vec![
            at(
                1.0,
                Ev::CacheInsert {
                    node: 0,
                    job: 7,
                    map_idx: 0,
                    bytes: 100,
                    demand: false,
                },
            ),
            at(
                2.0,
                Ev::CacheHit {
                    node: 0,
                    job: 7,
                    map_idx: 0,
                    bytes: 100,
                },
            ),
            at(
                3.0,
                Ev::CacheMiss {
                    node: 0,
                    job: 7,
                    map_idx: 1,
                    bytes: 50,
                },
            ),
            at(
                4.0,
                Ev::CacheInsert {
                    node: 0,
                    job: 7,
                    map_idx: 1,
                    bytes: 50,
                    demand: true,
                },
            ),
            at(
                5.0,
                Ev::CacheEvict {
                    node: 0,
                    job: 7,
                    map_idx: 0,
                    bytes: 100,
                },
            ),
        ];
        let series = cache_pressure(&events);
        let pts = &series[&7];
        assert_eq!(pts.len(), 5);
        let last = pts.last().unwrap();
        assert_eq!(last.hits, 1);
        assert_eq!(last.misses, 1);
        assert_eq!(last.prefetch_insert_bytes, 100);
        assert_eq!(last.demand_insert_bytes, 50);
        assert_eq!(last.evicted_bytes, 100);
        assert!((last.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_buckets_responses_per_server() {
        let resp = |t_s: f64, node: usize, bytes: u64, from_cache: bool| {
            at(
                t_s,
                Ev::ShuffleResponse {
                    node,
                    job: 0,
                    map_idx: 0,
                    reduce: 0,
                    bytes,
                    records: 1,
                    from_cache,
                    serve_ns: 2_000_000,
                },
            )
        };
        let events = vec![
            resp(0.1, 0, 1000, true),
            resp(0.9, 0, 1000, false),
            resp(1.5, 0, 500, false),
            resp(0.2, 1, 300, false),
        ];
        let tl = shuffle_throughput(&events, 1.0);
        assert_eq!(tl[&0].len(), 2);
        assert_eq!(tl[&0][0].bytes, 2000);
        assert_eq!(tl[&0][0].responses, 2);
        assert_eq!(tl[&0][0].cache_hits, 1);
        assert_eq!(tl[&0][1].bytes, 500);
        assert_eq!(tl[&1][0].bytes, 300);

        let lat = shuffle_latencies(&events);
        assert_eq!(lat.count(), 4);
        assert!((lat.mean() - 0.002).abs() < 1e-9);
    }

    use crate::event::JobState as Js;

    fn job_ev(t_s: f64, job: u32, state: Js) -> ObsEvent {
        at(t_s, Ev::JobState { job, state })
    }

    #[test]
    fn recovery_heatmap_counts_disruptions_per_tenant() {
        let events = vec![
            at(0.0, Ev::JobQueued { job: 5, queue: 2 }),
            at(
                1.0,
                Ev::AttemptLost {
                    node: 0,
                    job: 5,
                    kind: TaskFlavor::Map,
                    idx: 0,
                },
            ),
            at(
                3.0,
                Ev::MapReExecute {
                    node: 0,
                    job: 9, // unmapped → tenant 0
                    idx: 1,
                },
            ),
            at(4.0, Ev::NodeDown { node: 0 }),
        ];
        let hm = tenant_recovery_heatmap(&events, 2);
        assert_eq!(hm.tenants, vec![0, 2]);
        // Envelope [0,4): tenant 2 lost one attempt at t=1 (bucket 0),
        // tenant 0 re-executed one map at t=3 (bucket 1).
        assert!((hm.rows[1][0] - 1.0).abs() < 1e-9);
        assert!((hm.rows[0][1] - 1.0).abs() < 1e-9);
        assert!(hm.to_ascii().contains("tenant  2"));
        assert!(hm.to_json().contains("\"tenants\":[0,2]"));
    }

    #[test]
    fn latency_heatmap_means_by_finish_bucket() {
        let events = vec![
            at(0.0, Ev::JobQueued { job: 0, queue: 1 }),
            job_ev(0.0, 0, Js::Submitted),
            job_ev(0.5, 1, Js::Submitted),
            job_ev(4.0, 0, Js::Finished), // tenant 1, latency 4, bucket 0
            job_ev(10.0, 1, Js::Finished), // tenant 0, latency 9.5, bucket 1
        ];
        let hm = tenant_latency_heatmap(&events, 2);
        assert_eq!(hm.tenants, vec![0, 1]);
        assert!((hm.rows[1][0] - 4.0).abs() < 1e-9);
        assert!((hm.rows[0][1] - 9.5).abs() < 1e-9);
        assert_eq!(hm.rows[0][0], 0.0);
    }

    #[test]
    fn tenant_heatmaps_tolerate_empty_streams() {
        let hm = tenant_recovery_heatmap(&[], 8);
        assert_eq!(hm.tenants, vec![0]);
        assert_eq!(hm.n_buckets(), 0);
        assert!(!hm.to_ascii().is_empty());
        assert!(tenant_latency_heatmap(&[], 8).to_json().starts_with('{'));
    }
}
