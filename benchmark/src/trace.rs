//! Outside-in tracing: spans around the calls the benchmark makes into the
//! simulator, kept in a `Vec` and written as JSON lines when the child
//! exits. Spans *inside* the simulator are a later change (ROADMAP item 2).
//!
//! The traced run drives `Sim::run_until` over a fixed grid of simulated
//! time and stamps host time and the executor's counters at every boundary,
//! so host cost can be read against simulated progress without touching the
//! event order: `run_until` only decides when the loop pauses.

use std::time::Instant;

use rmr_des::{Sim, SimDuration, SimTime};

use crate::json::{self, Json};

/// Slices a traced run is cut into.
pub const SLICES: u64 = 64;

/// One closed interval of host time around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Host time and executor counters at one boundary of the simulated-time grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub sim_s: f64,
    pub host_ns: u64,
    pub events: u64,
    pub polls: u64,
    pub live_tasks: usize,
}

/// Span store of one child process; all spans share `run`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub slices: Vec<Slice>,
}

impl Tracer {
    /// `origin` is the child's start: every span is an offset from it.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            slices: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        span.dur_ns().saturating_sub(covered)
    }

    /// Seconds of the first span called `name` (0 when absent).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    }

    /// Runs `sim` to quiescence. Untraced: one `Sim::run`. Traced: over the
    /// grid `[0, sim_end]` cut into [`SLICES`] equal slices (1-second slices
    /// when the end is not known), stamping a [`Slice`] at each boundary.
    pub fn run_sim(&mut self, sim: &Sim, traced: bool, sim_end_s: Option<f64>) {
        if !traced {
            sim.run();
            return;
        }
        let width = match sim_end_s {
            Some(end) if end > 0.0 => SimDuration::from_secs_f64(end / SLICES as f64),
            _ => SimDuration::from_secs(1),
        };
        let width = if width.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            width
        };
        let mut limit = SimTime::ZERO + width;
        // A hint far below the real end must not turn into millions of
        // slices: past 16x the grid, finish in one go.
        for _ in 0..SLICES * 16 {
            let reached = sim.run_until(limit);
            self.slices.push(Slice {
                sim_s: reached.as_secs_f64(),
                host_ns: self.ns(Instant::now()),
                events: sim.events_fired(),
                polls: sim.polls(),
                live_tasks: sim.live_tasks(),
            });
            if reached < limit {
                return; // quiescent before the boundary
            }
            limit += width;
        }
        sim.run();
    }

    /// Host ns (since origin) and events fired at simulated instant `sim_s`,
    /// interpolated linearly inside the slice that contains it.
    pub fn at_sim(&self, sim_s: f64) -> Option<(u64, u64)> {
        let mut prev = Slice {
            sim_s: 0.0,
            host_ns: self.slices.first()?.host_ns,
            events: 0,
            polls: 0,
            live_tasks: 0,
        };
        for s in &self.slices {
            if sim_s <= s.sim_s {
                let span = s.sim_s - prev.sim_s;
                let f = if span > 0.0 {
                    ((sim_s - prev.sim_s) / span).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let lerp = |a: u64, b: u64| a + ((b.saturating_sub(a)) as f64 * f) as u64;
                return Some((lerp(prev.host_ns, s.host_ns), lerp(prev.events, s.events)));
            }
            prev = *s;
        }
        self.slices.last().map(|s| (s.host_ns, s.events))
    }

    /// The trace as JSON lines: one object per span (with its self time),
    /// then one per slice boundary. `run` identifies the child.
    pub fn to_jsonl(&self, run: &str, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let row = json::obj([
                ("kind", json::string("span")),
                ("run", json::string(run)),
                ("workload", json::string(workload)),
                ("name", json::string(s.name)),
                ("id", json::num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| json::num(p as f64)),
                ),
                ("start_ns", json::num(s.start_ns as f64)),
                ("end_ns", json::num(s.end_ns as f64)),
                ("self_ns", json::num(self.self_ns(s.id) as f64)),
            ]);
            out.push_str(&json::to_string(&row));
            out.push('\n');
        }
        for (i, s) in self.slices.iter().enumerate() {
            let row = json::obj([
                ("kind", json::string("slice")),
                ("run", json::string(run)),
                ("workload", json::string(workload)),
                ("i", json::num(i as f64)),
                ("sim_s", json::num(s.sim_s)),
                ("host_ns", json::num(s.host_ns as f64)),
                ("events", json::num(s.events as f64)),
                ("polls", json::num(s.polls as f64)),
                ("live_tasks", json::num(s.live_tasks as f64)),
            ]);
            out.push_str(&json::to_string(&row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.add("workload", None, at(0), at(100));
        let job = tr.add("job", Some(root), at(10), at(90));
        tr.add("map", Some(job), at(10), at(50));
        tr.add("reduce_tail", Some(job), at(50), at(90));
        assert_eq!(tr.self_ns(root), 20_000_000);
        assert_eq!(tr.self_ns(job), 0);
        assert_eq!(tr.seconds("map"), 0.04);
        assert_eq!(tr.seconds("missing"), 0.0);
        let text = tr.to_jsonl("r1", "w");
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(json::get_str(&first, "name"), Ok("workload"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(json::get_num(&first, "self_ns"), Ok(20_000_000.0));
    }

    #[test]
    fn sliced_run_fires_the_same_events_as_one_run() {
        let program = |sim: &Sim| {
            for i in 0..20u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for r in 0..10u64 {
                        s.sleep(SimDuration::from_millis(37 * (i + 1) + r)).await;
                    }
                })
                .detach();
            }
        };
        let plain = Sim::new(3);
        program(&plain);
        let mut t_plain = Tracer::new(Instant::now());
        t_plain.run_sim(&plain, false, None);
        assert!(t_plain.slices.is_empty());

        let sliced = Sim::new(3);
        program(&sliced);
        let mut t = Tracer::new(Instant::now());
        t.run_sim(&sliced, true, Some(plain.now().as_secs_f64()));
        assert_eq!(sliced.trace_hash(), plain.trace_hash());
        assert_eq!(sliced.events_fired(), plain.events_fired());
        assert_eq!(t.slices.len() as u64, SLICES + 1);
        assert_eq!(t.slices.last().unwrap().events, plain.events_fired());
        // Interpolation stays inside the recorded range.
        let (_, ev) = t.at_sim(plain.now().as_secs_f64() / 2.0).unwrap();
        assert!(ev > 0 && ev < plain.events_fired());

        // No hint: 1-second slices, still the same run.
        let blind = Sim::new(3);
        program(&blind);
        Tracer::new(Instant::now()).run_sim(&blind, true, None);
        assert_eq!(blind.trace_hash(), plain.trace_hash());
    }
}
