//! `compare A.json B.json`: applies each end-to-end metric's bound to every
//! (metric, workload) row of two result sets, A being the parent.
//!
//! * worse — B's median is worse than A's by more than the bound; or, when
//!   both sets were built from the same source (the stamp's tree hash, not
//!   its commit: an uncommitted change shares its parent's `HEAD`), a
//!   simulated value, a count or a trace hash differs at all — one source
//!   and one seed must replay to the bit.
//! * unresolved — A's own interquartile spread exceeds the bound, so the
//!   two medians cannot be told apart at that resolution.
//! * unchanged — everything else, improvements included.

use crate::json::{self, Json};
use crate::metrics::{self, Better, Clock, Kind, MetricDef};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, in the metric's unit (negative: better).
fn worse_by(m: &MetricDef, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// The verdict for one row. `same_source` demands bit-equality of anything
/// not read from the host clock; between two sources such values may move,
/// and are held to their bound like any other.
pub fn judge(m: &MetricDef, a: &Summary, b: &Summary, same_source: bool) -> Verdict {
    if m.clock != Clock::Host && same_source {
        return if a.median == b.median && a.is_exact() && b.is_exact() {
            Verdict::Unchanged
        } else {
            Verdict::Worse
        };
    }
    let Some(bound) = m.bound else {
        return Verdict::Unchanged; // per-layer metrics carry no bound
    };
    let allowance = bound.allowance(a.median);
    if m.clock == Clock::Host && a.n > 1 && (a.q3 - a.q1) > allowance {
        return Verdict::Unresolved;
    }
    if worse_by(m, a.median, b.median) > allowance {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One judged row.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Judges every row the two result sets share. End-to-end metrics always;
/// per-layer simulated values and counts only within one source, where they
/// must be identical.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Line>, String> {
    let tree = |v: &Json| -> Result<String, String> {
        let stamp = v.get("stamp").ok_or("missing \"stamp\"")?;
        Ok(json::get_str(stamp, "tree")?.to_string())
    };
    let same_source = tree(a)? == tree(b)?
        && json::get_num(a, "seed")? == json::get_num(b, "seed")?
        && a.get("smoke") == b.get("smoke");
    let workloads = |v: &'_ Json| {
        v.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("missing object \"workloads\"")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else { continue };
        if same_source {
            let (ha, hb) = (
                json::get_str(ra, "trace_hash")?,
                json::get_str(rb, "trace_hash")?,
            );
            lines.push(Line {
                workload: name.clone(),
                metric: format!("trace_hash {ha} vs {hb}"),
                a: 0.0,
                b: 0.0,
                verdict: if ha == hb {
                    Verdict::Unchanged
                } else {
                    Verdict::Worse
                },
            });
        }
        let rows = |r: &Json| r.get("metrics").and_then(Json::as_obj).cloned();
        let (Some(ma), Some(mb)) = (rows(ra), rows(rb)) else {
            return Err(format!("{name}: missing object \"metrics\""));
        };
        for m in metrics::CATALOGUE {
            let judged = m.kind == Kind::EndToEnd || (same_source && m.clock != Clock::Host);
            let (Some(sa), Some(sb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            if !judged {
                continue;
            }
            let (sa, sb) = (Summary::from_json(sa)?, Summary::from_json(sb)?);
            lines.push(Line {
                workload: name.clone(),
                metric: m.name.to_string(),
                a: sa.median,
                b: sb.median,
                verdict: judge(m, &sa, &sb, same_source),
            });
        }
    }
    Ok(lines)
}

/// Prints the verdict table; returns how many rows are worse.
pub fn print(lines: &[Line]) -> usize {
    println!(
        "{:<18} {:<58} {:>14} {:>14}  verdict",
        "workload", "metric", "A median", "B median"
    );
    for l in lines {
        // Identical exact rows are the expected bulk: print the rest, and
        // every end-to-end row.
        let e2e = metrics::find(&l.metric).is_some_and(|m| m.kind == Kind::EndToEnd);
        if e2e || l.verdict != Verdict::Unchanged || l.metric.starts_with("trace_hash") {
            println!(
                "{:<18} {:<58} {:>14} {:>14}  {}",
                l.workload,
                l.metric,
                crate::runner::fmt(l.a),
                crate::runner::fmt(l.b),
                l.verdict.as_str()
            );
        }
    }
    let count = |v: Verdict| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "{} worse, {} unchanged, {} unresolved over {} rows",
        count(Verdict::Worse),
        count(Verdict::Unchanged),
        count(Verdict::Unresolved),
        lines.len()
    );
    count(Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
            n: 5,
        }
    }

    fn spread(median: f64, iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
            min: median - iqr,
            max: median + iqr,
            n: 5,
        }
    }

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn host_rows_use_the_bound_and_the_parents_spread() {
        let wall = def("host_wall_s"); // Rel(0.10)
        let a = spread(10.0, 0.4);
        assert_eq!(
            judge(wall, &a, &spread(10.9, 0.4), false),
            Verdict::Unchanged
        );
        assert_eq!(judge(wall, &a, &spread(11.1, 0.4), false), Verdict::Worse);
        assert_eq!(
            judge(wall, &a, &spread(5.0, 0.4), false),
            Verdict::Unchanged
        );
        // Parent IQR 1.5 > allowance 1.0: cannot resolve, however far B is.
        let noisy = spread(10.0, 1.5);
        assert_eq!(
            judge(wall, &noisy, &spread(10.1, 0.1), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &noisy, &spread(20.0, 0.1), false),
            Verdict::Unresolved
        );
        // A single sample has no spread to exceed anything.
        let single = Summary { n: 1, ..noisy };
        assert_eq!(
            judge(wall, &single, &spread(13.0, 0.1), true),
            Verdict::Worse
        );
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = def("setup_s"); // max(15 %, 0.1 s)
        assert_eq!(
            judge(setup, &exact(0.08), &exact(0.17), false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(setup, &exact(0.08), &exact(0.19), false),
            Verdict::Worse
        );
        assert_eq!(
            judge(setup, &exact(2.0), &exact(2.25), false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(setup, &exact(2.0), &exact(2.4), false),
            Verdict::Worse
        );
    }

    #[test]
    fn sim_rows_are_exact_within_a_source_and_bounded_across() {
        let sim = def("sim_job_s"); // Rel(0.01)
        let a = exact(1144.88911095);
        assert_eq!(judge(sim, &a, &a, true), Verdict::Unchanged);
        assert_eq!(judge(sim, &a, &exact(1144.88911096), true), Verdict::Worse);
        // Even a *better* value is a replay failure inside one source.
        assert_eq!(judge(sim, &a, &exact(1000.0), true), Verdict::Worse);
        // Repetitions that disagree among themselves are one too.
        assert_eq!(
            judge(sim, &a, &spread(1144.88911095, 0.1), true),
            Verdict::Worse
        );
        assert_eq!(judge(sim, &a, &exact(1150.0), false), Verdict::Unchanged);
        assert_eq!(judge(sim, &a, &exact(1160.0), false), Verdict::Worse);
        assert_eq!(judge(sim, &a, &exact(1000.0), false), Verdict::Unchanged);
    }

    #[test]
    fn absolute_bounds_and_counts() {
        let err = def("paper_err_ipoib_pts"); // Abs(0.5)
        assert_eq!(
            judge(err, &exact(3.8), &exact(4.2), false),
            Verdict::Unchanged
        );
        assert_eq!(judge(err, &exact(3.8), &exact(4.4), false), Verdict::Worse);
        let failed = def("failed_share"); // any increase
        assert_eq!(
            judge(failed, &exact(0.0), &exact(0.0), false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(failed, &exact(0.0), &exact(0.01), false),
            Verdict::Worse
        );
        // Per-layer counts: judged only within one source, then exactly.
        let events = def("des.events");
        assert_eq!(
            judge(events, &exact(10.0), &exact(11.0), false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(events, &exact(10.0), &exact(11.0), true),
            Verdict::Worse
        );
        // Higher-is-better metrics flip the direction.
        let hit = MetricDef {
            bound: Some(metrics::Bound::Abs(0.05)),
            ..*def("prefetch.hit_rate")
        };
        assert_eq!(judge(&hit, &exact(0.9), &exact(0.8), false), Verdict::Worse);
        assert_eq!(
            judge(&hit, &exact(0.9), &exact(0.99), false),
            Verdict::Unchanged
        );
    }

    fn set(tree: &str, wall: f64, sim: f64, hash: &str) -> Json {
        let row = |s: Summary| s.to_json();
        json::obj([
            (
                "stamp",
                json::obj([
                    // Both sets sit on one HEAD: only the tree tells them apart.
                    ("commit", json::string("b639922")),
                    ("tree", json::string(tree)),
                ]),
            ),
            ("seed", json::num(42.0)),
            ("smoke", Json::Bool(false)),
            (
                "workloads",
                json::obj([(
                    "terasort_osuib",
                    json::obj([
                        ("trace_hash", json::string(hash)),
                        (
                            "metrics",
                            json::obj([
                                ("host_wall_s", row(spread(wall, 0.1))),
                                ("sim_job_s", row(exact(sim))),
                                ("des.events", row(exact(2_348_436.0))),
                                ("des.host_us_per_event", row(exact(wall))),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn canned_sets_compare_row_by_row() {
        let a = set("c1", 6.0, 1144.9, "aa");
        // Same source, same numbers: all unchanged, hash and count rows too.
        let same = compare(&a, &set("c1", 6.2, 1144.9, "aa")).unwrap();
        assert_eq!(same.len(), 4);
        assert!(same.iter().all(|l| l.verdict == Verdict::Unchanged));
        // Same source, hash and sim value moved: two worse rows.
        let moved = compare(&a, &set("c1", 6.0, 1145.0, "bb")).unwrap();
        let worse: Vec<&str> = moved
            .iter()
            .filter(|l| l.verdict == Verdict::Worse)
            .map(|l| l.metric.as_str())
            .collect();
        assert_eq!(worse, vec!["trace_hash aa vs bb", "sim_job_s"]);
        // An uncommitted change against its parent (same HEAD, another tree):
        // no hash row, no per-layer row, and a moved sim value is judged by
        // its bound, not as a replay failure.
        let other = compare(&a, &set("c2", 7.8, 1150.0, "bb")).unwrap();
        assert_eq!(other.len(), 2);
        assert_eq!(other[0].metric, "host_wall_s");
        assert_eq!(other[0].verdict, Verdict::Worse);
        assert_eq!(other[1].verdict, Verdict::Unchanged);
        assert!(compare(&Json::Null, &a).is_err());
    }
}
