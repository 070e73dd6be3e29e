//! One repetition: what a child process measures and prints as one JSON
//! line, and what the parent reads back.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::trace::Tracer;

/// Arguments of one child run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepConfig {
    /// Feeds `Sim::new` (so `teragen`'s record keys follow it) and the
    /// kernels' input generator, nothing else.
    pub seed: u64,
    /// Recorder on, sliced run, spans written out.
    pub traced: bool,
    /// Inputs divided by 16.
    pub smoke: bool,
    /// Where the simulation ends (from an untraced repetition), so the
    /// traced one can lay its slice grid over exactly that interval.
    pub sim_end_s: Option<f64>,
    /// Stop once set-up is done and report `setup_s` alone: set-up is short,
    /// so the parent takes more samples of it than of whole repetitions.
    pub setup_only: bool,
}

impl RepConfig {
    /// A full-size, untraced, whole repetition at `seed`.
    pub fn plain(seed: u64) -> RepConfig {
        RepConfig {
            seed,
            traced: false,
            smoke: false,
            sim_end_s: None,
            setup_only: false,
        }
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one child measured.
pub struct Rep {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// The simulation's replay fingerprint (0 for `layer_kernels`, which
    /// has no single simulation).
    pub trace_hash: u64,
    /// Jobs submitted + output checks run.
    pub attempted: u64,
    /// Jobs unfinished + output checks failed.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// What a reader must know about this workload's inputs beyond the seed
    /// (a fixed arrival plan, how the load is generated); printed with the
    /// report and kept in every result file.
    pub notes: Vec<String>,
    /// Wall-clock instant (Unix seconds) of the child's last stamp. The
    /// parent reads the clock again when the child has exited: the
    /// difference is `phase.teardown_s`, which no process can time itself.
    pub ended_unix_s: f64,
    /// Metric name -> value. Names are the catalogue's, plus `sim_end_s`,
    /// which the parent hands the traced repetition for its slice grid.
    pub metrics: BTreeMap<String, f64>,
    /// Spans and slices (in-process only; not part of the JSON line).
    pub spans: Option<Tracer>,
}

impl Rep {
    pub fn new(workload: &str, cfg: &RepConfig) -> Rep {
        Rep {
            workload: workload.to_string(),
            seed: cfg.seed,
            traced: cfg.traced,
            smoke: cfg.smoke,
            trace_hash: 0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            ended_unix_s: 0.0,
            metrics: BTreeMap::new(),
            spans: None,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records one output check; a failed one counts in `failed`.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// The failed checks, as `name: detail`.
    pub fn failures(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect()
    }

    /// `failed / attempted` (1 when nothing was even attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn to_json(&self) -> Json {
        json::obj([
            ("workload", json::string(&self.workload)),
            ("seed", json::num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("smoke", Json::Bool(self.smoke)),
            // 64 bits do not fit a JSON number; hex keeps them all.
            (
                "trace_hash",
                json::string(format!("{:016x}", self.trace_hash)),
            ),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures().into_iter().map(json::string).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(json::string).collect()),
            ),
            ("ended_unix_s", json::num(self.ended_unix_s)),
            (
                "metrics",
                json::obj(self.metrics.iter().map(|(k, v)| (k.clone(), json::num(*v)))),
            ),
        ])
    }

    /// Reads back a child's line. Failure details come back as checks.
    pub fn from_json(v: &Json) -> Result<Rep, String> {
        let flag = |k: &str| match v.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool {k:?}")),
        };
        let hash = json::get_str(v, "trace_hash")?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing object \"metrics\"")?
            .iter()
            // A non-finite value was written as null: not measured.
            .filter_map(|(k, j)| j.as_num().map(|n| (k.clone(), n)))
            .collect();
        let checks = v
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("missing array \"failures\"")?
            .iter()
            .filter_map(Json::as_str)
            .map(|f| {
                let (name, detail) = f.split_once(": ").unwrap_or((f, ""));
                Check {
                    name: name.to_string(),
                    ok: false,
                    detail: detail.to_string(),
                }
            })
            .collect();
        let notes = v
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or("missing array \"notes\"")?
            .iter()
            .filter_map(Json::as_str)
            .map(String::from)
            .collect();
        Ok(Rep {
            workload: json::get_str(v, "workload")?.to_string(),
            seed: json::get_num(v, "seed")? as u64,
            traced: flag("traced")?,
            smoke: flag("smoke")?,
            trace_hash: u64::from_str_radix(hash, 16)
                .map_err(|e| format!("bad trace_hash {hash:?}: {e}"))?,
            attempted: json::get_num(v, "attempted")? as u64,
            failed: json::get_num(v, "failed")? as u64,
            checks,
            notes,
            ended_unix_s: json::get_num(v, "ended_unix_s")?,
            metrics,
            spans: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_line_round_trips() {
        let cfg = RepConfig {
            traced: true,
            ..RepConfig::plain(42)
        };
        let mut rep = Rep::new("terasort_osuib", &cfg);
        rep.trace_hash = 0xdead_beef_0123_4567;
        rep.notes.push("arrival plan 42".into());
        rep.ended_unix_s = 1_790_000_000.25;
        rep.attempted = 1;
        rep.set("host_wall_s", 3.7123456789);
        rep.set("des.events", 2_350_000.0);
        rep.set("unmeasured", f64::NAN);
        rep.check("fig4b_row", true, "ok".into());
        rep.check("shuffled_bytes", false, "1 vs 2".into());
        assert_eq!((rep.attempted, rep.failed), (3, 1));
        assert_eq!(rep.failures(), vec!["shuffled_bytes: 1 vs 2"]);

        let line = json::to_string(&rep.to_json());
        let back = Rep::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.workload, "terasort_osuib");
        assert_eq!(back.seed, 42);
        assert!(back.traced && !back.smoke);
        assert_eq!(back.trace_hash, 0xdead_beef_0123_4567);
        assert_eq!((back.attempted, back.failed), (3, 1));
        assert_eq!(back.get("host_wall_s"), Some(3.7123456789));
        assert_eq!(back.get("des.events"), Some(2_350_000.0));
        assert_eq!(back.get("unmeasured"), None);
        assert_eq!(back.failures(), vec!["shuffled_bytes: 1 vs 2"]);
        assert_eq!(back.failed_share(), 1.0 / 3.0);
        assert_eq!(back.notes, vec!["arrival plan 42"]);
        assert_eq!(back.ended_unix_s, 1_790_000_000.25);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in ["{}", r#"{"workload":"x"}"#, r#"{"workload":1}"#] {
            assert!(Rep::from_json(&json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }
}
