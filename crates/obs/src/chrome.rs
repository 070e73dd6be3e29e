//! Chrome trace-event JSON export and schema validation.
//!
//! The exported document follows the Trace Event Format accepted by
//! `chrome://tracing` and Perfetto: `{"traceEvents": [...]}` where each
//! element is one of
//!
//! * `ph:"M"` metadata — `process_name` per node (pid = node index) and
//!   `thread_name` per lane (map lanes `tid = lane`, reduce lanes
//!   `tid = 100 + lane`);
//! * `ph:"X"` complete spans — one per task attempt, `ts`/`dur` in
//!   microseconds (fractional, exact: integer nanoseconds divided by 1000);
//! * `ph:"C"` counters — per-node pending queue depth from heartbeats;
//! * `ph:"i"` instants — job state transitions on a synthetic "jobs"
//!   process (`pid = JOBS_PID`).
//!
//! Timestamps are derived from integer sim nanoseconds, so the exported
//! document is byte-identical across seeded runs.

use std::fmt::Display;

use crate::event::{Ev, ObsEvent};
use crate::json::{parse, Json, Obj};
use crate::span::{assign_lanes, spans_from_events, Span};

/// Synthetic pid hosting job-lifecycle instant events.
pub const JOBS_PID: u64 = 999;

/// Reduce lanes are offset so map/reduce tracks sort apart within a node.
pub const REDUCE_TID_BASE: usize = 100;

fn us(t_ns: u64) -> String {
    // Exact microseconds with nanosecond resolution: 1234 ns → "1.234".
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn span_tid(s: &Span, lane: usize) -> usize {
    match s.kind {
        crate::event::TaskFlavor::Map => lane,
        crate::event::TaskFlavor::Reduce => REDUCE_TID_BASE + lane,
    }
}

/// Render the full event stream as a Chrome trace-event JSON document.
pub fn chrome_trace(events: &[ObsEvent]) -> String {
    let spans = spans_from_events(events);
    let lanes = assign_lanes(&spans);
    let mut rows: Vec<String> = Vec::new();

    // Metadata: name each node process and each lane thread we will emit.
    let mut tracks: Vec<(usize, usize)> = spans
        .iter()
        .zip(&lanes)
        .map(|(s, &lane)| (s.node, span_tid(s, lane)))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    // Heartbeat counters reference nodes even when no attempt completed
    // there, so name the union of span nodes and heartbeat nodes.
    let mut nodes: std::collections::BTreeSet<usize> = tracks.iter().map(|&(n, _)| n).collect();
    for e in events {
        if let Ev::Heartbeat { node, .. } = &e.ev {
            nodes.insert(*node);
        }
    }
    for node in &nodes {
        rows.push(meta(node, 0, "process_name", &format!("node{node}")));
    }
    for (node, tid) in &tracks {
        let lane_name = if *tid >= REDUCE_TID_BASE {
            format!("reduce lane {}", tid - REDUCE_TID_BASE)
        } else {
            format!("map lane {tid}")
        };
        rows.push(meta(node, *tid, "thread_name", &lane_name));
    }
    rows.push(meta(JOBS_PID, 0, "process_name", "jobs"));

    // Spans: one X event per attempt.
    for (s, &lane) in spans.iter().zip(&lanes) {
        let start_ns = (s.start_s * 1e9).round() as u64;
        let dur_ns = ((s.end_s - s.start_s).max(0.0) * 1e9).round() as u64;
        let args = Obj::new()
            .val("job", s.job)
            .val("idx", s.idx)
            .str("outcome", s.outcome.as_str());
        rows.push(
            Obj::new()
                .str("ph", "X")
                .val("pid", s.node)
                .val("tid", span_tid(s, lane))
                .raw("ts", &us(start_ns))
                .raw("dur", &us(dur_ns))
                .str("name", &format!("j{} {} {}", s.job, s.kind.as_str(), s.idx))
                .str("cat", s.kind.as_str())
                .raw("args", &args.finish())
                .finish(),
        );
    }

    // Counters and instants straight off the stream.
    for e in events {
        match &e.ev {
            Ev::Heartbeat {
                node,
                pending_maps,
                pending_reduces,
                ..
            } => {
                let args = Obj::new()
                    .val("pending_maps", pending_maps)
                    .val("pending_reduces", pending_reduces);
                rows.push(
                    Obj::new()
                        .str("ph", "C")
                        .val("pid", node)
                        .val("tid", 0)
                        .raw("ts", &us(e.t_ns))
                        .str("name", "queue depth")
                        .raw("args", &args.finish())
                        .finish(),
                );
            }
            Ev::JobState { job, state } => {
                let args = Obj::new().val("job", job).str("state", state.as_str());
                rows.push(
                    Obj::new()
                        .str("ph", "i")
                        .val("pid", JOBS_PID)
                        .val("tid", 0)
                        .raw("ts", &us(e.t_ns))
                        .str("s", "g")
                        .str("name", &format!("j{job} {}", state.as_str()))
                        .raw("args", &args.finish())
                        .finish(),
                );
            }
            _ => {}
        }
    }

    let doc = Obj::new().raw("traceEvents", &format!("[\n{}\n]", rows.join(",\n")));
    doc.finish() + "\n"
}

/// A metadata record naming process `pid` (`what = "process_name"`) or its
/// thread `tid` (`"thread_name"`).
fn meta(pid: impl Display, tid: usize, what: &str, name: &str) -> String {
    Obj::new()
        .str("ph", "M")
        .val("pid", pid)
        .val("tid", tid)
        .str("name", what)
        .raw("args", &Obj::new().str("name", name).finish())
        .finish()
}

/// Summary of a validated trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheck {
    pub n_events: usize,
    pub n_spans: usize,
    pub n_counters: usize,
    pub n_instants: usize,
    pub n_processes: usize,
}

/// Validate a Chrome trace document against the schema `chrome_trace` emits.
///
/// Checks: well-formed JSON; top-level `traceEvents` array; every element an
/// object with a known `ph`; `X` events carry numeric `ts`/`dur`, a `name`,
/// and pid/tid; every `X`/`C` pid has a `process_name` metadata record; spans
/// on the same (pid, tid) track never overlap.
pub fn validate_chrome_trace(doc: &str) -> Result<TraceCheck, String> {
    let root = parse(doc)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut named_pids = std::collections::BTreeSet::new();
    let mut used_pids = std::collections::BTreeSet::new();
    let mut check = TraceCheck {
        n_events: events.len(),
        n_spans: 0,
        n_counters: 0,
        n_instants: 0,
        n_processes: 0,
    };
    // (pid, tid) → sorted list of (ts, ts+dur) for overlap detection.
    let mut tracks: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        let obj = e.as_obj().ok_or(format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} missing \"ph\""))?;
        let pid = obj.get("pid").and_then(Json::as_num);
        match ph {
            "M" => {
                let name = obj
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("metadata event {i} missing name"))?;
                if name == "process_name" {
                    check.n_processes += 1;
                    named_pids.insert(pid.ok_or(format!("metadata event {i} missing pid"))? as u64);
                }
            }
            "X" => {
                check.n_spans += 1;
                let pid = pid.ok_or(format!("span {i} missing pid"))? as u64;
                let tid = obj
                    .get("tid")
                    .and_then(Json::as_num)
                    .ok_or(format!("span {i} missing tid"))? as u64;
                let ts = obj
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or(format!("span {i} missing numeric ts"))?;
                let dur = obj
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or(format!("span {i} missing numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("span {i} has negative dur"));
                }
                obj.get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i} missing name"))?;
                used_pids.insert(pid);
                tracks.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            "C" => {
                check.n_counters += 1;
                used_pids.insert(pid.ok_or(format!("counter {i} missing pid"))? as u64);
                obj.get("args")
                    .and_then(|a| a.as_obj())
                    .ok_or(format!("counter {i} missing args object"))?;
            }
            "i" => {
                check.n_instants += 1;
                used_pids.insert(pid.ok_or(format!("instant {i} missing pid"))? as u64);
            }
            other => return Err(format!("event {i} has unknown ph \"{other}\"")),
        }
    }

    for pid in &used_pids {
        if !named_pids.contains(pid) {
            return Err(format!("pid {pid} has events but no process_name metadata"));
        }
    }
    for ((pid, tid), mut iv) in tracks {
        iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in iv.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(format!(
                    "overlapping spans on pid {pid} tid {tid}: [{}, {}) and [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptOutcome, JobState, TaskFlavor};

    fn at(t_s: f64, ev: Ev) -> ObsEvent {
        ObsEvent {
            t_ns: (t_s * 1e9) as u64,
            ev,
        }
    }

    fn demo_events() -> Vec<ObsEvent> {
        vec![
            at(
                0.0,
                Ev::JobState {
                    job: 0,
                    state: JobState::Submitted,
                },
            ),
            at(
                0.5,
                Ev::AttemptStart {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 0,
                },
            ),
            at(
                0.6,
                Ev::AttemptStart {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 1,
                },
            ),
            at(
                1.0,
                Ev::Heartbeat {
                    node: 0,
                    active_jobs: 1,
                    pending_maps: 2,
                    pending_reduces: 1,
                    free_map_slots: 0,
                    free_reduce_slots: 1,
                },
            ),
            at(
                2.0,
                Ev::AttemptFinish {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 0,
                    outcome: AttemptOutcome::Completed,
                },
            ),
            at(
                2.5,
                Ev::AttemptFinish {
                    node: 0,
                    job: 0,
                    kind: TaskFlavor::Map,
                    idx: 1,
                    outcome: AttemptOutcome::Completed,
                },
            ),
            at(
                3.0,
                Ev::AttemptStart {
                    node: 1,
                    job: 0,
                    kind: TaskFlavor::Reduce,
                    idx: 0,
                },
            ),
            at(
                4.0,
                Ev::AttemptFinish {
                    node: 1,
                    job: 0,
                    kind: TaskFlavor::Reduce,
                    idx: 0,
                    outcome: AttemptOutcome::Completed,
                },
            ),
            at(
                4.0,
                Ev::JobState {
                    job: 0,
                    state: JobState::Finished,
                },
            ),
        ]
    }

    #[test]
    fn exported_trace_validates() {
        let doc = chrome_trace(&demo_events());
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.n_spans, 3);
        assert_eq!(check.n_counters, 1);
        assert_eq!(check.n_instants, 2);
        // Two worker nodes plus the synthetic jobs process.
        assert_eq!(check.n_processes, 3);
        // Overlapping maps on node 0 landed on distinct lanes.
        assert!(doc.contains("\"tid\":0"));
        assert!(doc.contains("\"tid\":1"));
        // Reduce track is offset.
        assert!(doc.contains(&format!("\"tid\":{REDUCE_TID_BASE}")));
    }

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_000_007), "1000000.007");
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"Z\"}]}").is_err());
        // Span without process metadata.
        let doc = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":5,\"tid\":0,\"ts\":0,\"dur\":1,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(doc).unwrap_err().contains("pid 5"));
        // Overlapping spans on one track.
        let doc = "{\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"n\"}},\
            {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":10,\"name\":\"a\"},\
            {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":5,\"dur\":10,\"name\":\"b\"}]}";
        assert!(validate_chrome_trace(doc)
            .unwrap_err()
            .contains("overlapping"));
    }

    #[test]
    fn empty_stream_yields_minimal_valid_trace() {
        let doc = chrome_trace(&[]);
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.n_spans, 0);
        assert_eq!(check.n_processes, 1); // the jobs process
    }
}
