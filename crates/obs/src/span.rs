//! Attempt spans: pairing start/finish events, the one record of each task
//! attempt, and the swimlane layout over them.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{AttemptOutcome, Ev, ObsEvent, TaskFlavor};

/// One task attempt rendered as a closed interval on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub node: usize,
    pub job: u32,
    pub kind: TaskFlavor,
    pub idx: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub outcome: AttemptOutcome,
}

/// Pair `AttemptStart`/`AttemptFinish` events into spans.
///
/// Attempts are matched FIFO per `(node, job, kind, idx)` key: one key can
/// see two attempts, because a failed map re-runs and may land on the same
/// node. Unfinished attempts are dropped — callers working from a
/// completed run never see any.
pub fn spans_from_events(events: &[ObsEvent]) -> Vec<Span> {
    let mut open: BTreeMap<(usize, u32, TaskFlavor, usize), VecDeque<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    for e in events {
        match &e.ev {
            Ev::AttemptStart {
                node,
                job,
                kind,
                idx,
            } => {
                open.entry((*node, *job, *kind, *idx))
                    .or_default()
                    .push_back(e.t_s());
            }
            Ev::AttemptFinish {
                node,
                job,
                kind,
                idx,
                outcome,
            } => {
                if let Some(start_s) = open
                    .get_mut(&(*node, *job, *kind, *idx))
                    .and_then(|q| q.pop_front())
                {
                    spans.push(Span {
                        node: *node,
                        job: *job,
                        kind: *kind,
                        idx: *idx,
                        start_s,
                        end_s: e.t_s(),
                        outcome: *outcome,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// Assign each span a lane (per node and flavor) such that overlapping spans
/// on the same node never share a lane — the Chrome-trace "thread" layout.
/// Returns lane indices parallel to `spans`; lanes are reused greedily in
/// first-fit order so the track count equals peak concurrency.
pub fn assign_lanes(spans: &[Span]) -> Vec<usize> {
    // Sort indices by (node, kind, start) so first-fit packing is stable.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let sa = &spans[a];
        let sb = &spans[b];
        (sa.node, sa.kind)
            .cmp(&(sb.node, sb.kind))
            .then(sa.start_s.total_cmp(&sb.start_s))
            .then((sa.idx, a).cmp(&(sb.idx, b)))
    });
    let mut lanes = vec![0usize; spans.len()];
    // Per (node, kind): the end time of the last span placed in each lane.
    let mut free_at: BTreeMap<(usize, TaskFlavor), Vec<f64>> = BTreeMap::new();
    for i in order {
        let s = &spans[i];
        let ends = free_at.entry((s.node, s.kind)).or_default();
        let lane = ends
            .iter()
            .position(|&end| end <= s.start_s)
            .unwrap_or(ends.len());
        if lane == ends.len() {
            ends.push(s.end_s);
        } else {
            ends[lane] = s.end_s;
        }
        lanes[i] = lane;
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, ev: Ev) -> ObsEvent {
        ObsEvent {
            t_ns: (t_s * 1e9) as u64,
            ev,
        }
    }

    fn start(t_s: f64, node: usize, idx: usize, kind: TaskFlavor) -> ObsEvent {
        ev(
            t_s,
            Ev::AttemptStart {
                node,
                job: 0,
                kind,
                idx,
            },
        )
    }

    fn finish(t_s: f64, node: usize, idx: usize, kind: TaskFlavor) -> ObsEvent {
        ev(
            t_s,
            Ev::AttemptFinish {
                node,
                job: 0,
                kind,
                idx,
                outcome: AttemptOutcome::Completed,
            },
        )
    }

    #[test]
    fn pairs_starts_and_finishes_fifo() {
        let events = vec![
            start(0.0, 0, 0, TaskFlavor::Map),
            start(1.0, 0, 0, TaskFlavor::Map), // second attempt, same key
            finish(2.0, 0, 0, TaskFlavor::Map),
            finish(5.0, 0, 0, TaskFlavor::Map),
            start(9.0, 1, 1, TaskFlavor::Map), // never finishes → dropped
        ];
        let spans = spans_from_events(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start_s, spans[0].end_s), (0.0, 2.0));
        assert_eq!((spans[1].start_s, spans[1].end_s), (1.0, 5.0));
    }

    #[test]
    fn lanes_never_overlap_within_a_node() {
        let spans = spans_from_events(&[
            start(0.0, 0, 0, TaskFlavor::Map),
            start(1.0, 0, 1, TaskFlavor::Map),
            finish(2.0, 0, 0, TaskFlavor::Map),
            start(2.0, 0, 2, TaskFlavor::Map), // reuses lane 0 (ends at exactly 2.0)
            finish(3.0, 0, 1, TaskFlavor::Map),
            finish(4.0, 0, 2, TaskFlavor::Map),
        ]);
        let lanes = assign_lanes(&spans);
        assert_eq!(lanes.len(), 3);
        // Overlapping spans get distinct lanes.
        for i in 0..spans.len() {
            for j in (i + 1)..spans.len() {
                let (a, b) = (&spans[i], &spans[j]);
                let overlap = a.start_s < b.end_s && b.start_s < a.end_s;
                if overlap && a.node == b.node && a.kind == b.kind {
                    assert_ne!(lanes[i], lanes[j], "spans {i} and {j} share a lane");
                }
            }
        }
        // Peak concurrency is 2, so only lanes {0, 1} are used.
        assert!(lanes.iter().all(|&l| l < 2));
    }
}
