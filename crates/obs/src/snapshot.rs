//! The `Runtime::dump()` snapshot contract.
//!
//! `rmr_core` fills these plain-data structs from its live state; obs owns
//! rendering (ASCII for terminals, JSON for tooling) so the debugging view of
//! a multi-job schedule has one stable shape. Everything is copied out at
//! capture time — a snapshot stays valid after the runtime moves on.

use crate::json::Obj;

/// Per-job scheduling state at capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    pub id: u32,
    pub name: String,
    /// Coarse state string (matches `JobState` tags, e.g. "maps_done").
    pub state: String,
    pub total_maps: usize,
    pub maps_completed: usize,
    pub pending_maps: usize,
    pub running_maps: usize,
    pub total_reduces: usize,
    pub reduces_completed: usize,
    pub pending_reduces: usize,
    pub submit_s: f64,
    /// `None` while the job is still queue-waiting.
    pub first_launch_s: Option<f64>,
}

impl JobSnapshot {
    pub fn to_json(&self) -> String {
        Obj::new()
            .val("id", self.id)
            .str("name", &self.name)
            .str("state", &self.state)
            .val("total_maps", self.total_maps)
            .val("maps_completed", self.maps_completed)
            .val("pending_maps", self.pending_maps)
            .val("running_maps", self.running_maps)
            .val("total_reduces", self.total_reduces)
            .val("reduces_completed", self.reduces_completed)
            .val("pending_reduces", self.pending_reduces)
            .fixed("submit_s", self.submit_s, 6)
            .opt_fixed("first_launch_s", self.first_launch_s, 6)
            .finish()
    }
}

/// Per-TaskTracker state at capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    pub node: usize,
    pub free_map_slots: u64,
    pub total_map_slots: u64,
    pub free_reduce_slots: u64,
    pub total_reduce_slots: u64,
    /// Prefetch-cache occupancy in bytes.
    pub cache_used: u64,
    pub cache_capacity: u64,
    /// Cumulative cache hits/misses served by this node.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Open serving-side segment cursors (partially-served map outputs).
    pub serve_cursors: usize,
    /// Open serving-side disk readers.
    pub serve_readers: usize,
    /// False while the node is killed (blacklisted: no heartbeats, no
    /// assignments, outputs unrecoverable until restart).
    pub alive: bool,
    /// Restart count (0 = never killed).
    pub epoch: u64,
}

impl NodeSnapshot {
    pub fn to_json(&self) -> String {
        Obj::new()
            .val("node", self.node)
            .val("free_map_slots", self.free_map_slots)
            .val("total_map_slots", self.total_map_slots)
            .val("free_reduce_slots", self.free_reduce_slots)
            .val("total_reduce_slots", self.total_reduce_slots)
            .val("cache_used", self.cache_used)
            .val("cache_capacity", self.cache_capacity)
            .val("cache_hits", self.cache_hits)
            .val("cache_misses", self.cache_misses)
            .val("serve_cursors", self.serve_cursors)
            .val("serve_readers", self.serve_readers)
            .val("alive", self.alive)
            .val("epoch", self.epoch)
            .finish()
    }
}

/// A full cluster snapshot: what every job and node looked like at `t_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    pub t_s: f64,
    pub jobs: Vec<JobSnapshot>,
    pub nodes: Vec<NodeSnapshot>,
}

impl RuntimeSnapshot {
    pub fn to_json(&self) -> String {
        Obj::new()
            .fixed("t_s", self.t_s, 6)
            .raw(
                "jobs",
                &Obj::list(self.jobs.iter().map(JobSnapshot::to_json)),
            )
            .raw(
                "nodes",
                &Obj::list(self.nodes.iter().map(NodeSnapshot::to_json)),
            )
            .finish()
    }

    /// Human-readable rendering for terminals and debug logs.
    pub fn render(&self) -> String {
        let mut out = format!("runtime snapshot @ {:.3}s\n", self.t_s);
        let down: Vec<String> = self
            .nodes
            .iter()
            .filter(|n| !n.alive)
            .map(|n| format!("node{}", n.node))
            .collect();
        if !down.is_empty() {
            out.push_str(&format!("  DOWN: {}\n", down.join(", ")));
        }
        out.push_str(&format!("  jobs ({}):\n", self.jobs.len()));
        for j in &self.jobs {
            let wait = match j.first_launch_s {
                Some(t) => format!("launched @ {t:.3}s"),
                None => "queued".to_string(),
            };
            out.push_str(&format!(
                "    j{} {:<12} [{}] maps {}/{} (pend {}, run {})  reduces {}/{} (pend {})  submitted @ {:.3}s, {}\n",
                j.id,
                j.name,
                j.state,
                j.maps_completed,
                j.total_maps,
                j.pending_maps,
                j.running_maps,
                j.reduces_completed,
                j.total_reduces,
                j.pending_reduces,
                j.submit_s,
                wait
            ));
        }
        out.push_str(&format!("  nodes ({}):\n", self.nodes.len()));
        for n in &self.nodes {
            out.push_str(&format!(
                "    node{:<3}{} slots m {}/{} r {}/{}  cache {}/{} B ({} hit / {} miss)  cursors {} readers {}\n",
                n.node,
                if n.alive { "" } else { " [DOWN]" },
                n.total_map_slots - n.free_map_slots,
                n.total_map_slots,
                n.total_reduce_slots - n.free_reduce_slots,
                n.total_reduce_slots,
                n.cache_used,
                n.cache_capacity,
                n.cache_hits,
                n.cache_misses,
                n.serve_cursors,
                n.serve_readers
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuntimeSnapshot {
        RuntimeSnapshot {
            t_s: 12.5,
            jobs: vec![JobSnapshot {
                id: 1,
                name: "terasort".into(),
                state: "maps_done".into(),
                total_maps: 8,
                maps_completed: 8,
                pending_maps: 0,
                running_maps: 0,
                total_reduces: 2,
                reduces_completed: 1,
                pending_reduces: 0,
                submit_s: 0.0,
                first_launch_s: Some(0.25),
            }],
            nodes: vec![NodeSnapshot {
                node: 0,
                free_map_slots: 2,
                total_map_slots: 2,
                free_reduce_slots: 1,
                total_reduce_slots: 2,
                cache_used: 4096,
                cache_capacity: 1 << 20,
                cache_hits: 10,
                cache_misses: 2,
                serve_cursors: 1,
                serve_readers: 0,
                alive: true,
                epoch: 0,
            }],
        }
    }

    #[test]
    fn json_contains_every_field() {
        let json = sample().to_json();
        for key in [
            "\"t_s\":12.500000",
            "\"name\":\"terasort\"",
            "\"state\":\"maps_done\"",
            "\"first_launch_s\":0.250000",
            "\"cache_used\":4096",
            "\"serve_cursors\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // A queued job serializes first_launch_s as null.
        let mut s = sample();
        s.jobs[0].first_launch_s = None;
        assert!(s.to_json().contains("\"first_launch_s\":null"));
    }

    #[test]
    fn job_names_are_escaped() {
        let name = "a\"b\\c\nd";
        let mut s = sample();
        s.jobs[0].name = name.into();
        let doc = crate::json::parse(&s.to_json()).expect("snapshot JSON must parse");
        let jobs = doc
            .get("jobs")
            .and_then(|j| j.as_arr())
            .expect("jobs array");
        assert_eq!(jobs[0].get("name").and_then(|n| n.as_str()), Some(name));
    }

    #[test]
    fn render_mentions_jobs_and_nodes() {
        let text = sample().render();
        assert!(text.contains("j1 terasort"));
        assert!(text.contains("maps 8/8"));
        assert!(text.contains("node0"));
        assert!(text.contains("cursors 1"));
    }
}
