//! Service-run reports: per-tenant latency histograms, fairness shares,
//! and the scalar outputs the bench harness turns into rows.

use rmr_des::Histogram;
use rmr_obs::json::Obj;

use crate::service::ServicePolicy;

/// Latency/fairness rollup for one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub queue: u32,
    /// Per-mille slot guarantee the run was configured with (0 under FIFO).
    pub share_mille: u32,
    /// Finished jobs.
    pub jobs: usize,
    /// End-to-end job latency: submission → finish, seconds.
    pub latency: Histogram,
    /// Queue wait: submission → first attempt launch, seconds.
    pub wait: Histogram,
    /// Execution: first launch → finish, seconds.
    pub exec: Histogram,
    /// Slot-seconds all the tenant's attempts consumed.
    pub slot_secs: f64,
    /// Fraction of the run's total slot-seconds this tenant got.
    pub slot_share: f64,
}

impl TenantReport {
    pub fn new(queue: u32, share_mille: u32) -> Self {
        TenantReport {
            queue,
            share_mille,
            jobs: 0,
            latency: Histogram::new(),
            wait: Histogram::new(),
            exec: Histogram::new(),
            slot_secs: 0.0,
            slot_share: 0.0,
        }
    }

    /// One flat JSON object for artifact export.
    pub fn to_json(&self) -> String {
        Obj::new()
            .val("tenant", self.queue)
            .val("share_mille", self.share_mille)
            .val("jobs", self.jobs)
            .fixed("latency_p50_s", self.latency.p50(), 6)
            .fixed("latency_p95_s", self.latency.p95(), 6)
            .fixed("latency_p99_s", self.latency.p99(), 6)
            .fixed("latency_mean_s", self.latency.mean(), 6)
            .fixed("latency_max_s", self.latency.max(), 6)
            .fixed("wait_p50_s", self.wait.p50(), 6)
            .fixed("wait_p99_s", self.wait.p99(), 6)
            .fixed("exec_p50_s", self.exec.p50(), 6)
            .fixed("exec_p99_s", self.exec.p99(), 6)
            .fixed("slot_secs", self.slot_secs, 3)
            .fixed("slot_share", self.slot_share, 4)
            .finish()
    }
}

/// Whole-run report.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub policy: ServicePolicy,
    pub nodes: usize,
    pub seed: u64,
    /// Total finished jobs across tenants.
    pub jobs: usize,
    /// Per-tenant rollups, sorted by queue id.
    pub tenants: Vec<TenantReport>,
    /// Virtual time of the last job finish, seconds.
    pub makespan_s: f64,
    /// Slot-seconds used / slot-seconds offered over the makespan.
    pub utilization: f64,
    /// Replay fingerprint of the whole run.
    pub trace_hash: u64,
    pub events_fired: u64,
    pub polls: u64,
    /// `Runtime::state_footprint().total()` after all joins (0 = no leak).
    pub footprint_total: usize,
    /// The obs event stream, when the spec asked for recording.
    pub events: Vec<rmr_obs::ObsEvent>,
}

impl ServiceReport {
    pub fn tenant(&self, queue: u32) -> &TenantReport {
        self.tenants
            .iter()
            .find(|t| t.queue == queue)
            .expect("unknown tenant queue")
    }

    pub fn policy_label(&self) -> &'static str {
        match self.policy {
            ServicePolicy::Fifo => "fifo",
            ServicePolicy::Capacity { preempt: false } => "cap",
            ServicePolicy::Capacity { preempt: true } => "cap+preempt",
        }
    }

    /// Human-readable summary table.
    pub fn to_ascii(&self) -> String {
        let mut out = format!(
            "service {} — {} jobs / {} nodes, makespan {:.1}s, utilization {:.1}%\n\
             tenant  share  jobs   p50      p95      p99      wait-p99  slot-share\n",
            self.policy_label(),
            self.jobs,
            self.nodes,
            self.makespan_s,
            self.utilization * 100.0,
        );
        for t in &self.tenants {
            out.push_str(&format!(
                "t{:<5}  {:>4}‰  {:>4}  {:>7.1}s {:>7.1}s {:>7.1}s {:>8.1}s  {:>6.1}%\n",
                t.queue,
                t.share_mille,
                t.jobs,
                t.latency.p50(),
                t.latency.p95(),
                t.latency.p99(),
                t.wait.p99(),
                t.slot_share * 100.0,
            ));
        }
        out
    }

    /// One JSON line per tenant (latency-histogram artifact export).
    pub fn tenants_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_exports() {
        let mut t = TenantReport::new(1, 700);
        for i in 0..100 {
            t.jobs += 1;
            t.latency.record(1.0 + i as f64);
            t.wait.record(0.5);
            t.exec.record(0.5 + i as f64);
            t.slot_secs += 8.0;
        }
        t.slot_share = 1.0;
        let rep = ServiceReport {
            policy: ServicePolicy::Capacity { preempt: true },
            nodes: 4,
            seed: 42,
            jobs: 100,
            tenants: vec![t],
            makespan_s: 120.0,
            utilization: 0.5,
            trace_hash: 7,
            events_fired: 1,
            polls: 1,
            footprint_total: 0,
            events: Vec::new(),
        };
        assert_eq!(rep.policy_label(), "cap+preempt");
        assert_eq!(rep.tenant(1).jobs, 100);
        let ascii = rep.to_ascii();
        assert!(ascii.contains("cap+preempt"));
        assert!(ascii.contains("t1"));
        let jsonl = rep.tenants_jsonl();
        assert!(jsonl.starts_with("{\"tenant\":1,"));
        assert!(jsonl.contains("\"latency_p99_s\""));
        assert!(jsonl.trim_end().lines().count() == 1);
    }
}
