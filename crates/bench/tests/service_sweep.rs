//! Thread-count invariance gate for the service probe's fan-out: the same
//! two-policy service grid must produce byte-identical per-tenant latency
//! rows (`ServiceReport::tenants_jsonl`, the `--hist-dir` artifact) — and
//! identical trace hashes — at 1, 2, and 4 worker threads.

use rmr_bench::service::service_spec;
use rmr_bench::sweep::sweep_map;
use rmr_load::{run_service, ServicePolicy};

#[cfg(debug_assertions)]
const SCALE: (usize, usize) = (4, 14); // nodes, jobs
#[cfg(not(debug_assertions))]
const SCALE: (usize, usize) = (16, 80);

#[test]
fn tenant_rows_are_byte_identical_at_any_thread_count() {
    let (nodes, jobs) = SCALE;
    let cases = [
        ServicePolicy::Fifo,
        ServicePolicy::Capacity { preempt: true },
    ];
    let runs: Vec<(String, Vec<u64>)> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let reports = sweep_map(&cases, threads, |&policy, _| {
                run_service(&service_spec(nodes, jobs, 7, policy, false))
            });
            let jsonl: String = reports.iter().map(|r| r.tenants_jsonl()).collect();
            let hashes: Vec<u64> = reports.iter().map(|r| r.trace_hash).collect();
            (jsonl, hashes)
        })
        .collect();
    assert!(runs[0].0.lines().count() == 4, "2 tenants per policy");
    assert!(runs[0].0.contains("\"latency_p99_s\":"));
    for (i, threads) in [2usize, 4].into_iter().enumerate() {
        assert_eq!(
            runs[0].0,
            runs[i + 1].0,
            "rows differ between 1 and {threads} threads"
        );
        assert_eq!(
            runs[0].1,
            runs[i + 1].1,
            "trace hashes differ between 1 and {threads} threads"
        );
    }
}
