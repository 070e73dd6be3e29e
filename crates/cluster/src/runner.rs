//! Figure points and their result rows: an [`Experiment`] is one
//! (system, size, testbed) point of a paper figure, a [`RunRecord`] the row
//! it produces in `results/*.jsonl`. Running a point is
//! [`Experiment::scenario`] handed to [`run_scenario`]; each simulation is
//! single-threaded and `!Send`, so parallelism lives *across* runs (see
//! `rmr_bench::sweep`).

use rmr_core::JobResult;
use rmr_obs::json::Obj;

use crate::scenario::{gb_to_bytes, run_scenario, Job, Scenario};
use crate::testbed::{Bench, System, Testbed};

/// One experiment point.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment/figure id (e.g. "fig4a"), echoed into the record.
    pub id: String,
    /// Which benchmark.
    pub bench: Bench,
    /// Which system.
    pub system: System,
    /// Cluster shape.
    pub testbed: Testbed,
    /// Dataset size in gigabytes (the x-axis of the paper's figures).
    pub data_gb: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Override the tuned HDFS block size (tuning sweeps).
    pub block_size_override: Option<u64>,
    /// Override the OSU-IB packet byte budget (tuning sweeps).
    pub osu_packet_override: Option<u64>,
}

impl Experiment {
    /// A standard experiment point with no tuning overrides.
    pub fn new(
        id: impl Into<String>,
        bench: Bench,
        system: System,
        testbed: Testbed,
        data_gb: f64,
        seed: u64,
    ) -> Experiment {
        Experiment {
            id: id.into(),
            bench,
            system,
            testbed,
            data_gb,
            seed,
            block_size_override: None,
            osu_packet_override: None,
        }
    }

    /// This point as a scenario: the tuned (system, bench, testbed) setup,
    /// one job over `data_gb` of generated input.
    pub fn scenario(&self) -> Scenario {
        let mut sc = Scenario::tuned(
            "experiment-driver",
            self.system,
            self.bench,
            self.testbed.clone(),
            self.seed,
        );
        if let Some(b) = self.block_size_override {
            sc.hdfs.block_size = b;
        }
        if let Some(p) = self.osu_packet_override {
            sc.conf.osu_packet_bytes = p;
        }
        let bytes = gb_to_bytes(self.data_gb);
        sc.jobs = vec![Job::sort_bench(
            self.bench,
            "/bench/in",
            "/bench/out",
            bytes,
        )];
        sc
    }
}

/// Current [`RunRecord`] wire-format version, emitted as the `schema`
/// field. A record of any other version, or without the field, does not
/// parse.
/// The full field catalogue lives in DESIGN.md §"RunRecord schema".
pub const RUN_RECORD_SCHEMA: u32 = 2;

/// One row of results, serialisable for EXPERIMENTS.md regeneration.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Experiment id.
    pub id: String,
    /// Benchmark label.
    pub bench: String,
    /// System label.
    pub system: String,
    /// Worker count.
    pub nodes: usize,
    /// Disks per node.
    pub disks: usize,
    /// SSD data store?
    pub ssd: bool,
    /// Dataset size, GB.
    pub data_gb: f64,
    /// Job execution time, seconds — the paper's y-axis.
    pub duration_s: f64,
    /// Time the map wave finished.
    pub map_phase_end_s: f64,
    /// Map task count.
    pub maps: usize,
    /// Reduce task count.
    pub reduces: usize,
    /// Bytes shuffled.
    pub shuffled_bytes: u64,
    /// PrefetchCache hit rate (0 when caching disabled).
    pub cache_hit_rate: f64,
    /// Map attempts that failed and were re-executed.
    pub failed_maps: usize,
    /// Reduce attempts that failed and were re-executed.
    pub failed_reduces: usize,
    /// Seconds between job submission and its first launched attempt.
    pub queue_wait_s: f64,
    /// Fraction of the cluster's slot-seconds this job occupied while active.
    pub slot_occupancy: f64,
}

impl RunRecord {
    /// One JSON object, tagged with [`RUN_RECORD_SCHEMA`]; floats print in
    /// their `Display` form.
    pub fn to_json(&self) -> String {
        Obj::new()
            .val("schema", RUN_RECORD_SCHEMA)
            .str("id", &self.id)
            .str("bench", &self.bench)
            .str("system", &self.system)
            .val("nodes", self.nodes)
            .val("disks", self.disks)
            .val("ssd", self.ssd)
            .val("data_gb", self.data_gb)
            .val("duration_s", self.duration_s)
            .val("map_phase_end_s", self.map_phase_end_s)
            .val("maps", self.maps)
            .val("reduces", self.reduces)
            .val("shuffled_bytes", self.shuffled_bytes)
            .val("cache_hit_rate", self.cache_hit_rate)
            .val("failed_maps", self.failed_maps)
            .val("failed_reduces", self.failed_reduces)
            .val("queue_wait_s", self.queue_wait_s)
            .val("slot_occupancy", self.slot_occupancy)
            .finish()
    }

    /// Parses a record produced by [`RunRecord::to_json`]. Field order is
    /// free and unknown keys are ignored; a missing field, or a `schema`
    /// other than [`RUN_RECORD_SCHEMA`], is an error.
    pub fn from_json(json: &str) -> Result<RunRecord, String> {
        let doc = rmr_obs::json::parse(json)?;
        let obj = doc.as_obj().ok_or("expected a JSON object")?;
        let field = |key: &str| obj.get(key).ok_or(format!("{key}: missing"));
        let num = |key: &str| -> Result<f64, String> {
            field(key)?
                .as_num()
                .ok_or(format!("{key}: expected number"))
        };
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("{key}: expected string"))
        };
        let schema = num("schema")?;
        if schema != RUN_RECORD_SCHEMA as f64 {
            return Err(format!(
                "schema: expected {RUN_RECORD_SCHEMA}, got {schema}"
            ));
        }
        Ok(RunRecord {
            id: text("id")?,
            bench: text("bench")?,
            system: text("system")?,
            nodes: num("nodes")? as usize,
            disks: num("disks")? as usize,
            ssd: match field("ssd")? {
                rmr_obs::json::Json::Bool(b) => *b,
                _ => return Err("ssd: expected bool".into()),
            },
            data_gb: num("data_gb")?,
            duration_s: num("duration_s")?,
            map_phase_end_s: num("map_phase_end_s")?,
            maps: num("maps")? as usize,
            reduces: num("reduces")? as usize,
            shuffled_bytes: num("shuffled_bytes")? as u64,
            cache_hit_rate: num("cache_hit_rate")?,
            failed_maps: num("failed_maps")? as usize,
            failed_reduces: num("failed_reduces")? as usize,
            queue_wait_s: num("queue_wait_s")?,
            slot_occupancy: num("slot_occupancy")?,
        })
    }

    /// The row for one finished job: `bench` and `data_gb` describe the
    /// workload, the rest comes from the testbed and the result.
    pub fn new(
        id: String,
        bench: &str,
        system: System,
        testbed: &Testbed,
        data_gb: f64,
        res: &JobResult,
    ) -> RunRecord {
        let lookups = res.cache_hits + res.cache_misses;
        RunRecord {
            id,
            bench: bench.to_string(),
            system: system.label().to_string(),
            nodes: testbed.nodes,
            disks: testbed.disks,
            ssd: testbed.ssd,
            data_gb,
            duration_s: res.duration_s,
            map_phase_end_s: res.map_phase_end_s,
            maps: res.maps,
            reduces: res.reduces,
            shuffled_bytes: res.shuffled_bytes,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                res.cache_hits as f64 / lookups as f64
            },
            failed_maps: res.failed_map_attempts,
            failed_reduces: res.failed_reduce_attempts,
            queue_wait_s: res.queue_wait_s,
            slot_occupancy: res.slot_occupancy,
        }
    }
}

/// Runs one experiment point (synthetic data plane) to completion inside
/// its own simulation.
pub fn run_experiment(exp: &Experiment) -> RunRecord {
    run_experiment_traced(exp).0
}

/// [`run_experiment`] plus the simulation's replay-identity trace hash —
/// the determinism fingerprint the sweep gates compare across thread
/// counts. Panics with the [`crate::Hung`] report if the run hangs.
pub fn run_experiment_traced(exp: &Experiment) -> (RunRecord, u64) {
    let report = run_scenario(&exp.scenario()).unwrap_or_else(|hung| panic!("{hung}"));
    let rec = RunRecord::new(
        exp.id.clone(),
        exp.bench.label(),
        exp.system,
        &exp.testbed,
        exp.data_gb,
        &report.jobs[0],
    );
    (rec, report.trace_hash)
}

/// Formats records as an aligned text table grouped the way the paper's
/// figures are (one row per size, one column per system).
pub fn format_table(records: &[RunRecord]) -> String {
    use std::collections::BTreeMap;
    let mut systems: Vec<String> = Vec::new();
    let mut rows: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    for r in records {
        let key = format!(
            "{} ({}d{})",
            r.system,
            if r.ssd { "ssd " } else { "" },
            r.disks
        );
        if !systems.contains(&key) {
            systems.push(key.clone());
        }
        rows.entry((r.data_gb * 1000.0) as u64)
            .or_default()
            .insert(key, r.duration_s);
    }
    let mut out = String::new();
    out.push_str(&format!("{:>10}", "Size(GB)"));
    for s in &systems {
        out.push_str(&format!(" | {s:>28}"));
    }
    out.push('\n');
    for (gb, cols) in rows {
        out.push_str(&format!("{:>10.0}", gb as f64 / 1000.0));
        for s in &systems {
            match cols.get(s) {
                Some(v) => out.push_str(&format!(" | {v:>26.0}s ")),
                None => out.push_str(&format!(" | {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp(system: System) -> Experiment {
        Experiment::new(
            "test",
            Bench::TeraSort,
            system,
            Testbed::compute(2, 1),
            0.5,
            1,
        )
    }

    #[test]
    fn single_experiment_completes() {
        let rec = run_experiment(&tiny_exp(System::OsuIb));
        assert!(rec.duration_s > 0.0);
        assert!(rec.maps > 0);
        assert_eq!(rec.reduces, 8);
        assert!(rec.cache_hit_rate > 0.0, "caching enabled → hits expected");
    }

    #[test]
    fn json_round_trips_escapes_and_fields() {
        let rec = RunRecord {
            id: "fig\"4a\"\n".to_string(),
            bench: "TeraSort".to_string(),
            system: "OSU-IB".to_string(),
            nodes: 8,
            disks: 2,
            ssd: true,
            data_gb: 12.5,
            duration_s: 98.25,
            map_phase_end_s: 40.5,
            maps: 160,
            reduces: 64,
            shuffled_bytes: 1 << 33,
            cache_hit_rate: 0.75,
            failed_maps: 2,
            failed_reduces: 1,
            queue_wait_s: 3.25,
            slot_occupancy: 0.625,
        };
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.ssd, rec.ssd);
        assert_eq!(back.shuffled_bytes, rec.shuffled_bytes);
        assert_eq!(back.cache_hit_rate, rec.cache_hit_rate);
        assert_eq!(back.failed_maps, 2);
        assert_eq!(back.failed_reduces, 1);
        assert_eq!(back.queue_wait_s, rec.queue_wait_s);
        assert_eq!(back.slot_occupancy, rec.slot_occupancy);
    }

    #[test]
    fn format_table_lists_all_systems() {
        let recs = [System::IpoIb, System::OsuIb].map(|s| run_experiment(&tiny_exp(s)));
        let table = format_table(&recs);
        assert!(table.contains("IPoIB"));
        assert!(table.contains("OSU-IB"));
    }
}
