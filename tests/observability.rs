//! Observability gates: the recorder must be a pure *observer* — turning it
//! on may not perturb the simulated schedule (same trace hash, same job
//! outcomes), and the event stream itself must replay byte-identically from
//! the same seed. The exported Chrome trace must pass schema validation on
//! a real multi-job run.

use rmr_core::{JobResult, Runtime, SchedulePolicy, ShuffleKind};
use rmr_des::Sim;
use rmr_obs::{
    AttemptOutcome, CachePoint, Ev, Heatmap, JobSnapshot, JobState, NodeSnapshot, ObsEvent,
    QueuePoint, Recorder, RuntimeSnapshot, TaskFlavor, TenantHeatmap, ThroughputPoint,
};
use rmr_workloads::{teragen, terasort_spec, textgen, wordcount_spec};

mod support;

/// The two-job concurrent mix from the determinism gates (TeraSort +
/// WordCount through one runtime), with an explicit recorder. Returns the
/// trace hash and both job results.
fn run_two_job_mix(seed: u64, record: bool) -> (u64, Vec<JobResult>, Recorder) {
    let sim = Sim::new(seed);
    let obs = if record {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let cluster = support::cluster(&sim, ShuffleKind::OsuIb, 3, false);
    let conf = support::conf(ShuffleKind::OsuIb, 2, false);
    let obs2 = obs.clone();
    let results = sim.block_on(sim.spawn_named("multijob-driver", async move {
        teragen(&cluster, "/tera", 12 << 20, false).await;
        textgen(&cluster, "/text", 400, 12).await;
        let rt = Runtime::with_obs(&cluster, conf.clone(), SchedulePolicy::Fifo, obs2);
        let a = rt.submit(conf.clone(), terasort_spec("/tera", "/out-a"));
        let b = rt.submit(conf.clone(), wordcount_spec("/text", "/out-b"));
        let ra = rt.join(a).await;
        let rb = rt.join(b).await;
        vec![ra, rb]
    }));
    (sim.trace_hash(), results, obs)
}

#[test]
fn recorder_does_not_perturb_the_simulation() {
    let (hash_off, res_off, rec_off) = run_two_job_mix(43, false);
    let (hash_on, res_on, rec_on) = run_two_job_mix(43, true);
    assert!(rec_off.is_empty(), "off recorder captured events");
    assert!(!rec_on.is_empty(), "on recorder captured nothing");
    assert_eq!(
        hash_off, hash_on,
        "recorder-on changed the event schedule (trace hash)"
    );
    for (a, b) in res_off.iter().zip(&res_on) {
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.shuffled_bytes, b.shuffled_bytes);
        assert_eq!(a.maps, b.maps);
        assert_eq!(a.reduces, b.reduces);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
    }
}

#[test]
fn obs_stream_replays_byte_identically() {
    let (hash_a, _, rec_a) = run_two_job_mix(77, true);
    let (hash_b, _, rec_b) = run_two_job_mix(77, true);
    assert_eq!(hash_a, hash_b);
    let jsonl_a = rec_a.to_jsonl();
    assert_eq!(jsonl_a, rec_b.to_jsonl(), "obs streams diverged");
    assert!(jsonl_a.contains("\"ev\":\"heartbeat\""));
    assert!(jsonl_a.contains("\"ev\":\"shuffle_response\""));
    assert!(jsonl_a.contains("\"ev\":\"attempt_finish\""));
}

#[test]
fn chrome_trace_from_a_real_run_validates() {
    let (_, results, rec) = run_two_job_mix(43, true);
    let events = rec.events();
    let doc = rmr_obs::chrome_trace(&events);
    let check = rmr_obs::validate_chrome_trace(&doc).expect("trace must validate");
    let attempts: usize = results.iter().map(|r| r.maps + r.reduces).sum();
    assert!(
        check.n_spans >= attempts,
        "expected >= {attempts} spans, got {}",
        check.n_spans
    );
    assert!(check.n_counters > 0, "no heartbeat counter samples");
    assert!(check.n_instants > 0, "no job-state instants");
}

fn at_ns(t_ns: u64, ev: Ev) -> ObsEvent {
    ObsEvent { t_ns, ev }
}

/// Every artifact `probe obs` and `probe service` write, byte for byte: one
/// event of each `Ev` variant, one point of each series, both heatmaps (JSON
/// and ASCII), a snapshot with a queued job, and a small Chrome trace.
#[test]
fn artifact_formats_are_pinned() {
    use TaskFlavor::{Map, Reduce};
    let events = vec![
        at_ns(
            1000,
            Ev::SlotAcquire {
                node: 1,
                job: 2,
                kind: Map,
                idx: 3,
            },
        ),
        at_ns(
            2000,
            Ev::SlotRelease {
                node: 1,
                job: 2,
                kind: Reduce,
                idx: 4,
            },
        ),
        at_ns(
            3000,
            Ev::AttemptStart {
                node: 0,
                job: 5,
                kind: Map,
                idx: 6,
            },
        ),
        at_ns(
            4000,
            Ev::AttemptFinish {
                node: 0,
                job: 5,
                kind: Reduce,
                idx: 6,
                outcome: AttemptOutcome::Preempted,
            },
        ),
        at_ns(
            5000,
            Ev::Heartbeat {
                node: 2,
                active_jobs: 1,
                pending_maps: 4,
                pending_reduces: 2,
                free_map_slots: 0,
                free_reduce_slots: 1,
            },
        ),
        at_ns(
            6000,
            Ev::JobState {
                job: 9,
                state: JobState::FirstLaunch,
            },
        ),
        at_ns(
            7000,
            Ev::ShuffleRequest {
                node: 1,
                server: 2,
                job: 0,
                map_idx: 5,
                reduce: 1,
            },
        ),
        at_ns(
            8000,
            Ev::ShuffleResponse {
                node: 2,
                job: 0,
                map_idx: 5,
                reduce: 1,
                bytes: 4096,
                records: 40,
                from_cache: true,
                serve_ns: 1000,
            },
        ),
        at_ns(
            9000,
            Ev::MergeBatch {
                node: 1,
                job: 0,
                reduce: 1,
                records: 100,
                bytes: 9999,
            },
        ),
        at_ns(
            10_000,
            Ev::Spill {
                node: 1,
                job: 0,
                reduce: 1,
                bytes: 5000,
            },
        ),
        at_ns(
            11_000,
            Ev::CacheHit {
                node: 0,
                job: 1,
                map_idx: 2,
                bytes: 10,
            },
        ),
        at_ns(
            12_000,
            Ev::CacheMiss {
                node: 0,
                job: 1,
                map_idx: 3,
                bytes: 20,
            },
        ),
        at_ns(
            13_000,
            Ev::CacheInsert {
                node: 0,
                job: 1,
                map_idx: 3,
                bytes: 20,
                demand: true,
            },
        ),
        at_ns(
            14_000,
            Ev::CacheEvict {
                node: 0,
                job: 1,
                map_idx: 2,
                bytes: 10,
            },
        ),
        at_ns(15_000, Ev::NodeDown { node: 3 }),
        at_ns(16_000, Ev::NodeUp { node: 3, epoch: 2 }),
        at_ns(
            17_000,
            Ev::AttemptLost {
                node: 3,
                job: 1,
                kind: Map,
                idx: 7,
            },
        ),
        at_ns(
            18_000,
            Ev::MapReExecute {
                node: 3,
                job: 1,
                idx: 7,
            },
        ),
        at_ns(19_000, Ev::JobQueued { job: 12, queue: 1 }),
        at_ns(
            20_000,
            Ev::CombineFold {
                node: 2,
                job: 0,
                maps: 4,
                bytes_in: 4000,
                bytes_out: 1000,
            },
        ),
    ];
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(
        jsonl,
        r#"{"t_ns":1000,"ev":"slot_acquire","node":1,"job":2,"kind":"map","idx":3}
{"t_ns":2000,"ev":"slot_release","node":1,"job":2,"kind":"reduce","idx":4}
{"t_ns":3000,"ev":"attempt_start","node":0,"job":5,"kind":"map","idx":6}
{"t_ns":4000,"ev":"attempt_finish","node":0,"job":5,"kind":"reduce","idx":6,"outcome":"preempted"}
{"t_ns":5000,"ev":"heartbeat","node":2,"active_jobs":1,"pending_maps":4,"pending_reduces":2,"free_map_slots":0,"free_reduce_slots":1}
{"t_ns":6000,"ev":"job_state","job":9,"state":"first_launch"}
{"t_ns":7000,"ev":"shuffle_request","node":1,"server":2,"job":0,"map_idx":5,"reduce":1}
{"t_ns":8000,"ev":"shuffle_response","node":2,"job":0,"map_idx":5,"reduce":1,"bytes":4096,"records":40,"from_cache":true,"serve_ns":1000}
{"t_ns":9000,"ev":"merge_batch","node":1,"job":0,"reduce":1,"records":100,"bytes":9999}
{"t_ns":10000,"ev":"spill","node":1,"job":0,"reduce":1,"bytes":5000}
{"t_ns":11000,"ev":"cache_hit","node":0,"job":1,"map_idx":2,"bytes":10}
{"t_ns":12000,"ev":"cache_miss","node":0,"job":1,"map_idx":3,"bytes":20}
{"t_ns":13000,"ev":"cache_insert","node":0,"job":1,"map_idx":3,"bytes":20,"demand":true}
{"t_ns":14000,"ev":"cache_evict","node":0,"job":1,"map_idx":2,"bytes":10}
{"t_ns":15000,"ev":"node_down","node":3}
{"t_ns":16000,"ev":"node_up","node":3,"epoch":2}
{"t_ns":17000,"ev":"attempt_lost","node":3,"job":1,"kind":"map","idx":7}
{"t_ns":18000,"ev":"map_re_execute","node":3,"job":1,"idx":7}
{"t_ns":19000,"ev":"job_queued","job":12,"queue":1}
{"t_ns":20000,"ev":"combine_fold","node":2,"job":0,"maps":4,"bytes_in":4000,"bytes_out":1000}
"#
    );

    let queue = QueuePoint {
        t_s: 1.5,
        node: 2,
        active_jobs: 1,
        pending_maps: 4,
        pending_reduces: 2,
        free_map_slots: 0,
        free_reduce_slots: 1,
    };
    assert_eq!(
        queue.to_json(),
        r#"{"t_s":1.500000,"node":2,"active_jobs":1,"pending_maps":4,"pending_reduces":2,"free_map_slots":0,"free_reduce_slots":1}"#
    );
    let cache = CachePoint {
        t_s: 2.25,
        job: 7,
        hits: 2,
        misses: 1,
        hit_bytes: 300,
        miss_bytes: 100,
        prefetch_insert_bytes: 400,
        demand_insert_bytes: 100,
        evicted_bytes: 50,
    };
    assert_eq!(
        cache.to_json(),
        r#"{"t_s":2.250000,"job":7,"hits":2,"misses":1,"hit_ratio":0.6667,"hit_bytes":300,"miss_bytes":100,"prefetch_insert_bytes":400,"demand_insert_bytes":100,"evicted_bytes":50}"#
    );
    let throughput = ThroughputPoint {
        t_s: 5.0,
        node: 1,
        bytes: 2000,
        responses: 2,
        cache_hits: 1,
    };
    assert_eq!(
        throughput.to_json(),
        r#"{"t_s":5.000000,"node":1,"bytes":2000,"responses":2,"cache_hits":1}"#
    );

    let heatmap = Heatmap {
        t0_s: 0.5,
        bucket_s: 2.0,
        node_stride: 2,
        rows: vec![vec![1.0, 0.5], vec![0.0, 0.25]],
    };
    assert_eq!(
        heatmap.to_json(),
        r#"{"t0_s":0.500000,"bucket_s":2.000000,"node_stride":2,"nodes":2,"buckets":2,"rows":[[1.0000,0.5000],[0.0000,0.2500]]}"#
    );
    assert_eq!(
        heatmap.to_ascii(),
        "slot occupancy — 2 nodes x 2 buckets of 2.00s (max 1.00 slots)\n\
         node  0 |@+|\n\
         node  2 | :|\n"
    );
    let tenants = TenantHeatmap {
        what: "lost \"attempts\"".into(),
        t0_s: 1.0,
        bucket_s: 0.5,
        tenants: vec![0, 3],
        rows: vec![vec![2.0, 0.0], vec![1.0, 4.0]],
    };
    assert_eq!(
        tenants.to_json(),
        r#"{"what":"lost \"attempts\"","t0_s":1.000000,"bucket_s":0.500000,"tenants":[0,3],"buckets":2,"rows":[[2.0000,0.0000],[1.0000,4.0000]]}"#
    );
    assert_eq!(
        tenants.to_ascii(),
        "lost \"attempts\" — 2 tenants x 2 buckets of 0.50s (max 4.000)\n\
         tenant  0 |+ |\n\
         tenant  3 |:@|\n"
    );

    let job = |id: u32, name: &str, state: &str, first_launch_s: Option<f64>| JobSnapshot {
        id,
        name: name.into(),
        state: state.into(),
        total_maps: 8,
        maps_completed: 4,
        pending_maps: 3,
        running_maps: 1,
        total_reduces: 2,
        reduces_completed: 0,
        pending_reduces: 2,
        submit_s: 0.25,
        first_launch_s,
    };
    let snapshot = RuntimeSnapshot {
        t_s: 12.5,
        jobs: vec![
            job(1, "terasort", "first_launch", Some(1.125)),
            job(2, "word\tcount", "submitted", None),
        ],
        nodes: vec![NodeSnapshot {
            node: 0,
            free_map_slots: 1,
            total_map_slots: 2,
            free_reduce_slots: 2,
            total_reduce_slots: 2,
            cache_used: 4096,
            cache_capacity: 1 << 20,
            cache_hits: 10,
            cache_misses: 2,
            serve_cursors: 1,
            serve_readers: 0,
            alive: false,
            epoch: 1,
        }],
    };
    assert_eq!(
        snapshot.to_json(),
        r#"{"t_s":12.500000,"jobs":[{"id":1,"name":"terasort","state":"first_launch","total_maps":8,"maps_completed":4,"pending_maps":3,"running_maps":1,"total_reduces":2,"reduces_completed":0,"pending_reduces":2,"submit_s":0.250000,"first_launch_s":1.125000},{"id":2,"name":"word\tcount","state":"submitted","total_maps":8,"maps_completed":4,"pending_maps":3,"running_maps":1,"total_reduces":2,"reduces_completed":0,"pending_reduces":2,"submit_s":0.250000,"first_launch_s":null}],"nodes":[{"node":0,"free_map_slots":1,"total_map_slots":2,"free_reduce_slots":2,"total_reduce_slots":2,"cache_used":4096,"cache_capacity":1048576,"cache_hits":10,"cache_misses":2,"serve_cursors":1,"serve_readers":0,"alive":false,"epoch":1}]}"#
    );

    let trace = rmr_obs::chrome_trace(&[
        at_ns(
            0,
            Ev::JobState {
                job: 0,
                state: JobState::Submitted,
            },
        ),
        at_ns(
            500_000_000,
            Ev::AttemptStart {
                node: 0,
                job: 0,
                kind: Map,
                idx: 0,
            },
        ),
        at_ns(
            1_000_000_000,
            Ev::Heartbeat {
                node: 1,
                active_jobs: 1,
                pending_maps: 2,
                pending_reduces: 1,
                free_map_slots: 0,
                free_reduce_slots: 1,
            },
        ),
        at_ns(
            1_500_000_000,
            Ev::AttemptStart {
                node: 1,
                job: 0,
                kind: Reduce,
                idx: 0,
            },
        ),
        at_ns(
            2_000_001_234,
            Ev::AttemptFinish {
                node: 0,
                job: 0,
                kind: Map,
                idx: 0,
                outcome: AttemptOutcome::Completed,
            },
        ),
        at_ns(
            2_250_000_000,
            Ev::AttemptFinish {
                node: 1,
                job: 0,
                kind: Reduce,
                idx: 0,
                outcome: AttemptOutcome::Discarded,
            },
        ),
        at_ns(
            2_500_000_000,
            Ev::JobState {
                job: 0,
                state: JobState::Finished,
            },
        ),
    ]);
    assert_eq!(
        trace,
        r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"node0"}},
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"node1"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"map lane 0"}},
{"ph":"M","pid":1,"tid":100,"name":"thread_name","args":{"name":"reduce lane 0"}},
{"ph":"M","pid":999,"tid":0,"name":"process_name","args":{"name":"jobs"}},
{"ph":"X","pid":0,"tid":0,"ts":500000.000,"dur":1500001.234,"name":"j0 map 0","cat":"map","args":{"job":0,"idx":0,"outcome":"completed"}},
{"ph":"X","pid":1,"tid":100,"ts":1500000.000,"dur":750000.000,"name":"j0 reduce 0","cat":"reduce","args":{"job":0,"idx":0,"outcome":"discarded"}},
{"ph":"i","pid":999,"tid":0,"ts":0.000,"s":"g","name":"j0 submitted","args":{"job":0,"state":"submitted"}},
{"ph":"C","pid":1,"tid":0,"ts":1000000.000,"name":"queue depth","args":{"pending_maps":2,"pending_reduces":1}},
{"ph":"i","pid":999,"tid":0,"ts":2500000.000,"s":"g","name":"j0 finished","args":{"job":0,"state":"finished"}}
]}
"#
    );
}
