//! What a TaskTracker's shuffle server keeps per (map, reduce) pair.
//!
//! Every reducer of a job pulls from every map, so the map-output registry
//! and the server's serve state are sized by maps × reduces — at the
//! 256-node scale point, 262 144 pairs. This case registers 64 synthetic
//! map outputs on one TaskTracker, stages them in its PrefetchCache, and
//! asks for one packet of every (map, reduce) pair — each partition
//! half-served, from the cache, so no disk reader is opened. A synthetic
//! output's even split is three numbers whatever its partition count (a
//! segment per partition costs 40 B each), a served pair costs at most 40 B
//! (a B-tree entry with a segment copy per pair costs over 100), and once
//! the job is cleaned up the heap is back where it started.
//!
//! A Hadoop-A TaskTracker has no cache: it reads the disk for every request
//! and keeps each half-served partition's reader open. The second case
//! half-serves every pair from the node's local filesystem, and an open
//! reader may add at most 64 B to the pair (a reader holding its own copy of
//! the filesystem, the disk and the path costs about 200).

use std::rc::Rc;

use rmr_core::mapoutput::{MapOutputInfo, MapOutputStore, Partitions};
use rmr_core::prefetch::Priority;
use rmr_core::proto::{PacketBudget, ShufMsg};
use rmr_core::tasktracker::TaskTracker;
use rmr_core::{HashPartitioner, JobConf, JobId, Segment};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;

use super::{heap, one_worker};

const J: JobId = JobId(0);
/// Map outputs registered on the TaskTracker.
const MAPS: usize = 64;
/// Partitions of the measured outputs.
const REDUCES: usize = 64;
/// Bytes in one partition; 100-byte records.
const PART_BYTES: u64 = 64 << 10;
/// What a served pair may cost.
const BUDGET_PER_PAIR: isize = 40;
/// What an open disk reader may add to a served pair.
const BUDGET_PER_READER: isize = 64;

/// What one round added, in live heap bytes.
#[derive(Debug)]
struct Round {
    /// Per registered output.
    registry: isize,
    /// Per served (map, reduce) pair.
    serve: isize,
    /// Left over once the job is cleaned up, above the round's start.
    left: isize,
}

/// The output file of map `m`.
fn file(m: usize) -> String {
    format!("{J}_map_{m}.out")
}

/// Stages, registers and half-serves `MAPS` outputs of `parts` partitions
/// each, then cleans the job up. With `from_disk` the outputs are written
/// to the node's filesystem (before the round's start, and deleted after
/// its end) instead of staged in the cache, and every pair is read from
/// disk.
fn round(sim: &Sim, tt: &Rc<TaskTracker>, parts: usize, from_disk: bool) -> Round {
    let bytes = PART_BYTES * parts as u64;
    if from_disk {
        let fs = tt.node.fs.clone();
        sim.spawn(async move {
            for m in 0..MAPS {
                let w = fs.writer(&file(m)).unwrap();
                w.append(bytes).await.unwrap();
            }
        })
        .detach();
        sim.run();
    }
    let start = heap().bytes;
    if !from_disk {
        for m in 0..MAPS {
            assert!(tt.cache.insert((J, m), bytes, Priority::Prefetch));
        }
    }

    let before = heap().bytes;
    for m in 0..MAPS {
        let output = Segment::synthetic(bytes / 100, bytes);
        tt.outputs.insert(MapOutputInfo {
            job: J,
            map_idx: m,
            tt_idx: 0,
            node: tt.node.id,
            file: file(m),
            total_bytes: bytes,
            total_records: bytes / 100,
            parts: Partitions::split(output, parts, &HashPartitioner),
        });
    }
    let registry = (heap().bytes - before) / MAPS as isize;

    let before = heap().bytes;
    let server = Rc::clone(tt);
    sim.spawn(async move {
        for m in 0..MAPS {
            for r in 0..parts {
                let budget = PacketBudget::Bytes(PART_BYTES / 2);
                let ShufMsg::Response {
                    packet,
                    remaining_records,
                    from_cache,
                    ..
                } = server.serve(J, m, r, 0, budget).await
                else {
                    panic!("map {m} is held here")
                };
                assert_eq!(from_cache, !from_disk);
                assert!(packet.records > 0 && remaining_records > 0);
            }
        }
    })
    .detach();
    sim.run();
    let readers = if from_disk { MAPS * parts } else { 0 };
    assert_eq!(tt.serve_state_counts(), (MAPS * parts, readers));
    let serve = (heap().bytes - before) / (MAPS * parts) as isize;

    tt.cleanup_job(J);
    tt.outputs.remove_job(J);
    let left = heap().bytes - start;
    if from_disk {
        for m in 0..MAPS {
            tt.node.fs.delete(&file(m)).unwrap();
        }
    }
    Round {
        registry,
        serve,
        left,
    }
}

/// One worker's TaskTracker; `cache_enabled` as the design decides.
fn tracker(sim: &Sim, cache_enabled: bool) -> Rc<TaskTracker> {
    TaskTracker::new(
        sim,
        0,
        one_worker(sim, HdfsConfig::default()).workers[0].clone(),
        &JobConf::default(),
        MapOutputStore::new(),
        cache_enabled,
        rmr_obs::Recorder::off(),
    )
}

#[test]
fn serve_state_is_one_small_slot_per_pair() {
    let sim = Sim::new(3);
    let tt = tracker(&sim, true);
    // The first round also grows what the simulation keeps for good (the
    // event queue, the cache's per-job counters); the others are measured.
    let warm = round(&sim, &tt, REDUCES, false);
    let one = round(&sim, &tt, 1, false);
    let wide = round(&sim, &tt, REDUCES, false);
    assert!(
        wide.registry <= one.registry,
        "an output of {REDUCES} partitions holds {} B, of one {} B",
        wide.registry,
        one.registry
    );
    assert!(
        wide.serve <= BUDGET_PER_PAIR,
        "a served pair holds {} B (budget {BUDGET_PER_PAIR} B)",
        wide.serve
    );
    assert_eq!((one.left, wide.left), (0, 0), "cleanup frees the round");
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("rounds: warm {warm:?}, one partition {one:?}, {REDUCES} partitions {wide:?}");
}

#[test]
fn a_disk_served_pair_holds_one_small_reader() {
    let sim = Sim::new(3);
    let tt = tracker(&sim, false);
    // The first round also grows what the simulation keeps for good; the
    // second is measured.
    let warm = round(&sim, &tt, REDUCES, true);
    let disk = round(&sim, &tt, REDUCES, true);
    assert!(
        disk.serve <= BUDGET_PER_PAIR + BUDGET_PER_READER,
        "a pair with an open reader holds {} B (budget {} B)",
        disk.serve,
        BUDGET_PER_PAIR + BUDGET_PER_READER
    );
    assert_eq!(disk.left, 0, "cleanup frees the round");
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("rounds: warm {warm:?}, from disk {disk:?}");
}
