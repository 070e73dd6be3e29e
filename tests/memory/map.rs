//! What a map attempt and its combiner's group table hold on the heap.
//!
//! A map attempt over real input waits on simulated charges — the split
//! read, the serde and map CPU, the combine charge, sort and spill — and a
//! busy cluster has every running attempt parked at one of them at once, so
//! what an attempt keeps across an `.await` is what the run holds. This case
//! runs one WordCount attempt over 2 000 lines and one over 20 000 lines of
//! the fourteen-word vocabulary, steps the simulation in small increments
//! and records the most live heap above the pre-map baseline at any stop.
//! Across a charge an attempt may hold its output, which the combiner caps
//! at one record per word, and nothing per token: ten times the input may
//! cost at most 10 % more plus 64 KiB. An attempt that parks holding its
//! tokens' values (24 B each) and its lines' views (48 B each) fails by
//! megabytes.
//!
//! The same law holds for the heap's high-water mark across the attempt,
//! inside its polls too: the group table fills and drains within one poll,
//! so no stop sees it. A table keeping a value per token (and a doubling
//! vector per word) fails by megabytes there; one keeping a run of equal
//! values per word holds a few kilobytes whatever the input's length. The
//! group-table case measures the table alone: a run per word however many
//! tokens repeat it, and per new key no more than the key's copy and its
//! index entry.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use rmr_core::jobtracker::MapTaskDesc;
use rmr_core::mapoutput::{MapOutputInfo, MapOutputStore};
use rmr_core::maptask::run_map;
use rmr_core::record::GroupTable;
use rmr_core::tasktracker::TaskTracker;
use rmr_core::{JobConf, JobId};
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::HdfsConfig;
use rmr_workloads::{textgen, wordcount_spec};

use super::{heap, one_worker, reset_peak};

/// How far the simulation runs between two looks at the heap.
const STEP: SimDuration = SimDuration::from_micros(100);

/// The most live heap above the pre-map baseline while a map attempt runs.
struct Peaks {
    /// At any stop while the attempt is parked.
    parked: isize,
    /// At any moment, inside a poll too.
    in_poll: isize,
    /// Stops while the attempt was parked.
    stops: usize,
}

/// Runs one WordCount map attempt over `lines` lines of eight words on a
/// one-node cluster and measures its peaks.
fn attempt_peaks(lines: usize) -> Peaks {
    let sim = Sim::new(42);
    let cluster = one_worker(
        &sim,
        HdfsConfig {
            block_size: 64 << 20,
            replication: 1,
            packet_size: 256 << 10,
        },
    );
    let conf = Rc::new(JobConf {
        num_reduces: 4,
        ..JobConf::default()
    });
    let spec = wordcount_spec("/in", "/out");
    let tt = TaskTracker::new(
        &sim,
        0,
        cluster.workers[0].clone(),
        &conf,
        MapOutputStore::new(),
        false,
        rmr_obs::Recorder::off(),
    );
    let c = cluster.clone();
    sim.spawn(async move { textgen(&c, "/in", lines, 8).await })
        .detach();
    sim.run();
    let locs = cluster.hdfs.split_locations("/in").expect("input written");
    assert_eq!(locs.len(), 1, "one block, one split");
    let desc = MapTaskDesc {
        idx: 0,
        block: locs[0].0.clone(),
        locations: locs[0].1.clone(),
    };
    let done: Rc<RefCell<Option<MapOutputInfo>>> = Rc::new(RefCell::new(None));

    reset_peak();
    let before = heap().bytes;
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let out = run_map(&cluster, &conf, &spec, &tt, JobId(0), &desc, None).await;
        *d.borrow_mut() = out;
    })
    .detach();
    let (mut peak, mut stops) = (0, 0);
    let mut until = sim.now();
    while sim.live_tasks() > 0 {
        until += STEP;
        sim.run_until(until);
        if done.borrow().is_none() {
            peak = peak.max(heap().bytes - before);
            stops += 1;
        }
    }
    let in_poll = heap().peak - before;
    let out = done.borrow_mut().take().expect("the attempt finished");
    assert_eq!(out.total_records, 14, "one combined record per word");
    Peaks {
        parked: peak,
        in_poll,
        stops,
    }
}

/// Ten times the input may cost at most 10 % more plus 64 KiB.
fn budget(small: isize) -> isize {
    small + small / 10 + (64 << 10)
}

#[test]
fn a_parked_map_attempt_holds_nothing_per_token() {
    let small = attempt_peaks(2_000);
    let large = attempt_peaks(20_000);
    assert!(small.stops >= 10 && large.stops > small.stops);
    let (s, l) = (small.parked, large.parked);
    assert!(
        l <= budget(s),
        "20 000 lines held {l} B across a charge, 2 000 lines {s} B (budget {} B)",
        budget(s)
    );
    let (s, l) = (small.in_poll, large.in_poll);
    assert!(
        l <= budget(s),
        "20 000 lines peaked {l} B inside a poll, 2 000 lines {s} B (budget {} B)",
        budget(s)
    );
    // Last: under the test harness's output capture, printing allocates.
    eprintln!(
        "peak above baseline, parked / in a poll: 2 000 lines {} / {} B ({} stops), \
         20 000 lines {} / {} B ({} stops)",
        small.parked, small.in_poll, small.stops, large.parked, large.in_poll, large.stops
    );
}

/// Live bytes and blocks `push` adds to an empty group table's heap, and the
/// table (which must outlive the measurement).
fn held(push: impl FnOnce(&mut GroupTable)) -> (GroupTable, isize, isize) {
    let mut table = GroupTable::default();
    let start = heap();
    push(&mut table);
    let end = heap();
    (table, end.bytes - start.bytes, end.blocks - start.blocks)
}

/// A combiner's group table holds a run per word, not a value per token,
/// and per new key only the key's copy and its index entry: WordCount's
/// shape (14 words, each 11 428 times, the value a shared static `"1"`)
/// within 64 KiB, where a vector of values per word held 5.5 MB; 10 000
/// distinct keys in at most the 2 888 192 B and 30 002 blocks a table with a
/// vector per key held.
#[test]
fn a_group_table_holds_runs_not_tokens() {
    let one = Bytes::from_static(b"1");
    let words: Vec<String> = (0..14).map(|w| format!("word{w}")).collect();
    let (table, bytes, _) = held(|table| {
        for _ in 0..11_428 {
            for word in &words {
                table.push(word.as_bytes(), one.clone());
            }
        }
    });
    assert_eq!(table.records(), 14 * 11_428);
    assert!(bytes <= 64 << 10, "14 words x 11 428 tokens held {bytes} B");
    let count = wordcount_spec("/in", "/out").combiner.expect("a combiner");
    let counts = table.combine(&count).to_records().expect("real");
    assert_eq!(counts.len(), 14);
    assert!(counts.iter().all(|r| r.value == b"11428"[..]));

    let (table, distinct, blocks) = held(|table| {
        for key in 0..10_000 {
            table.push(format!("w{key:06}").as_bytes(), one.clone());
        }
    });
    assert_eq!(table.records(), 10_000);
    assert!(
        distinct <= 2_888_192 && blocks <= 30_002,
        "10 000 distinct keys held {distinct} B in {blocks} blocks"
    );
    drop(table);
    eprintln!(
        "group table: 14 words x 11 428 tokens {bytes} B; \
         10 000 distinct keys {distinct} B in {blocks} blocks"
    );
}
