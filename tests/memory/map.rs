//! What a parked map attempt holds on the heap.
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

use std::cell::RefCell;
use std::rc::Rc;

use rmr_core::jobtracker::MapTaskDesc;
use rmr_core::mapoutput::{MapOutputInfo, MapOutputStore};
use rmr_core::maptask::run_map;
use rmr_core::tasktracker::TaskTracker;
use rmr_core::{JobConf, JobId};
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::HdfsConfig;
use rmr_workloads::{textgen, wordcount_spec};

use super::{heap, one_worker};

/// How far the simulation runs between two looks at the heap.
const STEP: SimDuration = SimDuration::from_micros(100);

/// Runs one WordCount map attempt over `lines` lines of eight words on a
/// one-node cluster; returns the most live heap above the pre-map baseline
/// at any stop while the attempt is parked, and the number of such stops.
fn parked_peak(lines: usize) -> (isize, usize) {
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
    let out = done.borrow_mut().take().expect("the attempt finished");
    assert_eq!(out.total_records, 14, "one combined record per word");
    (peak, stops)
}

#[test]
fn a_parked_map_attempt_holds_nothing_per_token() {
    let (small, small_stops) = parked_peak(2_000);
    let (large, large_stops) = parked_peak(20_000);
    assert!(small_stops >= 10 && large_stops > small_stops);
    let budget = small + small / 10 + (64 << 10);
    assert!(
        large <= budget,
        "20 000 lines held {large} B across a charge, 2 000 lines {small} B \
         (budget {budget} B)"
    );
    // Last: under the test harness's output capture, printing allocates.
    eprintln!(
        "parked peak above baseline: 2 000 lines {small} B ({small_stops} stops), \
         20 000 lines {large} B ({large_stops} stops)"
    );
}
