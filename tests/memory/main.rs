//! Heap budgets for the state the engines keep per connection, per
//! (map, reduce) pair, per parked attempt, per output record, per open file
//! and per spawned task. Every case measures through the one counting
//! allocator, `rmr_des::heap::Counting`, installed below;
//! `the_allocator_counts` checks that it is installed and counting, so no
//! budget can pass because nothing was measured, and `the_census_attributes_the_peak`
//! that its census names what held the peak.

mod conn;
mod map;
mod open;
mod output;
mod serve;
mod spawn;

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_des::heap::{end_census, heap, reset_peak, start_census, Class, Counting, Heap};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;

#[global_allocator]
static ALLOC: Counting = Counting;

/// A one-worker cluster on the QDR verbs fabric.
fn one_worker(sim: &Sim, hdfs: HdfsConfig) -> Cluster {
    Cluster::build(
        sim,
        FabricParams::ib_verbs_qdr(),
        &[NodeSpec::westmere_compute()],
        hdfs,
    )
}

#[test]
fn the_allocator_counts() {
    reset_peak();
    let start = heap();
    let v = std::hint::black_box(Vec::<u8>::with_capacity(1000));
    let held = heap();
    drop(v);
    let end = heap();
    assert_eq!(
        (
            held.bytes - start.bytes,
            held.blocks - start.blocks,
            held.peak - start.peak,
            held.calls - start.calls
        ),
        (1000, 1, 1000, 1),
        "a 1 000-byte vector"
    );
    assert_eq!(
        end,
        Heap {
            peak: held.peak,
            calls: held.calls,
            ..start
        },
        "the vector dropped, its bytes kept in the high-water mark"
    );
    reset_peak();
    assert_eq!(heap().peak, end.bytes, "a reset peak is what is live");
}

#[test]
fn the_census_attributes_the_peak() {
    let class = |size, blocks, bytes| Class {
        size,
        blocks,
        bytes,
    };
    start_census();
    let small: Vec<Box<[u8; 40]>> = (0..4096).map(|_| Box::new([0; 40])).collect();
    let big = vec![0u8; 3 << 20];
    std::hint::black_box((&small, &big));
    drop((small, big));
    let census = end_census().expect("a census ran");
    assert_eq!(end_census(), None, "ended");
    let peak = (3 << 20) + 4096 * 40 + 4096 * 8;
    assert_eq!((census.peak_bytes, census.allocs), (peak, 4098));
    assert_eq!(census.snap_bytes, peak, "the peak came in one step");
    assert_eq!(
        census.classes,
        [
            class(4 << 20, 1, 3 << 20),
            class(40, 4096, 4096 * 40),
            class(32 << 10, 1, 32 << 10),
        ],
        "sizes above 4 KiB fall in power-of-two classes"
    );
}
