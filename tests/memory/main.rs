//! Heap budgets for the state the engines keep per connection, per
//! (map, reduce) pair, per parked attempt, per output record, per open file
//! and per spawned task. Every case measures through the one counting
//! allocator below; `the_allocator_counts` checks that it is installed and
//! counting, so no budget can pass because nothing was measured.

mod conn;
mod map;
mod open;
mod output;
mod serve;
mod spawn;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;

/// What this thread has on the heap: live bytes and blocks, net of frees,
/// the most live bytes since the last [`reset_peak`], and the allocation
/// calls (`alloc`, `alloc_zeroed`, `realloc`) it made. The simulation is
/// single-threaded, so the test thread's count is the run's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Heap {
    bytes: isize,
    blocks: isize,
    peak: isize,
    calls: usize,
}

thread_local! {
    static HEAP: Cell<Heap> = const {
        Cell::new(Heap {
            bytes: 0,
            blocks: 0,
            peak: 0,
            calls: 0,
        })
    };
}

fn track(bytes: isize, blocks: isize, calls: usize) {
    // `try_with`: the allocator also runs while the thread tears down.
    let _ = HEAP.try_with(|heap| {
        let h = heap.get();
        heap.set(Heap {
            bytes: h.bytes + bytes,
            blocks: h.blocks + blocks,
            peak: h.peak.max(h.bytes + bytes),
            calls: h.calls + calls,
        });
    });
}

/// Starts a new high-water mark at what is live now.
fn reset_peak() {
    HEAP.with(|heap| {
        let h = heap.get();
        heap.set(Heap { peak: h.bytes, ..h });
    });
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the wrapper only
// counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize, 1, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize, 1, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        track(-(layout.size() as isize), -1, 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            track(new_size as isize - layout.size() as isize, 0, 1);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn heap() -> Heap {
    HEAP.with(Cell::get)
}

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
