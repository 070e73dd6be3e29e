//! What opening a file costs on the heap.
//!
//! A Hadoop-A TaskTracker has no server-side cache, so it keeps a disk
//! reader open for every (map, reduce) partition a reducer has half-pulled,
//! and every spill task holds a writer across its write. This binary has its
//! own counting allocator and checks that a filesystem handle clone, and a
//! reader or writer opened on an existing file, allocate nothing: the handle
//! is one reference count and an open file shares the file table's name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rmr_des::{Sim, SimDuration};
use rmr_store::{DiskParams, LocalFs};

/// Heap allocations made by this thread (`alloc`, `alloc_zeroed` and
/// `realloc` calls). The test is single-threaded.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn track() {
    // `try_with`: the allocator also runs while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the wrapper only
// counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its value with the allocations it made.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn cloning_and_opening_allocate_nothing() {
    let sim = Sim::new(1);
    let params = DiskParams {
        name: "t",
        seq_bw: 100.0,
        access_latency: SimDuration::ZERO,
        queue_depth: 1,
        max_request: 1 << 20,
    };
    let fs = LocalFs::new(&sim, params, 2, 0, "t");
    let path = "job_0/map_17.out";
    fs.create(path).unwrap();

    let (clone, n) = allocs(|| fs.clone());
    assert_eq!(n, 0, "a filesystem clone allocated {n} times");
    let (reader, n) = allocs(|| clone.reader(path).unwrap());
    assert_eq!(n, 0, "opening a reader allocated {n} times");
    let (writer, n) = allocs(|| fs.writer(path).unwrap());
    assert_eq!(n, 0, "opening a writer allocated {n} times");

    assert_eq!(writer.path(), path);
    assert_eq!(reader.remaining(), Ok(0));
}
