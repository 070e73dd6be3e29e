//! What opening a file costs on the heap.
//!
//! A Hadoop-A TaskTracker has no server-side cache, so it keeps a disk
//! reader open for every (map, reduce) partition a reducer has half-pulled,
//! and every spill task holds a writer across its write. A filesystem handle
//! clone, and a reader or writer opened on an existing file, allocate
//! nothing: the handle is one reference count and an open file shares the
//! file table's name.

use rmr_des::{Sim, SimDuration};
use rmr_store::{DiskParams, LocalFs};

use super::heap;

/// Runs `f` and returns its value with the allocations it made.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = heap().calls;
    let out = f();
    (out, heap().calls - before)
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
