//! A counting global allocator, and a census of the heap at its peak.
//!
//! [`Counting`] forwards every call to [`System`] unchanged and keeps, per
//! thread, the live bytes and blocks, their high-water mark and the
//! allocation calls ([`heap`]). A binary or test target installs it with
//! `#[global_allocator]`; a simulation runs on one thread, so that thread's
//! count is the run's.
//!
//! [`start_census`] also keeps, from then on, the live blocks and bytes of
//! each size class, and a snapshot of that table taken whenever the live heap
//! passes the last snapshot by 1/256 (and by at least [`CENSUS_STEP`]).
//! [`end_census`] hands back the snapshot: what held the heap within 0.4 % of
//! its peak, by allocation size. Sizes are exact up to [`EXACT`] bytes and
//! power-of-two classes above. A snapshot copies a 66 KB table, about 256
//! times for each e-fold the heap grows (some 1 800 times from 64 KiB to
//! 78 MB).
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rmr_des::heap::Counting = rmr_des::heap::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread has on the heap: live bytes and blocks, net of frees,
/// the most live bytes since the last [`reset_peak`], and the allocation
/// calls (`alloc`, `alloc_zeroed`, `realloc`) it made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heap {
    /// Live bytes.
    pub bytes: isize,
    /// Live blocks.
    pub blocks: isize,
    /// The most live bytes since the last [`reset_peak`].
    pub peak: isize,
    /// Allocation calls.
    pub calls: usize,
}

/// Allocation sizes up to this are counted one size to a row.
pub const EXACT: usize = 4096;
/// Rows: the exact sizes, then one per power of two up to `usize::MAX`.
const ROWS: usize = EXACT + (usize::BITS - EXACT.trailing_zeros()) as usize + 1;
/// The least growth of the live heap that takes a new snapshot.
pub const CENSUS_STEP: isize = 64 << 10;

/// Live blocks and bytes of one size class.
#[derive(Clone, Copy, Default)]
struct Row {
    blocks: isize,
    bytes: isize,
}

/// The size-class table of a census.
struct Table {
    /// A census is running.
    on: bool,
    /// Live bytes and allocation calls when the census started.
    start: Heap,
    /// Live bytes above `start` at the last snapshot.
    snap_at: isize,
    now: Box<[Row]>,
    at_snap: Box<[Row]>,
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
    /// Out of its cell while a count updates it, so an allocation made
    /// meanwhile (none is) would go uncounted rather than alias it. Made by
    /// the thread's first census and kept for the next.
    static TABLE: Cell<Option<&'static mut Table>> = const { Cell::new(None) };
}

/// The row of an allocation of `size` bytes.
fn row(size: usize) -> usize {
    if size < EXACT {
        size
    } else {
        EXACT + (usize::BITS - (size - 1).leading_zeros() - EXACT.trailing_zeros()) as usize
    }
}

fn track(size: usize, blocks: isize, calls: usize) {
    let bytes = size as isize * blocks;
    // `try_with`: the allocator also runs while the thread tears down.
    let Ok(h) = HEAP.try_with(|heap| {
        let h = heap.get();
        let h = Heap {
            bytes: h.bytes + bytes,
            blocks: h.blocks + blocks,
            peak: h.peak.max(h.bytes + bytes),
            calls: h.calls + calls,
        };
        heap.set(h);
        h
    }) else {
        return;
    };
    let _ = TABLE.try_with(|table| {
        let Some(t) = table.take() else { return };
        if t.on {
            let r = &mut t.now[row(size)];
            r.blocks += blocks;
            r.bytes += bytes;
            let live = h.bytes - t.start.bytes;
            if blocks > 0 && live >= t.snap_at + (t.snap_at / 256).max(CENSUS_STEP) {
                t.snap_at = live;
                t.at_snap.copy_from_slice(&t.now);
            }
        }
        table.set(Some(t));
    });
}

/// Counts every allocation of the thread it runs on ([`heap`]), and by size
/// while a census runs; forwards every call to [`System`] unchanged.
pub struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the wrapper only
// counts, and counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size(), 1, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size(), 1, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        track(layout.size(), -1, 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            track(layout.size(), -1, 0);
            track(new_size, 1, 1);
        }
        q
    }
}

/// This thread's heap so far: all zeros unless [`Counting`] is installed.
pub fn heap() -> Heap {
    HEAP.with(Cell::get)
}

/// Starts a new high-water mark at what is live now.
pub fn reset_peak() {
    HEAP.with(|heap| {
        let h = heap.get();
        heap.set(Heap { peak: h.bytes, ..h });
    });
}

/// One size class as it stood at the census's snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Class {
    /// The largest allocation the class holds: the size itself up to
    /// [`EXACT`], a power of two above.
    pub size: usize,
    /// Live blocks of the class, net of those live when the census started.
    pub blocks: isize,
    /// Their bytes.
    pub bytes: isize,
}

/// What [`end_census`] reports: everything above what was live when the
/// census started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Census {
    /// The most live bytes at any moment.
    pub peak_bytes: isize,
    /// Allocation calls made.
    pub allocs: usize,
    /// Live bytes at the snapshot the classes describe: at most the peak,
    /// and within 1/256 of it (or [`CENSUS_STEP`]).
    pub snap_bytes: isize,
    /// The classes that grew, most bytes first.
    pub classes: Vec<Class>,
}

/// Starts a census of the heap's peak on this thread, ending any running
/// one, and starts a new high-water mark.
pub fn start_census() {
    // Made outside any census, so the table's own blocks are in no row.
    let t = TABLE.take().unwrap_or_else(|| {
        Box::leak(Box::new(Table {
            on: false,
            start: heap(),
            snap_at: 0,
            now: vec![Row::default(); ROWS].into_boxed_slice(),
            at_snap: vec![Row::default(); ROWS].into_boxed_slice(),
        }))
    });
    t.now.fill(Row::default());
    t.at_snap.fill(Row::default());
    reset_peak();
    (t.on, t.start, t.snap_at) = (true, heap(), 0);
    TABLE.set(Some(t));
}

/// Ends this thread's census and reports it; `None` if none is running.
pub fn end_census() -> Option<Census> {
    let t = TABLE.take()?;
    let census = std::mem::replace(&mut t.on, false).then(|| report(t));
    TABLE.set(Some(t));
    census
}

/// The census `t` took, ending now.
fn report(t: &Table) -> Census {
    let h = heap();
    let mut classes: Vec<Class> = (0..ROWS)
        .filter(|&i| t.at_snap[i].bytes > 0)
        .map(|i| Class {
            size: if i < EXACT {
                i
            } else {
                EXACT
                    .checked_shl((i - EXACT) as u32)
                    .filter(|&s| s > 0)
                    .unwrap_or(usize::MAX)
            },
            blocks: t.at_snap[i].blocks,
            bytes: t.at_snap[i].bytes,
        })
        .collect();
    classes.sort_by_key(|c| (std::cmp::Reverse(c.bytes), c.size));
    Census {
        peak_bytes: h.peak - t.start.bytes,
        allocs: h.calls - t.start.calls,
        snap_bytes: t.snap_at,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_exact_then_powers_of_two() {
        assert_eq!(row(0), 0);
        assert_eq!(row(EXACT - 1), EXACT - 1);
        assert_eq!(row(EXACT), EXACT);
        assert_eq!(row(EXACT + 1), EXACT + 1);
        assert_eq!(row(2 * EXACT), EXACT + 1);
        assert_eq!(row(2 * EXACT + 1), EXACT + 2);
        assert_eq!(row(usize::MAX), ROWS - 1);
    }
}
