//! What an identity reduce's output blocks hold, and the one reader of a
//! real HDFS block.
//!
//! An identity reduce hands its output file whole key groups of merged
//! batches, in key order, and the block keeps each piece as it stands
//! ([`rmr_hdfs::HdfsWriter::write_held`]). A batch is an index the merge
//! built over the map outputs' packets, but its order is no more than an
//! interleaving of the windows of those packets it drew from, and each of
//! them is already a window of a map output's index. So a piece is held as
//! those windows, cut where the piece starts and ends ([`HeldRun`]), and the
//! batch's own index is freed once the sink is done with it. A run that no
//! recorded windows stand behind — a merge over merged runs — is held as one
//! window of its own index.
//!
//! Reading a piece back merges its windows, ties going to the earlier
//! window: the windows are listed in the order the merge breaks ties in, so
//! that is the piece's order, record for record.

use std::any::Any;
use std::ops::Range;

use rmr_hdfs::{BlockData, HeldPiece};

use super::{count_records, walk, Entry, RealRun, Record, Segment};

/// How far ahead of the record it reads the held-block walk prefetches, in
/// entries: far enough to cover a DRAM miss with eight records' work.
const GATHER_PREFETCH_AHEAD: usize = 8;

/// One piece of an identity reduce's output as its block holds it: sorted
/// windows whose merge, ties going to the earlier window, is the piece.
#[derive(Debug)]
pub(crate) struct HeldRun(Box<[Segment]>);

impl HeldRun {
    /// `piece`, a window of a real run, as the windows its records were
    /// drawn from, or as itself if its index records none.
    pub(crate) fn new(piece: Segment) -> HeldRun {
        let run = piece.real().expect("an identity reduce holds real runs");
        let windows: Box<[Segment]> = match run.drawn() {
            Some(drawn) if !drawn.is_empty() => {
                let (from, to) = (cuts(run, drawn, run.start), cuts(run, drawn, run.end));
                let parts = drawn.iter().zip(from.into_iter().zip(to));
                (parts.filter(|(_, (a, b))| a < b))
                    .map(|(w, (a, b))| part(w, a..b))
                    .collect()
            }
            _ => return HeldRun(Box::new([piece])),
        };
        let held = |f: fn(&Segment) -> u64| windows.iter().map(f).sum::<u64>();
        assert_eq!(
            (held(|w| w.records), held(|w| w.bytes)),
            (piece.records, piece.bytes),
            "a held piece is the records it was cut from"
        );
        HeldRun(windows)
    }

    /// The piece as one run, in file order.
    fn run(&self) -> Segment {
        Segment::concat(self.0.to_vec())
    }
}

/// How many records of each window in `drawn` its merge put before position
/// `at` of the index it built: those whose key is below the key at `at`
/// (prefixes first, key bytes on a tie), and of those equal to it the first
/// `at` minus that many, taken in `drawn`'s order — the order the merge
/// breaks ties in.
fn cuts(run: &RealRun, drawn: &[Segment], at: usize) -> Vec<usize> {
    let windows = || {
        drawn
            .iter()
            .map(|w| w.real().expect("drawn windows are real"))
    };
    let Some(at_entry) = run.backing.index.get(at) else {
        return windows().map(|w| w.entries().len()).collect();
    };
    let (prefix, key) = (at_entry.prefix, run.key(at_entry));
    let below = |w: &RealRun, e: &Entry| {
        (e.prefix.cmp(&prefix))
            .then_with(|| w.key(e).cmp(key))
            .is_lt()
    };
    let mut cut: Vec<usize> = windows()
        .map(|w| w.entries().partition_point(|e| below(w, e)))
        .collect();
    let mut ties = at - cut.iter().sum::<usize>();
    for (w, lo) in windows().zip(&mut cut) {
        let equal = |e: &Entry| e.prefix == prefix && w.key(e) == key;
        let room = &w.entries()[*lo..(*lo + ties).min(w.entries().len())];
        let taken = room.partition_point(equal);
        (*lo, ties) = (*lo + taken, ties - taken);
    }
    debug_assert_eq!(ties, 0, "every record before the cut is in a window");
    cut
}

/// Entries `range` of the window `w`, with their bytes summed over the
/// range or over the rest of `w`, whichever is shorter.
fn part(w: &Segment, range: Range<usize>) -> Segment {
    let run = w.real().expect("drawn windows are real");
    let n = run.entries().len();
    let sum = |r: Range<usize>| -> u64 { run.entries()[r].iter().map(|e| run.size(e)).sum() };
    let bytes = match 2 * range.len() <= n {
        true => sum(range.clone()),
        false => w.bytes - sum(0..range.start) - sum(range.end..n),
    };
    run.window(range, bytes)
}

/// A block counts each record as [`super::encode_records`] would lay it
/// out, under an 8-byte header.
impl HeldPiece for HeldRun {
    fn file_len(&self) -> u64 {
        self.0.iter().map(|w| w.bytes + 8 * w.records).sum()
    }
}

/// The records of one real HDFS block, in file order, whichever way the
/// block holds them: as [`super::encode_records`]' bytes, or as the pieces
/// an identity reduce handed its output file ([`BlockData::Held`]). Made by
/// [`block_records`].
#[derive(Debug, Clone)]
pub struct BlockRecords(BlockData);

/// The one way to read a real HDFS block's records.
pub fn block_records(data: BlockData) -> BlockRecords {
    BlockRecords(data)
}

/// The pieces a block holds, in file order.
fn held_runs(pieces: &[Box<dyn HeldPiece>]) -> impl Iterator<Item = &HeldRun> {
    pieces.iter().map(|piece| {
        let piece: &dyn Any = &**piece;
        piece
            .downcast_ref::<HeldRun>()
            .expect("a held piece is an identity reduce's")
    })
}

/// Calls `f` with every record of the held pieces in file order, one piece
/// at a time, prefetching [`GATHER_PREFETCH_AHEAD`] entries ahead: a piece
/// is sorted, the bytes it points into are where the input blocks had them.
fn walk_held(pieces: &[Box<dyn HeldPiece>], mut f: impl FnMut(&RealRun, &Entry)) {
    for piece in held_runs(pieces) {
        let piece = piece.run();
        let run = piece.real().expect("a held piece is real");
        for (i, e) in run.entries().iter().enumerate() {
            run.prefetch(i + GATHER_PREFETCH_AHEAD);
            f(run, e);
        }
    }
}

impl BlockRecords {
    /// How many records the block holds (a header walk over encoded bytes).
    pub fn count(&self) -> usize {
        match &self.0 {
            BlockData::Encoded(data) => count_records(data),
            BlockData::Held(pieces) => {
                let windows = held_runs(pieces).flat_map(|held| held.0.iter());
                windows.map(|w| w.records as usize).sum()
            }
        }
    }

    /// Calls `f` with each record's key in file order; no view is built.
    pub fn for_each_key(&self, mut f: impl FnMut(&[u8])) {
        match &self.0 {
            BlockData::Encoded(data) => walk(data).for_each(|(key, _)| f(&data[key])),
            BlockData::Held(pieces) => walk_held(pieces, |run, e| f(run.key(e))),
        }
    }

    /// Calls `f` with each record in file order, as the by-value view user
    /// code sees.
    pub fn for_each(&self, mut f: impl FnMut(Record)) {
        match &self.0 {
            BlockData::Encoded(data) => {
                for (key, value) in walk(data) {
                    f(Record {
                        key: data.slice(key),
                        value: data.slice(value),
                    });
                }
            }
            BlockData::Held(pieces) => walk_held(pieces, |run, e| f(run.record(e))),
        }
    }

    /// The records, collected.
    pub fn to_records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each(|r| out.push(r));
        out
    }

    /// The block's records as one sorted run: encoded bytes are indexed
    /// where they lie and sorted ([`Segment::from_encoded`]); the held
    /// pieces' windows, listed in file order, are merged into one run, ties
    /// going to the earlier window — or joined, where they are adjoining
    /// windows of one index.
    pub(crate) fn into_run(self) -> Segment {
        match self.0 {
            BlockData::Encoded(data) => Segment::from_encoded(data),
            BlockData::Held(pieces) => {
                let windows = held_runs(&pieces).flat_map(|held| held.0.iter().cloned());
                Segment::concat(windows.collect())
            }
        }
    }
}
