//! The dual data plane: real records and synthetic (accounting-only) runs.
//!
//! Correctness runs (tests, examples) materialise every key-value pair and
//! genuinely sort, partition, and merge them; paper-scale benchmark runs
//! carry only record/byte counts through exactly the same code paths, so
//! the *timing* model is identical in both modes. [`RunData::Real`] holds a
//! shared, immutable, sorted record vector plus a slice window, which lets
//! shuffle packets reference sub-ranges without copying.
//!
//! # The one-copy rule
//!
//! A real byte is copied once — when its record is encoded into an HDFS
//! blob by [`encode_records`] — and no stage allocates per record. Every
//! [`Record`] after that is two [`Bytes`] *windows* into the block it was
//! decoded from ([`decode_records`]), and sorting ([`Segment::from_records`]
//! sorts an index and permutes once), partitioning, shuffling, merging and
//! grouping ([`for_each_group`]) move or clone windows, never payload. A
//! window pins its backing block: the map output of a job whose mapper emits
//! sub-windows of its input (WordCount's words are windows of the input
//! line) keeps that input block alive until the output is dropped — which
//! costs nothing extra, because HDFS holds the block's content for the
//! file's life anyway.

use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};

/// One key-value pair. Keys and values are opaque byte strings, compared
/// lexicographically (Hadoop's `BytesWritable` ordering, which is also
/// TeraSort's ordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The key.
    pub key: Bytes,
    /// The value.
    pub value: Bytes,
}

impl Record {
    /// Builds a record from owned byte vectors.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Record {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Bytes this record occupies in a shuffle stream / file.
    pub fn size(&self) -> u64 {
        (self.key.len() + self.value.len()) as u64
    }
}

/// Length-prefixed serialisation of records (4-byte key length, 4-byte value
/// length, then the bytes) — the on-HDFS representation used by the real
/// data plane.
pub fn encode_records(records: &[Record]) -> Bytes {
    encode_parts(&[records])
}

/// [`encode_records`] over the concatenation of `parts`, without building
/// the concatenation.
pub(crate) fn encode_parts(parts: &[&[Record]]) -> Bytes {
    let records = || parts.iter().flat_map(|p| p.iter());
    let total: usize = records().map(|r| 8 + r.key.len() + r.value.len()).sum();
    let mut buf = BytesMut::with_capacity(total);
    for r in records() {
        buf.put_u32(r.key.len() as u32);
        buf.put_u32(r.value.len() as u32);
        buf.put_slice(&r.key);
        buf.put_slice(&r.value);
    }
    buf.freeze()
}

/// Reads the two length fields of record number `idx`, which starts at byte
/// `at` of `buf`, and returns `(key_len, value_len)` once the whole record
/// is known to lie inside `buf`.
fn record_lengths(buf: &[u8], idx: usize, at: usize) -> (usize, usize) {
    let left = buf.len() - at;
    assert!(
        left >= 8,
        "record {idx} at byte {at}: header needs 8 bytes, {left} remaining"
    );
    let field = |o: usize| {
        u32::from_be_bytes(buf[at + o..at + o + 4].try_into().expect("4 bytes")) as usize
    };
    let (klen, vlen) = (field(0), field(4));
    let left = left - 8;
    assert!(
        klen <= left,
        "record {idx} at byte {at}: key length {klen} exceeds {left} remaining bytes"
    );
    let left = left - klen;
    assert!(
        vlen <= left,
        "record {idx} at byte {at}: value length {vlen} exceeds {left} remaining bytes"
    );
    (klen, vlen)
}

/// Inverse of [`encode_records`]: every key and value is a window into
/// `data`. Panics on malformed input (the encoder is the only producer in
/// this system), naming the record and byte offset where decoding stopped.
pub fn decode_records(data: Bytes) -> Vec<Record> {
    let buf: &[u8] = &data;
    // Walk the headers once to size the output exactly (and to validate),
    // then cut the windows.
    let (mut count, mut at) = (0usize, 0usize);
    while at < buf.len() {
        let (klen, vlen) = record_lengths(buf, count, at);
        at += 8 + klen + vlen;
        count += 1;
    }
    let mut out = Vec::with_capacity(count);
    let mut at = 0usize;
    for idx in 0..count {
        let (klen, vlen) = record_lengths(buf, idx, at);
        let key_at = at + 8;
        let value_at = key_at + klen;
        at = value_at + vlen;
        out.push(Record {
            key: data.slice(key_at..value_at),
            value: data.slice(value_at..at),
        });
    }
    out
}

/// Calls `f(key, values)` once per run of consecutive records with equal
/// keys, in order; `values` are the run's values in record order. On sorted
/// input that is one call per distinct key — the grouping contract of a
/// reduce or combine function.
pub fn for_each_group(records: &[Record], mut f: impl FnMut(&Bytes, &[Bytes])) {
    let mut values: Vec<Bytes> = Vec::new();
    let mut rest = records;
    while let Some(first) = rest.first() {
        let run = rest
            .iter()
            .position(|r| r.key != first.key)
            .unwrap_or(rest.len());
        values.clear();
        values.extend(rest[..run].iter().map(|r| r.value.clone()));
        f(&first.key, &values);
        rest = &rest[run..];
    }
}

/// The first eight key bytes as a big-endian integer, zero-padded: orders
/// like the key itself wherever two prefixes differ.
pub(crate) fn key_prefix(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => key
            .iter()
            .enumerate()
            .fold(0, |p, (i, &b)| p | u64::from(b) << (56 - 8 * i)),
    }
}

/// The contents of a sorted run: real records or synthetic counts.
#[derive(Debug, Clone)]
pub enum RunData {
    /// A window `[start, end)` into a shared sorted record vector.
    Real {
        /// The backing records, sorted by key.
        recs: Rc<Vec<Record>>,
        /// Window start (inclusive).
        start: usize,
        /// Window end (exclusive).
        end: usize,
    },
    /// Counts only.
    Synthetic {
        /// Number of records represented.
        records: u64,
        /// Total bytes represented.
        bytes: u64,
    },
}

/// A sorted run with its size metadata; the unit moved through spills,
/// shuffles, and merges.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Record count.
    pub records: u64,
    /// Byte count.
    pub bytes: u64,
    /// Contents.
    pub data: RunData,
}

impl Segment {
    /// An empty segment (synthetic flavour).
    pub fn empty() -> Self {
        Segment {
            records: 0,
            bytes: 0,
            data: RunData::Synthetic {
                records: 0,
                bytes: 0,
            },
        }
    }

    /// Builds a real segment by sorting `records` by key (stably: records
    /// with equal keys keep their input order).
    ///
    /// Sorts an index of `(key prefix, position)` pairs rather than the
    /// records — most comparisons are one integer compare on a 16-byte
    /// element, and only prefix ties dereference the keys — then permutes
    /// the records once.
    pub fn from_records(records: Vec<Record>) -> Self {
        assert!(
            u32::try_from(records.len()).is_ok(),
            "a run holds at most 2^32 records"
        );
        let mut index: Vec<(u64, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (key_prefix(&r.key), i as u32))
            .collect();
        // The position is the last tie-break, so no two entries compare
        // equal and the unstable sort is both deterministic and stable.
        index.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| records[a.1 as usize].key.cmp(&records[b.1 as usize].key))
                .then(a.1.cmp(&b.1))
        });
        let mut slots: Vec<Option<Record>> = records.into_iter().map(Some).collect();
        let sorted = index
            .iter()
            .map(|&(_, i)| slots[i as usize].take().expect("each position once"))
            .collect();
        Self::from_sorted(sorted)
    }

    /// Builds a real segment from records already sorted by key.
    pub fn from_sorted(records: Vec<Record>) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].key <= w[1].key));
        let bytes = records.iter().map(Record::size).sum();
        let n = records.len();
        Segment {
            records: n as u64,
            bytes,
            data: RunData::Real {
                recs: Rc::new(records),
                start: 0,
                end: n,
            },
        }
    }

    /// Builds a synthetic segment.
    pub fn synthetic(records: u64, bytes: u64) -> Self {
        Segment {
            records,
            bytes,
            data: RunData::Synthetic { records, bytes },
        }
    }

    /// True if this segment carries real records.
    pub fn is_real(&self) -> bool {
        matches!(self.data, RunData::Real { .. })
    }

    /// True if the segment holds nothing.
    pub fn is_empty(&self) -> bool {
        self.records == 0 && self.bytes == 0
    }

    /// Iterates the real records in the window (empty iterator for
    /// synthetic data).
    pub fn iter_real(&self) -> impl Iterator<Item = &Record> {
        self.real_window().iter()
    }

    /// The real records in the window (empty for synthetic data).
    pub(crate) fn real_window(&self) -> &[Record] {
        match &self.data {
            RunData::Real { recs, start, end } => &recs[*start..*end],
            RunData::Synthetic { .. } => &[],
        }
    }

    /// Collects the real records (clones the window; None for synthetic).
    pub fn to_records(&self) -> Option<Vec<Record>> {
        match &self.data {
            RunData::Real { recs, start, end } => Some(recs[*start..*end].to_vec()),
            RunData::Synthetic { .. } => None,
        }
    }

    /// First key in the window (real only).
    pub fn first_key(&self) -> Option<&Bytes> {
        match &self.data {
            RunData::Real { recs, start, end } if start < end => Some(&recs[*start].key),
            _ => None,
        }
    }

    /// Last key in the window (real only).
    pub fn last_key(&self) -> Option<&Bytes> {
        match &self.data {
            RunData::Real { recs, start, end } if start < end => Some(&recs[*end - 1].key),
            _ => None,
        }
    }

    /// Checks the sortedness invariant (vacuously true for synthetic).
    pub fn is_sorted(&self) -> bool {
        match &self.data {
            RunData::Real { recs, start, end } => {
                recs[*start..*end].windows(2).all(|w| w[0].key <= w[1].key)
            }
            RunData::Synthetic { .. } => true,
        }
    }

    /// Partitions this segment's records into `n` partitions with `part`.
    /// Real: by actual key. Synthetic: evenly, remainder spread over the
    /// first partitions (uniform-key assumption — true for TeraGen and
    /// RandomWriter data).
    pub fn partition(&self, n: usize, part: &dyn Partitioner) -> Vec<Segment> {
        assert!(n > 0);
        match &self.data {
            RunData::Real { recs, start, end } => {
                if part.is_monotone() {
                    // Sorted input + monotone partitioner ⇒ each partition
                    // is a contiguous window of the backing vector. Emit
                    // shared windows: no record clones, no bucket vectors.
                    let window = &recs[*start..*end];
                    let mut out = Vec::with_capacity(n);
                    let mut lo = 0usize;
                    for p in 0..n {
                        let hi =
                            lo + window[lo..].partition_point(|r| part.partition(&r.key, n) <= p);
                        let bytes = window[lo..hi].iter().map(Record::size).sum();
                        out.push(Segment {
                            records: (hi - lo) as u64,
                            bytes,
                            data: RunData::Real {
                                recs: Rc::clone(recs),
                                start: *start + lo,
                                end: *start + hi,
                            },
                        });
                        lo = hi;
                    }
                    return out;
                }
                let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); n];
                for r in recs[*start..*end].iter() {
                    buckets[part.partition(&r.key, n)].push(r.clone());
                }
                // Records were sorted; stable bucketing keeps each bucket
                // sorted.
                buckets.into_iter().map(Segment::from_sorted).collect()
            }
            RunData::Synthetic { records, bytes } => {
                let mut out = Vec::with_capacity(n);
                let (rq, rr) = (records / n as u64, records % n as u64);
                let (bq, br) = (bytes / n as u64, bytes % n as u64);
                for i in 0..n as u64 {
                    let r = rq + u64::from(i < rr);
                    let b = bq + u64::from(i < br);
                    out.push(Segment::synthetic(r, b));
                }
                out
            }
        }
    }

    /// Concatenates packets that together form one sorted segment (the
    /// windows a cursor produced, in order). Contiguous windows over the
    /// same backing vector are rejoined without copying; anything else falls
    /// back to a merge. Synthetic packets just sum.
    pub fn concat(parts: Vec<Segment>) -> Segment {
        if parts.is_empty() {
            return Segment::empty();
        }
        if parts.iter().all(|p| !p.is_real()) {
            let records = parts.iter().map(|p| p.records).sum();
            let bytes = parts.iter().map(|p| p.bytes).sum();
            return Segment::synthetic(records, bytes);
        }
        // Fast path: consecutive windows of one backing vector.
        let contiguous = {
            let mut ok = true;
            let mut prev_end: Option<(*const Vec<Record>, usize)> = None;
            for p in &parts {
                match &p.data {
                    RunData::Real { recs, start, end } => {
                        let ptr = Rc::as_ptr(recs);
                        if let Some((pp, pe)) = prev_end {
                            if pp != ptr || pe != *start {
                                ok = false;
                                break;
                            }
                        }
                        prev_end = Some((ptr, *end));
                    }
                    RunData::Synthetic { .. } => {
                        ok = false;
                        break;
                    }
                }
            }
            ok
        };
        if contiguous {
            let (first_recs, first_start) = match &parts[0].data {
                RunData::Real { recs, start, .. } => (Rc::clone(recs), *start),
                _ => unreachable!(),
            };
            let last_end = match &parts.last().unwrap().data {
                RunData::Real { end, .. } => *end,
                _ => unreachable!(),
            };
            let records = parts.iter().map(|p| p.records).sum();
            let bytes = parts.iter().map(|p| p.bytes).sum();
            return Segment {
                records,
                bytes,
                data: RunData::Real {
                    recs: first_recs,
                    start: first_start,
                    end: last_end,
                },
            };
        }
        Segment::merge(&parts)
    }

    /// K-way merges sorted segments into one sorted segment. All-real and
    /// all-synthetic inputs are supported; mixing panics (a job runs in one
    /// mode).
    pub fn merge(segments: &[Segment]) -> Segment {
        if segments.is_empty() {
            return Segment::empty();
        }
        if segments.iter().all(|s| !s.is_real()) {
            let records = segments.iter().map(|s| s.records).sum();
            let bytes = segments.iter().map(|s| s.bytes).sum();
            return Segment::synthetic(records, bytes);
        }
        assert!(
            segments.iter().all(Segment::is_real),
            "cannot merge mixed real/synthetic segments"
        );
        // Standard k-way heap merge over window iterators. Heads borrow
        // their keys from the backing vectors — no per-record key clones.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        #[derive(PartialEq, Eq)]
        struct Head<'a> {
            key: &'a Bytes,
            src: usize,
            idx: usize,
        }
        impl Ord for Head<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.key, self.src, self.idx).cmp(&(other.key, other.src, other.idx))
            }
        }
        impl PartialOrd for Head<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let windows: Vec<(&Rc<Vec<Record>>, usize, usize)> = segments
            .iter()
            .map(|s| match &s.data {
                RunData::Real { recs, start, end } => (recs, *start, *end),
                RunData::Synthetic { .. } => unreachable!(),
            })
            .collect();
        let mut heap = BinaryHeap::with_capacity(windows.len());
        for (src, (recs, start, end)) in windows.iter().enumerate() {
            if start < end {
                heap.push(Reverse(Head {
                    key: &recs[*start].key,
                    src,
                    idx: *start,
                }));
            }
        }
        let total: usize = segments.iter().map(|s| s.records as usize).sum();
        let mut out = Vec::with_capacity(total);
        while let Some(Reverse(h)) = heap.pop() {
            let (recs, _, end) = windows[h.src];
            out.push(recs[h.idx].clone());
            let next = h.idx + 1;
            if next < end {
                heap.push(Reverse(Head {
                    key: &recs[next].key,
                    src: h.src,
                    idx: next,
                }));
            }
        }
        Segment::from_sorted(out)
    }
}

/// A sequential cursor over a segment, yielding shuffle packets.
#[derive(Debug, Clone)]
pub struct SegmentCursor {
    seg: Segment,
    rec_pos: u64,
    byte_pos: u64,
}

impl SegmentCursor {
    /// Starts a cursor at the beginning of `seg`.
    pub fn new(seg: Segment) -> Self {
        SegmentCursor {
            seg,
            rec_pos: 0,
            byte_pos: 0,
        }
    }

    /// Records not yet taken.
    pub fn remaining_records(&self) -> u64 {
        self.seg.records - self.rec_pos
    }

    /// Bytes not yet taken.
    pub fn remaining_bytes(&self) -> u64 {
        self.seg.bytes - self.byte_pos
    }

    /// True when fully consumed.
    pub fn exhausted(&self) -> bool {
        self.rec_pos >= self.seg.records
    }

    /// Takes the next packet of at most `budget` bytes (always at least one
    /// record if any remain, so oversized records still move).
    pub fn take_bytes(&mut self, budget: u64) -> Segment {
        match &self.seg.data {
            RunData::Real { recs, start, .. } => {
                let from = *start + self.rec_pos as usize;
                let end = *start + self.seg.records as usize;
                let mut idx = from;
                let mut bytes = 0u64;
                while idx < end {
                    let sz = recs[idx].size();
                    if idx > from && bytes + sz > budget {
                        break;
                    }
                    bytes += sz;
                    idx += 1;
                }
                let taken = Segment {
                    records: (idx - from) as u64,
                    bytes,
                    data: RunData::Real {
                        recs: Rc::clone(recs),
                        start: from,
                        end: idx,
                    },
                };
                self.rec_pos += taken.records;
                self.byte_pos += taken.bytes;
                taken
            }
            RunData::Synthetic { .. } => {
                let rem_bytes = self.remaining_bytes();
                let rem_recs = self.remaining_records();
                if rem_recs == 0 {
                    return Segment::empty();
                }
                let avg = (rem_bytes / rem_recs).max(1);
                let bytes = budget.min(rem_bytes);
                let recs = (bytes / avg).clamp(1, rem_recs);
                // Final packet flushes any rounding residue.
                let (recs, bytes) = if recs == rem_recs {
                    (rem_recs, rem_bytes)
                } else {
                    (recs, bytes.min(rem_bytes))
                };
                self.rec_pos += recs;
                self.byte_pos += bytes;
                Segment::synthetic(recs, bytes)
            }
        }
    }

    /// Takes the next packet of at most `n` records (Hadoop-A's fixed-count
    /// packets).
    pub fn take_records(&mut self, n: u64) -> Segment {
        match &self.seg.data {
            RunData::Real { recs, start, .. } => {
                let from = *start + self.rec_pos as usize;
                let end = *start + self.seg.records as usize;
                let to = (from + n as usize).min(end);
                let bytes = recs[from..to].iter().map(Record::size).sum();
                let taken = Segment {
                    records: (to - from) as u64,
                    bytes,
                    data: RunData::Real {
                        recs: Rc::clone(recs),
                        start: from,
                        end: to,
                    },
                };
                self.rec_pos += taken.records;
                self.byte_pos += taken.bytes;
                taken
            }
            RunData::Synthetic { .. } => {
                let rem_recs = self.remaining_records();
                let rem_bytes = self.remaining_bytes();
                if rem_recs == 0 {
                    return Segment::empty();
                }
                let recs = n.min(rem_recs);
                let bytes = if recs == rem_recs {
                    rem_bytes
                } else {
                    (rem_bytes as u128 * recs as u128 / rem_recs as u128) as u64
                };
                self.rec_pos += recs;
                self.byte_pos += bytes;
                Segment::synthetic(recs, bytes)
            }
        }
    }
}

/// Assigns keys to reduce partitions.
pub trait Partitioner {
    /// Partition index for `key` among `n` partitions.
    fn partition(&self, key: &[u8], n: usize) -> usize;

    /// True when partition indices are non-decreasing in key order, so
    /// partitioning a sorted run yields contiguous windows.
    /// [`Segment::partition`] then shares slices instead of cloning records.
    fn is_monotone(&self) -> bool {
        false
    }
}

/// Hadoop's default: hash of the key modulo partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &[u8], n: usize) -> usize {
        // FNV-1a — stable across runs, unlike Java's String.hashCode, but
        // serves the same role.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % n as u64) as usize
    }
}

/// TeraSort's total-order partitioner: partitions by leading key bytes so
/// partition `i`'s keys all precede partition `i+1`'s (global sort order).
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalOrderPartitioner;

impl Partitioner for TotalOrderPartitioner {
    fn partition(&self, key: &[u8], n: usize) -> usize {
        // Interpret the first 8 key bytes as a big-endian fraction of the
        // key space.
        ((key_prefix(key) as u128 * n as u128) >> 64) as usize
    }

    fn is_monotone(&self) -> bool {
        // The partition index is a non-decreasing function of the 8-byte
        // big-endian key prefix, which orders like the key itself.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &[u8], v: &[u8]) -> Record {
        Record::new(k.to_vec(), v.to_vec())
    }

    #[test]
    fn encode_decode_round_trip() {
        let records = vec![rec(b"bb", b"2"), rec(b"a", b"111"), rec(b"", b"")];
        let decoded = decode_records(encode_records(&records));
        assert_eq!(decoded, records);
    }

    #[test]
    fn decoded_records_are_windows_of_the_block() {
        let records = vec![rec(b"key", b"value"), rec(b"k2", b"")];
        let block = encode_records(&records);
        let base = block.as_ptr();
        let decoded = decode_records(block);
        assert_eq!(decoded[0].key.as_ptr(), base.wrapping_add(8));
        assert_eq!(decoded[0].value.as_ptr(), base.wrapping_add(11));
        assert_eq!(decoded[1].key.as_ptr(), base.wrapping_add(24));
    }

    #[test]
    #[should_panic(expected = "record 1 at byte 12: key length 4096 exceeds 4 remaining bytes")]
    fn decode_names_the_torn_record() {
        let mut torn = encode_records(&[rec(b"ab", b"cd")]).to_vec();
        torn.extend_from_slice(&4096u32.to_be_bytes());
        torn.extend_from_slice(&1u32.to_be_bytes());
        torn.extend_from_slice(b"only");
        decode_records(Bytes::from(torn));
    }

    #[test]
    #[should_panic(expected = "record 0 at byte 0: value length 3 exceeds 1 remaining bytes")]
    fn decode_names_a_truncated_value() {
        let whole = encode_records(&[rec(b"ab", b"cde")]);
        decode_records(whole.slice(0..whole.len() - 2));
    }

    #[test]
    #[should_panic(expected = "record 1 at byte 12: header needs 8 bytes, 5 remaining")]
    fn decode_names_a_truncated_header() {
        let mut torn = encode_records(&[rec(b"ab", b"cd")]).to_vec();
        torn.extend_from_slice(&[0; 5]);
        decode_records(Bytes::from(torn));
    }

    #[test]
    fn for_each_group_yields_runs_in_order() {
        let records = vec![
            rec(b"a", b"1"),
            rec(b"a", b"2"),
            rec(b"b", b"3"),
            rec(b"a", b"4"),
        ];
        let mut seen = Vec::new();
        for_each_group(&records, |k, vs| {
            seen.push((
                k.to_vec(),
                vs.iter().map(|v| v.to_vec()).collect::<Vec<_>>(),
            ));
        });
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), vec![b"1".to_vec(), b"2".to_vec()]),
                (b"b".to_vec(), vec![b"3".to_vec()]),
                (b"a".to_vec(), vec![b"4".to_vec()]),
            ]
        );
        for_each_group(&[], |_, _| panic!("no groups in no records"));
    }

    #[test]
    fn encode_parts_is_encode_of_the_concatenation() {
        let (a, b) = (vec![rec(b"a", b"1")], vec![rec(b"b", b"22"), rec(b"", b"")]);
        let joined = [a.clone(), b.clone()].concat();
        assert_eq!(encode_parts(&[&a, &[], &b]), encode_records(&joined));
    }

    #[test]
    fn from_records_sorts() {
        let s = Segment::from_records(vec![rec(b"c", b"3"), rec(b"a", b"1"), rec(b"b", b"2")]);
        assert!(s.is_sorted());
        assert_eq!(s.records, 3);
        assert_eq!(s.bytes, 6);
        assert_eq!(s.first_key().unwrap().as_ref(), b"a");
        assert_eq!(s.last_key().unwrap().as_ref(), b"c");
    }

    #[test]
    fn real_partition_preserves_order_and_count() {
        let recs: Vec<Record> = (0..100u32).map(|i| rec(&i.to_be_bytes(), b"v")).collect();
        let s = Segment::from_records(recs);
        let parts = s.partition(7, &HashPartitioner);
        assert_eq!(parts.iter().map(|p| p.records).sum::<u64>(), 100);
        for p in &parts {
            assert!(p.is_sorted());
        }
    }

    #[test]
    fn synthetic_partition_spreads_remainder() {
        let s = Segment::synthetic(10, 103);
        let parts = s.partition(4, &HashPartitioner);
        assert_eq!(parts.iter().map(|p| p.records).sum::<u64>(), 10);
        assert_eq!(parts.iter().map(|p| p.bytes).sum::<u64>(), 103);
        let recs: Vec<u64> = parts.iter().map(|p| p.records).collect();
        assert_eq!(recs, vec![3, 3, 2, 2]);
    }

    #[test]
    fn key_prefix_pads_short_keys_with_zeros() {
        assert_eq!(key_prefix(b""), 0);
        assert_eq!(key_prefix(b"\x01"), 1 << 56);
        assert_eq!(key_prefix(b"ab"), key_prefix(b"ab\0\0"));
        assert_eq!(key_prefix(b"abcdefgh"), u64::from_be_bytes(*b"abcdefgh"));
        assert_eq!(key_prefix(b"abcdefghij"), key_prefix(b"abcdefgh"));
        assert!(key_prefix(b"ab") < key_prefix(b"b"));
    }

    #[test]
    fn total_order_partitioner_is_monotone() {
        let p = TotalOrderPartitioner;
        let lo = p.partition(&[0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0], 8);
        let hi = p.partition(&[0xF0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 8);
        assert!(lo < hi);
        assert_eq!(p.partition(&[0; 10], 8), 0);
        assert_eq!(p.partition(&[0xFF; 10], 8), 7);
    }

    #[test]
    fn merge_real_produces_global_order() {
        let a = Segment::from_records(vec![rec(b"a", b"1"), rec(b"d", b"4")]);
        let b = Segment::from_records(vec![rec(b"b", b"2"), rec(b"c", b"3")]);
        let m = Segment::merge(&[a, b]);
        assert!(m.is_sorted());
        assert_eq!(m.records, 4);
        let keys: Vec<&[u8]> = m.iter_real().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b", b"c", b"d"]);
    }

    #[test]
    fn merge_synthetic_sums() {
        let m = Segment::merge(&[Segment::synthetic(5, 50), Segment::synthetic(7, 70)]);
        assert_eq!((m.records, m.bytes), (12, 120));
        assert!(!m.is_real());
    }

    #[test]
    fn cursor_take_bytes_real() {
        let recs: Vec<Record> = (0..10u8).map(|i| rec(&[i], &[0u8; 9])).collect(); // 10 B each
        let mut c = SegmentCursor::new(Segment::from_records(recs));
        let p1 = c.take_bytes(25);
        assert_eq!(p1.records, 2); // 2 × 10 B fit, 3rd would exceed
        assert_eq!(p1.bytes, 20);
        let mut total = p1.records;
        while !c.exhausted() {
            total += c.take_bytes(25).records;
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn cursor_take_bytes_always_progresses_on_oversized_record() {
        let mut c = SegmentCursor::new(Segment::from_records(vec![rec(b"k", &[0u8; 100])]));
        let p = c.take_bytes(10); // record is 101 B but budget is 10 B
        assert_eq!(p.records, 1);
        assert!(c.exhausted());
    }

    #[test]
    fn cursor_take_records_synthetic_conserves_totals() {
        let mut c = SegmentCursor::new(Segment::synthetic(10, 1_003));
        let mut recs = 0;
        let mut bytes = 0;
        while !c.exhausted() {
            let p = c.take_records(3);
            recs += p.records;
            bytes += p.bytes;
        }
        assert_eq!(recs, 10);
        assert_eq!(bytes, 1_003, "final packet must flush rounding residue");
    }

    #[test]
    fn cursor_take_bytes_synthetic_conserves_totals() {
        let mut c = SegmentCursor::new(Segment::synthetic(1_000, 100_000));
        let mut recs = 0;
        let mut bytes = 0;
        while !c.exhausted() {
            let p = c.take_bytes(1_700);
            recs += p.records;
            bytes += p.bytes;
            assert!(p.records > 0);
        }
        assert_eq!(recs, 1_000);
        assert_eq!(bytes, 100_000);
    }

    #[test]
    fn packet_windows_share_backing_storage() {
        let recs: Vec<Record> = (0..4u8).map(|i| rec(&[i], b"v")).collect();
        let seg = Segment::from_records(recs);
        let rc = match &seg.data {
            RunData::Real { recs, .. } => Rc::clone(recs),
            _ => unreachable!(),
        };
        let mut c = SegmentCursor::new(seg);
        let _p = c.take_records(2);
        // 1 original + 1 in cursor's segment + 1 in packet = 3? The cursor
        // consumed the original; count just proves sharing, not copying.
        assert!(Rc::strong_count(&rc) >= 2);
    }
}
