//! The dual data plane: real records and synthetic (accounting-only) runs.
//!
//! Correctness runs (tests, examples) materialise every key-value pair and
//! genuinely sort, partition, and merge them; paper-scale benchmark runs
//! carry only record/byte counts through exactly the same code paths, so
//! the *timing* model is identical in both modes.
//!
//! # A real run is an index over the bytes it was decoded from
//!
//! Hadoop's `kvbuffer`/`kvmeta`: record bytes stay where they are, in
//! [`encode_records`]' layout, and what is sorted, partitioned, shuffled and
//! merged is a 16-byte `Entry` per record — the key's first eight bytes
//! and where the record's header lies. A run ([`RunData::Real`]) is a window
//! of a shared sorted index over a shared table of backing buffers, so a
//! shuffle packet, a partition and a merged batch are two reference-count
//! bumps, never a payload copy and never a per-record handle.
//!
//! # The copy rule
//!
//! A real byte is copied where it changes owner, and nowhere else:
//!
//! * **input** is adopted — an HDFS block *is* a run's backing buffer
//!   ([`Segment::from_encoded`] walks its headers once);
//! * **mapper / combiner output** pays one encode into a fresh arena — a
//!   mapper's as it emits ([`MapSink`]), a combiner's through
//!   [`Segment::from_records`];
//! * **reduce output** pays one gather, record by record, straight into the
//!   open HDFS block (`Segment::encode_into` under `ReduceSink`).
//!
//! [`Record`] is the by-value view user code sees ([`decode_records`],
//! [`Segment::to_records`], [`for_each_group`]): two [`Bytes`] windows into
//! a backing buffer, built only where a map, combine or reduce function asks
//! for one. A window pins its buffer, which costs nothing extra: HDFS holds
//! an input block for the file's life anyway.
//!
//! # Walking an index
//!
//! The index is sorted; the bytes it points into are not. A loop that walks
//! entries in key order and reads each record therefore goes to a scattered
//! offset per record, a DRAM miss apiece, so it prefetches the record it
//! will read a few entries on (`RealRun::prefetch`) — the reduce gather
//! eight ahead in batch order, the streaming merge two ahead in the source
//! it pops. A prefetch is a hint: it moves no byte and changes no value.

use std::cmp::Ordering;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::merge::{Emit, StreamingMerge};
use crate::spec::ReduceFn;

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
/// data plane, and the layout of every run's backing buffer.
pub fn encode_records(records: &[Record]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(records) as usize);
    encode_into(records, &mut buf);
    buf.freeze()
}

/// Bytes [`encode_records`] produces for `records`.
pub(crate) fn encoded_len(records: &[Record]) -> u64 {
    records.iter().map(|r| 8 + r.size()).sum()
}

/// [`encode_records`] appended to a buffer the caller owns.
pub(crate) fn encode_into(records: &[Record], buf: &mut BytesMut) {
    for r in records {
        encode_record(&r.key, &r.value, buf);
    }
}

/// One record in [`encode_records`]' layout, appended to `buf`.
pub fn encode_record(key: &[u8], value: &[u8], buf: &mut BytesMut) {
    buf.put_u32(key.len() as u32);
    buf.put_u32(value.len() as u32);
    buf.put_slice(key);
    buf.put_slice(value);
}

/// The two length fields of the header at byte `at` of `buf`.
fn header(buf: &[u8], at: usize) -> (usize, usize) {
    let field = |o: usize| {
        u32::from_be_bytes(buf[at + o..at + o + 4].try_into().expect("4 bytes")) as usize
    };
    (field(0), field(4))
}

/// The key and value ranges of the record whose header is at byte `at` of
/// `buf` (for a buffer [`walk`] has been over).
fn fields(buf: &[u8], at: usize) -> (Range<usize>, Range<usize>) {
    let (klen, vlen) = header(buf, at);
    let key = at + 8..at + 8 + klen;
    (key.clone(), key.end..key.end + vlen)
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
    let (klen, vlen) = header(buf, at);
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

/// Walks an encoded buffer: `(key range, value range)` of each record, the
/// header being the eight bytes before the key. Panics on malformed input
/// (the encoder is the only producer in this system), naming the record and
/// byte offset where decoding stopped.
pub fn walk(buf: &[u8]) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
    let mut at = 0usize;
    (0usize..).map_while(move |idx| {
        (at < buf.len()).then(|| {
            let (klen, vlen) = record_lengths(buf, idx, at);
            let key = at + 8..at + 8 + klen;
            at = key.end + vlen;
            (key.clone(), key.end..at)
        })
    })
}

/// Inverse of [`encode_records`]: every key and value is a window into
/// `data`. Panics on malformed input like [`walk`]. (Hand-rolled rather than
/// built on `walk`: the iterator costs this loop 8 % per record.)
pub fn decode_records(data: Bytes) -> Vec<Record> {
    let buf: &[u8] = &data;
    // Walk the headers once to size the output exactly (and to validate),
    // then cut the windows.
    let count = count_records(buf);
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

/// The number of records in an encoded buffer, from one walk over their
/// headers: no window is cut. Panics on malformed input like [`walk`].
pub(crate) fn count_records(buf: &[u8]) -> usize {
    let (mut count, mut at) = (0usize, 0usize);
    while at < buf.len() {
        let (klen, vlen) = record_lengths(buf, count, at);
        at += 8 + klen + vlen;
        count += 1;
    }
    count
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

/// Where a map function puts its output, one [`MapSink::emit`] per record:
/// the key is borrowed (the sink copies what it keeps of it), the value
/// owned.
pub enum MapSink<'a> {
    /// Each record encoded at the end of one arena, in [`encode_records`]'
    /// layout and emission order: a job without a combiner, whose arena
    /// becomes its output run ([`Segment::from_encoded`]).
    Arena(&'a mut BytesMut),
    /// The map-side combiner's group table.
    Groups(&'a mut GroupTable),
}

impl MapSink<'_> {
    /// Adds one record.
    #[inline]
    pub fn emit(&mut self, key: &[u8], value: Bytes) {
        match self {
            MapSink::Arena(arena) => encode_record(key, &value, arena),
            MapSink::Groups(table) => table.push(key, value),
        }
    }
}

/// A combiner's group table: key → values in arrival order. Pushing records
/// in any order and combining each group in key order yields, record for
/// record, what stably sorting the records and scanning them for equal keys
/// would — without ever holding the uncombined records. A push is one hash
/// lookup by the borrowed key, which is copied only the first time it
/// arrives; the groups are put in key order once, by (key prefix, key), when
/// they are combined.
#[derive(Default)]
pub struct GroupTable {
    /// Where each key's group is in `groups`.
    // simcheck: allow(unordered-map) -- looked up by key, never iterated: groups combine in `groups`' sorted order
    index: std::collections::HashMap<Bytes, usize, BuildHasherDefault<WordHasher>>,
    /// `(key prefix, key, values)` per group, in order of first arrival.
    groups: Vec<(u64, Bytes, Vec<Bytes>)>,
    records: usize,
}

impl GroupTable {
    /// Adds one record to its key's group.
    pub fn push(&mut self, key: &[u8], value: Bytes) {
        self.records += 1;
        let group = match self.index.get(key) {
            Some(&group) => group,
            None => {
                let key = Bytes::copy_from_slice(key);
                self.index.insert(key.clone(), self.groups.len());
                // A group starts empty, so its first push makes room for
                // four: `vec![value]` allocates one and reallocates on the
                // next push, which left `service_cap` peaking 0.8 MB higher.
                self.groups.push((key_prefix(&key), key, Vec::new()));
                self.groups.len() - 1
            }
        };
        self.groups[group].2.push(value);
    }

    /// Records pushed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Runs `combine` over every group in key order; its output as a run.
    pub fn combine(mut self, combine: &ReduceFn) -> Segment {
        // Keys are distinct, so the unstable sort is deterministic.
        self.groups
            .sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut combined = Vec::new();
        for (_, key, values) in &self.groups {
            combine(key, values, &mut combined);
        }
        Segment::from_records(combined)
    }
}

/// The group table's hasher: multiply-rotate over 8-byte words (the Fx
/// scheme), a few cycles a key where std's SipHash costs 10 ns a token more.
/// Keys come from the job's own data.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        let mut rest = bytes;
        while rest.len() > 8 {
            self.write_u64(word(&rest[..8]));
            rest = &rest[8..];
        }
        // The last one to eight bytes: one read that ends where the key does
        // if the key has eight, else byte by byte — never a copy into padding,
        // which cost as much as SipHash.
        let last = match bytes.len().checked_sub(8) {
            Some(at) => word(&bytes[at..]),
            None => rest.iter().fold(0, |w, &b| w << 8 | u64::from(b)),
        };
        self.write_u64(last);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits: bring the well-mixed high ones down.
        self.0.rotate_left(26)
    }
}

/// One record of a real run: where it lies, and enough of its key to order
/// it against most others without going there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// [`key_prefix`] of the record's key.
    pub(crate) prefix: u64,
    /// Which of the run's backing buffers holds the record.
    pub(crate) buf: u32,
    /// Where in that buffer the record's 8-byte header starts.
    pub(crate) off: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// What the windows of one run share: an index sorted by key, and the table
/// of backing buffers (in [`encode_records`]' layout) its entries point into.
/// Runs bucketed out of one run have an index each over the same table.
#[derive(Debug)]
struct Backing {
    index: Box<[Entry]>,
    bufs: Rc<[Bytes]>,
}

/// A window `[start, end)` of a shared `Backing`: one reference count and
/// two offsets, so that a [`Segment`] is as small as when a run was a window
/// of a record vector — synthetic runs, kept by the million, pay for its size
/// too.
#[derive(Debug, Clone)]
pub struct RealRun {
    backing: Rc<Backing>,
    start: usize,
    end: usize,
}

const _: () = assert!(std::mem::size_of::<Segment>() == 40);

impl RealRun {
    /// The whole of `index`, already in key order, over `bufs`.
    pub(crate) fn over(index: Vec<Entry>, bufs: Rc<[Bytes]>) -> Self {
        let index = index.into_boxed_slice();
        RealRun {
            start: 0,
            end: index.len(),
            backing: Rc::new(Backing { index, bufs }),
        }
    }

    /// The window's entries, in key order.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.backing.index[self.start..self.end]
    }

    /// The backing buffers the entries point into.
    pub(crate) fn bufs(&self) -> &Rc<[Bytes]> {
        &self.backing.bufs
    }

    /// The buffer holding `e` and the record's key and value ranges in it
    /// (validated when the buffer was indexed).
    fn locate(&self, e: &Entry) -> (&Bytes, Range<usize>, Range<usize>) {
        let buf = &self.backing.bufs[e.buf as usize];
        let (key, value) = fields(buf, e.off as usize);
        (buf, key, value)
    }

    /// The key of `e`.
    pub(crate) fn key(&self, e: &Entry) -> &[u8] {
        let (buf, key, _) = self.locate(e);
        &buf[key]
    }

    /// [`Record::size`] of `e`.
    pub(crate) fn size(&self, e: &Entry) -> u64 {
        let (_, key, value) = self.locate(e);
        (value.end - key.start) as u64
    }

    /// Asks the CPU to start loading the record of the window's entry `i` —
    /// the cache line its header is on and the next, which a 100-byte record
    /// reaches into — if the window has that entry. A hint for a loop that
    /// will read it soon: it changes no value.
    #[inline]
    pub(crate) fn prefetch(&self, i: usize) {
        if let Some(e) = self.entries().get(i) {
            let header = (self.backing.bufs[e.buf as usize].as_ptr()).wrapping_add(e.off as usize);
            prefetch_line(header);
            prefetch_line(header.wrapping_add(64));
        }
    }

    /// `e` as it lies in its buffer: header, key, value.
    fn encoded(&self, e: &Entry) -> &[u8] {
        let (buf, key, value) = self.locate(e);
        &buf[key.start - 8..value.end]
    }

    /// The window's records, each as the by-value view user code sees.
    fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.entries().iter().map(|e| {
            let (buf, key, value) = self.locate(e);
            Record {
                key: buf.slice(key),
                value: buf.slice(value),
            }
        })
    }

    /// Key order of two entries of this run: the prefixes settle it unless
    /// they tie.
    fn cmp(&self, a: &Entry, b: &Entry) -> Ordering {
        (a.prefix.cmp(&b.prefix)).then_with(|| self.key(a).cmp(self.key(b)))
    }

    /// This window as a segment holding `bytes`.
    pub(crate) fn holding(self, bytes: u64) -> Segment {
        Segment {
            records: (self.end - self.start) as u64,
            bytes,
            data: RunData::Real(self),
        }
    }

    /// The `range` of this window's entries (which may run past its end,
    /// into the rest of the index), holding `bytes`.
    fn window(&self, range: Range<usize>, bytes: u64) -> Segment {
        let (start, end) = (self.start + range.start, self.start + range.end);
        debug_assert!(start <= end && end <= self.backing.index.len());
        RealRun {
            start,
            end,
            ..self.clone()
        }
        .holding(bytes)
    }

    /// [`Self::window`], summing the bytes from the records' headers.
    fn measured(&self, range: Range<usize>) -> Segment {
        let bytes = self.entries()[range.clone()]
            .iter()
            .map(|e| self.size(e))
            .sum();
        self.window(range, bytes)
    }
}

/// Starts loading the cache line that holds `p` (x86_64; elsewhere nothing).
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and never reads: any address will do.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// How far ahead of the record it copies the reduce gather prefetches, in
/// entries: far enough to cover a DRAM miss with eight 108-byte copies.
const GATHER_PREFETCH_AHEAD: usize = 8;

/// The contents of a sorted run: real records or synthetic counts.
#[derive(Debug, Clone)]
pub enum RunData {
    /// An index window over the buffers the records were decoded from.
    Real(RealRun),
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
    /// Byte count (keys and values; headers are not counted).
    pub bytes: u64,
    /// Contents.
    pub data: RunData,
}

impl Segment {
    /// An empty segment (synthetic flavour).
    pub fn empty() -> Self {
        Segment::synthetic(0, 0)
    }

    /// Indexes `data` in one header walk and sorts the index unless the
    /// records are `sorted` already. The sort is stable (records with equal
    /// keys keep their order in `data`): most comparisons are one integer
    /// compare on a 16-byte element, only prefix ties go to the key bytes,
    /// and the offset is the last tie-break, so no two entries compare equal
    /// and the unstable sort is deterministic.
    fn adopt(data: Bytes, sorted: bool) -> Self {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "a backing buffer holds at most 4 GiB"
        );
        let mut bytes = 0u64;
        let mut index: Vec<Entry> = walk(&data)
            .map(|(key, value)| {
                bytes += (value.end - key.start) as u64;
                Entry {
                    prefix: key_prefix(&data[key.clone()]),
                    buf: 0,
                    off: key.start as u32 - 8,
                }
            })
            .collect();
        if !sorted {
            let key = |e: &Entry| &data[fields(&data, e.off as usize).0];
            index.sort_unstable_by(|a, b| {
                (a.prefix.cmp(&b.prefix))
                    .then_with(|| key(a).cmp(key(b)))
                    .then(a.off.cmp(&b.off))
            });
        }
        RealRun::over(index, Rc::new([data])).holding(bytes)
    }

    /// A real segment over an encoded block as it stands: the block becomes
    /// the run's backing buffer, no record is materialised. Panics on
    /// malformed input exactly as [`decode_records`] does.
    pub fn from_encoded(data: Bytes) -> Self {
        Self::adopt(data, false)
    }

    /// Builds a real segment by sorting `records` by key (stably: records
    /// with equal keys keep their input order), encoded into one fresh arena.
    pub fn from_records(records: Vec<Record>) -> Self {
        Self::adopt(encode_records(&records), false)
    }

    /// Builds a real segment from records already sorted by key.
    pub fn from_sorted(records: Vec<Record>) -> Self {
        let seg = Self::adopt(encode_records(&records), true);
        debug_assert!(seg.is_sorted());
        seg
    }

    /// Builds a synthetic segment.
    pub fn synthetic(records: u64, bytes: u64) -> Self {
        Segment {
            records,
            bytes,
            data: RunData::Synthetic { records, bytes },
        }
    }

    /// The index window of a real segment.
    pub(crate) fn real(&self) -> Option<&RealRun> {
        match &self.data {
            RunData::Real(run) => Some(run),
            RunData::Synthetic { .. } => None,
        }
    }

    /// True if this segment carries real records.
    pub fn is_real(&self) -> bool {
        self.real().is_some()
    }

    /// True if the segment holds nothing.
    pub fn is_empty(&self) -> bool {
        self.records == 0 && self.bytes == 0
    }

    /// The real records in the window, each as a by-value view (empty
    /// iterator for synthetic data).
    pub fn iter_real(&self) -> impl Iterator<Item = Record> + '_ {
        self.real().into_iter().flat_map(RealRun::records)
    }

    /// Collects the real records (None for synthetic).
    pub fn to_records(&self) -> Option<Vec<Record>> {
        self.is_real().then(|| self.iter_real().collect())
    }

    /// First key in the window (real only).
    pub fn first_key(&self) -> Option<&[u8]> {
        let run = self.real()?;
        run.entries().first().map(|e| run.key(e))
    }

    /// Last key in the window (real only).
    pub fn last_key(&self) -> Option<&[u8]> {
        let run = self.real()?;
        run.entries().last().map(|e| run.key(e))
    }

    /// Checks the sortedness invariant (vacuously true for synthetic).
    pub fn is_sorted(&self) -> bool {
        self.real().is_none_or(|run| {
            let sorted = |w: &[Entry]| run.cmp(&w[0], &w[1]).is_le();
            run.entries().windows(2).all(sorted)
        })
    }

    /// Appends the window's records to `buf` in [`encode_records`]' layout:
    /// the one copy a reduce output byte pays (nothing for synthetic data).
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        if let Some(run) = self.real() {
            for (i, e) in run.entries().iter().enumerate() {
                run.prefetch(i + GATHER_PREFETCH_AHEAD);
                buf.put_slice(run.encoded(e));
            }
        }
    }

    /// Splits a real segment in front of its trailing key group: everything
    /// before the last key's first record, and that key's records.
    pub(crate) fn split_trailing_group(&self) -> (Segment, Segment) {
        let run = self.real().expect("key groups are a real-mode notion");
        let entries = run.entries();
        let cut = entries.last().map_or(0, |last| {
            let other = |e: &Entry| run.cmp(e, last).is_ne();
            entries.iter().rposition(other).map_or(0, |p| p + 1)
        });
        let tail = run.measured(cut..entries.len());
        (run.window(0..cut, self.bytes - tail.bytes), tail)
    }

    /// Partitions this segment's records into `n` partitions with `part`.
    /// Real: by actual key. Synthetic: evenly, remainder spread over the
    /// first partitions (uniform-key assumption — true for TeraGen and
    /// RandomWriter data).
    pub fn partition(&self, n: usize, part: &dyn Partitioner) -> Vec<Segment> {
        assert!(n > 0);
        match &self.data {
            RunData::Real(run) if part.is_monotone() => {
                // Sorted input + monotone partitioner ⇒ each partition is a
                // contiguous window of the index: shared, nothing moves.
                let entries = run.entries();
                let mut lo = 0usize;
                (0..n)
                    .map(|p| {
                        let here = |e: &Entry| part.partition(run.key(e), n) <= p;
                        let hi = lo + entries[lo..].partition_point(here);
                        let window = run.measured(lo..hi);
                        lo = hi;
                        window
                    })
                    .collect()
            }
            RunData::Real(run) => {
                // Entries were sorted; stable bucketing keeps each bucket
                // sorted, over the same buffers.
                let mut buckets: Vec<(Vec<Entry>, u64)> = vec![(Vec::new(), 0); n];
                for e in run.entries() {
                    let bucket = &mut buckets[part.partition(run.key(e), n)];
                    bucket.0.push(*e);
                    bucket.1 += run.size(e);
                }
                let bucket =
                    |(index, bytes)| RealRun::over(index, Rc::clone(run.bufs())).holding(bytes);
                buckets.into_iter().map(bucket).collect()
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
    /// windows a cursor produced, in order). Contiguous windows of the same
    /// index are rejoined without copying; anything else falls back to a
    /// merge. Synthetic packets just sum.
    pub fn concat(parts: Vec<Segment>) -> Segment {
        let adjoin = |w: &[Segment]| match (w[0].real(), w[1].real()) {
            (Some(a), Some(b)) => Rc::ptr_eq(&a.backing, &b.backing) && a.end == b.start,
            _ => false,
        };
        match parts.first().and_then(Segment::real) {
            Some(first) if parts.windows(2).all(adjoin) => {
                let records: u64 = parts.iter().map(|p| p.records).sum();
                let bytes = parts.iter().map(|p| p.bytes).sum();
                first.window(0..records as usize, bytes)
            }
            _ => Segment::merge(&parts),
        }
    }

    /// K-way merges sorted segments into one sorted segment, ties going to
    /// the earlier segment: a [`StreamingMerge`] with every source delivered
    /// up front. All-real and all-synthetic inputs are supported; mixing
    /// panics (a job runs in one mode). An empty segment has no mode — a
    /// zero-record map output is served as `synthetic(0, 0)` whatever the
    /// job's — so it merges with either.
    pub fn merge(segments: &[Segment]) -> Segment {
        if segments.iter().all(|s| !s.is_real()) {
            let records = segments.iter().map(|s| s.records).sum();
            let bytes = segments.iter().map(|s| s.bytes).sum();
            return Segment::synthetic(records, bytes);
        }
        assert!(
            segments.iter().all(|s| s.is_real() || s.is_empty()),
            "cannot merge mixed real/synthetic segments"
        );
        let real = || segments.iter().filter(|s| s.is_real());
        let mut merge = StreamingMerge::new(real().map(|s| s.records).collect());
        for (source, seg) in real().enumerate() {
            merge.append(source, seg.clone());
        }
        match merge.emit(u64::MAX) {
            Emit::Data(merged) => merged,
            _ => Segment::from_sorted(Vec::new()),
        }
    }
}

/// A sequential cursor over a segment, yielding shuffle packets. A real
/// packet is a window of the segment's own index and buffer table: taking
/// one allocates nothing.
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

    fn advance(&mut self, taken: Segment) -> Segment {
        self.rec_pos += taken.records;
        self.byte_pos += taken.bytes;
        taken
    }

    /// Takes the next packet of at most `budget` bytes (always at least one
    /// record if any remain, so oversized records still move).
    pub fn take_bytes(&mut self, budget: u64) -> Segment {
        let (rem_recs, rem_bytes) = (self.remaining_records(), self.remaining_bytes());
        let taken = match &self.seg.data {
            RunData::Real(run) => {
                let from = self.rec_pos as usize;
                let (mut to, mut bytes) = (from, 0u64);
                for e in &run.entries()[from..] {
                    let sz = run.size(e);
                    if to > from && bytes + sz > budget {
                        break;
                    }
                    bytes += sz;
                    to += 1;
                }
                run.window(from..to, bytes)
            }
            RunData::Synthetic { .. } if rem_recs == 0 => Segment::empty(),
            RunData::Synthetic { .. } => {
                let avg = (rem_bytes / rem_recs).max(1);
                let bytes = budget.min(rem_bytes);
                let recs = (bytes / avg).clamp(1, rem_recs);
                // Final packet flushes any rounding residue.
                let bytes = if recs == rem_recs { rem_bytes } else { bytes };
                Segment::synthetic(recs, bytes)
            }
        };
        self.advance(taken)
    }

    /// Takes the next packet of at most `n` records (Hadoop-A's fixed-count
    /// packets).
    pub fn take_records(&mut self, n: u64) -> Segment {
        let (rem_recs, rem_bytes) = (self.remaining_records(), self.remaining_bytes());
        let recs = n.min(rem_recs);
        let taken = match &self.seg.data {
            RunData::Real(run) => {
                let from = self.rec_pos as usize;
                run.measured(from..from + recs as usize)
            }
            RunData::Synthetic { .. } if rem_recs == 0 => Segment::empty(),
            RunData::Synthetic { .. } if recs == rem_recs => Segment::synthetic(recs, rem_bytes),
            RunData::Synthetic { .. } => {
                let bytes = (rem_bytes as u128 * recs as u128 / rem_recs as u128) as u64;
                Segment::synthetic(recs, bytes)
            }
        };
        self.advance(taken)
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

    fn keys(seg: &Segment) -> Vec<Vec<u8>> {
        seg.iter_real().map(|r| r.key.to_vec()).collect()
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

    /// `from_encoded` stops on the malformed inputs above where
    /// `decode_records` does, with the same words.
    #[test]
    fn from_encoded_reproduces_the_decode_panics() {
        let message = |f: &dyn Fn(Bytes), data: &Bytes| -> String {
            let data = data.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(data)));
            let payload = caught.expect_err("malformed input must panic");
            payload.downcast_ref::<String>().expect("formatted").clone()
        };
        let whole = encode_records(&[rec(b"ab", b"cd")]);
        let torn_key = [
            &whole[..],
            &4096u32.to_be_bytes(),
            &1u32.to_be_bytes(),
            b"only",
        ]
        .concat();
        let torn_header = [&whole[..], &[0u8; 5]].concat();
        let short_value = encode_records(&[rec(b"ab", b"cde")]);
        let short_value = short_value.slice(0..short_value.len() - 2);
        let cases = [
            (
                Bytes::from(torn_key),
                "record 1 at byte 12: key length 4096 exceeds 4 remaining",
            ),
            (
                Bytes::from(torn_header),
                "record 1 at byte 12: header needs 8 bytes, 5 remaining",
            ),
            (
                short_value,
                "record 0 at byte 0: value length 3 exceeds 1 remaining bytes",
            ),
        ];
        for (data, want) in &cases {
            let decode = message(&|d| drop(decode_records(d)), data);
            let adopt = message(&|d| drop(Segment::from_encoded(d)), data);
            assert!(decode.contains(want), "{decode}");
            assert_eq!(adopt, decode);
        }
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
    fn from_records_sorts() {
        let s = Segment::from_records(vec![rec(b"c", b"3"), rec(b"a", b"1"), rec(b"b", b"2")]);
        assert!(s.is_sorted());
        assert_eq!(s.records, 3);
        assert_eq!(s.bytes, 6);
        assert_eq!(s.first_key(), Some(&b"a"[..]));
        assert_eq!(s.last_key(), Some(&b"c"[..]));
    }

    /// An adopted block is the run's one backing buffer: the index points at
    /// the block's own headers, sorted stably, and encoding the run back out
    /// is `encode_records` of the sorted records.
    #[test]
    fn from_encoded_indexes_the_block_in_place() {
        let records = vec![
            rec(b"b", b"1"),
            rec(b"a", b"22"),
            rec(b"b", b"0"),
            rec(b"", b""),
        ];
        let block = encode_records(&records);
        let seg = Segment::from_encoded(block.clone());
        assert_eq!((seg.records, seg.bytes), (4, 7));
        let run = seg.real().expect("real");
        assert_eq!(run.bufs().len(), 1);
        assert_eq!(
            run.bufs()[0].as_ptr(),
            block.as_ptr(),
            "adopted, not copied"
        );
        let offsets: Vec<u32> = run.entries().iter().map(|e| e.off).collect();
        assert_eq!(offsets, vec![31, 10, 0, 21], "equal keys keep block order");
        let sorted = vec![
            rec(b"", b""),
            rec(b"a", b"22"),
            rec(b"b", b"1"),
            rec(b"b", b"0"),
        ];
        assert_eq!(seg.to_records().expect("real"), sorted);
        let mut out = BytesMut::new();
        seg.encode_into(&mut out);
        assert_eq!(out.freeze(), encode_records(&sorted));
    }

    #[test]
    fn trailing_group_split_keeps_counts() {
        let s = Segment::from_sorted(vec![rec(b"a", b"1"), rec(b"b", b"22"), rec(b"b", b"333")]);
        let (head, tail) = s.split_trailing_group();
        assert_eq!((head.records, head.bytes), (1, 2));
        assert_eq!((tail.records, tail.bytes), (2, 7));
        assert_eq!(keys(&tail), vec![b"b".to_vec(), b"b".to_vec()]);
        let (head, tail) = tail.split_trailing_group();
        assert_eq!((head.records, head.bytes, tail.records), (0, 0, 2));
        let (head, tail) = Segment::from_sorted(Vec::new()).split_trailing_group();
        assert_eq!((head.records, tail.records), (0, 0));
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
        assert_eq!((m.records, m.bytes), (4, 8));
        assert_eq!(keys(&m), [b"a", b"b", b"c", b"d"].map(|k| k.to_vec()));
        let none = Segment::merge(&[Segment::from_sorted(Vec::new())]);
        assert!(none.is_real() && none.is_empty());
    }

    #[test]
    fn merge_skips_an_empty_segment_whatever_its_mode() {
        let a = Segment::from_records(vec![rec(b"a", b"1"), rec(b"d", b"4")]);
        let b = Segment::from_records(vec![rec(b"b", b"2"), rec(b"c", b"3")]);
        let with = Segment::merge(&[a.clone(), Segment::empty(), b.clone()]);
        assert!(with.is_real());
        assert_eq!(with.to_records(), Segment::merge(&[a, b]).to_records());
    }

    #[test]
    #[should_panic(expected = "cannot merge mixed real/synthetic segments")]
    fn merge_still_rejects_non_empty_segments_of_both_modes() {
        let real = Segment::from_records(vec![rec(b"a", b"1")]);
        Segment::merge(&[real, Segment::synthetic(1, 10)]);
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

    /// A packet is a window of the run's own index and buffer table — taking
    /// one allocates nothing — and so is a monotone partition.
    #[test]
    fn packets_and_partitions_share_index_and_buffer_table() {
        let recs: Vec<Record> = (0..6u8).map(|i| rec(&[i << 5], b"v")).collect();
        let seg = Segment::from_records(recs);
        let whole = seg.real().expect("real").clone();
        let shares = |s: &Segment| {
            let run = s.real().expect("real");
            Rc::ptr_eq(&run.backing, &whole.backing) && Rc::ptr_eq(run.bufs(), whole.bufs())
        };
        let mut c = SegmentCursor::new(seg.clone());
        let (by_records, by_bytes) = (c.take_records(2), c.take_bytes(4));
        assert!(shares(&by_records) && shares(&by_bytes));
        assert_eq!((by_records.records, by_bytes.records), (2, 2));
        assert_eq!(keys(&by_bytes), vec![vec![2u8 << 5], vec![3u8 << 5]]);
        let parts = seg.partition(4, &TotalOrderPartitioner);
        assert!(parts.iter().all(shares));
        assert_eq!(
            parts.iter().map(|p| p.records).collect::<Vec<_>>(),
            [2, 2, 2, 0]
        );
        // Hashed buckets get an index of their own over the same buffers.
        for p in seg.partition(3, &HashPartitioner) {
            let run = p.real().expect("real");
            assert!(!Rc::ptr_eq(&run.backing, &whole.backing));
            assert!(Rc::ptr_eq(run.bufs(), whole.bufs()));
        }
        let rejoined = Segment::concat(vec![by_records, by_bytes]);
        assert!(shares(&rejoined));
        assert_eq!((rejoined.records, rejoined.bytes), (4, 8));
    }
}
