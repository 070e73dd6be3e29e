//! The reduce-side streaming merge (§III-B-2, "Faster Merge").
//!
//! Both RDMA designs merge the heads of all map-output segments through a
//! priority queue, emitting globally sorted key-value pairs into the
//! `DataToReduceQueue` while later packets are still in flight. The
//! correctness rule is the one the paper states: the merge may only extract
//! while *every* non-exhausted source has data available — when "the number
//! of key-value pairs from a particular map decreases to zero", extraction
//! pauses until that map's next packet arrives.
//!
//! [`StreamingMerge`] is a plain synchronous data structure; the shuffle
//! engines drive it and do the fetching/awaiting around it. It supports both
//! data planes: real packets heap-merge by key; synthetic packets emit
//! proportionally to each source's remaining share (the fluid limit of a
//! merge over uniformly distributed keys — exactly TeraGen/RandomWriter
//! key distributions).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use bytes::Bytes;

use crate::record::{key_prefix, Record, RunData, Segment};

/// What [`StreamingMerge::emit`] produced.
#[derive(Debug)]
pub enum Emit {
    /// Merged, globally sorted output.
    Data(Segment),
    /// No progress possible: these sources are dry but not exhausted.
    Stalled(Vec<usize>),
    /// Every source fully consumed and emitted.
    Done,
}

/// `a * b / c` without leaving `u64` unless the product overflows it.
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => (a as u128 * b as u128 / c as u128) as u64,
    }
}

struct Source {
    expected_records: u64,
    appended_records: u64,
    consumed_records: u64,
    consumed_bytes_in_head: u64,
    /// FIFO of delivered, not-yet-fully-consumed packets.
    packets: VecDeque<Segment>,
    /// Index into the head packet (real mode).
    head_idx: usize,
    /// Buffered below the refill watermark with more packets still to come
    /// (see [`StreamingMerge::wants_refill`]).
    low: bool,
}

impl Source {
    fn available(&self) -> u64 {
        self.appended_records - self.consumed_records
    }

    /// Records still to be consumed, delivered or not.
    fn remaining(&self) -> u64 {
        self.expected_records - self.consumed_records
    }

    fn below(&self, watermark: u64) -> bool {
        self.appended_records < self.expected_records && self.available() < watermark
    }

    fn exhausted(&self) -> bool {
        self.consumed_records >= self.expected_records
    }

    /// The current head record (real mode; None if dry).
    fn head(&self) -> Option<&Record> {
        let pkt = self.packets.front()?;
        match &pkt.data {
            RunData::Real { recs, start, end } => {
                let i = start + self.head_idx;
                if i < *end {
                    Some(&recs[i])
                } else {
                    None
                }
            }
            RunData::Synthetic { .. } => None,
        }
    }

    /// Consumes the head record (real mode), returning it.
    fn pop_real(&mut self) -> Record {
        let pkt = self.packets.front().expect("pop from dry source");
        let rec = match &pkt.data {
            RunData::Real { recs, start, .. } => recs[start + self.head_idx].clone(),
            RunData::Synthetic { .. } => unreachable!("pop_real on synthetic"),
        };
        self.head_idx += 1;
        self.consumed_records += 1;
        if self.head_idx as u64 >= pkt.records {
            self.packets.pop_front();
            self.head_idx = 0;
        }
        rec
    }

    /// Consumes `n` records from the packet FIFO (synthetic mode), returning
    /// bytes consumed (proportional within partially consumed packets).
    fn pop_synthetic(&mut self, mut n: u64) -> u64 {
        let mut bytes = 0u64;
        while n > 0 {
            let pkt = self.packets.front_mut().expect("pop from dry source");
            let pkt_consumed = self.head_idx as u64;
            let left_in_pkt = pkt.records - pkt_consumed;
            let take = n.min(left_in_pkt);
            let b = if take == left_in_pkt {
                pkt.bytes - self.consumed_bytes_in_head
            } else {
                mul_div(pkt.bytes, take, pkt.records)
            };
            bytes += b;
            self.consumed_bytes_in_head += b;
            self.head_idx += take as usize;
            self.consumed_records += take;
            n -= take;
            if self.head_idx as u64 >= pkt.records {
                self.packets.pop_front();
                self.head_idx = 0;
                self.consumed_bytes_in_head = 0;
            }
        }
        bytes
    }
}

/// Head-of-source entry in the real-mode merge heap: the minimum buffered
/// key of one source. Ties break on source index, matching the scan order
/// the merge used before it was heap-based. The key's eight-byte prefix
/// rides along and is compared first — it orders like the key wherever two
/// prefixes differ, so most sift steps never touch the key bytes.
#[derive(PartialEq, Eq)]
struct HeadKey {
    prefix: u64,
    key: Bytes,
    src: usize,
}

impl HeadKey {
    fn new(key: &Bytes, src: usize) -> Self {
        HeadKey {
            prefix: key_prefix(key),
            key: key.clone(),
            src,
        }
    }
}

impl Ord for HeadKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prefix, &self.key, self.src).cmp(&(other.prefix, &other.key, other.src))
    }
}

impl PartialOrd for HeadKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority-queue merge over incrementally delivered packet streams.
///
/// Everything `emit` decides on is kept current where it changes — at
/// `append` and at each pop — rather than recounted per call: the records
/// still to emit (`remaining`, so `done` is O(1)), the extraction stall rule
/// ("pause while any non-exhausted source is dry", the `dry` set), and which
/// sources have fallen below the refill watermark. Real-mode extraction pops
/// a min-heap of buffered head keys, O(log k) per record; a synthetic batch
/// is two passes over the sources that still have records to give.
pub struct StreamingMerge {
    sources: Vec<Source>,
    real: Option<bool>,
    emitted_records: u64,
    emitted_bytes: u64,
    /// Records not yet consumed, summed over all sources.
    remaining: u64,
    /// The sources that are dry (not exhausted, nothing buffered).
    dry: BTreeSet<usize>,
    /// Real mode only: one entry per source that has a buffered head.
    heads: BinaryHeap<Reverse<HeadKey>>,
    /// Sources with records left to consume, ascending. Exhausted entries
    /// are dropped by the next synthetic batch, not at the pop.
    live: Vec<usize>,
    /// Buffered-record level under which a source wants its next packet.
    watermark: u64,
    /// Sources whose `low` flag was raised since [`Self::newly_low`] last ran.
    newly_low: Vec<usize>,
}

impl StreamingMerge {
    /// Creates a merge expecting, per source, the given total record count.
    /// No source ever [wants a refill](Self::wants_refill).
    pub fn new(expected_records: Vec<u64>) -> Self {
        Self::with_watermark(expected_records, 0)
    }

    /// [`Self::new`] with a refill watermark in records: a source holding
    /// fewer unconsumed records than that, with packets still to come,
    /// [wants a refill](Self::wants_refill).
    pub fn with_watermark(expected_records: Vec<u64>, watermark: u64) -> Self {
        let sources: Vec<Source> = expected_records
            .into_iter()
            .map(|expected_records| Source {
                expected_records,
                appended_records: 0,
                consumed_records: 0,
                consumed_bytes_in_head: 0,
                packets: VecDeque::new(),
                head_idx: 0,
                low: expected_records > 0 && watermark > 0,
            })
            .collect();
        // Every source expecting data starts dry (and low); zero-record
        // sources are born exhausted.
        let live: Vec<usize> = (0..sources.len())
            .filter(|&i| !sources[i].exhausted())
            .collect();
        let newly_low = live.iter().copied().filter(|&i| sources[i].low).collect();
        let heads = BinaryHeap::with_capacity(sources.len());
        StreamingMerge {
            real: None,
            emitted_records: 0,
            emitted_bytes: 0,
            remaining: sources.iter().map(Source::remaining).sum(),
            dry: live.iter().copied().collect(),
            heads,
            live,
            watermark,
            newly_low,
            sources,
        }
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Records emitted so far.
    pub fn emitted_records(&self) -> u64 {
        self.emitted_records
    }

    /// Bytes emitted so far.
    pub fn emitted_bytes(&self) -> u64 {
        self.emitted_bytes
    }

    /// Delivers a shuffle packet for `source`.
    pub fn append(&mut self, source: usize, packet: Segment) {
        if packet.records == 0 {
            return;
        }
        let is_real = packet.is_real();
        match self.real {
            None => self.real = Some(is_real),
            Some(r) => assert_eq!(r, is_real, "mixed real/synthetic packets"),
        }
        let s = &mut self.sources[source];
        if s.available() == 0 {
            self.dry.remove(&source);
        }
        let had_head = !s.packets.is_empty();
        s.appended_records += packet.records;
        assert!(
            s.appended_records <= s.expected_records,
            "source {source} over-delivered: {} > {}",
            s.appended_records,
            s.expected_records
        );
        s.packets.push_back(packet);
        // A delivery can only lift a source over the watermark (or complete
        // it), never drop it under.
        s.low = s.low && s.below(self.watermark);
        if is_real && !had_head {
            let head = self.sources[source].head().expect("appended head");
            self.heads.push(Reverse(HeadKey::new(&head.key, source)));
        }
    }

    /// True while `source` holds fewer unconsumed records than the watermark
    /// and has packets still to come — the engine should request its next
    /// packet. Raised by extraction, cleared by [`Self::append`].
    pub fn wants_refill(&self, source: usize) -> bool {
        self.sources[source].low
    }

    /// The sources that started wanting a refill since the previous call, in
    /// the order they did (initially: every source expecting data). A later
    /// `append` may already have satisfied one; [`Self::wants_refill`] is the
    /// current state.
    pub fn newly_low(&mut self) -> std::vec::Drain<'_, usize> {
        self.newly_low.drain(..)
    }

    /// True once everything expected has been emitted.
    pub fn done(&self) -> bool {
        self.remaining == 0
    }

    /// The sources currently blocking extraction (dry but not exhausted).
    fn dry_sources(&self) -> Vec<usize> {
        self.dry.iter().copied().collect()
    }

    /// Bookkeeping for `n` records just popped from `source`.
    fn consumed(&mut self, source: usize, n: u64) {
        self.remaining -= n;
        let s = &mut self.sources[source];
        if s.available() == 0 && !s.exhausted() {
            self.dry.insert(source);
        }
        if !s.low && s.below(self.watermark) {
            s.low = true;
            self.newly_low.push(source);
        }
    }

    /// Extracts up to `max_records` merged records.
    pub fn emit(&mut self, max_records: u64) -> Emit {
        if self.done() {
            return Emit::Done;
        }
        if !self.dry.is_empty() {
            return Emit::Stalled(self.dry_sources());
        }
        let seg = match self.real {
            Some(true) => self.emit_real(max_records),
            // Synthetic (or nothing appended yet, which can't happen: dry
            // check above would have fired).
            _ => self.emit_synthetic(max_records),
        };
        if seg.records == 0 {
            // Only a zero `max_records` gets here: nothing is dry.
            return Emit::Stalled(self.dry_sources());
        }
        self.emitted_records += seg.records;
        self.emitted_bytes += seg.bytes;
        Emit::Data(seg)
    }

    fn emit_real(&mut self, max_records: u64) -> Segment {
        let mut out = Vec::with_capacity(max_records.min(self.remaining) as usize);
        while (out.len() as u64) < max_records {
            // Extraction is only safe while every non-exhausted source has a
            // buffered head.
            if !self.dry.is_empty() {
                break;
            }
            // The heap holds exactly one entry per source with a buffered
            // head, so its minimum is the global minimum head key.
            let Some(mut top) = self.heads.peek_mut() else {
                break;
            };
            let src = top.0.src;
            out.push(self.sources[src].pop_real());
            // Re-key the top entry in place (one sift-down when the guard
            // drops) instead of a pop and a push.
            match self.sources[src].head() {
                Some(h) => {
                    top.0 = HeadKey::new(&h.key, src);
                    drop(top);
                }
                None => drop(PeekMut::pop(top)),
            }
            self.consumed(src, 1);
        }
        Segment::from_sorted(out)
    }

    fn pop_synthetic(&mut self, source: usize, n: u64) -> u64 {
        let bytes = self.sources[source].pop_synthetic(n);
        self.consumed(source, n);
        bytes
    }

    /// Fluid limit: a batch draws from each source proportionally to its
    /// remaining share, `batch * rem / total`; the source that would run dry
    /// first caps the batch. Called with no live source dry.
    fn emit_synthetic(&mut self, max_records: u64) -> Segment {
        let total = self.remaining;
        // Pass 1: the largest batch whose share of every source fits in what
        // that source has buffered, `avail * total / rem` at its tightest.
        // Only a source that lowers the running minimum costs a division.
        let mut batch = max_records.min(total);
        let sources = &self.sources;
        self.live.retain(|&i| {
            let s = &sources[i];
            let rem = s.remaining();
            if rem == 0 {
                return false;
            }
            let avail = s.available();
            if (avail as u128 * total as u128) < batch as u128 * rem as u128 {
                batch = mul_div(avail, total, rem);
            }
            true
        });
        // Pass 2: each source's share, rounded down.
        let mut taken = 0u64;
        let mut bytes = 0u64;
        for at in 0..self.live.len() {
            let i = self.live[at];
            let take = mul_div(batch, self.sources[i].remaining(), total);
            debug_assert!(
                take <= self.sources[i].available(),
                "pass 1 caps every share"
            );
            if take > 0 {
                bytes += self.pop_synthetic(i, take);
                taken += take;
            }
        }
        // The rounding residue (less than one record per source) tops up
        // from the first sources that still have records buffered.
        let mut residue = batch - taken;
        for at in 0..self.live.len() {
            if residue == 0 {
                break;
            }
            let i = self.live[at];
            let take = self.sources[i].available().min(residue);
            if take > 0 {
                bytes += self.pop_synthetic(i, take);
                residue -= take;
            }
        }
        Segment::synthetic(batch - residue, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(k: u32) -> Record {
        Record::new(k.to_be_bytes().to_vec(), Bytes::from_static(b"v"))
    }

    fn real_packet(keys: &[u32]) -> Segment {
        Segment::from_sorted(keys.iter().map(|&k| rec(k)).collect())
    }

    #[test]
    fn real_merge_produces_global_order_across_packets() {
        let mut m = StreamingMerge::new(vec![4, 4]);
        m.append(0, real_packet(&[1, 5]));
        m.append(1, real_packet(&[2, 3]));
        let mut out = Vec::new();
        // First emit: both sources have data; may emit until someone dries.
        if let Emit::Data(seg) = m.emit(100) {
            out.extend(
                seg.iter_real()
                    .map(|r| u32::from_be_bytes(r.key[..4].try_into().unwrap())),
            );
        }
        // Source 1 dry after 2,3 consumed... emit stops when its buffer
        // empties (5 can't be emitted before knowing source 1's next key).
        assert_eq!(out, vec![1, 2, 3]);
        match m.emit(100) {
            Emit::Stalled(s) => assert_eq!(s, vec![1]),
            other => panic!("expected stall, got {other:?}"),
        }
        m.append(1, real_packet(&[4, 9]));
        m.append(0, real_packet(&[7, 8]));
        let mut rest = Vec::new();
        loop {
            match m.emit(100) {
                Emit::Data(seg) => rest.extend(
                    seg.iter_real()
                        .map(|r| u32::from_be_bytes(r.key[..4].try_into().unwrap())),
                ),
                Emit::Done => break,
                Emit::Stalled(s) => panic!("unexpected stall on {s:?}"),
            }
        }
        assert_eq!(rest, vec![4, 5, 7, 8, 9]);
        assert_eq!(m.emitted_records(), 8);
    }

    #[test]
    fn stall_until_first_packets_arrive() {
        let mut m = StreamingMerge::new(vec![2, 2]);
        match m.emit(10) {
            Emit::Stalled(s) => assert_eq!(s, vec![0, 1]),
            other => panic!("{other:?}"),
        }
        m.append(0, real_packet(&[1, 2]));
        match m.emit(10) {
            Emit::Stalled(s) => assert_eq!(s, vec![1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthetic_merge_emits_proportionally_and_stalls() {
        let mut m = StreamingMerge::new(vec![100, 100]);
        m.append(0, Segment::synthetic(10, 1_000));
        m.append(1, Segment::synthetic(10, 1_000));
        match m.emit(1_000) {
            Emit::Data(seg) => {
                // Proportional: both sources equally loaded → drains both.
                assert_eq!(seg.records, 20);
                assert_eq!(seg.bytes, 2_000);
            }
            other => panic!("{other:?}"),
        }
        match m.emit(1_000) {
            Emit::Stalled(s) => assert_eq!(s, vec![0, 1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthetic_merge_capped_by_lean_source() {
        let mut m = StreamingMerge::new(vec![100, 100]);
        m.append(0, Segment::synthetic(50, 5_000));
        m.append(1, Segment::synthetic(2, 200));
        match m.emit(1_000) {
            Emit::Data(seg) => {
                // Proportional draw: source 1 has 2 available of 100
                // remaining → batch ≈ 4 total.
                assert!(seg.records <= 4, "got {}", seg.records);
                assert!(seg.records >= 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_delivery_then_done() {
        let mut m = StreamingMerge::new(vec![3, 2]);
        m.append(0, Segment::synthetic(3, 300));
        m.append(1, Segment::synthetic(2, 200));
        let mut recs = 0;
        let mut bytes = 0;
        loop {
            match m.emit(2) {
                Emit::Data(s) => {
                    recs += s.records;
                    bytes += s.bytes;
                }
                Emit::Done => break,
                Emit::Stalled(s) => panic!("stall {s:?}"),
            }
        }
        assert_eq!(recs, 5);
        assert_eq!(bytes, 500);
        assert!(m.done());
    }

    #[test]
    fn refill_tracking_follows_the_watermark() {
        let low = |m: &StreamingMerge| -> Vec<usize> {
            (0..m.source_count())
                .filter(|&i| m.wants_refill(i))
                .collect()
        };
        let mut m = StreamingMerge::with_watermark(vec![10, 10, 3, 0], 4);
        // Every source expecting data starts out wanting its first packet.
        assert_eq!(m.newly_low().collect::<Vec<_>>(), vec![0, 1, 2]);
        m.append(0, Segment::synthetic(8, 80));
        m.append(1, Segment::synthetic(1, 10));
        m.append(2, Segment::synthetic(3, 30)); // fully delivered
        assert_eq!(low(&m), vec![1]);
        // 23 remaining, source 1 caps the batch at 1 * 23 / 10 = 2 records:
        // every share rounds to 0 and source 0 takes both as residue.
        match m.emit(100) {
            Emit::Data(seg) => assert_eq!(seg.records, 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.newly_low().count(), 0);
        m.append(1, Segment::synthetic(9, 90)); // completes source 1
        assert_eq!(low(&m), Vec::<usize>::new());
        // Source 0 (6 buffered of 8 remaining) now caps the batch; it drops
        // under the watermark and still has two records to come.
        assert!(matches!(m.emit(100), Emit::Data(_)));
        assert_eq!(m.newly_low().collect::<Vec<_>>(), vec![0]);
        assert_eq!(low(&m), vec![0]);
    }

    #[test]
    #[should_panic(expected = "over-delivered")]
    fn over_delivery_is_rejected() {
        let mut m = StreamingMerge::new(vec![1]);
        m.append(0, Segment::synthetic(2, 20));
    }

    #[test]
    fn zero_record_packets_are_ignored() {
        let mut m = StreamingMerge::new(vec![1]);
        m.append(0, Segment::empty());
        match m.emit(1) {
            Emit::Stalled(s) => assert_eq!(s, vec![0]),
            other => panic!("{other:?}"),
        }
    }
}
