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
//!
//! A synthetic batch visits every live source, and with hundreds of sources
//! per reducer and hundreds of reducers in flight that walk is bound by
//! memory, not arithmetic. Per-source state is therefore laid out by how
//! often it is touched: all a batch reads or writes of a source is one
//! 64-byte record (`Hot`); the packets queued behind the head, and what only
//! real mode uses, sit apart (`Cold`) and are reached once per packet.
//!
//! A merge holds what it buffers now, not its peak: a source's packet FIFO
//! gives back its burst once drained, down to the one slot most sources
//! ever use, and only a real merge reserves its heap of heads.
//!
//! A real batch moves 12-byte index entries, not records: the heap orders
//! sources by the key prefix their head entry carries and goes to the key
//! bytes only when two prefixes tie, and the emitted segment is a fresh index
//! over the buffers of the packets it drew from — no payload copy, no
//! per-record reference count. The batch also keeps, per packet it drew
//! from, the window it drew with its bytes (opened where the packet joins the
//! batch, closed where it pops or the batch ends), so that an identity
//! reduce's output can hold those windows rather than the batch's index. A
//! merge whose sources include a merge's output records none: no chain of
//! indices is ever pinned.
//!
//! What a real pop does read is the popped record's header (its size), at
//! wherever the record lies in its buffer. The pop therefore prefetches the
//! record two entries further on in the same source: the heap interleaves
//! sources, so by the time it comes back to this one the line has landed.

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;

use crate::record::{Entry, RealRun, Segment};

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

/// How far ahead in the source it pops from a real batch prefetches, in
/// entries. The heap interleaves sources, so the line has landed by the time
/// it comes back to this one; one ahead would be the next pop's own miss.
const MERGE_PREFETCH_AHEAD: usize = 2;

/// `a * b / c` without leaving `u64` unless the product overflows it.
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => (a as u128 * b as u128 / c as u128) as u64,
    }
}

/// Everything a synthetic batch reads or writes about one source, in one
/// cache line of one dense `Vec`. Two counters answer every question `emit`,
/// `append` and `consumed` ask: exhausted ⇔ `rem == 0`, dry ⇔
/// `avail == 0 < rem`, packets still to come ⇔ `avail < rem`, over-delivery
/// ⇔ a packet larger than `rem - avail`.
#[derive(Default)]
#[repr(align(64))]
struct Hot {
    /// Records still to consume, delivered or not.
    rem: u64,
    /// Records delivered and not yet consumed.
    avail: u64,
    /// The head packet of a synthetic source — a synthetic `Segment` *is* its
    /// two counts — and how much of it is consumed. No head: all zero.
    head_records: u64,
    head_bytes: u64,
    head_taken: u64,
    head_taken_bytes: u64,
    /// Buffered below the refill watermark with more packets still to come
    /// (see [`StreamingMerge::wants_refill`]).
    low: bool,
}

const _: () = assert!(std::mem::size_of::<Hot>() == 64);

impl Hot {
    fn below(&self, watermark: u64) -> bool {
        self.avail < self.rem && self.avail < watermark
    }
}

/// What a pop touches once per packet, never per batch.
#[derive(Default)]
struct Cold {
    /// Delivered, not-yet-consumed packets in order: in synthetic mode those
    /// queued *behind* the inline head, in real mode all of them.
    packets: VecDeque<Segment>,
    /// Index into the front packet (real mode).
    head_idx: u32,
}

const _: () = assert!(std::mem::size_of::<Cold>() == 40);

impl Cold {
    /// The front packet's run and its head entry (real mode; None if dry).
    fn head(&self) -> Option<(&RealRun, &Entry)> {
        let run = self.packets.front()?.real()?;
        Some((run, run.entries().get(self.head_idx as usize)?))
    }

    /// Takes the front packet off the FIFO. One that drains gives back what
    /// a burst grew it to and keeps the one slot most sources ever need.
    fn pop(&mut self) -> Option<Segment> {
        let p = self.packets.pop_front();
        if self.packets.is_empty() {
            self.packets.shrink_to(1);
        }
        p
    }
}

/// Head-of-source entry in the real-mode merge heap: the key prefix of the
/// minimum buffered record of one source. It orders like the key wherever
/// two prefixes differ, so most sift steps never touch key bytes; a tie goes
/// to the sources' head keys and then to the source index, matching the scan
/// order the merge used before it was heap-based.
#[derive(Clone, Copy)]
struct Head {
    prefix: u32,
    src: u32,
}

const _: () = assert!(std::mem::size_of::<Head>() == 8);

/// A source's part in the real batch being built, kept where the batch first
/// draws from the source's front packet and until the packet pops.
#[derive(Clone, Copy, Default)]
struct Joined {
    /// The batch (counted in `batches`, from 1) drawing from the packet; 0
    /// for none.
    batch: u64,
    /// Bytes the batch has drawn from the packet.
    bytes: u64,
    /// Where the batch's buffer table holds the packet's buffers.
    buf: u32,
    /// The packet entry the batch's window of it starts at.
    from: u32,
}

/// Heap order of two heads (`cold` supplies the key bytes behind a tie).
fn before(cold: &[Cold], a: &Head, b: &Head) -> bool {
    let key = |h: &Head| cold[h.src as usize].head().map(|(run, e)| run.key(e));
    (a.prefix.cmp(&b.prefix))
        .then_with(|| key(a).cmp(&key(b)))
        .then(a.src.cmp(&b.src))
        .is_lt()
}

/// Moves `heap[at]` down to where the min-heap order (by [`before`]) holds
/// again. std's `BinaryHeap` cannot do this: its order may not borrow `cold`.
fn sift_down(heap: &mut [Head], mut at: usize, cold: &[Cold]) {
    loop {
        let (l, r) = (2 * at + 1, 2 * at + 2);
        let least = match heap.get(r) {
            Some(right) if before(cold, right, &heap[l]) => r,
            _ => l,
        };
        if least >= heap.len() || !before(cold, &heap[least], &heap[at]) {
            return;
        }
        heap.swap(at, least);
        at = least;
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
///
/// `hot[i]` and `cold[i]` are source `i`. Both modes keep `rem`, `avail` and
/// `low` in `hot`; a synthetic source also keeps its head packet there and
/// goes to `cold` only to queue a packet behind a head or promote the next.
pub struct StreamingMerge {
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    real: Option<bool>,
    /// Records not yet consumed, summed over all sources.
    remaining: u64,
    /// The sources that are dry (not exhausted, nothing buffered).
    dry: BTreeSet<usize>,
    /// Real mode only: a min-heap (see [`sift_down`]) with one entry per
    /// source that has a buffered head.
    heads: Vec<Head>,
    /// Real mode only, per source: the batch being built's part in its front
    /// packet. Apart from `cold`, whose size synthetic runs with hundreds of
    /// thousands of sources pay for.
    joined: Vec<Joined>,
    batches: u64,
    /// Real batches record the windows they draw: no packet delivered so far
    /// is a merge's output.
    record: bool,
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
        // Every source expecting data starts dry (and low); zero-record
        // sources are born exhausted.
        let hot: Vec<Hot> = expected_records
            .iter()
            .map(|&rem| Hot {
                rem,
                low: rem > 0 && watermark > 0,
                ..Hot::default()
            })
            .collect();
        let live: Vec<usize> = (0..hot.len()).filter(|&i| hot[i].rem > 0).collect();
        StreamingMerge {
            real: None,
            remaining: expected_records.iter().sum(),
            dry: live.iter().copied().collect(),
            heads: Vec::new(),
            joined: Vec::new(),
            batches: 0,
            record: true,
            newly_low: live.iter().copied().filter(|&i| hot[i].low).collect(),
            live,
            watermark,
            cold: hot.iter().map(|_| Cold::default()).collect(),
            hot,
        }
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.hot.len()
    }

    /// Delivers a shuffle packet for `source`.
    pub fn append(&mut self, source: usize, packet: Segment) {
        if packet.records == 0 {
            return;
        }
        let is_real = packet.is_real();
        if packet.real().is_some_and(|run| run.drawn().is_some()) {
            self.record = false;
        }
        match self.real {
            None => {
                self.real = Some(is_real);
                // Only real runs keep a heap of heads.
                if is_real {
                    self.heads.reserve_exact(self.hot.len());
                }
            }
            Some(r) => assert_eq!(r, is_real, "mixed real/synthetic packets"),
        }
        let (s, cold) = (&mut self.hot[source], &mut self.cold[source]);
        assert!(
            packet.records <= s.rem - s.avail,
            "source {source} over-delivered: a packet of {} records, {} still to come",
            packet.records,
            s.rem - s.avail
        );
        let had_head = s.avail > 0;
        if !had_head {
            self.dry.remove(&source);
        }
        s.avail += packet.records;
        // A delivery can only lift a source over the watermark (or complete
        // it), never drop it under.
        s.low = s.low && s.below(self.watermark);
        if is_real || had_head {
            // Most FIFOs only ever hold one packet: the first use reserves
            // exactly that, not `VecDeque`'s minimum of four.
            if cold.packets.capacity() == 0 {
                cold.packets.reserve_exact(1);
            }
            cold.packets.push_back(packet);
        } else {
            // The packet becomes the inline head: nothing is allocated.
            (s.head_records, s.head_bytes) = (packet.records, packet.bytes);
        }
        if is_real && !had_head {
            let (_, head) = self.cold[source].head().expect("a packet was just queued");
            self.heads.push(Head {
                prefix: head.prefix,
                src: source as u32,
            });
            // Sift the new head up to its place.
            let mut at = self.heads.len() - 1;
            while at > 0 && before(&self.cold, &self.heads[at], &self.heads[(at - 1) / 2]) {
                self.heads.swap(at, (at - 1) / 2);
                at = (at - 1) / 2;
            }
        }
    }

    /// True while `source` holds fewer unconsumed records than the watermark
    /// and has packets still to come — the engine should request its next
    /// packet. Raised by extraction, cleared by [`Self::append`].
    pub fn wants_refill(&self, source: usize) -> bool {
        self.hot[source].low
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

    /// Bookkeeping for `n` records just popped from `source` (the pop has
    /// already taken them out of `avail`).
    fn consumed(&mut self, source: usize, n: u64) {
        self.remaining -= n;
        let s = &mut self.hot[source];
        s.rem -= n;
        if s.avail == 0 && s.rem > 0 {
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
        Emit::Data(seg)
    }

    fn emit_real(&mut self, max_records: u64) -> Segment {
        self.batches += 1;
        self.joined.resize(self.cold.len(), Joined::default());
        let mut index = Vec::with_capacity(max_records.min(self.remaining) as usize);
        let mut bufs: Vec<Bytes> = Vec::new();
        // The windows drawn from packets that popped, by source.
        let mut drawn: Vec<(u32, Segment)> = Vec::new();
        let mut bytes = 0u64;
        // Extraction is only safe while every non-exhausted source has a
        // buffered head. The heap holds exactly one entry per source with a
        // buffered head, so its minimum is the global minimum head key.
        while (index.len() as u64) < max_records && self.dry.is_empty() {
            let Some(&Head { src, .. }) = self.heads.first() else {
                break;
            };
            let cold = &mut self.cold[src as usize];
            let run = (cold.packets.front().and_then(Segment::real))
                .expect("a source in the heap has a head");
            let at = cold.head_idx as usize;
            let (in_run, mut entry) = (run.entries().len(), run.entries()[at]);
            run.prefetch(at + MERGE_PREFETCH_AHEAD);
            let size = run.size(&entry);
            bytes += size;
            let joined = &mut self.joined[src as usize];
            if joined.batch != self.batches {
                // This batch's first record from this packet: the packet's
                // buffers join the batch's table, and its window opens.
                *joined = Joined {
                    batch: self.batches,
                    bytes: 0,
                    buf: bufs.len() as u32,
                    from: at as u32,
                };
                bufs.extend(run.bufs().iter().cloned());
            }
            joined.bytes += size;
            entry.buf += joined.buf;
            index.push(entry);
            cold.head_idx += 1;
            if cold.head_idx as usize == in_run {
                if self.record {
                    let window = run.window(joined.from as usize..in_run, joined.bytes);
                    drawn.push((src, window));
                }
                cold.pop();
                (cold.head_idx, joined.batch) = (0, 0);
            }
            // Re-key the top entry in place (one sift-down) instead of a pop
            // and a push.
            match cold.head() {
                Some((_, next)) => self.heads[0].prefix = next.prefix,
                None => drop(self.heads.swap_remove(0)),
            }
            sift_down(&mut self.heads, 0, &self.cold);
            self.hot[src as usize].avail -= 1;
            self.consumed(src as usize, 1);
        }
        if !self.record {
            return RealRun::merged(index, bufs.into(), Vec::new()).holding(bytes);
        }
        // The windows still open close at the batch's end, and ties went to
        // the lower source: the windows are listed by source, each source's
        // in packet order.
        for (src, joined) in self.joined.iter().enumerate() {
            if joined.batch == self.batches {
                let cold = &self.cold[src];
                let run = (cold.packets.front().and_then(Segment::real))
                    .expect("an open window's packet is at the front");
                let window = run.window(joined.from as usize..cold.head_idx as usize, joined.bytes);
                drawn.push((src as u32, window));
            }
        }
        drawn.sort_by_key(|&(src, _)| src);
        let drawn = drawn.into_iter().map(|(_, window)| window).collect();
        RealRun::merged(index, bufs.into(), drawn).holding(bytes)
    }

    /// Consumes `n` buffered records of `source` (synthetic mode), returning
    /// the bytes consumed (proportional within a partially consumed packet).
    fn pop_synthetic(&mut self, source: usize, n: u64) -> u64 {
        let s = &mut self.hot[source];
        let (mut left, mut bytes) = (n, 0u64);
        while left > 0 {
            let in_head = s.head_records - s.head_taken;
            let take = left.min(in_head);
            left -= take;
            s.avail -= take;
            if take < in_head {
                let b = mul_div(s.head_bytes, take, s.head_records);
                bytes += b;
                s.head_taken += take;
                s.head_taken_bytes += b;
            } else {
                bytes += s.head_bytes - s.head_taken_bytes;
                // Head used up: promote the packet queued behind it, if any
                // (`avail` counts it) — the pop's one touch of `cold`.
                (s.head_records, s.head_bytes) = match s.avail {
                    0 => (0, 0),
                    _ => (self.cold[source].pop())
                        .map(|p| (p.records, p.bytes))
                        .expect("avail counts a queued packet"),
                };
                (s.head_taken, s.head_taken_bytes) = (0, 0);
            }
        }
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
        let hot = &self.hot;
        self.live.retain(|&i| {
            let Hot { rem, avail, .. } = hot[i];
            if rem == 0 {
                return false;
            }
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
            let take = mul_div(batch, self.hot[i].rem, total);
            debug_assert!(take <= self.hot[i].avail, "pass 1 caps every share");
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
            let take = self.hot[i].avail.min(residue);
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
    use crate::record::Record;

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
    }

    /// A real batch records the window of each packet it drew from, by
    /// source and each source's in packet order, with its bytes; a merge
    /// over merges' output records none.
    #[test]
    fn a_real_batch_records_the_windows_it_drew() {
        let drawn = |seg: &Segment| -> Vec<(Vec<u32>, u64)> {
            let run = seg.real().expect("real");
            let key = |r: Record| u32::from_be_bytes(r.key[..4].try_into().unwrap());
            (run.drawn().expect("a merge's output").iter())
                .map(|w| (w.iter_real().map(key).collect(), w.bytes))
                .collect()
        };
        let mut m = StreamingMerge::new(vec![4, 2]);
        m.append(1, real_packet(&[2, 5]));
        m.append(0, real_packet(&[1, 4]));
        m.append(0, real_packet(&[6, 9]));
        // 1, 2, 4: source 0's first packet pops, source 1's stays open.
        let Emit::Data(first) = m.emit(3) else {
            panic!("three records to emit")
        };
        assert_eq!(drawn(&first), [(vec![1, 4], 10), (vec![2], 5)]);
        let Emit::Data(second) = m.emit(10) else {
            panic!("the rest to emit")
        };
        assert_eq!(drawn(&second), [(vec![6, 9], 10), (vec![5], 5)]);
        let again = Segment::merge(&[first, second]);
        assert_eq!(
            again.real().and_then(RealRun::drawn).map(<[_]>::len),
            Some(0)
        );
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

    /// Bytes as the parent commit returned them for the same calls: whole
    /// packets give what is left of their bytes, a partial one its floor
    /// share `1003 * 2 / 10`.
    #[test]
    fn one_pop_spans_queued_packets_and_promotes_the_next_head() {
        let mut m = StreamingMerge::new(vec![30]);
        for (records, bytes) in [(4, 401), (3, 299), (10, 1_003)] {
            m.append(0, Segment::synthetic(records, bytes));
        }
        assert_eq!(m.cold[0].packets.len(), 2, "two queued behind the head");
        // A single source takes the whole batch in one pop.
        match m.emit(9) {
            Emit::Data(seg) => assert_eq!((seg.records, seg.bytes), (9, 401 + 299 + 200)),
            other => panic!("{other:?}"),
        }
        let s = &m.hot[0];
        assert_eq!((s.rem, s.avail), (21, 8));
        assert_eq!((s.head_records, s.head_bytes), (10, 1_003));
        assert_eq!((s.head_taken, s.head_taken_bytes), (2, 200));
        assert!(m.cold[0].packets.is_empty());
        // The rest of the head is its remaining bytes, not a second floor.
        match m.emit(100) {
            Emit::Data(seg) => assert_eq!((seg.records, seg.bytes), (8, 803)),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.hot[0].head_records, 0, "no head while dry");
        assert!(matches!(m.emit(100), Emit::Stalled(dry) if dry == [0]));
    }

    #[test]
    fn a_headless_synthetic_source_takes_its_packet_inline() {
        let mut m = StreamingMerge::new(vec![10]);
        m.append(0, Segment::synthetic(4, 40));
        assert_eq!((m.hot[0].head_records, m.hot[0].head_bytes), (4, 40));
        assert_eq!(m.cold[0].packets.capacity(), 0, "no FIFO allocated");
        m.append(0, Segment::synthetic(3, 30));
        assert_eq!(m.cold[0].packets.len(), 1);
        assert_eq!((m.hot[0].avail, m.hot[0].head_records), (7, 4));
    }

    #[test]
    fn a_fifo_that_held_one_packet_holds_one_slot() {
        let mut m = StreamingMerge::new(vec![100]);
        // A head and one packet behind it, consumed, then again.
        for _ in 0..2 {
            m.append(0, Segment::synthetic(4, 40));
            m.append(0, Segment::synthetic(3, 30));
            assert_eq!(m.cold[0].packets.len(), 1);
            assert!(matches!(m.emit(7), Emit::Data(seg) if seg.records == 7));
        }
        assert_eq!(m.cold[0].packets.capacity(), 1, "one slot, not four");
        // A second packet queued behind the head grows it as `VecDeque` does.
        m.append(0, Segment::synthetic(4, 40));
        m.append(0, Segment::synthetic(3, 30));
        m.append(0, Segment::synthetic(3, 30));
        assert_eq!(m.cold[0].packets.len(), 2);
        assert!(m.cold[0].packets.capacity() >= 2);
        // Real mode queues every packet, the first one included.
        let mut r = StreamingMerge::new(vec![2]);
        r.append(0, real_packet(&[1, 2]));
        assert_eq!(r.cold[0].packets.capacity(), 1);
    }

    #[test]
    fn a_drained_fifo_gives_back_its_burst() {
        // Synthetic: a head and three packets behind it, then all consumed.
        let mut m = StreamingMerge::new(vec![100]);
        for _ in 0..4 {
            m.append(0, Segment::synthetic(5, 50));
        }
        assert!(m.cold[0].packets.capacity() >= 3);
        assert!(matches!(m.emit(20), Emit::Data(seg) if seg.records == 20));
        assert!(m.cold[0].packets.capacity() <= 1, "back to one slot");
        // Real: three packets queued, each popped at its last entry.
        let mut r = StreamingMerge::new(vec![6]);
        for keys in [[1, 2], [3, 4], [5, 6]] {
            r.append(0, real_packet(&keys));
        }
        assert!(r.cold[0].packets.capacity() >= 3);
        assert!(matches!(r.emit(6), Emit::Data(seg) if seg.records == 6));
        assert!(r.cold[0].packets.capacity() <= 1, "back to one slot");
    }

    #[test]
    #[should_panic(expected = "source 1 over-delivered: a packet of 4 records, 2 still to come")]
    fn over_delivery_is_rejected() {
        let mut m = StreamingMerge::new(vec![2, 5]);
        m.append(0, Segment::synthetic(2, 20));
        m.append(1, Segment::synthetic(3, 30));
        // Consumed records still count as delivered.
        assert!(matches!(m.emit(4), Emit::Data(_)));
        m.append(1, Segment::synthetic(4, 40));
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
