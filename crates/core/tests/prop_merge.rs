//! Property-based tests for the streaming priority-queue merge: arbitrary
//! packet delivery schedules must never lose, duplicate, or disorder
//! records, and must stall exactly when a non-exhausted source is dry. The
//! synthetic path is additionally held, emit for emit, to the scan-based
//! implementation it replaced ([`oracle`]), and the real path to a merge over
//! `Vec<Record>` packets that scans the heads ([`real_oracle`]): the same
//! records in the same batches, whatever buffers the packets lie in.

use std::collections::BTreeSet;

use proptest::prelude::*;

use rmr_core::merge::{Emit, StreamingMerge};
use rmr_core::record::SegmentCursor;
use rmr_core::{Record, Segment};

/// The synthetic-mode merge as it stood at commit `a582acf`, kept verbatim as
/// the reference: every quantity is recomputed by a scan over all sources
/// (six passes per batch, `u128` arithmetic throughout). Only the real-mode
/// branches are cut.
mod oracle {
    use std::collections::VecDeque;

    use rmr_core::Segment;

    /// What [`Oracle::emit`] produced: the `(records, bytes)` of a batch.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Emit {
        Data(u64, u64),
        Stalled(Vec<usize>),
        Done,
    }

    struct Source {
        expected_records: u64,
        appended_records: u64,
        consumed_records: u64,
        consumed_bytes_in_head: u64,
        packets: VecDeque<Segment>,
        head_idx: usize,
    }

    impl Source {
        fn available(&self) -> u64 {
            self.appended_records - self.consumed_records
        }

        fn exhausted(&self) -> bool {
            self.consumed_records >= self.expected_records
        }

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
                    (pkt.bytes as u128 * take as u128 / pkt.records as u128) as u64
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

    pub struct Oracle {
        sources: Vec<Source>,
        dry_count: usize,
    }

    impl Oracle {
        pub fn new(expected_records: Vec<u64>) -> Self {
            let sources: Vec<Source> = expected_records
                .into_iter()
                .map(|expected_records| Source {
                    expected_records,
                    appended_records: 0,
                    consumed_records: 0,
                    consumed_bytes_in_head: 0,
                    packets: VecDeque::new(),
                    head_idx: 0,
                })
                .collect();
            let dry_count = sources.iter().filter(|s| !s.exhausted()).count();
            Oracle { sources, dry_count }
        }

        pub fn append(&mut self, source: usize, packet: Segment) {
            if packet.records == 0 {
                return;
            }
            let s = &mut self.sources[source];
            let was_dry = !s.exhausted() && s.available() == 0;
            s.appended_records += packet.records;
            assert!(s.appended_records <= s.expected_records);
            s.packets.push_back(packet);
            if was_dry {
                self.dry_count -= 1;
            }
        }

        pub fn sources_below(&self, watermark: u64) -> Vec<usize> {
            self.sources
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    !s.exhausted()
                        && s.available() < watermark
                        && s.appended_records < s.expected_records
                })
                .map(|(i, _)| i)
                .collect()
        }

        fn done(&self) -> bool {
            self.sources.iter().all(Source::exhausted)
        }

        fn dry_sources(&self) -> Vec<usize> {
            self.sources
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.exhausted() && s.available() == 0)
                .map(|(i, _)| i)
                .collect()
        }

        pub fn emit(&mut self, max_records: u64) -> Emit {
            if self.done() {
                return Emit::Done;
            }
            if self.dry_count > 0 {
                return Emit::Stalled(self.dry_sources());
            }
            let (records, bytes) = self.emit_synthetic(max_records);
            if records == 0 {
                return Emit::Stalled(self.dry_sources());
            }
            Emit::Data(records, bytes)
        }

        fn emit_synthetic(&mut self, max_records: u64) -> (u64, u64) {
            let seg = self.emit_synthetic_inner(max_records);
            self.dry_count = self
                .sources
                .iter()
                .filter(|s| !s.exhausted() && s.available() == 0)
                .count();
            seg
        }

        fn emit_synthetic_inner(&mut self, max_records: u64) -> (u64, u64) {
            let total_remaining: u64 = self
                .sources
                .iter()
                .map(|s| s.expected_records - s.consumed_records)
                .sum();
            if total_remaining == 0 {
                return (0, 0);
            }
            let mut feasible = max_records.min(total_remaining);
            for s in &self.sources {
                let rem = s.expected_records - s.consumed_records;
                if rem == 0 {
                    continue;
                }
                let cap = (s.available() as u128 * total_remaining as u128 / rem as u128) as u64;
                feasible = feasible.min(cap);
            }
            if feasible == 0 {
                let i = self
                    .sources
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.available() > 0)
                    .max_by_key(|(_, s)| s.available())
                    .map(|(i, _)| i);
                return match i {
                    Some(i) => (1, self.sources[i].pop_synthetic(1)),
                    None => (0, 0),
                };
            }
            let mut taken_total = 0u64;
            let mut bytes_total = 0u64;
            let n = self.sources.len();
            for idx in 0..n {
                let rem = self.sources[idx].expected_records - self.sources[idx].consumed_records;
                let mut take = (feasible as u128 * rem as u128 / total_remaining as u128) as u64;
                take = take.min(self.sources[idx].available());
                if take > 0 {
                    bytes_total += self.sources[idx].pop_synthetic(take);
                    taken_total += take;
                }
            }
            let mut residue = feasible - taken_total;
            let mut idx = 0;
            while residue > 0 && idx < n {
                let avail = self.sources[idx].available();
                if avail > 0 {
                    let take = avail.min(residue);
                    bytes_total += self.sources[idx].pop_synthetic(take);
                    taken_total += take;
                    residue -= take;
                }
                idx += 1;
            }
            (taken_total, bytes_total)
        }
    }
}

/// The real-mode merge over materialised records: packets are `Vec<Record>`,
/// the next record is found by scanning every source's head (least key, the
/// lowest source among equals), and a batch ends at `max_records` or when a
/// source that still expects records has none buffered.
mod real_oracle {
    use std::collections::VecDeque;

    use rmr_core::Record;

    pub struct Oracle {
        /// Per source: records still expected, and those buffered.
        sources: Vec<(u64, VecDeque<Record>)>,
    }

    impl Oracle {
        pub fn new(expected: Vec<u64>) -> Self {
            let sources = expected.into_iter().map(|n| (n, VecDeque::new())).collect();
            Oracle { sources }
        }

        pub fn append(&mut self, source: usize, packet: Vec<Record>) {
            self.sources[source].1.extend(packet);
        }

        fn dry(&self) -> Vec<usize> {
            let dry = |(_, (left, buffered)): &(usize, &(u64, VecDeque<Record>))| {
                *left > 0 && buffered.is_empty()
            };
            (self.sources.iter().enumerate().filter(dry))
                .map(|(i, _)| i)
                .collect()
        }

        /// `Ok(batch)`, `Err(Some(dry sources))` when stalled, `Err(None)`
        /// when done.
        pub fn emit(&mut self, max_records: u64) -> Result<Vec<Record>, Option<Vec<usize>>> {
            if self.sources.iter().all(|(left, _)| *left == 0) {
                return Err(None);
            }
            let mut out = Vec::new();
            while (out.len() as u64) < max_records && self.dry().is_empty() {
                let heads = self.sources.iter().enumerate();
                let least = heads
                    .filter_map(|(i, (_, buffered))| Some((&buffered.front()?.key, i)))
                    .min();
                let Some((_, i)) = least else { break };
                out.push(self.sources[i].1.pop_front().expect("a head"));
                self.sources[i].0 -= 1;
            }
            if out.is_empty() {
                return Err(Some(self.dry()));
            }
            Ok(out)
        }
    }
}

/// Keys that collide in and past their first eight bytes, and values that
/// tell equal keys apart.
fn arb_tied_source() -> impl Strategy<Value = (Vec<Record>, u64, u8)> {
    let symbol = || (0usize..3).prop_map(|i| [0u8, 7, 255][i]);
    let tail = move |max| proptest::collection::vec(symbol(), 0..max);
    let key = prop_oneof![
        tail(4),
        tail(3).prop_map(|t| [&b"prefix__"[..], &t].concat()),
        tail(12),
    ];
    let value = proptest::collection::vec(any::<u8>(), 0..4);
    let records =
        proptest::collection::vec((key, value).prop_map(|(k, v)| Record::new(k, v)), 0..40);
    (records, 1u64..48, 0u8..3)
}

/// One source's data plus a packetisation of it.
fn arb_source() -> impl Strategy<Value = (Vec<Record>, u64)> {
    (
        proptest::collection::vec(
            (any::<u32>(), 0usize..16)
                .prop_map(|(k, vlen)| Record::new(k.to_be_bytes().to_vec(), vec![b'x'; vlen])),
            0..32,
        ),
        1u64..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn real_merge_with_arbitrary_delivery_is_lossless_and_sorted(
        sources in proptest::collection::vec(arb_source(), 1..5),
        batch in 1u64..64,
        schedule_seed in any::<u64>(),
    ) {
        // Build per-source packet queues.
        let mut queues: Vec<Vec<Segment>> = Vec::new();
        let mut expected_counts = Vec::new();
        let mut all_records: Vec<Record> = Vec::new();
        for (records, budget) in &sources {
            all_records.extend(records.iter().cloned());
            let seg = Segment::from_records(records.clone());
            expected_counts.push(seg.records);
            let mut cursor = SegmentCursor::new(seg);
            let mut packets = Vec::new();
            while !cursor.exhausted() {
                packets.push(cursor.take_bytes(*budget));
            }
            packets.reverse(); // pop from the back = delivery order
            queues.push(packets);
        }
        let total: u64 = expected_counts.iter().sum();
        let mut merge = StreamingMerge::new(expected_counts);

        // Drive: whenever stalled, deliver the next packet of a stalled (or
        // pseudo-random) source; collect emissions.
        let mut rng = schedule_seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let mut out: Vec<Record> = Vec::new();
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "merge did not converge");
            match merge.emit(batch) {
                Emit::Done => break,
                Emit::Data(seg) => {
                    prop_assert!(seg.is_sorted());
                    out.extend(seg.iter_real());
                }
                Emit::Stalled(dry) => {
                    prop_assert!(!dry.is_empty());
                    // Deliver one pending packet for a dry source (they must
                    // all still have pending packets, else the merge lied).
                    let pick = dry[next() % dry.len()];
                    let pkt = queues[pick]
                        .pop()
                        .expect("stalled on a fully delivered source");
                    merge.append(pick, pkt);
                }
            }
        }
        prop_assert_eq!(out.len() as u64, total);
        prop_assert!(out.windows(2).all(|w| w[0].key <= w[1].key), "global order");
        // Permutation check.
        let mut expect: Vec<(Vec<u8>, usize)> =
            all_records.iter().map(|r| (r.key.to_vec(), r.value.len())).collect();
        expect.sort();
        let mut got: Vec<(Vec<u8>, usize)> =
            out.iter().map(|r| (r.key.to_vec(), r.value.len())).collect();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    /// The index merge against [`real_oracle`], in lockstep over a random
    /// delivery schedule: every `emit` must agree — the records of the batch
    /// (so the batch boundaries too), its byte count, the stalled set, done.
    /// A source's packets are windows of one sorted run, or each packet an
    /// arena of its own, or each an adopted block, so one batch draws from
    /// several buffers and several buffer tables.
    #[test]
    fn real_merge_matches_the_scan_based_oracle_batch_for_batch(
        sources in proptest::collection::vec(arb_tied_source(), 1..6),
        batch in 1u64..24,
        schedule_seed in any::<u64>(),
    ) {
        let mut rng = schedule_seed;
        let mut next = move |n: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % n
        };
        // Per source, its packets in delivery order, last first.
        let mut queues: Vec<Vec<Segment>> = Vec::new();
        for (records, budget, backing) in &sources {
            let mut cursor = SegmentCursor::new(Segment::from_records(records.clone()));
            let mut packets = Vec::new();
            while !cursor.exhausted() {
                let window = cursor.take_bytes(*budget);
                let rows = window.to_records().expect("real");
                packets.push(match backing {
                    0 => window,
                    1 => Segment::from_sorted(rows),
                    _ => Segment::from_encoded(rmr_core::encode_records(&rows)),
                });
            }
            packets.reverse();
            queues.push(packets);
        }
        let expected: Vec<u64> = sources.iter().map(|(r, ..)| r.len() as u64).collect();
        let mut merge = StreamingMerge::new(expected.clone());
        let mut reference = real_oracle::Oracle::new(expected);
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "merge did not converge");
            let dry = match (merge.emit(batch), reference.emit(batch)) {
                (Emit::Done, Err(None)) => break,
                (Emit::Data(seg), Ok(want)) => {
                    prop_assert_eq!(seg.to_records().expect("real"), &want[..]);
                    prop_assert_eq!(seg.records, want.len() as u64);
                    prop_assert_eq!(seg.bytes, want.iter().map(Record::size).sum::<u64>());
                    // Deliver ahead of need now and then.
                    (0..queues.len()).filter(|&i| !queues[i].is_empty() && next(4) == 0).collect()
                }
                (Emit::Stalled(dry), Err(Some(want))) => {
                    prop_assert_eq!(&dry, &want);
                    vec![dry[next(dry.len())]]
                }
                (got, want) => {
                    prop_assert!(false, "merge {:?}, oracle {:?}", got, want.map(|b| b.len()));
                    unreachable!()
                }
            };
            for i in dry {
                let packet = queues[i].pop().expect("stalled on a fully delivered source");
                reference.append(i, packet.to_records().expect("real"));
                merge.append(i, packet);
            }
        }
        prop_assert!(queues.iter().all(Vec::is_empty), "done before every packet was delivered");
    }

    #[test]
    fn synthetic_merge_conserves_under_arbitrary_delivery(
        sizes in proptest::collection::vec((0u64..500, 0u64..50_000), 1..6),
        packet_records in 1u64..64,
        batch in 1u64..256,
    ) {
        let expected: Vec<u64> = sizes.iter().map(|(r, _)| *r).collect();
        let total_records: u64 = expected.iter().sum();
        let total_bytes: u64 = sizes.iter().map(|(_, b)| *b).sum();
        let mut cursors: Vec<SegmentCursor> = sizes
            .iter()
            .map(|(r, b)| SegmentCursor::new(Segment::synthetic(*r, if *r == 0 { 0 } else { *b })))
            .collect();
        // Zero-record sources carry zero bytes.
        let total_bytes: u64 = cursors
            .iter()
            .map(|c| c.remaining_bytes())
            .sum::<u64>()
            .min(total_bytes);
        let mut merge = StreamingMerge::new(expected);
        let mut got = (0u64, 0u64);
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 100_000);
            match merge.emit(batch) {
                Emit::Done => break,
                Emit::Data(seg) => {
                    got.0 += seg.records;
                    got.1 += seg.bytes;
                }
                Emit::Stalled(dry) => {
                    for d in dry {
                        let pkt = cursors[d].take_records(packet_records);
                        prop_assert!(pkt.records > 0, "stalled on exhausted source");
                        merge.append(d, pkt);
                    }
                }
            }
        }
        prop_assert_eq!(got.0, total_records);
        prop_assert_eq!(got.1, total_bytes);
    }

    /// The incremental synthetic merge against the scan-based oracle, in
    /// lockstep over a random delivery schedule: every `emit` must agree
    /// (records, bytes, stalled set, done), and after every step the
    /// maintained refill state — both the `wants_refill` flags and the set
    /// rebuilt from the `newly_low` crossings, which is how the reducer
    /// consumes it — must equal the oracle's `sources_below` scan. `scale`
    /// shifts record counts up to 2^45 so the share, cap and byte-split
    /// products overflow `u64` and take the `u128` fallback.
    #[test]
    fn synthetic_merge_matches_the_scan_based_oracle(
        k in 1usize..65,
        scale_sel in 0u32..3,
        batch in 1u64..40_000,
        seed in any::<u64>(),
    ) {
        let mut rng = seed;
        let mut next = move |n: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        // Random low bits under the shift keep the scaled quantities from
        // sharing a power-of-two factor that would cancel in every division.
        let scale = [0u32, 12, 36][scale_sel as usize];
        let low_bits = (1u64 << scale.min(20)) - 1;
        let scaled = |v: u64, noise: u64| (v << scale) | (noise & low_bits);
        let batch = scaled(batch, next(1 << 20));
        let watermark = scaled(next(300), next(1 << 20));
        // Per source: expected records (one in eight empty), the records and
        // bytes per packet. 97..=113 bytes per record on top of an odd
        // remainder keeps `bytes * take / records` from dividing evenly.
        let expected: Vec<u64> = (0..k)
            .map(|_| if next(8) == 0 { 0 } else { scaled(1 + next(500), next(1 << 20)) })
            .collect();
        let packet_records: Vec<u64> = (0..k)
            .map(|_| scaled(1 + next(64), next(1 << 20)))
            .collect();
        // One packet in two is half size, so the packets one source queues
        // differ and promoting the wrong one shows.
        let mut undelivered = expected.clone();
        let mut packet = |i: usize, halve: bool| -> Segment {
            let size = if halve { packet_records[i].div_ceil(2) } else { packet_records[i] };
            let n = undelivered[i].min(size);
            undelivered[i] -= n;
            Segment::synthetic(n, n * (97 + i as u64 % 17) + i as u64 % 5)
        };

        let mut merge = StreamingMerge::with_watermark(expected.clone(), watermark);
        let mut reference = oracle::Oracle::new(expected);
        let mut low: BTreeSet<usize> = BTreeSet::new();
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 200_000, "merge did not converge");
            low.extend(merge.newly_low());
            let want_low = reference.sources_below(watermark);
            prop_assert_eq!(low.iter().copied().collect::<Vec<_>>(), want_low.clone());
            let flags: Vec<usize> = (0..k).filter(|&i| merge.wants_refill(i)).collect();
            prop_assert_eq!(flags, want_low.clone());

            let got = match merge.emit(batch) {
                Emit::Data(seg) => oracle::Emit::Data(seg.records, seg.bytes),
                Emit::Stalled(dry) => oracle::Emit::Stalled(dry),
                Emit::Done => oracle::Emit::Done,
            };
            let want = reference.emit(batch);
            prop_assert_eq!(&got, &want);
            // Deliver: to some of the stalled sources (at least one), or
            // ahead of need to some of the sources under the watermark — one
            // packet, or a burst of two or three that queue behind it.
            let (targets, at_least_one) = match got {
                oracle::Emit::Done => break,
                oracle::Emit::Stalled(dry) => (dry, true),
                oracle::Emit::Data(..) => (want_low, false),
            };
            let forced = if at_least_one { next(targets.len() as u64) as usize } else { usize::MAX };
            for (at, &i) in targets.iter().enumerate() {
                if at == forced || next(3) == 0 {
                    let burst = [1, 1, 2, 3][next(4) as usize];
                    for nth in 0..burst {
                        let pkt = packet(i, next(2) == 0);
                        if nth == 0 {
                            prop_assert!(pkt.records > 0, "source {} wants data it already has", i);
                        }
                        merge.append(i, pkt.clone());
                        reference.append(i, pkt);
                    }
                    if !merge.wants_refill(i) {
                        low.remove(&i);
                    }
                }
            }
        }
        prop_assert_eq!(undelivered.iter().sum::<u64>(), 0, "finished without every packet");
    }
}
