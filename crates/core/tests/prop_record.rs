//! Property-based tests for the data plane: serialisation, partitioning,
//! merging, and packet cursors.
//!
//! [`oracle`] is the record plane as it stood while a run was a vector of
//! `Record`s — a stable `sort_by`, a stable bucketing, a cursor summing
//! `Record::size`, a scan-based merge — kept as the definition of what the
//! index-over-buffers [`Segment`] must give: the same records in the same
//! order, the same partitions, the same packet sequence. [`oracle::GroupTable`]
//! is the combiner's group table as an ordered map, the definition the
//! hashed table must meet.

use std::rc::Rc;

use bytes::Bytes;
use proptest::prelude::*;

use rmr_core::mapoutput::Partitions;
use rmr_core::record::{GroupTable, SegmentCursor};
use rmr_core::spec::ReduceFn;
use rmr_core::{
    decode_records, encode_records, HashPartitioner, Partitioner, Record, Segment,
    TotalOrderPartitioner,
};

fn arb_record() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(any::<u8>(), 0..24),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(k, v)| Record::new(k, v))
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(arb_record(), 0..max)
}

/// Records whose keys collide: 0–20 bytes from a four-symbol alphabet, often
/// behind a shared eight-byte prefix, so empty keys, keys shorter than the
/// prefix, duplicates and keys that differ only past the prefix are all
/// common; values (possibly empty) tell equal keys apart.
fn arb_tied_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    let symbol = || (0usize..4).prop_map(|i| [0u8, 1, 254, 255][i]);
    let tail = move |max| proptest::collection::vec(symbol(), 0..max);
    let key = prop_oneof![
        tail(5),
        tail(20),
        tail(12).prop_map(|t| [&b"prefix__"[..], &t].concat()),
        tail(3).prop_map(|t| [&[0u8; 8][..], &t].concat()),
    ];
    let value = proptest::collection::vec(any::<u8>(), 0..6);
    proptest::collection::vec((key, value).prop_map(|(k, v)| Record::new(k, v)), 0..max)
}

/// Records over four keys (empty, shorter than the prefix, and two sharing
/// it) and the values `""`, `"a"` and `"b"`: a key's values repeat, so runs of
/// equal values form, break and resume (a, a, b, a).
fn arb_run_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    fn one_of<const N: usize>(of: [&'static [u8]; N]) -> impl Strategy<Value = &'static [u8]> {
        (0..N).prop_map(move |i| of[i])
    }
    let key = one_of([b"", b"\0", b"prefix__", b"prefix__\xff"]);
    let value = one_of([b"", b"a", b"b"]);
    proptest::collection::vec((key, value).prop_map(|(k, v)| Record::new(k, v)), 0..max)
}

mod oracle {
    use super::*;

    pub fn sorted(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by(|a, b| a.key.cmp(&b.key));
        records
    }

    pub fn partition(sorted: &[Record], n: usize, part: &dyn Partitioner) -> Vec<Vec<Record>> {
        let mut buckets = vec![Vec::new(); n];
        for r in sorted {
            buckets[part.partition(&r.key, n)].push(r.clone());
        }
        buckets
    }

    /// The `(records, bytes)` of the packets `take_bytes(budget)` cuts.
    pub fn packets_by_bytes(sorted: &[Record], budget: u64) -> Vec<(u64, u64)> {
        let (mut out, mut at) = (Vec::new(), 0);
        while at < sorted.len() {
            let (mut to, mut bytes) = (at, 0);
            while to < sorted.len() && (to == at || bytes + sorted[to].size() <= budget) {
                bytes += sorted[to].size();
                to += 1;
            }
            out.push(((to - at) as u64, bytes));
            at = to;
        }
        out
    }

    /// The `(records, bytes)` of the packets `take_records(n)` cuts.
    pub fn packets_by_records(sorted: &[Record], n: usize) -> Vec<(u64, u64)> {
        let sizes = |c: &[Record]| (c.len() as u64, c.iter().map(Record::size).sum());
        sorted.chunks(n).map(sizes).collect()
    }

    /// The combiner's group table while it was an ordered map, verbatim
    /// (with `key_prefix` as it is in the crate).
    #[derive(Default)]
    pub struct GroupTable {
        groups: std::collections::BTreeMap<(u64, Bytes), Vec<Bytes>>,
    }

    fn key_prefix(key: &[u8]) -> u64 {
        match key.first_chunk::<8>() {
            Some(head) => u64::from_be_bytes(*head),
            None => key
                .iter()
                .enumerate()
                .fold(0, |p, (i, &b)| p | u64::from(b) << (56 - 8 * i)),
        }
    }

    impl GroupTable {
        pub fn push(&mut self, r: Record) {
            let slot = (key_prefix(&r.key), r.key);
            self.groups.entry(slot).or_default().push(r.value);
        }

        pub fn records(&self) -> usize {
            self.groups.values().map(Vec::len).sum()
        }

        pub fn combine(&self, combine: &ReduceFn) -> Segment {
            let mut combined = Vec::new();
            for ((_, key), values) in &self.groups {
                combine(key, &mut values.iter(), &mut combined);
            }
            Segment::from_records(combined)
        }
    }

    /// K-way merge by scanning the heads: the least key, the earliest run
    /// among equals.
    pub fn merge(runs: &[Vec<Record>]) -> Vec<Record> {
        let mut at = vec![0; runs.len()];
        let mut out = Vec::new();
        loop {
            let heads = (0..runs.len()).filter(|&i| at[i] < runs[i].len());
            let Some(least) = heads.min_by_key(|&i| (&runs[i][at[i]].key, i)) else {
                return out;
            };
            out.push(runs[least][at[least]].clone());
            at[least] += 1;
        }
    }
}

fn records_of(seg: &Segment) -> Vec<Record> {
    seg.to_records().expect("a real segment")
}

/// [`records_of`], where joining nothing may give the (synthetic) empty run.
fn records_of_or_empty(seg: &Segment) -> Vec<Record> {
    seg.to_records().unwrap_or_default()
}

proptest! {
    #[test]
    fn encode_decode_round_trips(records in arb_records(64)) {
        let decoded = decode_records(encode_records(&records));
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn from_records_sorts_and_conserves(records in arb_records(64)) {
        let n = records.len() as u64;
        let bytes: u64 = records.iter().map(Record::size).sum();
        let seg = Segment::from_records(records);
        prop_assert!(seg.is_sorted());
        prop_assert_eq!(seg.records, n);
        prop_assert_eq!(seg.bytes, bytes);
    }

    #[test]
    fn partition_conserves_and_respects_partitioner(
        records in arb_records(48),
        n in 1usize..9,
        total_order in any::<bool>(),
    ) {
        let part: Box<dyn Partitioner> = if total_order {
            Box::new(TotalOrderPartitioner)
        } else {
            Box::new(HashPartitioner)
        };
        let seg = Segment::from_records(records);
        let (recs, bytes) = (seg.records, seg.bytes);
        let parts = seg.partition(n, part.as_ref());
        prop_assert_eq!(parts.len(), n);
        prop_assert_eq!(parts.iter().map(|p| p.records).sum::<u64>(), recs);
        prop_assert_eq!(parts.iter().map(|p| p.bytes).sum::<u64>(), bytes);
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(p.is_sorted());
            for r in p.iter_real() {
                prop_assert_eq!(part.partition(&r.key, n), i);
            }
        }
    }

    #[test]
    fn synthetic_partition_conserves(records in 0u64..10_000, bytes in 0u64..1_000_000, n in 1usize..17) {
        let parts = Segment::synthetic(records, bytes).partition(n, &HashPartitioner);
        prop_assert_eq!(parts.iter().map(|p| p.records).sum::<u64>(), records);
        prop_assert_eq!(parts.iter().map(|p| p.bytes).sum::<u64>(), bytes);
        // Even spread: no partition differs from another by more than 1.
        let max = parts.iter().map(|p| p.records).max().unwrap();
        let min = parts.iter().map(|p| p.records).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn even_split_cuts_what_partition_cuts(
        records in any::<u64>(),
        bytes in any::<u64>(),
        n in 1usize..300,
        total_order in any::<bool>(),
    ) {
        let part: &dyn Partitioner = if total_order { &TotalOrderPartitioner } else { &HashPartitioner };
        let seg = Segment::synthetic(records, bytes);
        let want = seg.partition(n, part);
        let got = Partitions::split(seg, n, part);
        prop_assert!(matches!(got, Partitions::Even { .. }));
        prop_assert!(!got.is_real());
        prop_assert_eq!(got.len(), n);
        for (r, want) in want.iter().enumerate() {
            let got = got.get(r);
            prop_assert!(!got.is_real());
            prop_assert_eq!((got.records, got.bytes), (want.records, want.bytes));
        }
    }

    #[test]
    fn merge_is_sorted_and_conserves(groups in proptest::collection::vec(arb_records(24), 0..6)) {
        let segs: Vec<Segment> = groups.into_iter().map(Segment::from_records).collect();
        let recs: u64 = segs.iter().map(|s| s.records).sum();
        let bytes: u64 = segs.iter().map(|s| s.bytes).sum();
        let merged = Segment::merge(&segs);
        prop_assert!(merged.is_sorted());
        prop_assert_eq!(merged.records, recs);
        prop_assert_eq!(merged.bytes, bytes);
    }

    #[test]
    fn merge_is_a_permutation(a in arb_records(24), b in arb_records(24)) {
        let sa = Segment::from_records(a.clone());
        let sb = Segment::from_records(b.clone());
        let merged = Segment::merge(&[sa, sb]);
        let mut expect: Vec<(Bytes, Bytes)> =
            a.iter().chain(b.iter()).map(|r| (r.key.clone(), r.value.clone())).collect();
        expect.sort();
        let mut got: Vec<(Bytes, Bytes)> =
            merged.iter_real().map(|r| (r.key.clone(), r.value.clone())).collect();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn cursor_take_bytes_covers_everything(records in arb_records(48), budget in 1u64..256) {
        let seg = Segment::from_records(records);
        let (recs, bytes) = (seg.records, seg.bytes);
        let mut cursor = SegmentCursor::new(seg);
        let mut got_recs = 0;
        let mut got_bytes = 0;
        let mut guard = 0;
        while !cursor.exhausted() {
            let p = cursor.take_bytes(budget);
            prop_assert!(p.records > 0, "progress guaranteed");
            prop_assert!(p.is_sorted());
            got_recs += p.records;
            got_bytes += p.bytes;
            guard += 1;
            prop_assert!(guard <= recs + 1);
        }
        prop_assert_eq!(got_recs, recs);
        prop_assert_eq!(got_bytes, bytes);
    }

    #[test]
    fn cursor_synthetic_conserves(records in 1u64..5_000, bytes in 0u64..500_000, n in 1u64..64) {
        let mut cursor = SegmentCursor::new(Segment::synthetic(records, bytes));
        let mut got = (0u64, 0u64);
        while !cursor.exhausted() {
            let p = cursor.take_records(n);
            got.0 += p.records;
            got.1 += p.bytes;
        }
        prop_assert_eq!(got, (records, bytes));
    }

    #[test]
    fn concat_of_cursor_windows_rebuilds_the_segment(records in arb_records(48), budget in 1u64..128) {
        let seg = Segment::from_records(records);
        let (recs, bytes) = (seg.records, seg.bytes);
        let mut cursor = SegmentCursor::new(seg);
        let mut packets = Vec::new();
        while !cursor.exhausted() {
            packets.push(cursor.take_bytes(budget));
        }
        let rebuilt = Segment::concat(packets);
        prop_assert_eq!(rebuilt.records, recs);
        prop_assert_eq!(rebuilt.bytes, bytes);
        prop_assert!(rebuilt.is_sorted());
    }

    /// Both ways into a real run — a block adopted as it stands, records
    /// encoded into an arena — give the oracle's stable sort, with `bytes`
    /// counting keys and values only.
    #[test]
    fn adopted_and_encoded_runs_are_the_oracles_stable_sort(records in arb_tied_records(64)) {
        let want = oracle::sorted(records.clone());
        let bytes: u64 = want.iter().map(Record::size).sum();
        let adopted = Segment::from_encoded(encode_records(&records));
        let presorted = Segment::from_sorted(want.clone());
        for seg in [&adopted, &Segment::from_records(records), &presorted] {
            prop_assert!(seg.is_sorted());
            prop_assert_eq!((seg.records, seg.bytes), (want.len() as u64, bytes));
            prop_assert_eq!(&records_of(seg), &want);
        }
    }

    #[test]
    fn partitions_match_the_oracle_under_both_partitioners(
        records in arb_tied_records(64),
        n in 1usize..9,
        total_order in any::<bool>(),
        adopt in any::<bool>(),
    ) {
        let part: Box<dyn Partitioner> = if total_order {
            Box::new(TotalOrderPartitioner)
        } else {
            Box::new(HashPartitioner)
        };
        let want = oracle::partition(&oracle::sorted(records.clone()), n, part.as_ref());
        let seg = if adopt {
            Segment::from_encoded(encode_records(&records))
        } else {
            Segment::from_records(records)
        };
        let got = seg.partition(n, part.as_ref());
        prop_assert_eq!(got.len(), n);
        for (got, want) in got.iter().zip(&want) {
            prop_assert_eq!(&records_of(got), want);
            prop_assert_eq!(got.records, want.len() as u64);
            prop_assert_eq!(got.bytes, want.iter().map(Record::size).sum::<u64>());
            // A partition is a run like any other: it cuts into the oracle's
            // packets too.
            let mut cursor = SegmentCursor::new(got.clone());
            let mut packets = Vec::new();
            while !cursor.exhausted() {
                let p = cursor.take_bytes(40);
                packets.push((p.records, p.bytes));
            }
            prop_assert_eq!(packets, oracle::packets_by_bytes(want, 40));
        }
    }

    #[test]
    fn cursors_cut_the_oracles_packets_and_concat_rejoins_them(
        records in arb_tied_records(64),
        budget in 1u64..96,
        n in 1usize..12,
    ) {
        let want = oracle::sorted(records.clone());
        let seg = Segment::from_records(records);
        let mut by_bytes = SegmentCursor::new(seg.clone());
        let mut by_records = SegmentCursor::new(seg);
        let (mut packets, mut sizes, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        while !by_bytes.exhausted() {
            let p = by_bytes.take_bytes(budget);
            sizes.push((p.records, p.bytes));
            rows.extend(records_of(&p));
            packets.push(p);
        }
        prop_assert_eq!(sizes, oracle::packets_by_bytes(&want, budget));
        prop_assert_eq!(&rows, &want);
        let mut sizes = Vec::new();
        while !by_records.exhausted() {
            let p = by_records.take_records(n as u64);
            sizes.push((p.records, p.bytes));
        }
        prop_assert_eq!(sizes, oracle::packets_by_records(&want, n));
        // Any run of consecutive packets rejoins into exactly their records.
        let (from, to) = (n.min(packets.len()) / 2, packets.len());
        let rejoined = Segment::concat(packets[from..to].to_vec());
        let skipped: usize = packets[..from].iter().map(|p| p.records as usize).sum();
        prop_assert_eq!(records_of_or_empty(&rejoined), want[skipped..].to_vec());
        prop_assert_eq!(rejoined.bytes, want[skipped..].iter().map(Record::size).sum::<u64>());
        // Windows with a gap between them do not adjoin: the middle stays out.
        if let [first, _, .., last] = &packets[..] {
            let ends = Segment::concat(vec![first.clone(), last.clone()]);
            prop_assert_eq!(records_of(&ends), [records_of(first), records_of(last)].concat());
        }
    }

    /// Runs over different buffers — arenas and adopted blocks, whole and as
    /// packet windows out of order — merge into the oracle's output, ties
    /// going to the earlier run; `concat` of windows that do not adjoin falls
    /// back to the same merge.
    #[test]
    fn merge_matches_the_oracle_across_buffers(
        groups in proptest::collection::vec((arb_tied_records(24), any::<bool>()), 1..6),
    ) {
        let runs: Vec<Vec<Record>> = groups.iter().map(|(g, _)| oracle::sorted(g.clone())).collect();
        let segs: Vec<Segment> = groups
            .into_iter()
            .map(|(g, adopt)| if adopt { Segment::from_encoded(encode_records(&g)) } else { Segment::from_records(g) })
            .collect();
        let want = oracle::merge(&runs);
        let merged = Segment::merge(&segs);
        prop_assert_eq!(&records_of(&merged), &want);
        prop_assert_eq!(merged.bytes, want.iter().map(Record::size).sum::<u64>());
        // Two windows of one run, the later first: not adjoining, so merged.
        let mut cursor = SegmentCursor::new(merged.clone());
        let (a, b) = (cursor.take_records(merged.records / 2), cursor.take_bytes(u64::MAX));
        let swapped = Segment::concat(vec![b.clone(), a.clone()]);
        prop_assert_eq!(records_of_or_empty(&swapped), oracle::merge(&[records_of(&b), records_of(&a)]));
    }

    /// The hashed group table combines what the ordered one did, record for
    /// record. The combiner writes every group's key and values, in the order
    /// it is handed them, under one key, so the run's stable sort keeps its
    /// output in call order: groups out of key order, or a group's values
    /// out of arrival order, show — and so does a run of equal values that
    /// counts one too many or too few, or swallows a value that differs.
    #[test]
    fn group_table_combines_like_the_ordered_map(records in prop_oneof![arb_tied_records(96), arb_run_records(96)]) {
        let trace: ReduceFn = Rc::new(|key: &Bytes, values: &mut dyn Iterator<Item = &Bytes>, out: &mut Vec<Record>| {
            let written = values.map(|v| Record::new(key.clone(), v.clone()));
            out.push(Record::new(Bytes::new(), encode_records(&written.collect::<Vec<_>>())));
        });
        let (mut table, mut want) = (GroupTable::default(), oracle::GroupTable::default());
        for r in records {
            table.push(&r.key, r.value.clone());
            want.push(r);
        }
        prop_assert_eq!(table.records(), want.records());
        prop_assert_eq!(records_of(&table.combine(&trace)), records_of(&want.combine(&trace)));
    }

    #[test]
    fn total_order_partitioner_is_monotone_in_key(a in proptest::collection::vec(any::<u8>(), 1..12), b in proptest::collection::vec(any::<u8>(), 1..12), n in 1usize..32) {
        let p = TotalOrderPartitioner;
        let (lo, hi) = if a <= b { (&a, &b) } else { (&b, &a) };
        prop_assert!(p.partition(lo, n) <= p.partition(hi, n));
    }
}
