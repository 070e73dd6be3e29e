//! The map side's real-record pipeline against an oracle.
//!
//! [`oracle`] is the pipeline as it stood before the record plane stopped
//! allocating per record — a mapper returning a `Vec` per input record, a
//! stable `sort_by` plus a scan for the combiner, a stable sort and a stable
//! bucketing for the final partitioned run — kept here, verbatim, as the
//! definition of what a map attempt outputs. The engine's
//! [`run_map`](rmr_core::maptask::run_map) (a mapper emitting borrowed keys
//! into an encoding arena or a group table that copies a key on a miss,
//! prefix-index sort, windows into the HDFS block) must produce the same
//! partitions record for record: key, value and order.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use proptest::prelude::*;

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::jobtracker::MapTaskDesc;
use rmr_core::mapoutput::{MapOutputInfo, MapOutputStore};
use rmr_core::maptask::run_map;
use rmr_core::spec::{MapFn, ReduceFn};
use rmr_core::tasktracker::TaskTracker;
use rmr_core::{
    encode_records, HashPartitioner, JobConf, JobId, JobSpec, MapSink, Partitioner, Record,
    Segment, TotalOrderPartitioner,
};
use rmr_des::prelude::*;
use rmr_hdfs::{Blob, HdfsConfig};
use rmr_net::FabricParams;
use rmr_workloads::wordcount_spec;

mod oracle {
    use super::*;

    pub type MapFn = Rc<dyn Fn(&Record) -> Vec<Record>>;
    pub type ReduceFn = Rc<dyn Fn(&Bytes, &[Bytes]) -> Vec<Record>>;

    /// WordCount's mapper.
    pub fn wordcount_mapper() -> MapFn {
        Rc::new(|r: &Record| -> Vec<Record> {
            let line = String::from_utf8_lossy(&r.value);
            line.split_whitespace()
                .map(|w| Record::new(w.as_bytes().to_vec(), Bytes::from_static(b"1")))
                .collect()
        })
    }

    /// One map attempt's output: the records of each reduce partition, in
    /// order.
    pub fn map_side(
        recs: Vec<Record>,
        mapper: Option<&MapFn>,
        combiner: Option<&ReduceFn>,
        reduces: usize,
        part: &dyn Partitioner,
    ) -> Vec<Vec<Record>> {
        let mut out = Vec::with_capacity(recs.len());
        match mapper {
            Some(f) => {
                for r in &recs {
                    out.extend(f(r));
                }
            }
            None => out = recs,
        }
        if let Some(combine) = combiner {
            let mut sorted = out;
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let mut combined = Vec::new();
            let mut i = 0;
            while i < sorted.len() {
                let key = sorted[i].key.clone();
                let mut values = Vec::new();
                while i < sorted.len() && sorted[i].key == key {
                    values.push(sorted[i].value.clone());
                    i += 1;
                }
                combined.extend(combine(&key, &values));
            }
            out = combined;
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); reduces];
        for r in out {
            buckets[part.partition(&r.key, reduces)].push(r);
        }
        buckets
    }
}

/// The pieces of the value between spaces.
fn pieces(r: &Record) -> impl Iterator<Item = &[u8]> {
    r.value
        .split(|&b| b == b' ')
        .filter(|piece| !piece.is_empty())
}

/// Each piece with the key of the record it came from (a window of the
/// input as key, an owned clone as value), so a group's values tell their
/// arrival order apart.
fn tag_pieces(r: &Record) -> Vec<Record> {
    pieces(r)
        .map(|piece| Record::new(piece.to_vec(), r.key.clone()))
        .collect()
}

/// Keys and values the input does not hold, built per record in buffers the
/// mapper drops after each emit: the key reversed and cut to its last two
/// bytes (short, so groups form) with the value's length, then the value's
/// length with the key's.
fn computed(r: &Record) -> Vec<(Vec<u8>, Vec<u8>)> {
    let tail: Vec<u8> = r.key.iter().rev().take(2).copied().collect();
    let len = |b: &Bytes| b.len().to_string().into_bytes();
    vec![(tail, len(&r.value)), (len(&r.value), len(&r.key))]
}

/// An order-sensitive combiner: the group's values joined in the order
/// given, plus a record under a key every group shares — equal keys keep
/// their order through the final sort, so those expose the order groups
/// were combined in.
fn join_group(key: &Bytes, values: &[Bytes]) -> Vec<Record> {
    let joined: Vec<u8> = values.join(&b","[..]);
    vec![
        Record::new(key.clone(), joined),
        Record::new(&b"\xffgroups"[..], key.clone()),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Mapper {
    Identity,
    WordCount,
    TagPieces,
    Computed,
}

impl Mapper {
    fn pair(self) -> (Option<oracle::MapFn>, Option<MapFn>) {
        match self {
            Mapper::Identity => (None, None),
            Mapper::WordCount => (
                Some(oracle::wordcount_mapper()),
                wordcount_spec("/in", "/out").mapper,
            ),
            Mapper::TagPieces => (
                Some(Rc::new(tag_pieces)),
                Some(Rc::new(|r: &Record, out: &mut MapSink| {
                    pieces(r).for_each(|piece| out.emit(piece, r.key.clone()))
                })),
            ),
            Mapper::Computed => (
                Some(Rc::new(|r: &Record| {
                    let records = computed(r).into_iter();
                    records.map(|(k, v)| Record::new(k, v)).collect()
                })),
                Some(Rc::new(|r: &Record, out: &mut MapSink| {
                    for (key, value) in computed(r) {
                        out.emit(&key, Bytes::from(value));
                    }
                })),
            ),
        }
    }
}

fn combiner_pair(on: bool) -> (Option<oracle::ReduceFn>, Option<ReduceFn>) {
    if !on {
        return (None, None);
    }
    (
        Some(Rc::new(join_group)),
        Some(Rc::new(|k: &Bytes, vs: &[Bytes], out: &mut Vec<Record>| {
            out.extend(join_group(k, vs))
        })),
    )
}

/// Runs the engine's map attempt over `input` (one real HDFS block on a
/// one-node cluster).
fn engine_map_side(
    input: &[Record],
    mapper: Option<MapFn>,
    combiner: Option<ReduceFn>,
    reduces: usize,
    part: Rc<dyn Partitioner>,
) -> MapOutputInfo {
    let sim = Sim::new(1);
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &[NodeSpec::westmere_compute()],
        HdfsConfig {
            block_size: 1 << 20,
            replication: 1,
            packet_size: 256 << 10,
        },
    );
    let conf = Rc::new(JobConf {
        num_reduces: reduces,
        ..JobConf::default()
    });
    let mut spec = JobSpec::sort("/in", "/out", 16).with_partitioner(part);
    spec.mapper = mapper;
    spec.combiner = combiner;
    let tt = TaskTracker::new(
        &sim,
        0,
        cluster.workers[0].clone(),
        &conf,
        MapOutputStore::new(),
        false,
        rmr_obs::Recorder::off(),
    );
    let block = Blob::real(encode_records(input));
    let done = Rc::new(RefCell::new(None));
    let (c, d) = (cluster.clone(), Rc::clone(&done));
    sim.spawn(async move {
        let mut w = c.hdfs.create("/in", c.workers[0].id).await.unwrap();
        w.write(block).await.unwrap();
        w.close().await.unwrap();
        let locs = c.hdfs.split_locations("/in").unwrap();
        let desc = MapTaskDesc {
            idx: 0,
            block: locs[0].0.clone(),
            locations: locs[0].1.clone(),
        };
        let out = run_map(&c, &conf, &spec, &tt, JobId(0), &desc, None).await;
        *d.borrow_mut() = out;
    })
    .detach();
    sim.run();
    let out = done.borrow_mut().take();
    out.expect("map attempt finished")
}

/// Keys of 0–24 bytes, mostly from a four-symbol alphabet and often behind
/// a shared eight-byte prefix: empty keys, duplicates, and keys that differ
/// only past the prefix are all common.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    let symbol = || (0usize..4).prop_map(|i| [0u8, 1, 254, 255][i]);
    let tail = |max| proptest::collection::vec(symbol(), 0..max);
    prop_oneof![
        tail(6),
        tail(25),
        tail(17).prop_map(|t| [&b"prefix__"[..], &t].concat()),
        tail(4).prop_map(|t| [&[0u8; 8][..], &t].concat()),
        proptest::collection::vec(any::<u8>(), 0..25),
    ]
}

/// Values that read as text lines with awkward blanks: ASCII and Unicode
/// whitespace, repeated and leading/trailing blanks, multi-byte words, and
/// bytes that are not UTF-8 at all.
fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: [&[u8]; 14] = [
        b"a",
        b"b",
        b"ab",
        b" ",
        b"  ",
        b"\t",
        b"\n",
        "\u{a0}".as_bytes(),
        "\u{2003}".as_bytes(),
        "\u{e9}".as_bytes(),
        b"\xff",
        b"\xc3",
        b"\xa0",
        b"\xe2\x80",
    ];
    proptest::collection::vec(0usize..TOKENS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().flat_map(|i| TOKENS[i].to_vec()).collect())
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (arb_key(), arb_value()).prop_map(|(k, v)| Record::new(k, v)),
        1..max,
    )
}

fn arb_mapper() -> impl Strategy<Value = Mapper> {
    const MAPPERS: [Mapper; 4] = [
        Mapper::Identity,
        Mapper::WordCount,
        Mapper::TagPieces,
        Mapper::Computed,
    ];
    (0..MAPPERS.len()).prop_map(|i| MAPPERS[i])
}

fn check_against_oracle(
    input: Vec<Record>,
    mapper: Mapper,
    combine: bool,
    total_order: bool,
    reduces: usize,
) -> Result<(), TestCaseError> {
    let part: Rc<dyn Partitioner> = if total_order {
        Rc::new(TotalOrderPartitioner)
    } else {
        Rc::new(HashPartitioner)
    };
    let (oracle_map, engine_map) = mapper.pair();
    let (oracle_combine, engine_combine) = combiner_pair(combine);
    let got = engine_map_side(
        &input,
        engine_map,
        engine_combine,
        reduces,
        Rc::clone(&part),
    );
    let want = oracle::map_side(
        input,
        oracle_map.as_ref(),
        oracle_combine.as_ref(),
        reduces,
        part.as_ref(),
    );
    prop_assert_eq!(got.parts.len(), reduces);
    for (p, (got, want)) in got.parts.iter().zip(&want).enumerate() {
        let recs = got.to_records().expect("real partition");
        prop_assert_eq!(&recs, want, "partition {} of {}", p, reduces);
        prop_assert_eq!(got.records, want.len() as u64);
        prop_assert_eq!(got.bytes, want.iter().map(Record::size).sum::<u64>());
    }
    let all = want.iter().flatten();
    prop_assert_eq!(got.total_records, all.clone().count() as u64);
    prop_assert_eq!(got.total_bytes, all.map(Record::size).sum::<u64>());
    Ok(())
}

proptest! {
    #[test]
    fn map_side_matches_the_oracle(
        input in arb_records(40),
        mapper in arb_mapper(),
        combine in any::<bool>(),
        total_order in any::<bool>(),
        reduces in 1usize..10,
    ) {
        check_against_oracle(input, mapper, combine, total_order, reduces)?;
    }

    #[test]
    fn from_records_is_the_stable_sort(records in arb_records(80)) {
        let mut want = records.clone();
        want.sort_by(|a, b| a.key.cmp(&b.key));
        let seg = Segment::from_records(records);
        prop_assert!(seg.is_sorted());
        prop_assert_eq!(seg.to_records().expect("real"), want);
    }
}

#[test]
fn wordcount_lines_with_awkward_blanks_and_bytes() {
    let lines: [&[u8]; 8] = [
        b"",
        b"    ",
        b"  leading and trailing  ",
        b"repeated   blanks\t\tand\ttabs",
        "nbsp\u{a0}splits em\u{2003}space too".as_bytes(),
        b"bad \xff byte, dangling \xc3 lead, lone\xa0continuation",
        "caf\u{e9} cr\u{e8}me caf\u{e9}".as_bytes(),
        b"rdma verbs rdma",
    ];
    let input: Vec<Record> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| Record::new(format!("line{i:08}").into_bytes(), l.to_vec()))
        .collect();
    for combine in [false, true] {
        for reduces in [1, 3] {
            check_against_oracle(input.clone(), Mapper::WordCount, combine, false, reduces)
                .unwrap_or_else(|e| panic!("combine={combine} reduces={reduces}: {e:?}"));
        }
    }
}

#[test]
fn from_records_keeps_input_order_among_equal_keys() {
    fn rec(k: &[u8], v: &str) -> Record {
        Record::new(k.to_vec(), v.as_bytes().to_vec())
    }
    // Equal keys, keys equal in their first eight bytes only, and a key that
    // is a proper prefix of another (zero-padding must not tie them wrongly).
    let input = vec![
        rec(b"prefix__b", "1"),
        rec(b"same", "2"),
        rec(b"prefix__a", "3"),
        rec(b"same", "4"),
        rec(b"prefix__", "5"),
        rec(b"prefix__b", "6"),
        rec(b"ab\0", "7"),
        rec(b"ab", "8"),
        rec(b"same", "9"),
        rec(b"", "10"),
        rec(b"prefix__\0", "11"),
        rec(b"", "12"),
    ];
    let seg = Segment::from_records(input);
    let got: Vec<(Vec<u8>, String)> = seg
        .iter_real()
        .map(|r| (r.key.to_vec(), String::from_utf8(r.value.to_vec()).unwrap()))
        .collect();
    let want: Vec<(&[u8], &str)> = vec![
        (b"", "10"),
        (b"", "12"),
        (b"ab", "8"),
        (b"ab\0", "7"),
        (b"prefix__", "5"),
        (b"prefix__\0", "11"),
        (b"prefix__a", "3"),
        (b"prefix__b", "1"),
        (b"prefix__b", "6"),
        (b"same", "2"),
        (b"same", "4"),
        (b"same", "9"),
    ];
    let want: Vec<(Vec<u8>, String)> = want
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_string()))
        .collect();
    assert_eq!(got, want);
}
