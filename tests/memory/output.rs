//! What an identity reduce's output holds on the heap.
//!
//! A TeraSort's reduce output is its input, sorted: the records already lie
//! in the input blocks HDFS keeps for the file's life, and each map's run
//! already indexes them in key order. This case writes 20 000 100-byte
//! records as an HDFS file, indexes each block as a map would, and from
//! there merges the runs and feeds the merged run to an identity
//! `ReduceSink` in merge-sized batches. Once the merge is dropped, the
//! output file holds, per piece the sink wrote, the windows of the runs the
//! merge drew it from and what HDFS needs to know of them: a few hundred
//! bytes for the whole file, where the merged index alone would be 12 B a
//! record and a gathered copy of the records 108 B a record, more with the
//! block it is reserved in. Once both files are deleted, the heap is back
//! where it started.
//!
//! A user reducer's output is encoded into the block it lives in, and a
//! short output is a short block: a WordCount writing ~1 KB into a file of
//! 32 MiB blocks may hold the kilobyte, not a block-sized reservation.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use rmr_core::cluster::Cluster;
use rmr_core::record::SegmentCursor;
use rmr_core::reduce::ReduceSink;
use rmr_core::{encode_records, Record, Segment};
use rmr_des::Sim;
use rmr_hdfs::{Blob, HdfsConfig};
use rmr_workloads::{terasort_spec, wordcount_spec};

use super::{heap, one_worker};

/// Records in the input file.
const RECORDS: usize = 20_000;
/// Records per input block.
const PER_BLOCK: usize = 5_000;
/// Records per batch the sink is fed (the RDMA merge's batch size).
const BATCH: u64 = 16 * 1024;
/// What the output may add on top of its input, for all its records: 794 B
/// measured (pieces of up to four windows), and a margin.
const BUDGET: isize = 1_024;

/// `n` TeraSort-shaped records (10-byte key, 90-byte value) from record
/// `from` on, encoded as one block; the keys are scattered over the key
/// space so the merge interleaves the blocks.
fn input_block(from: usize, n: usize) -> Bytes {
    let records: Vec<Record> = (from..from + n)
        .map(|i| {
            let key = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes();
            Record::new([&key[..], &[0, 0]].concat(), vec![b'v'; 90])
        })
        .collect();
    encode_records(&records)
}

/// One round: write and index the input, merge it into the sink, delete
/// both files. Returns the live heap the merge and the finished output
/// added while both files existed, and the live heap left over after the
/// round, both above its start.
async fn round(cluster: &Cluster) -> (isize, isize) {
    let start = heap().bytes;
    let node = cluster.workers[0].clone();
    let hdfs = &cluster.hdfs;
    let blocks: Vec<Bytes> = (0..RECORDS / PER_BLOCK)
        .map(|b| input_block(b * PER_BLOCK, PER_BLOCK))
        .collect();
    let mut w = hdfs.create("/in", node.id).await.expect("create input");
    for block in &blocks {
        w.write(Blob::real(block.clone()))
            .await
            .expect("write input");
    }
    w.close().await.expect("close input");
    let runs: Vec<Segment> = blocks.iter().cloned().map(Segment::from_encoded).collect();

    let before = heap().bytes;
    let spec = terasort_spec("/in", "/out");
    let mut cursor = SegmentCursor::new(Segment::merge(&runs));
    let mut sink = ReduceSink::open(cluster, &spec, &node, 0).await;
    while !cursor.exhausted() {
        sink.consume(cursor.take_records(BATCH)).await;
    }
    let (records, _, out_bytes) = sink.finish().await;
    drop(cursor);
    let added = heap().bytes - before;
    assert_eq!(records, RECORDS as u64);
    assert_eq!(hdfs.file_size("/out/part-00000"), Ok(out_bytes));

    drop(runs);
    hdfs.delete("/out/part-00000", node.id)
        .await
        .expect("delete output");
    hdfs.delete("/in", node.id).await.expect("delete input");
    drop(blocks);
    drop(spec);
    (added, heap().bytes - start)
}

/// Runs `round` twice on a one-worker cluster with `block_size`-byte HDFS
/// blocks and returns both rounds' results. The first round also grows what
/// the simulation keeps for good (metric names, table capacities); the
/// second is the one measured.
fn two_rounds(
    block_size: u64,
    round: impl AsyncFn(&Cluster) -> (isize, isize) + 'static,
) -> Vec<(isize, isize)> {
    let sim = Sim::new(7);
    let cluster = one_worker(
        &sim,
        HdfsConfig {
            block_size,
            replication: 1,
            packet_size: 1 << 20,
        },
    );
    let rounds = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&rounds);
    sim.spawn(async move {
        for _ in 0..2 {
            let got = round(&cluster).await;
            r2.borrow_mut().push(got);
        }
    })
    .detach();
    sim.run();
    rounds.take()
}

#[test]
fn identity_output_holds_the_merged_windows_not_a_copy() {
    let rounds = two_rounds(4 << 20, round);
    let (added, left) = rounds[1];
    assert!(
        added <= BUDGET,
        "the output of {RECORDS} records added {added} B (budget {BUDGET} B)"
    );
    assert_eq!(
        left, 0,
        "deleting both files frees everything the round held"
    );
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("output added {added} B for {RECORDS} records; rounds {rounds:?}");
}

/// Words the user reducer counts, each seen three times.
const WORDS: usize = 64;
/// What a ~1 KB output may add to the heap.
const SHORT_OUTPUT_BUDGET: isize = 64 << 10;

/// One round of a WordCount reduce over `WORDS` words into a file of
/// `cluster`'s blocks; returns the live heap the finished output holds
/// above the round's start, and what is left once it is deleted.
async fn count_round(cluster: &Cluster) -> (isize, isize) {
    let start = heap().bytes;
    let node = cluster.workers[0].clone();
    let spec = wordcount_spec("/in", "/counts");
    let records = (0..WORDS * 3)
        .map(|i| {
            Record::new(
                format!("word{:03}", i % WORDS).into_bytes(),
                Bytes::from("1"),
            )
        })
        .collect();
    let mut sink = ReduceSink::open(cluster, &spec, &node, 0).await;
    sink.consume(Segment::from_records(records)).await;
    let (_, _, out_bytes) = sink.finish().await;
    assert!(
        (1_000..2_000).contains(&out_bytes),
        "{out_bytes} B of output"
    );
    let held = heap().bytes - start;
    let part = "/counts/part-00000";
    cluster
        .hdfs
        .delete(part, node.id)
        .await
        .expect("delete output");
    drop(spec);
    (held, heap().bytes - start)
}

#[test]
fn a_short_user_output_holds_its_length_not_a_block() {
    let rounds = two_rounds(32 << 20, count_round);
    let (held, left) = rounds[1];
    assert!(
        held < SHORT_OUTPUT_BUDGET,
        "a ~1 KB output holds {held} B (budget {SHORT_OUTPUT_BUDGET} B)"
    );
    assert_eq!(left, 0, "deleting the output frees everything it held");
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("short output held {held} B; rounds {rounds:?}");
}
