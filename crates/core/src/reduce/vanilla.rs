//! The stock Hadoop 0.20 reduce side (§III-A): HTTP copiers, in-memory
//! merger, local-FS merger, and the shuffle→merge→reduce *barrier*.
//!
//! Copier threads fetch whole map-output partitions over socket
//! connections. Small segments land in the in-memory shuffle buffer; when
//! it passes the threshold, the In-Memory Merger flushes a merged run to
//! local disk. Oversized segments go straight to disk. The Local FS Merger
//! keeps the number of on-disk runs bounded by `io.sort.factor`. Only after
//! every map output has been fetched and merged down does the reduce
//! function start — the implicit barrier the paper's design removes.
//!
//! Fault handling is *in-band*, like real 0.20: a dead server shows up as a
//! refused connection or a closed socket, the copier backs off and re-polls
//! the JobTracker, and the fetch retries wherever the map re-executed
//! (latest completion event wins). Already-fetched segments survive — they
//! live in the reducer's own memory and local disk.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_des::SimDuration;
use rmr_obs::Ev;

use crate::cluster::NodeHandle;
use crate::config::{CPU_SERDE_PER_BYTE, CPU_SORT_PER_RECORD_LEVEL, EVENT_POLL, STREAM_CHUNK};
use crate::proto::{PacketBudget, ShufMsg};
use crate::record::Segment;
use crate::reduce::common::{poll_events, ReduceCtx, ReduceError, ReduceSink, ReduceStats};
use crate::tasktracker::TtServerHandle;

/// `mapred.reduce.parallel.copies`: copier threads per ReduceTask.
const PARALLEL_COPIES: usize = 5;
/// `io.sort.factor`: merge fan-in.
const IO_SORT_FACTOR: usize = 10;
/// Fraction of the shuffle buffer that triggers the in-memory merger.
const INMEM_MERGE_THRESHOLD: f64 = 0.66;
/// Largest single segment kept in memory, as a fraction of the shuffle
/// buffer (`mapred.job.shuffle.merge.percent` era semantics).
const INMEM_SEGMENT_LIMIT: f64 = 0.25;

struct VanillaState {
    /// In-memory segments with their buffer-space permits.
    inmem: Vec<(Segment, Permit)>,
    inmem_bytes: u64,
    /// On-disk merged runs: (file name, contents).
    disk_runs: Vec<(String, Segment)>,
    run_seq: usize,
    fetched: usize,
    shuffled_bytes: u64,
}

/// Latest-wins serving location per map, shared between the event fetcher
/// (writer) and the copiers (readers, and writers again on retry polls).
type Locations = Rc<RefCell<BTreeMap<usize, usize>>>;

/// Polls the JobTracker through a cursor shared by the event fetcher and
/// every retrying copier, folding new events into `locations` latest-wins.
async fn poll_shared(
    ctx: &ReduceCtx,
    node: &NodeHandle,
    cursor: &Rc<Cell<usize>>,
    locations: &Locations,
) -> Vec<(usize, usize)> {
    let mut c = cursor.get();
    let events = poll_events(&ctx.cluster, &ctx.jt, node, &mut c).await;
    // A concurrent poller may have advanced further while this RPC was on
    // the wire; never move the shared cursor backwards.
    if c > cursor.get() {
        cursor.set(c);
    }
    for (m, t) in &events {
        locations.borrow_mut().insert(*m, *t);
    }
    events
}

/// Runs one vanilla ReduceTask to completion. Always `Ok`: fetch failures
/// are absorbed in-band by copier retries, never surfaced as attempt death.
pub async fn run_reduce_vanilla(ctx: ReduceCtx) -> Result<ReduceStats, ReduceError> {
    let sim = ctx.cluster.sim.clone();
    let conf = Rc::clone(&ctx.conf);
    let node = ctx.tt.node.clone();
    let r_idx = ctx.reduce_idx;
    let mem = Semaphore::new_named(&format!("r{r_idx}-shuffle-buffer"), conf.shuffle_buffer);
    let state = Rc::new(RefCell::new(VanillaState {
        inmem: Vec::new(),
        inmem_bytes: 0,
        disk_runs: Vec::new(),
        run_seq: 0,
        fetched: 0,
        shuffled_bytes: 0,
    }));

    let locations: Locations = Rc::new(RefCell::new(BTreeMap::new()));
    let cursor = Rc::new(Cell::new(0usize));

    // Map Completion Fetcher: poll the JobTracker and feed the copiers.
    // Each map is enqueued once, on its *first* completion event; a
    // re-execution event only refreshes the serving location.
    let (map_tx, map_rx) = channel_named::<usize>(&format!("r{r_idx}-map-events"));
    {
        let ctx = ctx.clone();
        let node = node.clone();
        let sim2 = sim.clone();
        let locations = Rc::clone(&locations);
        let cursor = Rc::clone(&cursor);
        sim.spawn_named(format!("r{r_idx}-event-fetcher"), async move {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            while seen.len() < ctx.total_maps {
                for (m, _) in poll_shared(&ctx, &node, &cursor, &locations).await {
                    if seen.insert(m) {
                        let _ = map_tx.send_now(m);
                    }
                }
                sim2.sleep(EVENT_POLL).await;
            }
        })
        .detach();
    }

    // Copier pool.
    let mut copiers = Vec::new();
    for i in 0..PARALLEL_COPIES {
        let ctx = ctx.clone();
        let state = Rc::clone(&state);
        let mem = mem.clone();
        let map_rx = map_rx.clone();
        let locations = Rc::clone(&locations);
        let cursor = Rc::clone(&cursor);
        copiers.push(sim.spawn_named(format!("r{r_idx}-copier-{i}"), async move {
            while let Some(map_idx) = map_rx.recv().await {
                fetch_with_retry(&ctx, &state, &mem, &locations, &cursor, map_idx).await;
            }
        }));
    }
    drop(map_rx);
    for c in copiers {
        c.await;
    }
    let shuffle_end_s = sim.now().as_secs_f64();

    // ---- Barrier: final merge down to io.sort.factor streams. ----
    loop {
        let n_runs = {
            let st = state.borrow();
            st.disk_runs.len() + usize::from(!st.inmem.is_empty())
        };
        if n_runs <= IO_SORT_FACTOR {
            break;
        }
        merge_smallest_disk_runs(&ctx, &state).await;
    }
    let merge_end_s = sim.now().as_secs_f64();

    // ---- Reduce pass: stream the final k-way merge into the sink. ----
    let (disk_files, all_segs, disk_bytes): (Vec<String>, Vec<Segment>, u64) = {
        let mut st = state.borrow_mut();
        let mut files = Vec::new();
        let mut segs = Vec::new();
        let mut disk_bytes = 0;
        for (f, s) in st.disk_runs.drain(..) {
            disk_bytes += s.bytes;
            files.push(f);
            segs.push(s);
        }
        for (s, permit) in st.inmem.drain(..) {
            segs.push(s);
            drop(permit);
        }
        (files, segs, disk_bytes)
    };
    let total_records: u64 = all_segs.iter().map(|s| s.records).sum();
    let total_bytes: u64 = all_segs.iter().map(|s| s.bytes).sum();
    let k = all_segs.len().max(2) as f64;

    let mut sink = ReduceSink::open(&ctx.cluster, &conf, &ctx.spec, &node, ctx.reduce_idx).await;
    if total_records > 0 {
        let merged = Segment::merge(&all_segs);
        let mut readers: Vec<_> = disk_files
            .iter()
            .map(|f| node.fs.reader(f).expect("run file"))
            .collect();
        let mut cursor = crate::record::SegmentCursor::new(merged);
        let disk_frac = if total_bytes > 0 {
            disk_bytes as f64 / total_bytes as f64
        } else {
            0.0
        };
        let batch_bytes = STREAM_CHUNK * readers.len().max(1) as u64;
        let mut disk_read_budget = 0.0f64;
        while !cursor.exhausted() {
            let batch = cursor.take_bytes(batch_bytes);
            // Charge the disk reads feeding this batch, spread across runs.
            disk_read_budget += batch.bytes as f64 * disk_frac;
            if !readers.is_empty() {
                let per = (disk_read_budget / readers.len() as f64) as u64;
                if per > 0 {
                    let mut legs = Vec::new();
                    for r in readers.iter_mut() {
                        let want = per.min(r.remaining().unwrap_or(0));
                        if want > 0 {
                            legs.push(async move {
                                r.read_exact(want).await.expect("run read");
                            });
                        }
                    }
                    disk_read_budget -= (per * disk_files.len() as u64) as f64;
                    rmr_des::sync::join_all(legs).await;
                }
            }
            // Final merge CPU for this batch.
            node.compute(batch.records as f64 * k.log2() * CPU_SORT_PER_RECORD_LEVEL)
                .await;
            ctx.tt.obs().emit(|| Ev::MergeBatch {
                node: ctx.tt.idx,
                job: ctx.job.0,
                reduce: ctx.reduce_idx,
                records: batch.records,
                bytes: batch.bytes,
            });
            sink.consume(batch).await;
        }
    }
    let (in_records, in_bytes, out_bytes) = sink.finish().await;
    // Clean up run files.
    for f in &disk_files {
        let _ = node.fs.delete(f);
    }

    let st = state.borrow();
    Ok(ReduceStats {
        shuffle_end_s,
        merge_end_s,
        reduce_end_s: sim.now().as_secs_f64(),
        shuffled_bytes: st.shuffled_bytes,
        reduced_records: in_records,
        reduced_bytes: in_bytes,
        output_bytes: out_bytes,
    })
}

/// Fetches one map's partition, retrying in-band on server death: back off
/// exponentially, re-poll the event log for the map's new home (it
/// re-executes elsewhere after node loss), and fetch again.
async fn fetch_with_retry(
    ctx: &ReduceCtx,
    state: &Rc<RefCell<VanillaState>>,
    mem: &Semaphore,
    locations: &Locations,
    cursor: &Rc<Cell<usize>>,
    map_idx: usize,
) {
    let sim = &ctx.cluster.sim;
    let mut backoff = EVENT_POLL;
    let cap = SimDuration::from_secs_f64(30.0);
    loop {
        let tt_idx = *locations
            .borrow()
            .get(&map_idx)
            .expect("map enqueued before its completion event");
        if fetch_one(ctx, state, mem, map_idx, tt_idx).await.is_ok() {
            return;
        }
        sim.metrics().incr("reduce.fetch_failures");
        sim.sleep(backoff).await;
        backoff = (backoff * 2).min(cap);
        // The re-executed map's completion event carries its new location.
        let _ = poll_shared(ctx, &ctx.tt.node, cursor, locations).await;
    }
}

/// Fetches one whole map-output partition over HTTP and routes it to memory
/// or disk, running the mergers as thresholds trip. `Err` = the server died
/// (refused or dropped the connection) or does not hold the output; nothing
/// was committed.
async fn fetch_one(
    ctx: &ReduceCtx,
    state: &Rc<RefCell<VanillaState>>,
    mem: &Semaphore,
    map_idx: usize,
    tt_idx: usize,
) -> Result<(), ()> {
    let conf = &ctx.conf;
    let node = &ctx.tt.node;
    let server = {
        let servers = ctx.servers.borrow();
        let TtServerHandle::Http(server) = &servers[tt_idx] else {
            panic!("vanilla reducer needs HTTP servers");
        };
        server.clone()
    };
    ctx.tt.obs().emit(|| Ev::ShuffleRequest {
        node: ctx.tt.idx,
        server: tt_idx,
        job: ctx.job.0,
        map_idx,
        reduce: ctx.reduce_idx,
    });
    // One HTTP connection per fetch (0.20 behaviour). A dead TaskTracker
    // refuses the connection (its listener died with it).
    let Some(conn) = server.try_connect(node.id).await else {
        return Err(());
    };
    if conn
        .send(ShufMsg::Request {
            job: ctx.job,
            map_idx,
            reduce: ctx.reduce_idx,
            attempt: ctx.attempt,
            budget: PacketBudget::Bytes(STREAM_CHUNK),
        })
        .await
        .is_err()
    {
        return Err(());
    }
    let mut packets = Vec::new();
    let mut bytes = 0u64;
    loop {
        let Some(ShufMsg::Response {
            packet,
            remaining_records,
            ..
        }) = conn.recv().await
        else {
            // The server died mid-stream, or answered that it does not hold
            // the output: start over.
            return Err(());
        };
        bytes += packet.bytes;
        if packet.records > 0 {
            packets.push(packet);
        }
        if remaining_records == 0 {
            break;
        }
    }
    drop(conn);
    let seg = Segment::concat(packets);
    {
        let mut st = state.borrow_mut();
        st.fetched += 1;
        st.shuffled_bytes += bytes;
    }
    ctx.cluster
        .sim
        .metrics()
        .add("reduce.shuffled_bytes", bytes as f64);

    // Memory or disk?
    let seg_limit = (conf.shuffle_buffer as f64 * INMEM_SEGMENT_LIMIT) as u64;
    let to_memory = seg.bytes <= seg_limit;
    let permit = if to_memory {
        mem.try_acquire(seg.bytes)
    } else {
        None
    };
    match permit {
        Some(p) => {
            let over = {
                let mut st = state.borrow_mut();
                st.inmem_bytes += seg.bytes;
                st.inmem.push((seg, p));
                let threshold = (conf.shuffle_buffer as f64 * INMEM_MERGE_THRESHOLD) as u64;
                st.inmem_bytes > threshold
            };
            if over {
                merge_inmem_to_disk(ctx, state).await;
            }
        }
        None => {
            // Straight to disk.
            let file = {
                let mut st = state.borrow_mut();
                st.run_seq += 1;
                format!("{}_r{}_seg{}", ctx.job, ctx.reduce_idx, st.run_seq)
            };
            let w = node.fs.writer(&file).expect("run file");
            w.append(seg.bytes).await.expect("run write");
            ctx.tt.obs().emit(|| Ev::Spill {
                node: ctx.tt.idx,
                job: ctx.job.0,
                reduce: ctx.reduce_idx,
                bytes: seg.bytes,
            });
            node.compute(CPU_SERDE_PER_BYTE * seg.bytes as f64).await;
            state.borrow_mut().disk_runs.push((file, seg));
            let too_many = state.borrow().disk_runs.len() >= 2 * IO_SORT_FACTOR - 1;
            if too_many {
                merge_smallest_disk_runs(ctx, state).await;
            }
        }
    }
    Ok(())
}

/// The In-Memory Merger: merges every in-memory segment into one on-disk
/// run, freeing the shuffle buffer.
async fn merge_inmem_to_disk(ctx: &ReduceCtx, state: &Rc<RefCell<VanillaState>>) {
    let node = &ctx.tt.node;
    let (segs, permits): (Vec<Segment>, Vec<Permit>) = {
        let mut st = state.borrow_mut();
        if st.inmem.is_empty() {
            return;
        }
        st.inmem_bytes = 0;
        st.inmem.drain(..).unzip()
    };
    let merged = Segment::merge(&segs);
    let k = segs.len().max(2) as f64;
    node.compute(merged.records as f64 * k.log2() * CPU_SORT_PER_RECORD_LEVEL)
        .await;
    let file = {
        let mut st = state.borrow_mut();
        st.run_seq += 1;
        format!("{}_r{}_immerge{}", ctx.job, ctx.reduce_idx, st.run_seq)
    };
    let w = node.fs.writer(&file).expect("merge run");
    w.append(merged.bytes).await.expect("merge write");
    ctx.tt.obs().emit(|| Ev::Spill {
        node: ctx.tt.idx,
        job: ctx.job.0,
        reduce: ctx.reduce_idx,
        bytes: merged.bytes,
    });
    state.borrow_mut().disk_runs.push((file, merged));
    drop(permits); // buffer space released only after the flush completes
    ctx.cluster.sim.metrics().incr("reduce.inmem_merges");
}

/// The Local FS Merger: merges the `io.sort.factor` smallest on-disk runs
/// into one (read + merge CPU + write).
async fn merge_smallest_disk_runs(ctx: &ReduceCtx, state: &Rc<RefCell<VanillaState>>) {
    let node = &ctx.tt.node;
    let picked: Vec<(String, Segment)> = {
        let mut st = state.borrow_mut();
        if st.disk_runs.len() < 2 {
            return;
        }
        st.disk_runs.sort_by_key(|(_, s)| s.bytes);
        let take = IO_SORT_FACTOR.min(st.disk_runs.len());
        st.disk_runs.drain(..take).collect()
    };
    // Read every picked run back (concurrently).
    let mut legs = Vec::new();
    for (f, s) in &picked {
        let fs = node.fs.clone();
        let f = f.clone();
        let sz = s.bytes;
        legs.push(async move {
            let mut r = fs.reader(&f).expect("run file");
            r.read_exact(sz).await.expect("run read");
        });
    }
    rmr_des::sync::join_all(legs).await;
    let segs: Vec<Segment> = picked.iter().map(|(_, s)| s.clone()).collect();
    let merged = Segment::merge(&segs);
    let k = segs.len().max(2) as f64;
    node.compute(merged.records as f64 * k.log2() * CPU_SORT_PER_RECORD_LEVEL)
        .await;
    let file = {
        let mut st = state.borrow_mut();
        st.run_seq += 1;
        format!("{}_r{}_fsmerge{}", ctx.job, ctx.reduce_idx, st.run_seq)
    };
    let w = node.fs.writer(&file).expect("merged run");
    w.append(merged.bytes).await.expect("merged write");
    for (f, _) in &picked {
        let _ = node.fs.delete(f);
    }
    state.borrow_mut().disk_runs.push((file, merged));
    ctx.cluster.sim.metrics().incr("reduce.disk_merges");
}
