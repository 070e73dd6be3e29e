//! `layer_kernels`: each layer's public functions called alone, no cluster.
//! A change to one layer shows here first and then — or not — in the
//! cluster workload its catalogue row names. Every kernel asserts the exact
//! number of operations it timed, so a figure is always "ns per known op".
//!
//! Inputs (record sets, packet plans) are built before the clock starts and
//! count as the workload's set-up.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rmr_core::merge::{Emit, StreamingMerge};
use rmr_core::prefetch::{PrefetchCache, Priority};
use rmr_core::record::{Partitioner, TotalOrderPartitioner};
use rmr_core::{decode_records, encode_records, JobId, Record, Segment};
use rmr_des::prelude::*;
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_hdfs::{Blob, HdfsCluster, HdfsConfig};
use rmr_net::ucr::ucr_listen;
use rmr_net::verbs::{connect_qp, Cq, Op};
use rmr_net::{FabricParams, Network};
use rmr_obs::{Ev, Recorder};
use rmr_store::{Disk, DiskParams, LocalFs};

use crate::rep::{Rep, RepConfig};
use crate::trace::Tracer;
use crate::workloads::SMOKE_DIV;

pub const NAME: &str = "layer_kernels";

/// Deterministic input generator (SplitMix64): kernels need reproducible
/// keys, not statistical quality.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One kernel's result: operations timed and the host time they took.
struct Timed {
    ops: u64,
    elapsed: Duration,
}

impl Timed {
    fn ns_per_op(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.ops as f64
    }
}

/// Runs a simulation to quiescence under the clock.
fn time_sim(sim: &Sim) -> Duration {
    let t0 = Instant::now();
    sim.run();
    t0.elapsed()
}

/// TeraSort-shaped records (10-byte key, 90-byte value) with random keys.
fn tera_records(n: usize, rng: &mut SplitMix) -> Vec<Record> {
    (0..n)
        .map(|_| {
            let mut key = vec![0u8; 10];
            key[..8].copy_from_slice(&rng.next().to_be_bytes());
            key[8..].copy_from_slice(&rng.next().to_be_bytes()[..2]);
            Record::new(key, vec![b'V'; 90])
        })
        .collect()
}

// ---- rmr_des ---------------------------------------------------------------

fn timers(tasks: usize, rounds: usize) -> Timed {
    let sim = Sim::new(11);
    for i in 0..tasks {
        let s = sim.clone();
        sim.spawn_named("timer", async move {
            for r in 0..rounds {
                let us = ((i * 37 + r * 11) % 1_000 + 1) as u64;
                s.sleep(SimDuration::from_micros(us)).await;
            }
        })
        .detach();
    }
    let elapsed = time_sim(&sim);
    let ops = (tasks * rounds) as u64;
    assert_eq!(sim.events_fired(), ops, "one event per sleep");
    Timed { ops, elapsed }
}

fn channel_pingpong(round_trips: u64) -> Timed {
    let sim = Sim::new(12);
    let (to_b, from_a) = channel::<u64>();
    let (to_a, from_b) = channel::<u64>();
    let received = Rc::new(Cell::new(0u64));
    let (ra, rb) = (Rc::clone(&received), Rc::clone(&received));
    sim.spawn_named("ping", async move {
        for i in 0..round_trips {
            to_b.send(i).await.expect("pong alive");
            from_b.recv().await.expect("pong replies");
            ra.set(ra.get() + 1);
        }
    })
    .detach();
    sim.spawn_named("pong", async move {
        while let Some(v) = from_a.recv().await {
            rb.set(rb.get() + 1);
            if to_a.send(v).await.is_err() {
                break;
            }
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    let ops = round_trips * 2;
    assert_eq!(received.get(), ops, "every message received once");
    Timed { ops, elapsed }
}

fn semaphore_contention(tasks: u64, rounds: u64) -> Timed {
    let sim = Sim::new(13);
    let sem = Semaphore::new(4);
    let acquired = Rc::new(Cell::new(0u64));
    for _ in 0..tasks {
        let (s, sem, acquired) = (sim.clone(), sem.clone(), Rc::clone(&acquired));
        sim.spawn_named("contender", async move {
            for _ in 0..rounds {
                let permit = sem.acquire(1).await;
                acquired.set(acquired.get() + 1);
                s.yield_now().await; // hold across a yield so others queue
                drop(permit);
            }
        })
        .detach();
    }
    let elapsed = time_sim(&sim);
    let ops = tasks * rounds;
    assert_eq!(acquired.get(), ops);
    assert_eq!(sem.available(), 4, "every permit returned");
    Timed { ops, elapsed }
}

fn spawns(n: u64) -> Timed {
    let sim = Sim::new(14);
    let done = Rc::new(Cell::new(0u64));
    let t0 = Instant::now();
    for _ in 0..n {
        let done = Rc::clone(&done);
        sim.spawn_named("leaf", async move { done.set(done.get() + 1) })
            .detach();
    }
    sim.run();
    let elapsed = t0.elapsed();
    assert_eq!(done.get(), n);
    assert_eq!(sim.live_tasks(), 0);
    Timed { ops: n, elapsed }
}

fn histogram_records(samples: &[f64]) -> Timed {
    let mut h = Histogram::new();
    let t0 = Instant::now();
    for v in samples {
        h.record(*v);
    }
    let elapsed = t0.elapsed();
    black_box(h.p99());
    assert_eq!(h.count(), samples.len() as u64);
    Timed {
        ops: samples.len() as u64,
        elapsed,
    }
}

// ---- Fluid -----------------------------------------------------------------

/// `n` consumers with staggered arrivals, four transfers each, on one shared
/// resource: arrivals and completions under persistently high concurrency.
/// Returns the timing and the solver work per completion.
fn fluid_churn(n: usize) -> (Timed, f64) {
    const ROUNDS: usize = 4;
    let sim = Sim::new(7);
    let f = Fluid::new(&sim, 1e6);
    let completed = Rc::new(Cell::new(0u64));
    for i in 0..n {
        let (f, s, completed) = (f.clone(), sim.clone(), Rc::clone(&completed));
        sim.spawn_named("churn", async move {
            s.sleep(SimDuration::from_millis((i % 97) as u64)).await;
            for r in 0..ROUNDS {
                f.consume(1_000.0 + ((i * 31 + r * 7) % 500) as f64).await;
                completed.set(completed.get() + 1);
            }
        })
        .detach();
    }
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    let elapsed = time_sim(&sim);
    let work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;
    let ops = (n * ROUNDS) as u64;
    assert_eq!(completed.get(), ops);
    (Timed { ops, elapsed }, work as f64 / ops as f64)
}

// ---- rmr_net ---------------------------------------------------------------

fn two_nodes(sim: &Sim, fabric: FabricParams) -> (Network, rmr_net::NodeId, rmr_net::NodeId) {
    let net = Network::new(sim, fabric);
    let a = net.add_node(Some(Fluid::with_entry_cap(sim, 8.0, 1.0)));
    let b = net.add_node(Some(Fluid::with_entry_cap(sim, 8.0, 1.0)));
    (net, a, b)
}

fn transfers(fabric: FabricParams, n: u64) -> Timed {
    let sim = Sim::new(1);
    let (net, a, b) = two_nodes(&sim, fabric);
    let done = Rc::new(Cell::new(0u64));
    let d2 = Rc::clone(&done);
    sim.spawn_named("sender", async move {
        for _ in 0..n {
            net.transfer(a, b, 1 << 20).await;
            d2.set(d2.get() + 1);
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    assert_eq!(done.get(), n);
    assert_eq!(sim.metrics().get("net.bytes_transferred"), (n << 20) as f64);
    Timed { ops: n, elapsed }
}

fn rdma_reads(n: u64) -> Timed {
    let sim = Sim::new(2);
    let (net, a, b) = two_nodes(&sim, FabricParams::ib_verbs_qdr());
    let done = Rc::new(Cell::new(0u64));
    let d2 = Rc::clone(&done);
    sim.spawn_named("reader", async move {
        let (cq_a, cq_b) = (Cq::<()>::new(), Cq::<()>::new());
        let (qa, _qb) = connect_qp(&net, a, b, &cq_a, &cq_b).await;
        for wr in 0..n {
            qa.post_rdma_read(wr, 256 << 10);
            let c = cq_a.next().await.expect("completion");
            assert_eq!((c.op, c.wr_id), (Op::RdmaRead, wr));
            d2.set(d2.get() + 1);
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    assert_eq!(done.get(), n, "each work request completes exactly once");
    Timed { ops: n, elapsed }
}

fn ucr_roundtrips(n: u64) -> Timed {
    let sim = Sim::new(3);
    let (net, server, client) = two_nodes(&sim, FabricParams::ib_verbs_qdr());
    let listener = ucr_listen::<u64>(&net, server);
    let connector = listener.connector();
    sim.spawn_named("ucr-server", async move {
        let ep = listener.accept().await.expect("one client");
        while let Some(bytes) = ep.recv().await {
            ep.send(bytes * 64).await; // 1 KiB request -> 64 KiB response
        }
    })
    .detach();
    let done = Rc::new(Cell::new(0u64));
    let d2 = Rc::clone(&done);
    sim.spawn_named("ucr-client", async move {
        let ep = connector.connect(client).await;
        for _ in 0..n {
            ep.send(1 << 10).await;
            assert_eq!(ep.recv().await, Some(64 << 10));
            d2.set(d2.get() + 1);
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    assert_eq!(done.get(), n);
    Timed { ops: n, elapsed }
}

// ---- rmr_store -------------------------------------------------------------

fn disk_ios(n: u64) -> Timed {
    let sim = Sim::new(4);
    let disk = Disk::new(&sim, DiskParams::hdd_7200(), "kernel");
    let streams = [disk.new_stream(), disk.new_stream()];
    let d2 = disk.clone();
    sim.spawn_named("io", async move {
        for i in 0..n {
            d2.io(streams[(i % 2) as usize], 1 << 20).await;
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    assert_eq!(disk.bytes_served(), (n << 20) as f64);
    assert_eq!(
        sim.metrics().get("disk.seeks"),
        n as f64,
        "alternating streams seek every time"
    );
    Timed { ops: n, elapsed }
}

fn fs_append_read(chunks: u64) -> Timed {
    let sim = Sim::new(5);
    let fs = LocalFs::new(&sim, DiskParams::hdd_7200(), 1, 64 << 20, "kernel");
    let fs2 = fs.clone();
    sim.spawn_named("fs", async move {
        let w = fs2.writer("/spill").expect("create");
        for _ in 0..chunks {
            w.append(1 << 20).await.expect("append");
        }
        let mut r = fs2.reader("/spill").expect("open");
        for _ in 0..chunks {
            r.read_exact(1 << 20).await.expect("read");
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    let bytes = (chunks << 20) as f64;
    assert_eq!(sim.metrics().get("fs.bytes_written"), bytes);
    assert_eq!(sim.metrics().get("fs.bytes_read"), bytes);
    Timed {
        ops: chunks * 2,
        elapsed,
    }
}

// ---- rmr_hdfs --------------------------------------------------------------

fn hdfs_blocks(blocks: u64) -> Timed {
    const BLOCK: u64 = 4 << 20;
    let sim = Sim::new(6);
    let net = Network::new(&sim, FabricParams::ib_verbs_qdr());
    let master = net.add_node(None);
    let hdfs = HdfsCluster::new(
        &sim,
        &net,
        master,
        HdfsConfig {
            block_size: BLOCK,
            replication: 1,
            packet_size: 1 << 20,
        },
    );
    let mut nodes = Vec::new();
    for i in 0..2 {
        let id = net.add_node(None);
        let fs = LocalFs::new(
            &sim,
            DiskParams::hdd_7200(),
            1,
            256 << 20,
            &format!("dn{i}"),
        );
        hdfs.add_datanode(id, fs);
        nodes.push(id);
    }
    let read = Rc::new(Cell::new(0u64));
    let r2 = Rc::clone(&read);
    let h2 = hdfs.clone();
    sim.spawn_named("hdfs", async move {
        let mut w = h2.create("/k", nodes[0]).await.expect("create");
        for _ in 0..blocks {
            w.write(Blob::synthetic(BLOCK)).await.expect("write");
        }
        w.close().await.expect("close");
        let mut r = h2.open("/k", nodes[0]).await.expect("open");
        while let Some(b) = r.next_block().await.expect("read") {
            assert_eq!(b.size, BLOCK);
            r2.set(r2.get() + 1);
        }
    })
    .detach();
    let elapsed = time_sim(&sim);
    assert_eq!(read.get(), blocks);
    assert_eq!(hdfs.file_size("/k"), Ok(blocks * BLOCK));
    Timed {
        ops: blocks,
        elapsed,
    }
}

// ---- data plane ------------------------------------------------------------

/// k-way [`StreamingMerge`] fed packet by packet and drained through `emit`.
/// Real mode: source i holds keys i, i+k, i+2k, … so the merge switches
/// source on every record — the worst case for head selection. Packet
/// construction is kept off the clock. Returns the timing over records and
/// the number of `emit` calls that returned data.
fn merge_pq(k: usize, per_source: u64, real: bool) -> (Timed, u64) {
    const PKT_RECORDS: u64 = 1_024;
    let mut next_j = vec![0u64; k];
    let mut packet = |source: usize| -> Segment {
        let n = (per_source - next_j[source]).min(PKT_RECORDS);
        assert!(n > 0, "stalled source has no more data");
        let from = next_j[source];
        next_j[source] += n;
        if real {
            Segment::from_sorted(
                (from..from + n)
                    .map(|j| {
                        let key = (source as u64 + j * k as u64).to_be_bytes().to_vec();
                        Record::new(key, b"valuevalue".to_vec())
                    })
                    .collect(),
            )
        } else {
            Segment::synthetic(n, n * 100)
        }
    };
    let mut m = StreamingMerge::new(vec![per_source; k]);
    let first: Vec<Segment> = (0..k).map(&mut packet).collect();
    let mut elapsed = Duration::ZERO;
    let t0 = Instant::now();
    for (i, seg) in first.into_iter().enumerate() {
        m.append(i, seg);
    }
    elapsed += t0.elapsed();
    let (mut emitted, mut emits) = (0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let step = m.emit(4_096);
        elapsed += t0.elapsed();
        match step {
            Emit::Data(seg) => {
                emitted += seg.records;
                emits += 1;
            }
            Emit::Stalled(dry) => {
                let refill: Vec<(usize, Segment)> =
                    dry.into_iter().map(|i| (i, packet(i))).collect();
                let t0 = Instant::now();
                for (i, seg) in refill {
                    m.append(i, seg);
                }
                elapsed += t0.elapsed();
            }
            Emit::Done => break,
        }
    }
    assert_eq!(
        emitted,
        per_source * k as u64,
        "no record lost or duplicated"
    );
    (
        Timed {
            ops: emitted,
            elapsed,
        },
        emits,
    )
}

fn codec(records: &[Record]) -> Timed {
    let t0 = Instant::now();
    let encoded = encode_records(black_box(records));
    let decoded = decode_records(black_box(encoded));
    let elapsed = t0.elapsed();
    assert_eq!(decoded.len(), records.len());
    assert_eq!(decoded.last(), records.last());
    Timed {
        ops: records.len() as u64,
        elapsed,
    }
}

fn sort(records: Vec<Record>) -> (Timed, Segment) {
    let n = records.len() as u64;
    let t0 = Instant::now();
    let seg = Segment::from_records(black_box(records));
    let elapsed = t0.elapsed();
    assert!(seg.is_sorted());
    assert_eq!(seg.records, n);
    (Timed { ops: n, elapsed }, seg)
}

fn partition(seg: &Segment) -> Timed {
    let part: &dyn Partitioner = &TotalOrderPartitioner;
    let t0 = Instant::now();
    let parts = black_box(seg).partition(32, part);
    let elapsed = t0.elapsed();
    assert_eq!(parts.len(), 32);
    assert_eq!(parts.iter().map(|p| p.records).sum::<u64>(), seg.records);
    Timed {
        ops: seg.records,
        elapsed,
    }
}

// ---- PrefetchCache ---------------------------------------------------------

fn cache_churn(iters: u64) -> Timed {
    let cache = PrefetchCache::new(1 << 30);
    let mut hits = 0u64;
    let t0 = Instant::now();
    for i in 0..iters as usize {
        cache.insert((JobId(0), i % 64), 16 << 20, Priority::Prefetch);
        if cache.lookup((JobId(0), (i * 7) % 64)) {
            hits += 1;
        }
    }
    let elapsed = t0.elapsed();
    let (h, m) = cache.stats();
    assert_eq!(h + m, iters, "every lookup is a hit or a miss");
    assert_eq!(h, hits);
    Timed {
        ops: iters * 2,
        elapsed,
    }
}

// ---- rmr_obs ---------------------------------------------------------------

fn obs_emit(on: bool, n: u64) -> Timed {
    let sim = Sim::new(8);
    let rec = if on {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let t0 = Instant::now();
    for i in 0..n {
        black_box(&rec).emit(|| Ev::MergeBatch {
            node: (i % 8) as usize,
            job: 0,
            reduce: (i % 32) as usize,
            records: i,
            bytes: i * 100,
        });
    }
    let elapsed = t0.elapsed();
    assert_eq!(rec.len() as u64, if on { n } else { 0 });
    Timed { ops: n, elapsed }
}

/// Runs every kernel once and returns the `layer_kernels` repetition.
pub fn run(cfg: &RepConfig, origin: Instant) -> Rep {
    let mut tracer = Tracer::new(origin);
    let mut rep = Rep::new(NAME, cfg);
    let div = if cfg.smoke { SMOKE_DIV } else { 1 };
    let scaled = |n: u64| (n / div).max(64);

    // ---- set-up: inputs, seeded
    let t_build = Instant::now();
    let mut rng = SplitMix(cfg.seed);
    let codec_in = tera_records(scaled(400_000) as usize, &mut rng);
    let sort_in = tera_records(scaled(400_000) as usize, &mut rng);
    let hist_in: Vec<f64> = (0..scaled(4_000_000))
        .map(|_| 10f64.powf((rng.next() % 6_000) as f64 / 1_000.0 - 3.0))
        .collect();
    let t_built = Instant::now();
    rep.set("setup_s", t_built.duration_since(origin).as_secs_f64());
    if cfg.setup_only {
        rep.check("setup_completed", true, String::new());
        return rep;
    }

    // ---- kernels, one layer at a time
    let smoke = cfg.smoke;
    let (k, per) = if smoke { (32, 2_000) } else { (128, 20_000) };
    let work_per_completion = Cell::new(0.0);
    let sorted: RefCell<Option<Segment>> = RefCell::new(None);
    type Kernel<'a> = (&'static str, Box<dyn FnOnce() -> Timed + 'a>);
    let kernels: Vec<Kernel> = vec![
        (
            "des.timer_ns_per_event",
            Box::new(|| timers(2_000, scaled(100) as usize)),
        ),
        (
            "des.channel_ns_per_msg",
            Box::new(|| channel_pingpong(scaled(300_000))),
        ),
        (
            "des.semaphore_ns_per_acquire",
            Box::new(|| semaphore_contention(64, scaled(4_000))),
        ),
        (
            "des.spawn_ns_per_task",
            Box::new(|| spawns(scaled(400_000))),
        ),
        (
            "des.histogram_ns_per_record",
            Box::new(|| histogram_records(&hist_in)),
        ),
        (
            "fluid.ns_per_completion",
            Box::new(|| {
                let (t, work) = fluid_churn(if smoke { 200 } else { 2_000 });
                work_per_completion.set(work);
                t
            }),
        ),
        (
            "net.socket_transfer_ns",
            Box::new(|| transfers(FabricParams::ipoib_qdr(), scaled(20_000))),
        ),
        (
            "net.verbs_transfer_ns",
            Box::new(|| transfers(FabricParams::ib_verbs_qdr(), scaled(20_000))),
        ),
        (
            "net.rdma_read_ns_per_wr",
            Box::new(|| rdma_reads(scaled(40_000))),
        ),
        (
            "net.ucr_roundtrip_ns",
            Box::new(|| ucr_roundtrips(scaled(20_000))),
        ),
        ("store.disk_io_ns", Box::new(|| disk_ios(scaled(40_000)))),
        (
            "store.fs_append_read_ns",
            Box::new(|| fs_append_read(scaled(20_000))),
        ),
        (
            "hdfs.write_read_ns_per_block",
            Box::new(|| hdfs_blocks(scaled(4_000))),
        ),
        (
            "data.merge_real_ns_per_record",
            Box::new(|| merge_pq(k, per, true).0),
        ),
        (
            "data.merge_synth_ns_per_emit",
            Box::new(|| {
                let (t, emits) = merge_pq(k, per, false);
                Timed { ops: emits, ..t }
            }),
        ),
        ("data.codec_ns_per_record", Box::new(|| codec(&codec_in))),
        (
            "data.sort_ns_per_record",
            Box::new(|| {
                let (t, seg) = sort(sort_in);
                *sorted.borrow_mut() = Some(seg);
                t
            }),
        ),
        (
            "data.partition_ns_per_record",
            Box::new(|| partition(&sorted.take().expect("sort ran first"))),
        ),
        (
            "prefetch.cache_ns_per_op",
            Box::new(|| cache_churn(scaled(2_000_000))),
        ),
        (
            "obs.emit_ns_on",
            Box::new(|| obs_emit(true, scaled(2_000_000))),
        ),
        (
            "obs.emit_ns_off",
            Box::new(|| obs_emit(false, scaled(100_000_000))),
        ),
    ];
    let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::new();
    for (name, kernel) in kernels {
        let t0 = Instant::now();
        let timed = kernel();
        spans.push((name, t0, Instant::now()));
        rep.set(name, timed.ns_per_op());
        rep.check(name, timed.ops > 0, format!("{} ops asserted", timed.ops));
    }
    rep.set("fluid.work_per_completion", work_per_completion.get());
    let t_done = Instant::now();
    rep.set("host_wall_s", t_done.duration_since(t_built).as_secs_f64());

    let root = tracer.add("workload", None, origin, t_done);
    tracer.add("build", Some(root), t_build, t_built);
    let run = tracer.add("run", Some(root), t_built, t_done);
    for (name, t0, t1) in spans {
        tracer.add(name, Some(run), t0, t1);
    }
    rep.set("phase.build_s", tracer.seconds("build"));
    rep.spans = Some(tracer);
    rep
}
