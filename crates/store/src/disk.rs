//! Single-device storage models (HDD spindles and SSDs).
//!
//! The paper's experiments hinge on the interplay between I/O bandwidth and
//! communication (§IV: single vs dual HDD, SSD). The model here captures
//! the two behaviours that matter:
//!
//! * **Sequential streaming is cheap, switching streams is not** (HDD).
//!   Each device remembers which stream it served last; a request from a
//!   different stream pays the access latency (seek + rotational delay),
//!   while back-to-back requests from the same stream do not. Interleaved
//!   readers therefore thrash an HDD — exactly why Hadoop-A's per-packet
//!   disk fetches hurt and why the paper's PrefetchCache wins.
//! * **Queue depth** — an HDD serves one request at a time (convoys form);
//!   an SSD serves many in parallel, sharing its internal bandwidth.
//!
//! Requests larger than [`DiskParams::max_request`] are split so that one
//! huge read cannot monopolise a spindle un-preemptively (the OS would
//! interleave at block-layer granularity).

use std::cell::RefCell;
use std::rc::Rc;

use rmr_des::prelude::*;

/// Device timing parameters.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Reported in metrics and errors.
    pub name: &'static str,
    /// Sequential bandwidth, bytes/second (single value; the asymmetry
    /// between read and write is second-order for these workloads).
    pub seq_bw: f64,
    /// Cost of starting a non-sequential access (seek + rotational latency
    /// for HDD; flash translation and command overhead for SSD).
    pub access_latency: SimDuration,
    /// How many requests the device services concurrently.
    pub queue_depth: u64,
    /// Largest slice served as one un-preemptible request.
    pub max_request: u64,
}

impl DiskParams {
    /// A 7200 rpm SATA HDD of the paper's era (160 GB system disks / 1 TB
    /// storage-node disks): ~8 ms average access, ~100 MB/s sequential.
    pub fn hdd_7200() -> Self {
        DiskParams {
            name: "HDD",
            seq_bw: 100.0e6,
            access_latency: SimDuration::from_micros(8_000),
            queue_depth: 1,
            max_request: 4 << 20,
        }
    }

    /// A SATA SSD of the era: ~64 µs access, ~400 MB/s, internal
    /// parallelism.
    pub fn ssd_sata() -> Self {
        DiskParams {
            name: "SSD",
            seq_bw: 400.0e6,
            access_latency: SimDuration::from_micros(64),
            queue_depth: 16,
            max_request: 4 << 20,
        }
    }
}

/// Identifies an I/O stream for sequentiality tracking. Allocate via
/// [`Disk::new_stream`] (or through the filesystem layer, which does it per
/// open file handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(u64);

struct DiskInner {
    last_stream: Option<StreamId>,
    next_stream: u64,
}

/// One storage device.
#[derive(Clone)]
pub struct Disk {
    sim: Sim,
    params: Rc<DiskParams>,
    slots: Semaphore,
    bw: Fluid,
    inner: Rc<RefCell<DiskInner>>,
    /// Cached `disk.seeks` handle: stream switches are per-request, so the
    /// counter bump must not pay a registry lookup.
    c_seeks: rmr_des::Counter,
}

impl Disk {
    /// Creates a device. `_tag` is unused; it stays because `benchmark/`
    /// passes one.
    pub fn new(sim: &Sim, params: DiskParams, _tag: &str) -> Self {
        Disk {
            sim: sim.clone(),
            slots: Semaphore::new(params.queue_depth),
            bw: Fluid::new(sim, params.seq_bw),
            params: Rc::new(params),
            inner: Rc::new(RefCell::new(DiskInner {
                last_stream: None,
                next_stream: 0,
            })),
            c_seeks: sim.metrics().counter("disk.seeks"),
        }
    }

    /// Allocates a fresh stream identity.
    pub fn new_stream(&self) -> StreamId {
        let mut inner = self.inner.borrow_mut();
        let id = StreamId(inner.next_stream);
        inner.next_stream += 1;
        id
    }

    /// Total bytes moved so far.
    pub fn bytes_served(&self) -> f64 {
        self.bw.served()
    }

    /// Seconds the device spent transferring.
    pub fn busy_seconds(&self) -> f64 {
        self.bw.busy_seconds()
    }

    /// Performs one I/O of `bytes` on behalf of `stream`. Reads and writes
    /// share the same cost model.
    pub async fn io(&self, stream: StreamId, bytes: u64) {
        let mut left = bytes;
        loop {
            let slice = left.min(self.params.max_request);
            let _slot = self.slots.acquire(1).await;
            let switched = {
                let mut inner = self.inner.borrow_mut();
                let switched = inner.last_stream != Some(stream);
                inner.last_stream = Some(stream);
                switched
            };
            if switched {
                self.sim.sleep(self.params.access_latency).await;
                self.c_seeks.incr();
            }
            if slice > 0 {
                self.bw.consume(slice as f64).await;
            }
            drop(_slot);
            left -= slice;
            if left == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_params(bw: f64, seek_ms: u64) -> DiskParams {
        DiskParams {
            name: "test",
            seq_bw: bw,
            access_latency: SimDuration::from_millis(seek_ms),
            queue_depth: 1,
            max_request: 1 << 20,
        }
    }

    #[test]
    fn sequential_stream_pays_one_seek() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, test_params(100.0, 1000), "t");
        let s = disk.new_stream();
        let sim2 = sim.clone();
        let disk2 = disk.clone();
        let done = sim.block_on(sim.spawn(async move {
            for _ in 0..3 {
                disk2.io(s, 100).await; // 1 s of transfer each
            }
            sim2.now()
        }));
        // One 1 s seek + 3 s streaming.
        assert_eq!(done.as_nanos(), 4_000_000_000);
    }

    #[test]
    fn interleaved_streams_thrash() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, test_params(1e12, 1000), "t");
        let a = disk.new_stream();
        let b = disk.new_stream();
        let sim2 = sim.clone();
        let disk2 = disk.clone();
        let done = sim.block_on(sim.spawn(async move {
            for _ in 0..3 {
                disk2.io(a, 10).await;
                disk2.io(b, 10).await;
            }
            sim2.now()
        }));
        // Every request switches streams: 6 seeks of 1 s each.
        assert!(done.as_nanos() >= 6_000_000_000);
    }

    #[test]
    fn hdd_serves_one_request_at_a_time() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, test_params(100.0, 0), "t");
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let disk = disk.clone();
            let s = disk.new_stream();
            let sim2 = sim.clone();
            let f = Rc::clone(&finishes);
            sim.spawn(async move {
                disk.io(s, 100).await; // 1 s transfer
                f.borrow_mut().push(sim2.now().as_nanos());
            })
            .detach();
        }
        sim.run();
        // Convoy: 1 s then 2 s, not both at 2 s (no fluid sharing at qd=1).
        assert_eq!(*finishes.borrow(), vec![1_000_000_000, 2_000_000_000]);
    }

    #[test]
    fn ssd_shares_bandwidth_across_queue() {
        let sim = Sim::new(1);
        let mut p = test_params(100.0, 0);
        p.queue_depth = 8;
        let disk = Disk::new(&sim, p, "t");
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let disk = disk.clone();
            let s = disk.new_stream();
            let sim2 = sim.clone();
            let f = Rc::clone(&finishes);
            sim.spawn(async move {
                disk.io(s, 100).await;
                f.borrow_mut().push(sim2.now().as_nanos());
            })
            .detach();
        }
        sim.run();
        // Parallel service, shared bandwidth: both complete at 2 s.
        assert_eq!(*finishes.borrow(), vec![2_000_000_000, 2_000_000_000]);
    }

    #[test]
    fn large_request_is_preemptible() {
        // A 10 MB read must not block a 1 B read for its whole duration:
        // max_request bounds the un-preemptible slice.
        let sim = Sim::new(1);
        let mut p = test_params(1e6, 0); // 1 MB/s
        p.max_request = 1 << 20;
        let disk = Disk::new(&sim, p, "t");
        {
            let disk = disk.clone();
            let s = disk.new_stream();
            sim.spawn(async move {
                disk.io(s, 10 << 20).await; // 10 s total
            })
            .detach();
        }
        let small = {
            let disk = disk.clone();
            let s = disk.new_stream();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(100)).await;
                disk.io(s, 1).await;
                sim2.now().as_nanos()
            })
        };
        // The small read slips in after the current 1 MB slice (~1 s), far
        // before the 10 s bulk read finishes.
        let small_done = sim.block_on(small);
        assert!(small_done < 3_000_000_000, "got {small_done}");
    }

    #[test]
    fn accounting_tracks_bytes_and_busy_time() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, test_params(100.0, 0), "t");
        let d2 = disk.clone();
        let s = disk.new_stream();
        sim.block_on(sim.spawn(async move {
            d2.io(s, 250).await;
        }));
        assert!((disk.bytes_served() - 250.0).abs() < 1e-6);
        assert!((disk.busy_seconds() - 2.5).abs() < 1e-6);
    }
}
