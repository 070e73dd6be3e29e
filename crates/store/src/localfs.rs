//! A node-local filesystem over a JBOD set of simulated disks.
//!
//! TaskTrackers keep map outputs, spills, and reduce-side merge runs on the
//! local filesystem (`mapred.local.dir`); DataNodes keep HDFS block files on
//! it. The model tracks names, sizes, and disk placement — content lives in
//! the data plane above — and charges every access to the owning disk
//! through the page cache.
//!
//! Files are striped across disks at *file* granularity, round-robin, which
//! is what configuring one `mapred.local.dir`/`dfs.data.dir` entry per disk
//! does in real Hadoop (the paper's multi-HDD experiments, Fig 4).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_des::resource::Fluid;

use crate::disk::{Disk, DiskParams, StreamId};
use crate::pagecache::PageCache;

/// CPU cost of the software I/O path (syscall + kernel/JVM buffer copies),
/// charged per byte moved through the filesystem. Paid even on page-cache
/// hits — the data still crosses the user/kernel boundary. An in-heap cache
/// (the paper's PrefetchCache) is what avoids this cost.
pub const IO_CPU_PER_BYTE: f64 = 12.0e-9;
/// CPU cost per I/O call (syscall, stream setup).
pub const IO_CPU_PER_OP: f64 = 25.0e-6;

#[derive(Debug, Clone, Copy)]
struct FileMeta {
    id: u64,
    size: u64,
    disk: usize,
}

struct FsInner {
    files: BTreeMap<String, FileMeta>,
    next_id: u64,
    next_disk: usize,
}

/// A node-local filesystem.
#[derive(Clone)]
pub struct LocalFs {
    disks: Rc<Vec<Disk>>,
    cache: PageCache,
    inner: Rc<RefCell<FsInner>>,
    /// Host CPU charged for the software I/O path (None in unit tests that
    /// isolate device behaviour).
    cpu: Option<Fluid>,
    /// Cached counter handles for the per-I/O metrics (`fs.bytes_written`,
    /// `fs.bytes_read`, `fs.bytes_read_disk`): a `Cell` bump per access
    /// instead of a registry lookup.
    c_written: rmr_des::Counter,
    c_read: rmr_des::Counter,
    c_read_disk: rmr_des::Counter,
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (on exclusive create).
    Exists(String),
    /// Read past end of file.
    ShortRead { path: String, want: u64, have: u64 },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "file not found: {p}"),
            FsError::Exists(p) => write!(f, "file exists: {p}"),
            FsError::ShortRead { path, want, have } => {
                write!(f, "short read on {path}: want {want} bytes, have {have}")
            }
        }
    }
}

impl std::error::Error for FsError {}

impl LocalFs {
    /// Creates a filesystem over `n_disks` devices of the given parameters,
    /// with a page cache of `cache_budget` bytes shared across them.
    /// `_tag` is unused; it stays because `benchmark/` passes one.
    pub fn new(
        sim: &Sim,
        params: DiskParams,
        n_disks: usize,
        cache_budget: u64,
        _tag: &str,
    ) -> Self {
        assert!(n_disks > 0, "need at least one disk");
        let disks = (0..n_disks)
            .map(|_| Disk::new(sim, params.clone(), ""))
            .collect();
        LocalFs {
            disks: Rc::new(disks),
            cache: PageCache::new(cache_budget),
            inner: Rc::new(RefCell::new(FsInner {
                files: BTreeMap::new(),
                next_id: 0,
                next_disk: 0,
            })),
            cpu: None,
            c_written: sim.metrics().counter("fs.bytes_written"),
            c_read: sim.metrics().counter("fs.bytes_read"),
            c_read_disk: sim.metrics().counter("fs.bytes_read_disk"),
        }
    }

    /// Attaches the host CPU: every read/write then charges the software
    /// I/O path ([`IO_CPU_PER_BYTE`], [`IO_CPU_PER_OP`]).
    pub fn with_cpu(mut self, cpu: Fluid) -> Self {
        self.cpu = Some(cpu);
        self
    }

    async fn charge_io_cpu(&self, bytes: u64) {
        if let Some(cpu) = &self.cpu {
            cpu.consume(IO_CPU_PER_OP + IO_CPU_PER_BYTE * bytes as f64)
                .await;
        }
    }

    /// The underlying page cache (for instrumentation).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// Sum of all file sizes.
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().files.values().map(|m| m.size).sum()
    }

    /// Aggregate seconds any disk spent busy.
    pub fn disks_busy_seconds(&self) -> f64 {
        self.disks.iter().map(|d| d.busy_seconds()).sum()
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.borrow().files.contains_key(path)
    }

    /// Size of `path`.
    pub fn size(&self, path: &str) -> Result<u64, FsError> {
        self.inner
            .borrow()
            .files
            .get(path)
            .map(|m| m.size)
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Creates an empty file, assigning it to the next disk round-robin.
    pub fn create(&self, path: &str) -> Result<(), FsError> {
        let mut inner = self.inner.borrow_mut();
        if inner.files.contains_key(path) {
            return Err(FsError::Exists(path.to_string()));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let disk = inner.next_disk % self.disks.len();
        inner.next_disk += 1;
        inner
            .files
            .insert(path.to_string(), FileMeta { id, size: 0, disk });
        Ok(())
    }

    /// Deletes a file, releasing its pages.
    pub fn delete(&self, path: &str) -> Result<(), FsError> {
        let meta = self
            .inner
            .borrow_mut()
            .files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        self.cache.forget(meta.id);
        Ok(())
    }

    fn meta(&self, path: &str) -> Result<FileMeta, FsError> {
        self.inner
            .borrow()
            .files
            .get(path)
            .copied()
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Opens a sequential writer, creating the file if needed.
    pub fn writer(&self, path: &str) -> Result<FileWriter, FsError> {
        if !self.exists(path) {
            self.create(path)?;
        }
        let meta = self.meta(path)?;
        let disk = self.disks[meta.disk].clone();
        let stream = disk.new_stream();
        Ok(FileWriter {
            fs: self.clone(),
            path: path.to_string(),
            disk,
            stream,
        })
    }

    /// Opens a sequential reader positioned at the start.
    pub fn reader(&self, path: &str) -> Result<FileReader, FsError> {
        let meta = self.meta(path)?;
        let disk = self.disks[meta.disk].clone();
        let stream = disk.new_stream();
        Ok(FileReader {
            fs: self.clone(),
            path: path.to_string(),
            disk,
            stream,
            pos: 0,
        })
    }
}

/// Sequential append handle; one I/O stream on the owning disk.
pub struct FileWriter {
    fs: LocalFs,
    path: String,
    disk: Disk,
    stream: StreamId,
}

impl FileWriter {
    /// Appends `bytes`, charging the disk and populating the page cache.
    pub async fn append(&self, bytes: u64) -> Result<(), FsError> {
        self.fs.charge_io_cpu(bytes).await;
        // Buffered writes hit the page cache and flush to disk; the flush
        // is charged synchronously (steady-state throughput is disk-bound
        // either way, and Hadoop's spill writers block on throttled disks).
        self.disk.io(self.stream, bytes).await;
        let mut inner = self.fs.inner.borrow_mut();
        let meta = inner
            .files
            .get_mut(&self.path)
            .ok_or_else(|| FsError::NotFound(self.path.clone()))?;
        meta.size += bytes;
        let (id, size) = (meta.id, meta.size);
        drop(inner);
        self.fs.cache.insert(id, bytes, size);
        self.fs.c_written.add(bytes as f64);
        Ok(())
    }

    /// The path being written.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// Sequential read handle; one I/O stream on the owning disk.
pub struct FileReader {
    fs: LocalFs,
    path: String,
    disk: Disk,
    stream: StreamId,
    pos: u64,
}

impl FileReader {
    /// Reads exactly `bytes` from the current position, failing on EOF.
    /// Page-cache hits skip the disk; misses are charged.
    pub async fn read_exact(&mut self, bytes: u64) -> Result<(), FsError> {
        let meta = self.fs.meta(&self.path)?;
        if self.pos + bytes > meta.size {
            return Err(FsError::ShortRead {
                path: self.path.clone(),
                want: bytes,
                have: meta.size - self.pos,
            });
        }
        self.fs.charge_io_cpu(bytes).await;
        let miss = self.fs.cache.read(meta.id, bytes, meta.size);
        if miss > 0 {
            self.disk.io(self.stream, miss).await;
        }
        self.pos += bytes;
        self.fs.c_read.add(bytes as f64);
        self.fs.c_read_disk.add(miss as f64);
        Ok(())
    }

    /// Bytes left until EOF.
    pub fn remaining(&self) -> Result<u64, FsError> {
        Ok(self.fs.size(&self.path)? - self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn fast_disk() -> DiskParams {
        DiskParams {
            name: "t",
            seq_bw: 100.0,
            access_latency: SimDuration::ZERO,
            queue_depth: 1,
            max_request: 1 << 20,
        }
    }

    #[test]
    fn write_then_read_round_trips_metadata() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 0, "t");
        let fs2 = fs.clone();
        sim.spawn(async move {
            let w = fs2.writer("spill0").unwrap();
            w.append(300).await.unwrap();
            w.append(200).await.unwrap();
            assert_eq!(fs2.size("spill0").unwrap(), 500);
            let mut r = fs2.reader("spill0").unwrap();
            r.read_exact(500).await.unwrap();
            assert!(r.read_exact(1).await.is_err());
        })
        .detach();
        let end = sim.run();
        // 500 B written + 500 B read at 100 B/s = 10 s (no cache).
        assert_eq!(end.as_nanos(), 10_000_000_000);
    }

    #[test]
    fn page_cache_makes_rereads_free() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 10_000, "t");
        let fs2 = fs.clone();
        sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(500).await.unwrap(); // 5 s
            let mut r = fs2.reader("f").unwrap();
            r.read_exact(500).await.unwrap(); // cached → free
        })
        .detach();
        let end = sim.run();
        assert_eq!(end.as_nanos(), 5_000_000_000);
    }

    #[test]
    fn files_round_robin_across_disks() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 2, 0, "t");
        let done = Rc::new(Cell::new(0u64));
        let d = Rc::clone(&done);
        let fs2 = fs.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            let wa = fs2.writer("a").unwrap();
            let wb = fs2.writer("b").unwrap();
            // Concurrent writes to different files land on different disks
            // and overlap fully.
            let fa = async {
                wa.append(100).await.unwrap();
            };
            let fb = async {
                wb.append(100).await.unwrap();
            };
            rmr_des::sync::join_all(vec![
                Box::pin(fa) as std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>,
                Box::pin(fb),
            ])
            .await;
            d.set(sim2.now().as_nanos());
        })
        .detach();
        sim.run();
        assert_eq!(done.get(), 1_000_000_000); // 1 s, not 2 s
    }

    #[test]
    fn missing_file_errors() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 0, "t");
        assert!(matches!(fs.size("nope"), Err(FsError::NotFound(_))));
        assert!(fs.reader("nope").is_err());
        assert!(fs.delete("nope").is_err());
    }

    #[test]
    fn exclusive_create_rejects_duplicates() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 0, "t");
        fs.create("x").unwrap();
        assert!(matches!(fs.create("x"), Err(FsError::Exists(_))));
    }

    #[test]
    fn delete_forgets_pages() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 10_000, "t");
        let fs2 = fs.clone();
        sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(100).await.unwrap();
            fs2.delete("f").unwrap();
            assert_eq!(fs2.page_cache().used(), 0);
            assert!(!fs2.exists("f"));
        })
        .detach();
        sim.run();
    }

    #[test]
    fn used_bytes_sums_files() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 2, 0, "t");
        let fs2 = fs.clone();
        sim.spawn(async move {
            fs2.writer("a").unwrap().append(100).await.unwrap();
            fs2.writer("b").unwrap().append(50).await.unwrap();
            assert_eq!(fs2.used_bytes(), 150);
        })
        .detach();
        sim.run();
    }
}
