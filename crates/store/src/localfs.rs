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
//!
//! A [`LocalFs`] is a handle: one `Rc` of the node's disks, page cache and
//! file table, so a clone is one reference-count bump. An open file is small
//! because a Hadoop-A TaskTracker keeps a reader open for every partition a
//! reducer has half-pulled from disk: a [`FileReader`] is the handle, the
//! file table's own shared name, the index of the disk it was opened on, its
//! I/O stream and its position (48 B), and a [`FileWriter`] is the same
//! without the position (40 B). Opening an existing file allocates nothing.
//! Every read and append looks the file up by name, so a handle to a
//! deleted file fails with [`FsError::NotFound`].

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
    /// Keyed by a shared name: an open handle holds the same allocation.
    files: BTreeMap<Rc<str>, FileMeta>,
    next_id: u64,
    next_disk: usize,
}

/// A node-local filesystem: a handle, so a clone is one reference-count
/// bump. Every open file holds one.
#[derive(Clone)]
pub struct LocalFs {
    shared: Rc<Shared>,
}

struct Shared {
    disks: Vec<Disk>,
    cache: PageCache,
    inner: RefCell<FsInner>,
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

const _: () = assert!(std::mem::size_of::<LocalFs>() == 8);
const _: () = assert!(std::mem::size_of::<FileReader>() <= 48);
const _: () = assert!(std::mem::size_of::<FileWriter>() <= 40);

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
            shared: Rc::new(Shared {
                disks,
                cache: PageCache::new(cache_budget),
                inner: RefCell::new(FsInner {
                    files: BTreeMap::new(),
                    next_id: 0,
                    next_disk: 0,
                }),
                cpu: None,
                c_written: sim.metrics().counter("fs.bytes_written"),
                c_read: sim.metrics().counter("fs.bytes_read"),
                c_read_disk: sim.metrics().counter("fs.bytes_read_disk"),
            }),
        }
    }

    /// Attaches the host CPU: every read/write then charges the software
    /// I/O path ([`IO_CPU_PER_BYTE`], [`IO_CPU_PER_OP`]). A builder step:
    /// call it before the first clone.
    pub fn with_cpu(mut self, cpu: Fluid) -> Self {
        Rc::get_mut(&mut self.shared)
            .expect("with_cpu runs before the filesystem is cloned")
            .cpu = Some(cpu);
        self
    }

    async fn charge_io_cpu(&self, bytes: u64) {
        if let Some(cpu) = &self.shared.cpu {
            cpu.consume(IO_CPU_PER_OP + IO_CPU_PER_BYTE * bytes as f64)
                .await;
        }
    }

    /// The underlying page cache (for instrumentation).
    pub fn page_cache(&self) -> &PageCache {
        &self.shared.cache
    }

    /// Sum of all file sizes.
    pub fn used_bytes(&self) -> u64 {
        let inner = self.shared.inner.borrow();
        inner.files.values().map(|m| m.size).sum()
    }

    /// Aggregate seconds any disk spent busy.
    pub fn disks_busy_seconds(&self) -> f64 {
        self.shared.disks.iter().map(|d| d.busy_seconds()).sum()
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.shared.inner.borrow().files.contains_key(path)
    }

    /// Size of `path`.
    pub fn size(&self, path: &str) -> Result<u64, FsError> {
        self.meta(path).map(|m| m.size)
    }

    /// Creates an empty file, assigning it to the next disk round-robin.
    pub fn create(&self, path: &str) -> Result<(), FsError> {
        self.create_shared(path).map(drop)
    }

    /// [`Self::create`], returning the file table's name for `path`.
    fn create_shared(&self, path: &str) -> Result<(Rc<str>, FileMeta), FsError> {
        let mut inner = self.shared.inner.borrow_mut();
        if inner.files.contains_key(path) {
            return Err(FsError::Exists(path.to_string()));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let disk = inner.next_disk % self.shared.disks.len();
        inner.next_disk += 1;
        let (name, meta) = (Rc::<str>::from(path), FileMeta { id, size: 0, disk });
        inner.files.insert(Rc::clone(&name), meta);
        Ok((name, meta))
    }

    /// Deletes a file, releasing its pages.
    pub fn delete(&self, path: &str) -> Result<(), FsError> {
        let meta = (self.shared.inner.borrow_mut().files.remove(path))
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        self.shared.cache.forget(meta.id);
        Ok(())
    }

    fn meta(&self, path: &str) -> Result<FileMeta, FsError> {
        (self.shared.inner.borrow().files.get(path).copied())
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// The file table's name for `path` and its metadata.
    fn lookup(&self, path: &str) -> Option<(Rc<str>, FileMeta)> {
        let inner = self.shared.inner.borrow();
        let (name, meta) = inner.files.get_key_value(path)?;
        Some((Rc::clone(name), *meta))
    }

    /// Opens a sequential writer, creating the file if needed.
    pub fn writer(&self, path: &str) -> Result<FileWriter, FsError> {
        let (path, meta) = match self.lookup(path) {
            Some(found) => found,
            None => self.create_shared(path)?,
        };
        Ok(FileWriter {
            fs: self.clone(),
            path,
            disk: meta.disk,
            stream: self.shared.disks[meta.disk].new_stream(),
        })
    }

    /// Opens a sequential reader positioned at the start.
    pub fn reader(&self, path: &str) -> Result<FileReader, FsError> {
        let (path, meta) =
            (self.lookup(path)).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(FileReader {
            fs: self.clone(),
            path,
            disk: meta.disk,
            stream: self.shared.disks[meta.disk].new_stream(),
            pos: 0,
        })
    }
}

/// Sequential append handle; one I/O stream on the disk the file was opened
/// on.
pub struct FileWriter {
    fs: LocalFs,
    path: Rc<str>,
    disk: usize,
    stream: StreamId,
}

impl FileWriter {
    /// Appends `bytes`, charging the disk and populating the page cache.
    pub async fn append(&self, bytes: u64) -> Result<(), FsError> {
        let fs = &self.fs.shared;
        self.fs.charge_io_cpu(bytes).await;
        // Buffered writes hit the page cache and flush to disk; the flush
        // is charged synchronously (steady-state throughput is disk-bound
        // either way, and Hadoop's spill writers block on throttled disks).
        fs.disks[self.disk].io(self.stream, bytes).await;
        let mut inner = fs.inner.borrow_mut();
        let meta = (inner.files.get_mut(&*self.path))
            .ok_or_else(|| FsError::NotFound(self.path.to_string()))?;
        meta.size += bytes;
        let (id, size) = (meta.id, meta.size);
        drop(inner);
        fs.cache.insert(id, bytes, size);
        fs.c_written.add(bytes as f64);
        Ok(())
    }

    /// The path being written.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// Sequential read handle; one I/O stream on the disk the file was opened
/// on.
pub struct FileReader {
    fs: LocalFs,
    path: Rc<str>,
    disk: usize,
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
                path: self.path.to_string(),
                want: bytes,
                have: meta.size - self.pos,
            });
        }
        let fs = &self.fs.shared;
        self.fs.charge_io_cpu(bytes).await;
        let miss = fs.cache.read(meta.id, bytes, meta.size);
        if miss > 0 {
            fs.disks[self.disk].io(self.stream, miss).await;
        }
        self.pos += bytes;
        fs.c_read.add(bytes as f64);
        fs.c_read_disk.add(miss as f64);
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
        sim.block_on(sim.spawn(async move {
            let w = fs2.writer("spill0").unwrap();
            w.append(300).await.unwrap();
            w.append(200).await.unwrap();
            assert_eq!(fs2.size("spill0").unwrap(), 500);
            let mut r = fs2.reader("spill0").unwrap();
            r.read_exact(500).await.unwrap();
            assert!(r.read_exact(1).await.is_err());
        }));
        // 500 B written + 500 B read at 100 B/s = 10 s (no cache).
        assert_eq!(sim.now().as_nanos(), 10_000_000_000);
    }

    #[test]
    fn page_cache_makes_rereads_free() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 1, 10_000, "t");
        let fs2 = fs.clone();
        sim.block_on(sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(500).await.unwrap(); // 5 s
            let mut r = fs2.reader("f").unwrap();
            r.read_exact(500).await.unwrap(); // cached → free
        }));
        assert_eq!(sim.now().as_nanos(), 5_000_000_000);
    }

    #[test]
    fn files_round_robin_across_disks() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 2, 0, "t");
        let fs2 = fs.clone();
        let sim2 = sim.clone();
        let done = sim.block_on(sim.spawn(async move {
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
            sim2.now().as_nanos()
        }));
        assert_eq!(done, 1_000_000_000); // 1 s, not 2 s
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
        sim.block_on(sim.spawn(async move {
            let w = fs2.writer("f").unwrap();
            w.append(100).await.unwrap();
            fs2.delete("f").unwrap();
            assert_eq!(fs2.page_cache().used(), 0);
            assert!(!fs2.exists("f"));
        }));
    }

    #[test]
    fn used_bytes_sums_files() {
        let sim = Sim::new(1);
        let fs = LocalFs::new(&sim, fast_disk(), 2, 0, "t");
        let fs2 = fs.clone();
        sim.block_on(sim.spawn(async move {
            fs2.writer("a").unwrap().append(100).await.unwrap();
            fs2.writer("b").unwrap().append(50).await.unwrap();
            assert_eq!(fs2.used_bytes(), 150);
        }));
    }
}
