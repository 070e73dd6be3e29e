//! Common HDFS types: ids, configuration, data blobs, block content, errors.

use std::any::Any;
use std::rc::Rc;

use bytes::Bytes;

/// Identifies an HDFS block cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// HDFS configuration; the paper tunes `block_size` per system
/// (§IV-B: 256 MB for 10GigE/IPoIB/OSU-IB TeraSort, 128 MB for Hadoop-A,
/// 64 MB for Sort).
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// `dfs.block.size`.
    pub block_size: u64,
    /// `dfs.replication`. The paper-era default is 3; experiments at this
    /// scale commonly ran dfs.replication of the job output at 1 — both are
    /// supported and the cluster presets pick.
    pub replication: u32,
    /// Bytes moved per pipeline packet while writing (io.file.buffer.size
    /// scale; controls write pipelining granularity).
    pub packet_size: u64,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 256 << 20,
            replication: 3,
            packet_size: 4 << 20,
        }
    }
}

/// A chunk of file data moving through the system: always a byte count, and
/// in "real data plane" runs also the bytes themselves.
#[derive(Debug, Clone, Default)]
pub struct Blob {
    /// Logical length in bytes.
    pub len: u64,
    /// Actual content, when the run materialises data (tests/examples);
    /// `None` in synthetic paper-scale runs.
    pub data: Option<Bytes>,
}

impl Blob {
    /// A content-free blob of `len` bytes.
    pub fn synthetic(len: u64) -> Self {
        Blob { len, data: None }
    }

    /// A blob carrying real bytes.
    pub fn real(data: Bytes) -> Self {
        Blob {
            len: data.len() as u64,
            data: Some(data),
        }
    }

    /// Checks the len/data invariant.
    pub fn is_consistent(&self) -> bool {
        match &self.data {
            Some(d) => d.len() as u64 == self.len,
            None => true,
        }
    }
}

/// Real content a writer hands a block as it stands — records kept where
/// they already lie, in a form only the layer that wrote them reads back.
/// HDFS holds the piece and needs nothing of it but its length.
pub trait HeldPiece: Any + std::fmt::Debug {
    /// The bytes the piece counts for in its file.
    fn file_len(&self) -> u64;
}

/// The real content of a sealed block: the bytes it was written as, or the
/// pieces its writer handed over whole.
#[derive(Debug, Clone)]
pub enum BlockData {
    /// Encoded bytes: real blobs ([`Blob::real`]) and in-place fills
    /// ([`crate::HdfsWriter::write_with`]), one buffer per block.
    Encoded(Bytes),
    /// The pieces [`crate::HdfsWriter::write_held`] was given, in write
    /// order.
    Held(Rc<[Box<dyn HeldPiece>]>),
}

impl BlockData {
    /// The bytes the block's content counts for.
    pub(crate) fn file_len(&self) -> u64 {
        match self {
            BlockData::Encoded(bytes) => bytes.len() as u64,
            BlockData::Held(pieces) => pieces.iter().map(|p| p.file_len()).sum(),
        }
    }
}

/// HDFS operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    /// Path missing.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// No DataNodes registered / not enough for replication.
    NoDataNodes,
    /// Underlying local filesystem failure.
    Storage(String),
}

impl std::fmt::Display for HdfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdfsError::NotFound(p) => write!(f, "hdfs: not found: {p}"),
            HdfsError::Exists(p) => write!(f, "hdfs: already exists: {p}"),
            HdfsError::NoDataNodes => write!(f, "hdfs: no datanodes available"),
            HdfsError::Storage(e) => write!(f, "hdfs: storage error: {e}"),
        }
    }
}

impl std::error::Error for HdfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_invariants() {
        assert!(Blob::synthetic(100).is_consistent());
        let b = Blob::real(Bytes::from_static(b"hello"));
        assert_eq!(b.len, 5);
        assert!(b.is_consistent());
        let broken = Blob {
            len: 99,
            data: Some(Bytes::from_static(b"x")),
        };
        assert!(!broken.is_consistent());
    }

    #[test]
    fn default_config_matches_hadoop_era_defaults() {
        let c = HdfsConfig::default();
        assert_eq!(c.replication, 3);
        assert_eq!(c.block_size, 256 << 20);
    }
}
