//! The HDFS cluster facade: DataNodes, pipelined writes, locality reads.
//!
//! Write path: the client asks the NameNode for a block allocation, then
//! streams packets down the replication pipeline (client → DN1 → DN2 → DN3);
//! each hop's network transfer and each replica's disk write proceed
//! concurrently per packet, as the real pipeline does. Read path: the client
//! prefers a replica on its own node (short-circuit local read), else pulls
//! from a remote DataNode, overlapping the remote disk read with the wire
//! transfer.
//!
//! Heartbeats and block reports are not modelled: they carry no bytes that
//! matter at these scales, and failures (the paper's future work) are
//! injected at the MapReduce layer instead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};

use rmr_des::prelude::*;
use rmr_des::sync::join_all;
use rmr_net::{Network, NodeId};
use rmr_store::LocalFs;

use crate::namenode::{BlockMeta, NameNode};
use crate::types::{Blob, BlockId, HdfsConfig, HdfsError};

/// One DataNode: a cluster node plus its local filesystem.
#[derive(Clone)]
pub struct DataNode {
    /// The host this DataNode runs on.
    pub node: NodeId,
    /// Its block store.
    pub fs: LocalFs,
}

/// Cluster-wide HDFS handle (cheap to clone).
#[derive(Clone)]
pub struct HdfsCluster {
    sim: Sim,
    net: Network,
    nn_node: NodeId,
    cfg: Rc<HdfsConfig>,
    nn: Rc<RefCell<NameNode>>,
    dns: Rc<RefCell<Vec<DataNode>>>,
    contents: Rc<RefCell<BTreeMap<BlockId, Bytes>>>,
}

/// Size of a NameNode RPC on the wire.
const NN_RPC_BYTES: u64 = 256;

impl HdfsCluster {
    /// Creates an HDFS cluster with its NameNode on `nn_node`.
    pub fn new(sim: &Sim, net: &Network, nn_node: NodeId, cfg: HdfsConfig) -> Self {
        HdfsCluster {
            sim: sim.clone(),
            net: net.clone(),
            nn_node,
            cfg: Rc::new(cfg),
            nn: Rc::new(RefCell::new(NameNode::new())),
            dns: Rc::new(RefCell::new(Vec::new())),
            contents: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Registers a DataNode.
    pub fn add_datanode(&self, node: NodeId, fs: LocalFs) {
        self.dns.borrow_mut().push(DataNode { node, fs });
    }

    /// The configuration in force.
    pub fn config(&self) -> &HdfsConfig {
        &self.cfg
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The network handle.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Number of registered DataNodes.
    pub fn datanode_count(&self) -> usize {
        self.dns.borrow().len()
    }

    /// The DataNode index running on `node`, if any.
    pub fn dn_index_of(&self, node: NodeId) -> Option<usize> {
        self.dns.borrow().iter().position(|d| d.node == node)
    }

    /// The host of DataNode `i`.
    pub fn dn_node(&self, i: usize) -> NodeId {
        self.dns.borrow()[i].node
    }

    async fn nn_rpc(&self, client: NodeId) {
        self.net.transfer(client, self.nn_node, NN_RPC_BYTES).await;
        self.net.transfer(self.nn_node, client, NN_RPC_BYTES).await;
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nn.borrow().exists(path)
    }

    /// Total length of `path`.
    pub fn file_size(&self, path: &str) -> Result<u64, HdfsError> {
        self.nn.borrow().file_size(path)
    }

    /// Sorted listing of all paths.
    pub fn list(&self) -> Vec<String> {
        self.nn.borrow().list()
    }

    /// Block metadata with host locations — the input-split query.
    pub fn split_locations(&self, path: &str) -> Result<Vec<(BlockMeta, Vec<NodeId>)>, HdfsError> {
        let blocks = self.nn.borrow().blocks(path)?;
        let dns = self.dns.borrow();
        let nodes: Vec<NodeId> = dns.iter().map(|d| d.node).collect();
        Ok(blocks
            .into_iter()
            .map(|b| {
                let locs = NameNode::locate(&b.replicas, &nodes);
                (b, locs)
            })
            .collect())
    }

    /// Deletes a file and its replicas.
    pub async fn delete(&self, path: &str, client: NodeId) -> Result<(), HdfsError> {
        self.nn_rpc(client).await;
        let blocks = self.nn.borrow_mut().delete(path)?;
        let dns = self.dns.borrow();
        for b in blocks {
            self.contents.borrow_mut().remove(&b.id);
            for &r in &b.replicas {
                let _ = dns[r].fs.delete(&b.id.to_string());
            }
        }
        Ok(())
    }

    /// Opens `path` for writing from `client` at the configured replication.
    pub async fn create(&self, path: &str, client: NodeId) -> Result<HdfsWriter, HdfsError> {
        let replication = self.cfg.replication;
        self.create_with_replication(path, client, replication)
            .await
    }

    /// Opens `path` for writing with an explicit per-file replication factor
    /// (Hadoop's `FileSystem.create(..., replication, ...)`).
    pub async fn create_with_replication(
        &self,
        path: &str,
        client: NodeId,
        replication: u32,
    ) -> Result<HdfsWriter, HdfsError> {
        self.nn_rpc(client).await;
        self.nn.borrow_mut().create(path)?;
        Ok(HdfsWriter {
            cluster: self.clone(),
            path: path.to_string(),
            client,
            replication,
            cur: None,
            closed: false,
        })
    }

    /// Opens `path` for reading from `client`.
    pub async fn open(&self, path: &str, client: NodeId) -> Result<HdfsReader, HdfsError> {
        self.nn_rpc(client).await;
        let blocks = self.nn.borrow().blocks(path)?;
        Ok(HdfsReader {
            cluster: self.clone(),
            blocks,
            idx: 0,
            client,
        })
    }

    /// Reads one specific block (a map task reading its split).
    pub async fn read_block(
        &self,
        block: &BlockMeta,
        client: NodeId,
    ) -> Result<BlockRead, HdfsError> {
        // The DataNode table is borrowed only to pick a replica and open it,
        // never across an await.
        let (src, mut reader) = {
            let dns = self.dns.borrow();
            // Prefer a local replica (short-circuit read).
            let chosen = block
                .replicas
                .iter()
                .copied()
                .find(|&r| dns[r].node == client)
                .or_else(|| block.replicas.first().copied())
                .ok_or(HdfsError::NoDataNodes)?;
            let dn = &dns[chosen];
            let reader = dn
                .fs
                .reader(&block.id.to_string())
                .map_err(|e| HdfsError::Storage(e.to_string()))?;
            (dn.node, reader)
        };
        let local = src == client;
        if local {
            reader
                .read_exact(block.size)
                .await
                .map_err(|e| HdfsError::Storage(e.to_string()))?;
            self.sim
                .metrics()
                .add("hdfs.local_read_bytes", block.size as f64);
        } else {
            // Remote: overlap the DataNode's disk read with the transfer.
            let size = block.size;
            let net = self.net.clone();
            let dst = client;
            let disk_leg: Pin<Box<dyn Future<Output = ()>>> = Box::pin(async move {
                reader
                    .read_exact(size)
                    .await
                    .expect("replica shorter than block meta");
            });
            let wire_leg: Pin<Box<dyn Future<Output = ()>>> = Box::pin(async move {
                net.transfer(src, dst, size).await;
            });
            join_all(vec![disk_leg, wire_leg]).await;
            self.sim
                .metrics()
                .add("hdfs.remote_read_bytes", block.size as f64);
        }
        let data = self.contents.borrow().get(&block.id).cloned();
        Ok(BlockRead {
            id: block.id,
            size: block.size,
            local,
            data,
        })
    }
}

/// The result of reading one block.
#[derive(Debug, Clone)]
pub struct BlockRead {
    /// The block read.
    pub id: BlockId,
    /// Its length.
    pub size: u64,
    /// Whether a local replica served it.
    pub local: bool,
    /// Content in real-data runs.
    pub data: Option<Bytes>,
}

/// The real content of an open block: nothing yet, the one blob it can adopt
/// as it stands, or the buffer it is being built in. There is no third way to
/// hold bytes, so a block that got a blob and then more has copied the blob
/// into its buffer first — [`HdfsWriter::seal_current`] checks that nothing
/// was lost on the way.
enum Content {
    Empty,
    Adopted(Bytes),
    Building(BytesMut),
}

impl Content {
    /// The block's buffer, reserved once at `reserve` bytes (the block size,
    /// or the one oversized piece the block will hold), with an adopted blob
    /// copied in.
    fn into_building(self, reserve: u64) -> BytesMut {
        let fresh = || BytesMut::with_capacity(reserve as usize);
        match self {
            Content::Empty => fresh(),
            Content::Adopted(blob) => {
                let mut buf = fresh();
                buf.put_slice(&blob);
                buf
            }
            Content::Building(buf) => buf,
        }
    }
}

struct OpenBlock {
    meta: BlockMeta,
    written: u64,
    writers: Vec<rmr_store::FileWriter>,
    content: Content,
}

/// Streaming writer with pipelined replication.
pub struct HdfsWriter {
    cluster: HdfsCluster,
    path: String,
    client: NodeId,
    replication: u32,
    cur: Option<OpenBlock>,
    closed: bool,
}

impl HdfsWriter {
    /// Appends a blob. Synthetic blobs split exactly at block boundaries;
    /// blobs carrying real content are kept whole within one block — the
    /// simulation-level stand-in for record readers compensating at block
    /// boundaries (no record is ever torn). Writers of real data should
    /// therefore chunk their blobs to at most the block size. A blob that
    /// opens a block is adopted as the block's content, not copied.
    pub async fn write(&mut self, blob: Blob) -> Result<(), HdfsError> {
        debug_assert!(blob.is_consistent());
        assert!(!self.closed, "write after close");
        let block_size = self.cluster.cfg.block_size;
        if let Some(data) = blob.data {
            let reserve = block_size.max(blob.len);
            let put = |content| match content {
                Content::Empty => Content::Adopted(data),
                held => {
                    let mut buf = held.into_building(reserve);
                    buf.put_slice(&data);
                    Content::Building(buf)
                }
            };
            return self.write_real(blob.len, put).await;
        }
        let mut offset: u64 = 0;
        while offset < blob.len {
            if self.cur.is_none() {
                self.open_block().await?;
            }
            let cur = self.cur.as_mut().unwrap();
            let room = block_size - cur.written;
            let take = room.min(blob.len - offset);
            self.pipeline_chunk(take).await?;
            offset += take;
            let cur = self.cur.as_ref().unwrap();
            if cur.written >= block_size {
                self.seal_current().await?;
            }
        }
        Ok(())
    }

    /// Appends `len` bytes of real content that `fill` writes straight into
    /// the block's buffer — kept whole within one block like a real blob of
    /// [`Self::write`], with the same simulated cost, but the bytes are
    /// produced where they will live instead of being copied there. `fill`
    /// runs before anything is awaited and must append exactly `len` bytes.
    pub async fn write_with(
        &mut self,
        len: u64,
        fill: impl FnOnce(&mut BytesMut),
    ) -> Result<(), HdfsError> {
        assert!(!self.closed, "write after close");
        let reserve = self.cluster.cfg.block_size.max(len);
        let path = self.path.clone();
        let put = move |content: Content| {
            let mut buf = content.into_building(reserve);
            let before = buf.len() as u64;
            fill(&mut buf);
            let filled = buf.len() as u64 - before;
            assert_eq!(
                filled, len,
                "{path}: a {len}-byte piece was filled with {filled} bytes"
            );
            Content::Building(buf)
        };
        self.write_real(len, put).await
    }

    /// The whole-piece path: `put` adds the piece to the content of the block
    /// it will live in — the open one if the piece fits, else a fresh one,
    /// opened once the current block is sealed. `put` runs first, before any
    /// await: a fill may draw from the simulation's RNG, and where in the
    /// schedule it does so is part of the run.
    async fn write_real(
        &mut self,
        len: u64,
        put: impl FnOnce(Content) -> Content,
    ) -> Result<(), HdfsError> {
        let block_size = self.cluster.cfg.block_size;
        let room = |cur: &OpenBlock| cur.written == 0 || cur.written + len <= block_size;
        let content = match &mut self.cur {
            Some(cur) if room(cur) => put(std::mem::replace(&mut cur.content, Content::Empty)),
            _ => {
                let content = put(Content::Empty);
                self.seal_current().await?;
                self.open_block().await?;
                content
            }
        };
        let cur = self.cur.as_mut().expect("a block is open");
        cur.content = content;
        self.pipeline_chunk(len).await?;
        if self
            .cur
            .as_ref()
            .is_some_and(|cur| cur.written >= block_size)
        {
            self.seal_current().await?;
        }
        Ok(())
    }

    async fn open_block(&mut self) -> Result<(), HdfsError> {
        let c = &self.cluster;
        c.nn_rpc(self.client).await;
        let writer_dn = c.dn_index_of(self.client);
        let n = c.datanode_count();
        let replication = self.replication;
        let meta = {
            let mut nn = c.nn.borrow_mut();
            c.sim
                .with_rng(|rng| nn.add_block(&self.path, writer_dn, n, replication, rng))?
        };
        let dns = c.dns.borrow();
        let writers = meta
            .replicas
            .iter()
            .map(|&r| {
                dns[r]
                    .fs
                    .writer(&meta.id.to_string())
                    .map_err(|e| HdfsError::Storage(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.cur = Some(OpenBlock {
            meta,
            written: 0,
            writers,
            content: Content::Empty,
        });
        Ok(())
    }

    /// Streams one packet-train of `len` bytes down the pipeline in
    /// [`HdfsConfig::packet_size`] packets; network hops and replica disk
    /// writes overlap.
    async fn pipeline_chunk(&mut self, len: u64) -> Result<(), HdfsError> {
        let c = self.cluster.clone();
        let cur = self.cur.as_mut().unwrap();
        let packet = c.cfg.packet_size.max(1);
        let mut sent = 0u64;
        while sent < len {
            let take = packet.min(len - sent);
            let mut legs: Vec<Pin<Box<dyn Future<Output = ()>>>> = Vec::new();
            let mut prev = self.client;
            for (i, &r) in cur.meta.replicas.iter().enumerate() {
                let dst = c.dn_node(r);
                let net = c.net.clone();
                let src = prev;
                legs.push(Box::pin(async move {
                    net.transfer(src, dst, take).await;
                }));
                let w = &cur.writers[i];
                legs.push(Box::pin(async move {
                    w.append(take).await.expect("datanode disk append failed");
                }));
                prev = dst;
            }
            join_all(legs).await;
            sent += take;
        }
        cur.written += len;
        c.sim.metrics().add("hdfs.bytes_written", len as f64);
        Ok(())
    }

    async fn seal_current(&mut self) -> Result<(), HdfsError> {
        if let Some(cur) = self.cur.take() {
            let c = &self.cluster;
            c.nn_rpc(self.client).await;
            c.nn.borrow_mut()
                .seal_block(&self.path, cur.meta.id, cur.written)?;
            // Either way the block adopts what it holds: the one blob it was
            // given, or the buffer its pieces were written into. Nothing is
            // copied at seal.
            let content = match cur.content {
                Content::Empty => return Ok(()),
                Content::Adopted(blob) => blob,
                Content::Building(buf) => buf.freeze(),
            };
            assert_eq!(
                content.len() as u64,
                cur.written,
                "{}: block {} holds {} real bytes of {} written",
                self.path,
                cur.meta.id,
                content.len(),
                cur.written
            );
            c.contents.borrow_mut().insert(cur.meta.id, content);
        }
        Ok(())
    }

    /// Seals the trailing partial block and completes the file.
    pub async fn close(mut self) -> Result<(), HdfsError> {
        self.seal_current().await?;
        self.cluster.nn_rpc(self.client).await;
        self.cluster.nn.borrow_mut().complete(&self.path)?;
        self.closed = true;
        Ok(())
    }
}

/// Streaming reader iterating over a file's blocks.
pub struct HdfsReader {
    cluster: HdfsCluster,
    blocks: Vec<BlockMeta>,
    idx: usize,
    client: NodeId,
}

impl HdfsReader {
    /// Reads the next block; `None` at EOF.
    pub async fn next_block(&mut self) -> Result<Option<BlockRead>, HdfsError> {
        if self.idx >= self.blocks.len() {
            return Ok(None);
        }
        let b = self.blocks[self.idx].clone();
        self.idx += 1;
        Ok(Some(self.cluster.read_block(&b, self.client).await?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_net::FabricParams;
    use rmr_store::DiskParams;

    /// What `blobs_pieces_and_mixtures_cut_the_same_blocks`' writes gave at
    /// the parent commit.
    const PARENT_LENGTHS: [u64; 5] = [70, 50, 100, 120, 10];
    const PARENT_EVENTS_AND_HASH: (u64, u64) = (118, 0x0b58_165e_87f6_81f7);

    fn quick_setup(
        seed: u64,
        n_dn: usize,
        replication: u32,
        block_size: u64,
    ) -> (Sim, HdfsCluster) {
        let sim = Sim::new(seed);
        let mut fab = FabricParams::ib_verbs_qdr();
        fab.link_bw = 1e9;
        fab.cpu_per_message = 0.0;
        let net = Network::new(&sim, fab);
        let nn = net.add_node(None);
        let cfg = HdfsConfig {
            block_size,
            replication,
            packet_size: 1 << 20,
        };
        let hdfs = HdfsCluster::new(&sim, &net, nn, cfg);
        for i in 0..n_dn {
            let node = net.add_node(None);
            let fs = LocalFs::new(&sim, DiskParams::ssd_sata(), 1, 1 << 30, &format!("dn{i}"));
            hdfs.add_datanode(node, fs);
        }
        (sim, hdfs)
    }

    #[test]
    fn write_read_round_trip_with_content() {
        let (sim, hdfs) = quick_setup(1, 3, 2, 100);
        let h2 = hdfs.clone();
        let ok = Rc::new(std::cell::Cell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn(async move {
            let client = h2.dn_node(0);
            let mut w = h2.create("/data", client).await.unwrap();
            // 250 bytes across 100-byte blocks → 3 blocks.
            let payload: Vec<u8> = (0..250u32).map(|i| (i % 251) as u8).collect();
            w.write(Blob::real(Bytes::from(payload.clone())))
                .await
                .unwrap();
            w.close().await.unwrap();
            assert_eq!(h2.file_size("/data").unwrap(), 250);

            let mut r = h2.open("/data", client).await.unwrap();
            let mut got = Vec::new();
            while let Some(b) = r.next_block().await.unwrap() {
                got.extend_from_slice(&b.data.expect("content present"));
            }
            assert_eq!(got, payload);
            ok2.set(true);
        })
        .detach();
        sim.run();
        assert!(ok.get());
    }

    /// Real blobs against 100-byte blocks: `/whole` gets 80 + 80 bytes (one
    /// blob per block, the second forcing a seal first), `/shared` 30 + 40 +
    /// 50 (two blobs share a block, the third forces a seal). Returns
    /// (`hdfs.bytes_written`, events fired, trace hash).
    fn real_blob_writes(replication: u32) -> (f64, u64, u64) {
        let (sim, hdfs) = quick_setup(6, 3, replication, 100);
        let h2 = hdfs.clone();
        let checked = Rc::new(std::cell::Cell::new(false));
        let checked2 = Rc::clone(&checked);
        sim.spawn(async move {
            let client = h2.dn_node(0);
            let blob = |len: usize, fill: u8| Bytes::from(vec![fill; len]);
            let whole = [blob(80, 1), blob(80, 2)];
            let shared = [blob(30, 3), blob(40, 4), blob(50, 5)];
            for (path, blobs) in [("/whole", &whole[..]), ("/shared", &shared[..])] {
                let mut w = h2.create(path, client).await.unwrap();
                for b in blobs {
                    w.write(Blob::real(b.clone())).await.unwrap();
                }
                w.close().await.unwrap();
            }

            // One blob per block: the block's content *is* the blob.
            let locs = h2.split_locations("/whole").unwrap();
            assert_eq!(locs.len(), 2);
            for ((meta, _), blob) in locs.iter().zip(&whole) {
                assert_eq!(meta.size, 80);
                assert_eq!(meta.replicas.len(), replication as usize);
                let read = h2.read_block(meta, client).await.unwrap();
                let data = read.data.expect("content present");
                assert_eq!(data, *blob);
                assert_eq!(data.as_ptr(), blob.as_ptr(), "adopted, not copied");
            }

            // Blobs sharing a block are concatenated in write order.
            let mut r = h2.open("/shared", client).await.unwrap();
            let first = r.next_block().await.unwrap().expect("first block");
            assert_eq!(first.size, 70);
            let want = [vec![3u8; 30], vec![4u8; 40]].concat();
            assert_eq!(first.data.expect("content present").as_ref(), &want[..]);
            let second = r.next_block().await.unwrap().expect("second block");
            let data = second.data.expect("content present");
            assert_eq!(data, shared[2]);
            assert_eq!(data.as_ptr(), shared[2].as_ptr());
            assert!(r.next_block().await.unwrap().is_none());
            checked2.set(true);
        })
        .detach();
        sim.run();
        assert!(checked.get(), "scenario ran to its end");
        (
            sim.metrics().get("hdfs.bytes_written"),
            sim.events_fired(),
            sim.trace_hash(),
        )
    }

    #[test]
    fn real_blobs_are_adopted_or_concatenated_per_block() {
        // Pinned from the same writes and reads at the parent commit (which
        // copied every blob into a per-block buffer): how a block's content
        // is held is host-side only.
        assert_eq!(real_blob_writes(1), (280.0, 87, 0xdfb1_eb3e_5e86_0b16));
        assert_eq!(real_blob_writes(2), (280.0, 107, 0xe45d_0854_7d3c_edef));
    }

    /// Seven real pieces against 100-byte blocks, each written as an adopted
    /// blob ([`HdfsWriter::write`]) or filled in place
    /// ([`HdfsWriter::write_with`]) as `in_place(i)` says. Returns the
    /// per-block lengths, the file's bytes as read back, events fired and
    /// the trace hash.
    fn piecewise_writes(
        in_place: impl Fn(usize) -> bool + 'static,
    ) -> (Vec<u64>, Vec<u8>, u64, u64) {
        let (sim, hdfs) = quick_setup(8, 3, 2, 100);
        let h2 = hdfs.clone();
        let out = Rc::new(RefCell::new((Vec::new(), Vec::new())));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            let client = h2.dn_node(0);
            let mut w = h2.create("/f", client).await.unwrap();
            for (i, len) in [30usize, 40, 50, 80, 20, 120, 10].into_iter().enumerate() {
                let piece = vec![i as u8 + 1; len];
                if in_place(i) {
                    w.write_with(len as u64, |buf| buf.put_slice(&piece))
                        .await
                        .unwrap();
                } else {
                    w.write(Blob::real(Bytes::from(piece))).await.unwrap();
                }
            }
            w.close().await.unwrap();
            let mut r = h2.open("/f", client).await.unwrap();
            while let Some(b) = r.next_block().await.unwrap() {
                let data = b.data.expect("content present");
                assert_eq!(data.len() as u64, b.size);
                let mut out = out2.borrow_mut();
                out.0.push(b.size);
                out.1.extend_from_slice(&data);
            }
        })
        .detach();
        sim.run();
        let (lengths, bytes) = out.take();
        (lengths, bytes, sim.events_fired(), sim.trace_hash())
    }

    #[test]
    fn blobs_pieces_and_mixtures_cut_the_same_blocks() {
        // Pinned from the same seven `write`s at the parent commit (which
        // kept a block's blobs in a list and concatenated them at seal):
        // whether a piece is adopted or filled in place is host-side only.
        let blobs = piecewise_writes(|_| false);
        assert_eq!(blobs.0, PARENT_LENGTHS);
        assert_eq!((blobs.2, blobs.3), PARENT_EVENTS_AND_HASH);
        let want: Vec<u8> = [30usize, 40, 50, 80, 20, 120, 10]
            .into_iter()
            .enumerate()
            .flat_map(|(i, len)| vec![i as u8 + 1; len])
            .collect();
        assert_eq!(blobs.1, want);
        // All in place (block 0 is two pieces, block 2 two more), blob then
        // piece (the adopted blob is copied into the block's buffer first),
        // piece then blob.
        assert_eq!(piecewise_writes(|_| true), blobs);
        assert_eq!(piecewise_writes(|i| i % 2 == 1), blobs);
        assert_eq!(piecewise_writes(|i| i % 2 == 0), blobs);
    }

    #[test]
    #[should_panic(expected = "/f: a 10-byte piece was filled with 7 bytes")]
    fn a_short_fill_is_caught_where_it_happens() {
        let (sim, hdfs) = quick_setup(9, 1, 1, 100);
        sim.spawn(async move {
            let mut w = hdfs.create("/f", hdfs.dn_node(0)).await.unwrap();
            let _ = w.write_with(10, |buf| buf.put_slice(&[0; 7])).await;
        })
        .detach();
        sim.run();
    }

    #[test]
    fn replication_places_copies_on_distinct_nodes() {
        let (sim, hdfs) = quick_setup(2, 4, 3, 1000);
        let h2 = hdfs.clone();
        sim.spawn(async move {
            let client = h2.dn_node(1);
            let mut w = h2.create("/f", client).await.unwrap();
            w.write(Blob::synthetic(500)).await.unwrap();
            w.close().await.unwrap();
            let locs = h2.split_locations("/f").unwrap();
            assert_eq!(locs.len(), 1);
            let (meta, nodes) = &locs[0];
            assert_eq!(meta.replicas.len(), 3);
            // Writer-local first.
            assert_eq!(nodes[0], client);
            // Every replica exists on its DataNode's local fs.
            for &r in &meta.replicas {
                let dn = h2.dns.borrow()[r].clone();
                assert_eq!(dn.fs.size(&meta.id.to_string()).unwrap(), 500);
            }
        })
        .detach();
        sim.run();
    }

    /// 16 DataNodes, replication 3: three blocks of up to four 1 MiB packets
    /// written from one node, then read back from another. The nanoseconds
    /// are the parent commit's (which cloned the whole DataNode table per
    /// packet and per block): how the table is consulted is host-side only.
    #[test]
    fn replicated_write_on_16_nodes_ends_at_the_pinned_nanosecond() {
        let (sim, hdfs) = quick_setup(7, 16, 3, 4 << 20);
        let h2 = hdfs.clone();
        let sim2 = sim.clone();
        let times = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let times2 = Rc::clone(&times);
        sim.spawn(async move {
            let mut w = h2.create("/f", h2.dn_node(5)).await.unwrap();
            w.write(Blob::synthetic((9 << 20) + 12_345)).await.unwrap();
            w.close().await.unwrap();
            let written = sim2.now().as_nanos();
            let mut r = h2.open("/f", h2.dn_node(11)).await.unwrap();
            while r.next_block().await.unwrap().is_some() {}
            times2.set((written, sim2.now().as_nanos()));
        })
        .detach();
        sim.run();
        assert_eq!(sim.metrics().get("hdfs.bytes_written"), 9_449_529.0);
        assert_eq!(times.get(), (23_851_919, 29_115_656));
    }

    #[test]
    fn local_read_beats_remote_read() {
        // Same data, read once from the writer's node (local) and once from
        // a non-replica node (remote): local must be faster on a slow wire.
        let mut times = Vec::new();
        for reader_is_local in [true, false] {
            let sim = Sim::new(3);
            let mut fab = FabricParams::ib_verbs_qdr();
            fab.link_bw = 1e6; // slow wire: 1 MB/s
            fab.cpu_per_message = 0.0;
            let net = Network::new(&sim, fab);
            let nn = net.add_node(None);
            let hdfs = HdfsCluster::new(
                &sim,
                &net,
                nn,
                HdfsConfig {
                    block_size: 10 << 20,
                    replication: 1,
                    packet_size: 1 << 20,
                },
            );
            for i in 0..2 {
                let node = net.add_node(None);
                let fs = LocalFs::new(&sim, DiskParams::ssd_sata(), 1, 1 << 30, &format!("dn{i}"));
                hdfs.add_datanode(node, fs);
            }
            let h2 = hdfs.clone();
            let sim2 = sim.clone();
            let t = Rc::new(std::cell::Cell::new(0u64));
            let t2 = Rc::clone(&t);
            sim.spawn(async move {
                let writer_node = h2.dn_node(0);
                let mut w = h2.create("/f", writer_node).await.unwrap();
                w.write(Blob::synthetic(4 << 20)).await.unwrap();
                w.close().await.unwrap();
                let start = sim2.now();
                let reader = if reader_is_local {
                    writer_node
                } else {
                    h2.dn_node(1)
                };
                let mut r = h2.open("/f", reader).await.unwrap();
                while let Some(_b) = r.next_block().await.unwrap() {}
                t2.set((sim2.now() - start).as_nanos());
            })
            .detach();
            sim.run();
            times.push(t.get());
        }
        assert!(
            times[0] * 3 < times[1],
            "local {} vs remote {}",
            times[0],
            times[1]
        );
    }

    #[test]
    fn delete_removes_replicas_and_content() {
        let (sim, hdfs) = quick_setup(4, 2, 2, 1000);
        let h2 = hdfs.clone();
        sim.spawn(async move {
            let client = h2.dn_node(0);
            let mut w = h2.create("/f", client).await.unwrap();
            w.write(Blob::real(Bytes::from_static(b"abcdef")))
                .await
                .unwrap();
            w.close().await.unwrap();
            let blocks = h2.nn.borrow().blocks("/f").unwrap();
            h2.delete("/f", client).await.unwrap();
            assert!(!h2.exists("/f"));
            for b in blocks {
                assert!(h2.contents.borrow().get(&b.id).is_none());
                for dn in h2.dns.borrow().iter() {
                    assert!(!dn.fs.exists(&b.id.to_string()));
                }
            }
        })
        .detach();
        sim.run();
    }

    #[test]
    fn listing_is_sorted_and_complete() {
        let (sim, hdfs) = quick_setup(5, 2, 1, 1000);
        let h2 = hdfs.clone();
        sim.spawn(async move {
            let c = h2.dn_node(0);
            for p in ["/b", "/a", "/c"] {
                let w = h2.create(p, c).await.unwrap();
                w.close().await.unwrap();
            }
            assert_eq!(h2.list(), vec!["/a", "/b", "/c"]);
        })
        .detach();
        sim.run();
    }
}
