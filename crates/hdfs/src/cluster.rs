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

use bytes::Bytes;

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

struct OpenBlock {
    meta: BlockMeta,
    written: u64,
    writers: Vec<rmr_store::FileWriter>,
    /// The real blobs written into this block so far, in order.
    data: Vec<Bytes>,
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
    /// therefore chunk their blobs to at most the block size.
    pub async fn write(&mut self, blob: Blob) -> Result<(), HdfsError> {
        debug_assert!(blob.is_consistent());
        assert!(!self.closed, "write after close");
        let block_size = self.cluster.cfg.block_size;
        if blob.data.is_some() {
            // Whole-blob path: seal the current block first if the blob
            // doesn't fit, then append the blob intact.
            if let Some(cur) = &self.cur {
                if cur.written > 0 && cur.written + blob.len > block_size {
                    self.seal_current().await?;
                }
            }
            if self.cur.is_none() {
                self.open_block().await?;
            }
            let len = blob.len;
            self.pipeline_chunk(len, blob.data).await?;
            if self.cur.as_ref().unwrap().written >= block_size {
                self.seal_current().await?;
            }
            return Ok(());
        }
        let mut offset: u64 = 0;
        while offset < blob.len {
            if self.cur.is_none() {
                self.open_block().await?;
            }
            let cur = self.cur.as_mut().unwrap();
            let room = block_size - cur.written;
            let take = room.min(blob.len - offset);
            let chunk_data = blob
                .data
                .as_ref()
                .map(|d| d.slice(offset as usize..(offset + take) as usize));
            self.pipeline_chunk(take, chunk_data).await?;
            offset += take;
            let cur = self.cur.as_ref().unwrap();
            if cur.written >= block_size {
                self.seal_current().await?;
            }
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
            data: Vec::new(),
        });
        Ok(())
    }

    /// Streams one packet-train of `len` bytes down the pipeline in
    /// [`HdfsConfig::packet_size`] packets; network hops and replica disk
    /// writes overlap.
    async fn pipeline_chunk(&mut self, len: u64, data: Option<Bytes>) -> Result<(), HdfsError> {
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
        cur.data.extend(data);
        c.sim.metrics().add("hdfs.bytes_written", len as f64);
        Ok(())
    }

    async fn seal_current(&mut self) -> Result<(), HdfsError> {
        if let Some(mut cur) = self.cur.take() {
            let c = &self.cluster;
            c.nn_rpc(self.client).await;
            c.nn.borrow_mut()
                .seal_block(&self.path, cur.meta.id, cur.written)?;
            // A block holding one real blob adopts it as its content; only
            // a block several blobs share pays one concatenating copy.
            let content = match cur.data.len() {
                0 => None,
                1 => cur.data.pop(),
                _ => Some(Bytes::from(cur.data.concat())),
            };
            if let Some(d) = content {
                c.contents.borrow_mut().insert(cur.meta.id, d);
            }
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

    /// Remaining block count.
    pub fn remaining_blocks(&self) -> usize {
        self.blocks.len() - self.idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_net::FabricParams;
    use rmr_store::DiskParams;

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
