//! Property-based tests on HDFS invariants: placement, replication,
//! round-trip content integrity, and accounting, under arbitrary write
//! schedules.

use proptest::prelude::*;

use bytes::Bytes;
use rmr_des::Sim;
use rmr_hdfs::{Blob, BlockData, HdfsCluster, HdfsConfig};
use rmr_net::{FabricParams, Network};
use rmr_store::{DiskParams, LocalFs};

fn build(seed: u64, datanodes: usize, block_size: u64, replication: u32) -> (Sim, HdfsCluster) {
    let sim = Sim::new(seed);
    let mut fab = FabricParams::ib_verbs_qdr();
    fab.cpu_per_message = 0.0;
    let net = Network::new(&sim, fab);
    let nn = net.add_node(None);
    let hdfs = HdfsCluster::new(
        &sim,
        &net,
        nn,
        HdfsConfig {
            block_size,
            replication,
            packet_size: 64 << 10,
        },
    );
    for i in 0..datanodes {
        let node = net.add_node(None);
        let fs = LocalFs::new(&sim, DiskParams::ssd_sata(), 1, 1 << 30, &format!("dn{i}"));
        hdfs.add_datanode(node, fs);
    }
    (sim, hdfs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthetic_writes_conserve_length_and_replicate(
        seed in 1u64..1_000,
        datanodes in 1usize..6,
        replication in 1u32..4,
        block_kb in 1u64..64,
        writes in proptest::collection::vec(0u64..200_000, 1..8),
    ) {
        let (sim, hdfs) = build(seed, datanodes, block_kb << 10, replication);
        let total: u64 = writes.iter().sum();
        let h = hdfs.clone();
        sim.block_on(sim.spawn(async move {
            let client = h.dn_node(0);
            let mut w = h.create("/f", client).await.unwrap();
            for bytes in writes {
                w.write(Blob::synthetic(bytes)).await.unwrap();
            }
            w.close().await.unwrap();
            assert_eq!(h.file_size("/f").unwrap(), total);
            let eff = (replication as usize).min(h.datanode_count()) as u64;
            let locs = h.split_locations("/f").unwrap();
            let mut sum = 0;
            for (meta, nodes) in &locs {
                assert_eq!(meta.replicas.len() as u64, eff, "replica count");
                let distinct: std::collections::BTreeSet<_> = meta.replicas.iter().collect();
                assert_eq!(distinct.len(), meta.replicas.len(), "replicas distinct");
                assert_eq!(nodes[0], client, "writer-local first replica");
                assert!(meta.size <= (block_kb << 10).max(1), "block within bound");
                sum += meta.size;
            }
            assert_eq!(sum, total, "blocks partition the file");
        }));
    }

    #[test]
    fn real_content_round_trips_through_blocks(
        seed in 1u64..1_000,
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..500), 1..6),
        block_kb in 1u64..8,
    ) {
        let (sim, hdfs) = build(seed, 3, block_kb << 10, 2);
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        let h = hdfs.clone();
        sim.block_on(sim.spawn(async move {
            let client = h.dn_node(1);
            let mut w = h.create("/blob", client).await.unwrap();
            for c in chunks {
                w.write(Blob::real(Bytes::from(c))).await.unwrap();
            }
            w.close().await.unwrap();
            // Read back from a different node.
            let reader_node = h.dn_node(2);
            let mut r = h.open("/blob", reader_node).await.unwrap();
            let mut got = Vec::new();
            while let Some(b) = r.next_block().await.unwrap() {
                if let Some(BlockData::Encoded(d)) = b.data {
                    got.extend_from_slice(&d);
                }
            }
            assert_eq!(got, expected, "content survives block boundaries");
        }));
    }

    #[test]
    fn delete_always_cleans_every_replica(
        seed in 1u64..500,
        files in 1usize..6,
        bytes in 1u64..100_000,
    ) {
        let (sim, hdfs) = build(seed, 4, 16 << 10, 3);
        let h = hdfs.clone();
        sim.block_on(sim.spawn(async move {
            let client = h.dn_node(0);
            for i in 0..files {
                let mut w = h.create(&format!("/f{i}"), client).await.unwrap();
                w.write(Blob::synthetic(bytes)).await.unwrap();
                w.close().await.unwrap();
            }
            for i in 0..files {
                h.delete(&format!("/f{i}"), client).await.unwrap();
            }
            assert!(h.list().is_empty(), "namespace empty after deletes");
        }));
    }
}
