//! TeraGen / TeraSort / TeraValidate (§II-A-1).
//!
//! TeraSort records are exactly 100 bytes: a 10-byte key and a 90-byte
//! value. TeraGen fills HDFS with them (one file per worker, written in
//! parallel — generation time is not part of the benchmarked job, as in the
//! paper, where TeraGen runs before the measured TeraSort). TeraValidate
//! checks global sort order, exactly as the Hadoop tool does: each output
//! partition must be internally sorted and partition boundaries must be
//! non-decreasing, and no record may be lost.

use bytes::BufMut;
use rand::Rng;

use rmr_core::cluster::Cluster;
use rmr_core::{block_records, JobSpec};
use rmr_des::Component;
use rmr_hdfs::Blob;

/// Key bytes per record.
pub const KEY_BYTES: usize = 10;
/// Value bytes per record.
pub const VALUE_BYTES: usize = 90;
/// Total record size.
pub const RECORD_BYTES: u64 = (KEY_BYTES + VALUE_BYTES) as u64;

/// Encoded size of one record on HDFS (length framing included).
pub const RECORD_ENCODED_BYTES: u64 = RECORD_BYTES + 8;

/// Generates `total_bytes` (logical, at 100 B/record) of TeraSort input
/// under `path`, one part file per worker, written concurrently from the
/// workers themselves. `real` materialises actual random records
/// (tests/examples); otherwise only sizes flow (paper-scale benchmarks).
/// Returns the number of records generated.
pub async fn teragen(cluster: &Cluster, path: &str, total_bytes: u64, real: bool) -> u64 {
    let workers = cluster.worker_count();
    assert!(workers > 0);
    let per_worker = total_bytes / workers as u64;
    // Real blobs must fit one HDFS block (blocks never tear records).
    let block_size = cluster.hdfs.config().block_size;
    let mut writers = Vec::new();
    for i in 0..workers {
        let cluster = cluster.clone();
        let path = format!("{path}/part-{i:05}");
        let node = cluster.workers[i].id;
        let sim = cluster.sim.clone();
        let tag = Component::TeragenWriter { writer: i as u32 };
        writers.push(cluster.sim.spawn_named(tag, async move {
            let mut w = cluster
                .hdfs
                .create(&path, node)
                .await
                .expect("teragen create");
            let mut records_left = per_worker / RECORD_BYTES;
            let written = records_left;
            let stride_records = if real {
                (block_size / RECORD_ENCODED_BYTES).max(1)
            } else {
                (16 << 20) / RECORD_BYTES
            };
            while records_left > 0 {
                let n = stride_records.min(records_left);
                if real {
                    // One block's worth, generated where it will live: the
                    // framed record is a template, only its key is drawn.
                    let mut record = [b'V'; RECORD_ENCODED_BYTES as usize];
                    record[..4].copy_from_slice(&(KEY_BYTES as u32).to_be_bytes());
                    record[4..8].copy_from_slice(&(VALUE_BYTES as u32).to_be_bytes());
                    let fill = |buf: &mut bytes::BytesMut| {
                        sim.with_rng(|rng| {
                            for _ in 0..n {
                                rng.fill(&mut record[8..8 + KEY_BYTES]);
                                buf.put_slice(&record);
                            }
                        })
                    };
                    w.write_with(n * RECORD_ENCODED_BYTES, fill).await
                } else {
                    w.write(Blob::synthetic(n * RECORD_BYTES)).await
                }
                .expect("teragen write");
                records_left -= n;
            }
            w.close().await.expect("teragen close");
            written
        }));
    }
    let mut total = 0;
    for w in writers {
        total += w.await;
    }
    total
}

/// The TeraSort job over `input` → `output`: identity map/reduce with the
/// total-order partitioner.
pub fn terasort_spec(input: &str, output: &str) -> JobSpec {
    let mut spec = JobSpec::sort(input, output, RECORD_BYTES);
    spec.name = format!("TeraSort({input})");
    spec
}

/// Outcome of TeraValidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateReport {
    /// Records checked across all partitions.
    pub records: u64,
    /// Partition count.
    pub partitions: usize,
}

/// Validates a real-mode TeraSort output: per-partition order, cross-
/// partition boundaries, and record conservation against `expected_records`.
pub async fn teravalidate(
    cluster: &Cluster,
    output: &str,
    reduces: usize,
    expected_records: u64,
) -> Result<ValidateReport, String> {
    let client = cluster.workers[0].id;
    let mut total = 0u64;
    // The last key seen, across blocks and partitions (none yet: empty, which
    // precedes every key).
    let mut prev: Vec<u8> = Vec::new();
    for r in 0..reduces {
        let path = format!("{output}/part-{r:05}");
        let mut reader = cluster
            .hdfs
            .open(&path, client)
            .await
            .map_err(|e| e.to_string())?;
        while let Some(block) = reader.next_block().await.map_err(|e| e.to_string())? {
            let data = block
                .data
                .ok_or_else(|| format!("{path}: no content (synthetic run?)"))?;
            let mut in_order = true;
            block_records(data).for_each_key(|key| {
                // Within the partition or across the boundary before it.
                in_order &= *prev <= *key;
                prev.clear();
                prev.extend_from_slice(key);
                total += 1;
            });
            if !in_order {
                return Err(format!("{path}: out-of-order records"));
            }
        }
    }
    if total != expected_records {
        return Err(format!(
            "record count mismatch: expected {expected_records}, found {total}"
        ));
    }
    Ok(ValidateReport {
        records: total,
        partitions: reduces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_core::NodeSpec;
    use rmr_des::Sim;
    use rmr_hdfs::HdfsConfig;
    use rmr_net::FabricParams;

    fn mk_cluster(sim: &Sim, n: usize, block: u64) -> Cluster {
        Cluster::build(
            sim,
            FabricParams::ib_verbs_qdr(),
            &vec![NodeSpec::westmere_compute(); n],
            HdfsConfig {
                block_size: block,
                replication: 1,
                packet_size: 1 << 20,
            },
        )
    }

    #[test]
    fn teragen_writes_expected_volume() {
        let sim = Sim::new(11);
        let cluster = mk_cluster(&sim, 4, 8 << 20);
        let c2 = cluster.clone();
        sim.block_on(sim.spawn(async move {
            let records = teragen(&c2, "/teragen", 40 << 20, false).await;
            assert_eq!(records, 4 * ((10 << 20) / RECORD_BYTES));
            let mut total = 0;
            for i in 0..4 {
                total += c2.hdfs.file_size(&format!("/teragen/part-{i:05}")).unwrap();
            }
            // Rounded down to whole records per worker.
            assert_eq!(total, 4 * ((10 << 20) / RECORD_BYTES * RECORD_BYTES));
        }));
    }

    #[test]
    fn real_teragen_produces_100_byte_records() {
        let sim = Sim::new(12);
        let cluster = mk_cluster(&sim, 2, 1 << 20);
        let c2 = cluster.clone();
        sim.block_on(sim.spawn(async move {
            teragen(&c2, "/in", 200_000, true).await;
            let mut r = c2
                .hdfs
                .open("/in/part-00000", c2.workers[0].id)
                .await
                .unwrap();
            let mut records = 0;
            while let Some(b) = r.next_block().await.unwrap() {
                block_records(b.data.unwrap()).for_each(|r| {
                    assert_eq!((r.key.len(), r.value.len()), (KEY_BYTES, VALUE_BYTES));
                    records += 1;
                });
            }
            assert_eq!(records, 100_000 / RECORD_BYTES);
        }));
    }

    #[test]
    fn spec_uses_total_order_partitioner() {
        let spec = terasort_spec("/in", "/out");
        // Keys with small leading byte → low partition; large → high.
        assert_eq!(spec.partitioner.partition(&[0u8; 10], 4), 0);
        assert_eq!(spec.partitioner.partition(&[255u8; 10], 4), 3);
        assert_eq!(spec.avg_record_bytes, 100);
    }
}
