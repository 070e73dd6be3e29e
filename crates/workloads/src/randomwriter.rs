//! RandomWriter / Sort (§II-A-2).
//!
//! RandomWriter fills HDFS with random-sized key-value pairs — keys of
//! 10–1000 bytes and values of 0–20000 bytes (the Hadoop defaults; the
//! paper: "the combined length of key-value pairs can be as large as
//! 20,000 bytes"). The Sort benchmark then sorts them with the default
//! hash partitioner. The large, variable records are exactly what exposes
//! Hadoop-A's fixed-kv-count packet sizing (§IV-C).

use rand::Rng;

use rmr_core::cluster::Cluster;
use rmr_core::{encode_records, HashPartitioner, JobSpec, Record};
use rmr_des::Component;
use rmr_hdfs::Blob;

/// Minimum key size.
pub const KEY_MIN: usize = 10;
/// Maximum key size.
pub const KEY_MAX: usize = 1_000;
/// Minimum value size.
pub const VALUE_MIN: usize = 0;
/// Maximum value size.
pub const VALUE_MAX: usize = 20_000;

/// Mean record size (uniform distributions over the ranges above).
pub const AVG_RECORD_BYTES: u64 = ((KEY_MIN + KEY_MAX) / 2 + (VALUE_MIN + VALUE_MAX) / 2) as u64;

/// Generates `total_bytes` of Sort input under `path`, one file per worker,
/// in parallel. Returns the number of records generated (real mode; the
/// synthetic estimate uses [`AVG_RECORD_BYTES`]).
pub async fn randomwriter(cluster: &Cluster, path: &str, total_bytes: u64, real: bool) -> u64 {
    let workers = cluster.worker_count();
    assert!(workers > 0);
    let per_worker = total_bytes / workers as u64;
    let block_size = cluster.hdfs.config().block_size;
    let mut writers = Vec::new();
    for i in 0..workers {
        let cluster = cluster.clone();
        let path = format!("{path}/part-{i:05}");
        let node = cluster.workers[i].id;
        let sim = cluster.sim.clone();
        writers.push(cluster.sim.spawn_named(
            Component::RandomWriter { writer: i as u32 },
            async move {
                let mut w = cluster
                    .hdfs
                    .create(&path, node)
                    .await
                    .expect("randomwriter create");
                let mut written = 0u64;
                let mut n_records = 0u64;
                // Real blobs must fit one HDFS block (blocks never tear
                // records); leave headroom for the largest record + framing.
                let stride = if real {
                    block_size
                        .saturating_sub((KEY_MAX + VALUE_MAX + 16) as u64)
                        .max(1 << 16)
                } else {
                    16 << 20
                };
                while written < per_worker {
                    let chunk = stride.min(per_worker - written);
                    let blob = if real {
                        let mut records = Vec::new();
                        let mut bytes = 0u64;
                        sim.with_rng(|rng| {
                            while bytes < chunk {
                                let r = random_record(rng);
                                bytes += r.size();
                                records.push(r);
                            }
                        });
                        n_records += records.len() as u64;
                        Blob::real(encode_records(&records))
                    } else {
                        n_records += chunk / AVG_RECORD_BYTES;
                        Blob::synthetic(chunk)
                    };
                    written += blob.len.max(chunk);
                    w.write(blob).await.expect("randomwriter write");
                }
                w.close().await.expect("randomwriter close");
                n_records
            },
        ));
    }
    let mut total = 0;
    for w in writers {
        total += w.await;
    }
    total
}

fn random_record(rng: &mut impl Rng) -> Record {
    let klen = rng.gen_range(KEY_MIN..=KEY_MAX);
    let vlen = rng.gen_range(VALUE_MIN..=VALUE_MAX);
    let mut key = vec![0u8; klen];
    rng.fill(&mut key[..]);
    let value = vec![b'v'; vlen];
    Record::new(key, value)
}

/// The Sort job over `input` → `output`: identity map/reduce with the
/// default hash partitioner (per-partition sorted output, as the stock
/// benchmark produces).
pub fn sort_spec(input: &str, output: &str) -> JobSpec {
    let mut spec = JobSpec::sort(input, output, AVG_RECORD_BYTES)
        .with_partitioner(std::rc::Rc::new(HashPartitioner));
    spec.name = format!("Sort({input})");
    spec
}

/// Validates a real-mode Sort output: every partition internally sorted and
/// record conservation.
pub async fn validate_sort(
    cluster: &Cluster,
    output: &str,
    reduces: usize,
    expected_records: u64,
) -> Result<u64, String> {
    let client = cluster.workers[0].id;
    let mut total = 0u64;
    for r in 0..reduces {
        let path = format!("{output}/part-{r:05}");
        let mut reader = cluster
            .hdfs
            .open(&path, client)
            .await
            .map_err(|e| e.to_string())?;
        // The last key seen in this partition (none yet: empty, which
        // precedes every key).
        let (mut prev, mut in_order) = (Vec::new(), true);
        while let Some(block) = reader.next_block().await.map_err(|e| e.to_string())? {
            let data = block.data.ok_or_else(|| format!("{path}: no content"))?;
            rmr_core::block_records(data).for_each_key(|key| {
                in_order &= *prev <= *key;
                prev.clear();
                prev.extend_from_slice(key);
                total += 1;
            });
        }
        if !in_order {
            return Err(format!("{path}: out-of-order records"));
        }
    }
    if total != expected_records {
        return Err(format!(
            "record count mismatch: expected {expected_records}, found {total}"
        ));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_core::NodeSpec;
    use rmr_des::Sim;
    use rmr_hdfs::HdfsConfig;
    use rmr_net::FabricParams;

    #[test]
    fn avg_record_matches_distributions() {
        assert_eq!(AVG_RECORD_BYTES, 10_505);
    }

    #[test]
    fn real_records_are_variable_sized() {
        let sim = Sim::new(5);
        let cluster = Cluster::build(
            &sim,
            FabricParams::ib_verbs_qdr(),
            &[NodeSpec::westmere_compute()],
            HdfsConfig {
                block_size: 64 << 20,
                replication: 1,
                packet_size: 1 << 20,
            },
        );
        let c2 = cluster.clone();
        sim.block_on(sim.spawn(async move {
            randomwriter(&c2, "/rw", 1 << 20, true).await;
            let mut r = c2
                .hdfs
                .open("/rw/part-00000", c2.workers[0].id)
                .await
                .unwrap();
            let mut sizes = Vec::new();
            while let Some(b) = r.next_block().await.unwrap() {
                rmr_core::block_records(b.data.unwrap()).for_each(|rec| {
                    assert!(rec.key.len() >= KEY_MIN && rec.key.len() <= KEY_MAX);
                    assert!(rec.value.len() <= VALUE_MAX);
                    sizes.push(rec.size());
                });
            }
            assert!(sizes.len() > 20);
            let distinct: std::collections::BTreeSet<_> = sizes.iter().collect();
            assert!(distinct.len() > 5, "sizes should vary");
        }));
    }

    #[test]
    fn sort_spec_hash_partitions() {
        let spec = sort_spec("/in", "/out");
        assert_eq!(spec.avg_record_bytes, AVG_RECORD_BYTES);
        // Hash partitioner spreads keys.
        let p0 = spec.partitioner.partition(b"alpha", 8);
        let p1 = spec.partitioner.partition(b"beta", 8);
        assert!(p0 < 8 && p1 < 8);
    }
}
