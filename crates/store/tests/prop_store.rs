//! Property-based tests on the storage layer: timing monotonicity, page
//! cache bounds, and filesystem accounting under arbitrary workloads.

use proptest::prelude::*;

use rmr_des::{Sim, SimDuration};
use rmr_store::{DiskParams, LocalFs, PageCache};

fn quick_disk(bw: f64) -> DiskParams {
    DiskParams {
        name: "prop",
        seq_bw: bw,
        access_latency: SimDuration::from_micros(100),
        queue_depth: 1,
        max_request: 1 << 20,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing then fully reading back always takes at least
    /// bytes/bandwidth of device time when the page cache is disabled.
    #[test]
    fn io_time_is_bounded_below_by_bandwidth(
        sizes in proptest::collection::vec(1u64..200_000, 1..8),
    ) {
        let sim = Sim::new(1);
        let bw = 1e6;
        let fs = LocalFs::new(&sim, quick_disk(bw), 1, 0, "t");
        let total: u64 = sizes.iter().sum();
        let fs2 = fs.clone();
        sim.block_on(sim.spawn(async move {
            for (i, sz) in sizes.iter().enumerate() {
                let w = fs2.writer(&format!("f{i}")).unwrap();
                w.append(*sz).await.unwrap();
            }
            for (i, sz) in sizes.iter().enumerate() {
                let mut r = fs2.reader(&format!("f{i}")).unwrap();
                r.read_exact(*sz).await.unwrap();
            }
        }));
        let min_secs = 2.0 * total as f64 / bw;
        prop_assert!(
            sim.now().as_secs_f64() + 1e-6 >= min_secs,
            "elapsed {} < device floor {}",
            sim.now().as_secs_f64(),
            min_secs
        );
    }

    /// The page cache never exceeds its budget, and full residency makes
    /// rereads free of disk charges.
    #[test]
    fn page_cache_budget_and_hits(
        ops in proptest::collection::vec((0u64..8, 1u64..5_000), 1..100),
        budget in 0u64..20_000,
    ) {
        let c = PageCache::new(budget);
        for (file, bytes) in ops {
            let _miss = c.read(file, bytes, bytes.max(1));
            prop_assert!(c.used() <= budget);
            if bytes <= budget {
                // Fully resident now → the next identical read is free.
                prop_assert_eq!(c.read(file, bytes, bytes.max(1)), 0);
            }
            prop_assert!(c.used() <= budget);
        }
        let (hits, misses) = c.stats();
        prop_assert!(hits + misses > 0 || budget == 0 || hits + misses == 0);
    }

    /// More disks never make the same concurrent workload slower.
    #[test]
    fn jbod_scaling_is_monotone(files in 2usize..8, size in 10_000u64..100_000) {
        let mut times = Vec::new();
        for disks in [1usize, 2] {
            let sim = Sim::new(7);
            let fs = LocalFs::new(&sim, quick_disk(1e6), disks, 0, "t");
            for i in 0..files {
                let fs2 = fs.clone();
                sim.spawn(async move {
                    let w = fs2.writer(&format!("f{i}")).unwrap();
                    w.append(size).await.unwrap();
                })
                .detach();
            }
            times.push(sim.run().as_secs_f64());
        }
        prop_assert!(times[1] <= times[0] + 1e-6, "2 disks slower: {times:?}");
    }

    /// used_bytes equals the sum of everything appended minus deletions.
    #[test]
    fn accounting_is_exact(
        appends in proptest::collection::vec((0usize..5, 1u64..10_000), 1..30),
    ) {
        let sim = Sim::new(3);
        let fs = LocalFs::new(&sim, quick_disk(1e9), 2, 1 << 20, "t");
        let mut expect = std::collections::BTreeMap::<usize, u64>::new();
        for (f, b) in &appends {
            *expect.entry(*f).or_default() += *b;
        }
        let appends2 = appends.clone();
        let fs2 = fs.clone();
        sim.block_on(sim.spawn(async move {
            for (f, b) in appends2 {
                let w = fs2.writer(&format!("f{f}")).unwrap();
                w.append(b).await.unwrap();
            }
        }));
        let total: u64 = expect.values().sum();
        prop_assert_eq!(fs.used_bytes(), total);
        for (f, b) in expect {
            prop_assert_eq!(fs.size(&format!("f{f}")).unwrap(), b);
        }
    }
}
