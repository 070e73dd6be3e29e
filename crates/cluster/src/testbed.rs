//! Testbed presets mirroring the paper's experimental setup (§IV-A) and the
//! per-system tuning it reports.
//!
//! * Compute nodes: dual quad-core Westmere 2.67 GHz, 12 GB RAM, 1 HDD.
//! * Storage nodes: same CPU, 24 GB RAM, up to two 1 TB HDDs (used for the
//!   Fig 5 large runs); four of them carry 10GigE TOE NICs; SSD variants
//!   for Figs 7–8.
//! * Block-size tuning (§IV-B, §IV-C): TeraSort runs best at 256 MB for
//!   10GigE/IPoIB/OSU-IB and 128 MB for Hadoop-A; Sort at 64 MB for all.
//! * 4 concurrent map and 4 concurrent reduce tasks per TaskTracker.

use rmr_core::{JobConf, NodeSpec, ShuffleKind};
use rmr_net::{FabricParams, Topology};
use rmr_store::DiskParams;

/// The systems compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Vanilla Hadoop over 1 Gigabit Ethernet.
    GigE1,
    /// Vanilla Hadoop over 10 Gigabit Ethernet (TOE).
    GigE10,
    /// Vanilla Hadoop over IPoIB (QDR, 32 Gbps).
    IpoIb,
    /// Hadoop-A over IB verbs (QDR).
    HadoopA,
    /// The paper's design over IB verbs (QDR).
    OsuIb,
    /// OSU-IB with `mapred.local.caching.enabled = false` (Fig 8).
    OsuIbNoCache,
    /// OSU-IB with the in-node combiner stage on (`JobConf::node_combine`).
    NodeCombiner,
    /// OSU-IB on a fabric of two QDR rails (dual-port HCAs).
    MultiRail,
}

impl System {
    /// Label as it appears in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            System::GigE1 => "1GigE",
            System::GigE10 => "10GigE",
            System::IpoIb => "IPoIB (32Gbps)",
            System::HadoopA => "HadoopA-IB (32Gbps)",
            System::OsuIb => "OSU-IB (32Gbps)",
            System::OsuIbNoCache => "OSU-IB (no caching)",
            System::NodeCombiner => "OSU-IB+Comb (32Gbps)",
            System::MultiRail => "OSU-IB-MR (2x32Gbps)",
        }
    }

    /// The system a command-line name stands for; `None` for anything else.
    pub fn parse(name: &str) -> Option<System> {
        Some(match name {
            "g1" | "1gige" => System::GigE1,
            "g10" | "10gige" => System::GigE10,
            "ipoib" => System::IpoIb,
            "ha" | "hadoop-a" => System::HadoopA,
            "osu" | "osu-ib" => System::OsuIb,
            "osunc" | "osu-nocache" => System::OsuIbNoCache,
            "comb" => System::NodeCombiner,
            "mr" => System::MultiRail,
            _ => return None,
        })
    }

    /// The interconnect this system runs on.
    pub fn fabric(self) -> FabricParams {
        match self {
            System::GigE1 => FabricParams::gige_1(),
            System::GigE10 => FabricParams::gige_10_toe(),
            System::IpoIb => FabricParams::ipoib_qdr(),
            System::HadoopA | System::OsuIb | System::OsuIbNoCache | System::NodeCombiner => {
                FabricParams::ib_verbs_qdr()
            }
            System::MultiRail => FabricParams::ib_verbs_qdr().with_rails(2),
        }
    }

    /// The shuffle engine.
    pub fn shuffle(self) -> ShuffleKind {
        match self {
            System::GigE1 | System::GigE10 | System::IpoIb => ShuffleKind::Vanilla,
            System::HadoopA => ShuffleKind::HadoopA,
            System::OsuIb | System::OsuIbNoCache | System::NodeCombiner | System::MultiRail => {
                ShuffleKind::OsuIb
            }
        }
    }

    /// The systems the paper's figures compare, in figure order. Kept to the
    /// seed six — the figure grids are shape-pinned against it.
    pub const ALL: [System; 6] = [
        System::GigE1,
        System::GigE10,
        System::IpoIb,
        System::HadoopA,
        System::OsuIb,
        System::OsuIbNoCache,
    ];

    /// [`System::ALL`] plus the two OSU-IB presets (combiner stage, second
    /// rail), for the engine-comparison grids.
    pub const EXTENDED: [System; 8] = [
        System::GigE1,
        System::GigE10,
        System::IpoIb,
        System::HadoopA,
        System::OsuIb,
        System::OsuIbNoCache,
        System::NodeCombiner,
        System::MultiRail,
    ];
}

/// Which benchmark an experiment runs (drives per-benchmark tuning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// TeraSort: 100-byte records, total-order partitioning.
    TeraSort,
    /// Sort: RandomWriter records up to 20 kB, hash partitioning.
    Sort,
}

impl Bench {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Bench::TeraSort => "TeraSort",
            Bench::Sort => "Sort",
        }
    }
}

/// The optimal HDFS block size the paper reports for (system, benchmark).
pub fn tuned_block_size(system: System, bench: Bench) -> u64 {
    match bench {
        Bench::TeraSort => match system {
            System::HadoopA => 128 << 20,
            _ => 256 << 20,
        },
        Bench::Sort => 64 << 20,
    }
}

/// Hardware description of one testbed configuration.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Worker (DataNode/TaskTracker) count.
    pub nodes: usize,
    /// Disks per node.
    pub disks: usize,
    /// SSD instead of HDD.
    pub ssd: bool,
    /// Storage-class nodes (24 GB RAM) instead of compute-class (12 GB).
    pub storage_class: bool,
    /// Rack structure of the fabric. The paper's testbed is a single QDR
    /// switch, so every preset defaults to [`Topology::flat`].
    pub topology: Topology,
}

impl Testbed {
    /// Compute nodes with `disks` HDDs each.
    pub fn compute(nodes: usize, disks: usize) -> Self {
        Testbed {
            nodes,
            disks,
            ssd: false,
            storage_class: false,
            topology: Topology::flat(),
        }
    }

    /// Storage nodes (24 GB) with `disks` HDDs each.
    pub fn storage(nodes: usize, disks: usize) -> Self {
        Testbed {
            nodes,
            disks,
            ssd: false,
            storage_class: true,
            topology: Topology::flat(),
        }
    }

    /// Nodes with one SSD each (Figs 7–8 use SSD HDFS data stores).
    pub fn ssd(nodes: usize) -> Self {
        Testbed {
            nodes,
            disks: 1,
            ssd: true,
            storage_class: false,
            topology: Topology::flat(),
        }
    }

    /// Same testbed behind racks of `rack_size` hosts with core uplinks
    /// oversubscribed by `oversub`. At `oversub` 1.0 this replays
    /// bit-identically to the flat default (see [`Topology::constrains`]).
    pub fn with_racks(mut self, rack_size: usize, oversub: f64) -> Self {
        self.topology = Topology::racks(rack_size, oversub);
        self
    }

    /// Expands into per-node specs: the paper's node class, with this
    /// testbed's disk count and device model.
    pub fn node_specs(&self) -> Vec<NodeSpec> {
        let mut spec = if self.storage_class {
            NodeSpec::westmere_storage(self.disks)
        } else {
            NodeSpec::westmere_compute()
        };
        spec.disks = self.disks;
        if self.ssd {
            spec.disk = DiskParams::ssd_sata();
        }
        vec![spec; self.nodes]
    }
}

/// The paper's JobConf for (system, benchmark, testbed): 4+4 slots, tuned
/// block size, and the PrefetchCache sized to the TaskTracker heap headroom
/// of the node class.
pub fn tuned_conf(system: System, _bench: Bench, testbed: &Testbed) -> JobConf {
    let mut conf = JobConf::for_kind(system.shuffle());
    conf.caching_enabled &= system != System::OsuIbNoCache;
    conf.node_combine = system == System::NodeCombiner;
    conf.map_slots = 4;
    conf.reduce_slots = 4;
    // Benchmark tuning pairs io.sort.mb with the block size so a map's
    // output sorts in one spill (the paper reports per-system tuning of
    // "all the tunable parameters with optimum values").
    conf.io_sort_buffer = 320 << 20;
    conf.num_reduces = testbed.nodes * conf.reduce_slots;
    conf.prefetch_cache_bytes = if testbed.storage_class {
        8 << 30
    } else {
        3 << 30
    };
    conf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_tuning_matches_the_paper() {
        assert_eq!(tuned_block_size(System::IpoIb, Bench::TeraSort), 256 << 20);
        assert_eq!(tuned_block_size(System::OsuIb, Bench::TeraSort), 256 << 20);
        assert_eq!(
            tuned_block_size(System::HadoopA, Bench::TeraSort),
            128 << 20
        );
        for s in System::ALL {
            assert_eq!(tuned_block_size(s, Bench::Sort), 64 << 20);
        }
    }

    #[test]
    fn systems_map_to_engines_and_fabrics() {
        assert_eq!(System::IpoIb.shuffle(), ShuffleKind::Vanilla);
        assert_eq!(System::HadoopA.shuffle(), ShuffleKind::HadoopA);
        assert_eq!(System::OsuIb.shuffle(), ShuffleKind::OsuIb);
        assert!(System::OsuIb.fabric().is_rdma());
        assert!(!System::GigE10.fabric().is_rdma());
        // The two presets are OSU-IB: one on a wider fabric, one staged.
        assert_eq!(System::NodeCombiner.shuffle(), ShuffleKind::OsuIb);
        assert_eq!(System::MultiRail.shuffle(), ShuffleKind::OsuIb);
        assert_eq!(System::MultiRail.fabric().rails, 2);
        assert_eq!(System::NodeCombiner.fabric().rails, 1);
    }

    #[test]
    fn every_system_has_a_command_line_name() {
        let named = ["g1", "g10", "ipoib", "ha", "osu", "osunc", "comb", "mr"];
        assert_eq!(named.map(System::parse), System::EXTENDED.map(Some));
        assert_eq!(System::parse("hadoop-a"), Some(System::HadoopA));
        assert_eq!(System::parse("hadoopa"), None);
        assert_eq!(System::parse(""), None);
    }

    #[test]
    fn extended_list_keeps_figure_order_as_a_prefix() {
        assert_eq!(System::EXTENDED[..System::ALL.len()], System::ALL);
        let conf = tuned_conf(
            System::NodeCombiner,
            Bench::TeraSort,
            &Testbed::compute(4, 1),
        );
        assert!(conf.node_combine && conf.caching_enabled);
        let conf = tuned_conf(System::MultiRail, Bench::Sort, &Testbed::compute(4, 1));
        assert!(!conf.node_combine && conf.caching_enabled);
    }

    #[test]
    fn testbed_specs_follow_node_class() {
        let c = Testbed::compute(4, 2).node_specs();
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].mem, 12 << 30);
        assert_eq!(c[0].disks, 2);
        let s = Testbed::storage(8, 2).node_specs();
        assert_eq!(s[0].mem, 24 << 30);
        assert!(s[0].page_cache > c[0].page_cache);
        let ssd = Testbed::ssd(4).node_specs();
        assert_eq!(ssd[0].disk.name, "SSD");
    }

    #[test]
    fn tuned_conf_uses_four_by_four_slots() {
        let tb = Testbed::compute(8, 1);
        let conf = tuned_conf(System::OsuIb, Bench::TeraSort, &tb);
        assert_eq!(conf.map_slots, 4);
        assert_eq!(conf.reduce_slots, 4);
        assert_eq!(conf.num_reduces, 32);
        assert!(conf.caching_enabled);
        let conf = tuned_conf(System::OsuIbNoCache, Bench::Sort, &tb);
        assert!(!conf.caching_enabled);
    }

    #[test]
    fn tuned_conf_table_per_system_and_node_class() {
        use ShuffleKind::*;
        // (system, shuffle, caching, node_combine)
        let rows = [
            (System::GigE1, Vanilla, false, false),
            (System::GigE10, Vanilla, false, false),
            (System::IpoIb, Vanilla, false, false),
            (System::HadoopA, HadoopA, false, false),
            (System::OsuIb, OsuIb, true, false),
            (System::OsuIbNoCache, OsuIb, false, false),
            (System::NodeCombiner, OsuIb, true, true),
            (System::MultiRail, OsuIb, true, false),
        ];
        assert_eq!(rows.map(|r| r.0), System::EXTENDED);
        for (tb, cache_bytes) in [
            (Testbed::compute(4, 1), 3u64 << 30),
            (Testbed::storage(8, 2), 8 << 30),
        ] {
            for (system, shuffle, caching, combine) in rows {
                let conf = tuned_conf(system, Bench::TeraSort, &tb);
                assert_eq!(conf.shuffle, shuffle, "{system:?}");
                assert_eq!(conf.caching_enabled, caching, "{system:?}");
                assert_eq!(conf.node_combine, combine, "{system:?}");
                assert_eq!(conf.prefetch_cache_bytes, cache_bytes, "{system:?}");
                assert_eq!(conf.num_reduces, tb.nodes * 4, "{system:?}");
            }
        }
    }
}
