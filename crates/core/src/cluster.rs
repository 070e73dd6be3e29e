//! The engine's view of a cluster: hosts with CPU, disks, memory, a shared
//! network, and HDFS.
//!
//! Worker nodes each run a DataNode and a TaskTracker over the *same* local
//! disks — HDFS traffic and shuffle traffic compete for the same spindles,
//! as on the paper's testbed. A dedicated master hosts the NameNode and
//! JobTracker.

use rmr_des::prelude::*;
use rmr_hdfs::{HdfsCluster, HdfsConfig};
use rmr_net::{FabricParams, Network, NodeId, Topology};
use rmr_store::{DiskParams, LocalFs};

/// Hardware description of one worker node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// CPU cores.
    pub cores: f64,
    /// Total RAM, bytes.
    pub mem: u64,
    /// Disk count (JBOD).
    pub disks: usize,
    /// Device model.
    pub disk: DiskParams,
    /// RAM granted to the OS page cache (the rest is JVM heaps and
    /// framework overhead).
    pub page_cache: u64,
}

impl NodeSpec {
    /// The paper's compute node: dual quad-core Westmere 2.67 GHz, 12 GB
    /// RAM, one 160 GB HDD (§IV-A).
    pub fn westmere_compute() -> Self {
        NodeSpec {
            cores: 8.0,
            mem: 12 << 30,
            disks: 1,
            disk: DiskParams::hdd_7200(),
            page_cache: 3 << 30,
        }
    }

    /// The paper's storage node: same CPU, 24 GB RAM, up to two 1 TB HDDs.
    pub fn westmere_storage(disks: usize) -> Self {
        NodeSpec {
            cores: 8.0,
            mem: 24 << 30,
            disks,
            disk: DiskParams::hdd_7200(),
            page_cache: 10 << 30,
        }
    }
}

/// One worker node's resources.
#[derive(Clone)]
pub struct NodeHandle {
    /// Network identity.
    pub id: NodeId,
    /// CPU: capacity = cores, each consumer capped at one core.
    pub cpu: Fluid,
    /// Node-local filesystem (shared by DataNode and TaskTracker).
    pub fs: LocalFs,
    /// Spec it was built from.
    pub spec: NodeSpec,
}

impl NodeHandle {
    /// Charges `core_seconds` of compute to this node's CPU.
    pub async fn compute(&self, core_seconds: f64) {
        if core_seconds > 0.0 {
            self.cpu.consume(core_seconds).await;
        }
    }
}

/// A full simulated cluster.
#[derive(Clone)]
pub struct Cluster {
    /// The simulation handle.
    pub sim: Sim,
    /// The interconnect.
    pub net: Network,
    /// HDFS over the workers.
    pub hdfs: HdfsCluster,
    /// Worker nodes (DataNode + TaskTracker each).
    pub workers: std::rc::Rc<Vec<NodeHandle>>,
    /// Master host (NameNode + JobTracker).
    pub master: NodeId,
}

impl Cluster {
    /// Builds a cluster of `workers` identical nodes plus a master, on the
    /// given fabric, with HDFS configured by `hdfs_cfg`, on a flat (single
    /// non-blocking switch) topology.
    pub fn build(
        sim: &Sim,
        fabric: FabricParams,
        worker_specs: &[NodeSpec],
        hdfs_cfg: HdfsConfig,
    ) -> Cluster {
        Cluster::build_with_topology(sim, fabric, Topology::flat(), worker_specs, hdfs_cfg)
    }

    /// [`Cluster::build`] with an explicit rack topology. The master sits
    /// in rack 0 (it is NodeId 0); workers fill racks contiguously.
    pub fn build_with_topology(
        sim: &Sim,
        fabric: FabricParams,
        topology: Topology,
        worker_specs: &[NodeSpec],
        hdfs_cfg: HdfsConfig,
    ) -> Cluster {
        let net = Network::with_topology(sim, fabric, topology);
        // Master first: NameNode + JobTracker (no TaskTracker/DataNode).
        let master_cpu = Fluid::with_entry_cap(sim, 8.0, 1.0);
        let master = net.add_node(Some(master_cpu));
        let hdfs = HdfsCluster::new(sim, &net, master, hdfs_cfg);
        let mut workers = Vec::with_capacity(worker_specs.len());
        for spec in worker_specs {
            let cpu = Fluid::with_entry_cap(sim, spec.cores, 1.0);
            let id = net.add_node(Some(cpu.clone()));
            let fs = LocalFs::new(sim, spec.disk.clone(), spec.disks, spec.page_cache, "")
                .with_cpu(cpu.clone());
            hdfs.add_datanode(id, fs.clone());
            workers.push(NodeHandle {
                id,
                cpu,
                fs,
                spec: spec.clone(),
            });
        }
        Cluster {
            sim: sim.clone(),
            net,
            hdfs,
            workers: std::rc::Rc::new(workers),
            master,
        }
    }

    /// Number of worker nodes.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The worker index hosting `node`, if any. O(1): the master is added
    /// first (NodeId 0), so worker `i` always has NodeId `i + 1`.
    pub fn worker_of(&self, node: NodeId) -> Option<usize> {
        let idx = (node.0 as usize).checked_sub(1)?;
        let w = self.workers.get(idx)?;
        debug_assert_eq!(w.id, node, "workers must be dense after the master");
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_wires_hdfs_to_worker_disks() {
        let sim = Sim::new(1);
        let specs = vec![NodeSpec::westmere_compute(); 4];
        let c = Cluster::build(
            &sim,
            FabricParams::ipoib_qdr(),
            &specs,
            HdfsConfig::default(),
        );
        assert_eq!(c.worker_count(), 4);
        assert_eq!(c.hdfs.datanode_count(), 4);
        for (i, w) in c.workers.iter().enumerate() {
            assert_eq!(c.hdfs.dn_node(i), w.id);
            assert_eq!(c.worker_of(w.id), Some(i));
        }
        assert_eq!(c.worker_of(c.master), None);
    }

    #[test]
    fn specs_describe_the_testbed() {
        let compute = NodeSpec::westmere_compute();
        let storage = NodeSpec::westmere_storage(2);
        assert_eq!(compute.mem, 12 << 30);
        assert_eq!(storage.mem, 24 << 30);
        assert_eq!(storage.disks, 2);
        assert!(storage.page_cache > compute.page_cache);
    }

    #[test]
    fn compute_charges_cpu() {
        let sim = Sim::new(1);
        let c = Cluster::build(
            &sim,
            FabricParams::ib_verbs_qdr(),
            &[NodeSpec::westmere_compute()],
            HdfsConfig::default(),
        );
        let w = c.workers[0].clone();
        sim.spawn(async move {
            w.compute(2.0).await; // 2 core-seconds on 1 core cap
        })
        .detach();
        let end = sim.run();
        assert_eq!(end.as_nanos(), 2_000_000_000);
    }
}
