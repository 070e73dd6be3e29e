//! Node lifecycle and fault injection: killing and restarting a
//! TaskTracker, and arming a [`FaultPlan`].

use std::rc::Rc;

use rmr_des::prelude::*;
use rmr_obs::{Ev, TaskFlavor};

use super::{spawn_heartbeat, ActiveJob, Runtime};
use crate::faults::{FaultEvent, FaultPlan};

impl Runtime {
    /// Kills TaskTracker `tt_idx`: every task on the node (heartbeat daemon,
    /// shuffle servers, prefetcher, running attempts) is aborted, its served
    /// state and map outputs are dropped, and every active job re-queues the
    /// work that died with it. Idempotent. The node stays blacklisted — its
    /// heartbeat daemon is dead, so no attempt lands on it — until
    /// [`Runtime::restart_node`].
    pub fn kill_node(&self, tt_idx: usize) {
        let inner = &self.inner;
        let tt = &inner.tts[tt_idx];
        if !tt.liveness.kill() {
            return; // already down
        }
        inner.liveness_changed.notify_all();
        // Abort everything running on the node. Slot permits held by the
        // aborted attempts are dropped with their futures, so the slots
        // read free again after the restart.
        tt.group.abort();
        // The node's disk state is unreachable: serving cursors, cache
        // contents, and committed map outputs are gone.
        tt.clear_serve_state();
        inner.outputs.remove_node(tt_idx);
        // Outputs the in-node combiner holds staged but unregistered die
        // with the node; their maps re-queue below via `node_lost`.
        inner.combiner.node_lost(tt_idx);
        inner.obs.emit(|| Ev::NodeDown { node: tt_idx });
        // Every active job loses this node's attempts and completed maps.
        let jobs: Vec<Rc<ActiveJob>> = inner.jobs.borrow().values().cloned().collect();
        for job in jobs {
            let report = job.jt.borrow_mut().node_lost(tt_idx);
            let maps = report
                .lost_running_maps
                .iter()
                .map(|&i| (TaskFlavor::Map, i));
            let reduces = report.lost_reduces.iter().map(|&i| (TaskFlavor::Reduce, i));
            for (kind, idx) in maps.chain(reduces) {
                inner.obs.emit(|| Ev::AttemptLost {
                    node: tt_idx,
                    job: job.id.0,
                    kind,
                    idx,
                });
            }
            for &idx in &report.lost_completed_maps {
                inner.obs.emit(|| Ev::MapReExecute {
                    node: tt_idx,
                    job: job.id.0,
                    idx,
                });
            }
        }
        // Surviving nodes' heartbeats pick up the re-queued work.
        inner.work.notify_all();
    }

    /// Restarts a killed TaskTracker under a new liveness epoch: fresh
    /// shuffle server (installed in the old one's slot), fresh prefetcher,
    /// fresh heartbeat daemon. The node rejoins scheduling at its next
    /// heartbeat with a cold cache and an empty map-output store.
    pub fn restart_node(&self, tt_idx: usize) {
        let inner = &self.inner;
        let tt = &inner.tts[tt_idx];
        if tt.liveness.alive() {
            return; // never killed, or already back
        }
        let epoch = tt.liveness.restart();
        inner.liveness_changed.notify_all();
        let server = inner.conf.shuffle.start_server(tt, &inner.cluster.net);
        inner.servers.borrow_mut()[tt_idx] = server;
        tt.respawn_prefetcher();
        spawn_heartbeat(inner, tt);
        inner.obs.emit(|| Ev::NodeUp {
            node: tt_idx,
            epoch,
        });
        inner.work.notify_all();
    }

    /// Arms a [`FaultPlan`]: network windows are installed immediately,
    /// crashes get a chaos timer task each, and task failures wait in the
    /// runtime for the attempt they fail — arming one for a job already
    /// submitted panics. An empty plan performs no simulation
    /// operations at all (the determinism contract: fault-free runs stay
    /// bit-identical).
    pub fn apply_fault_plan(&self, plan: &FaultPlan) {
        let inner = &self.inner;
        let net = &inner.cluster.net;
        for ev in plan.events.iter().cloned() {
            match ev {
                FaultEvent::Crash {
                    tt_idx,
                    at,
                    restart_after,
                } => {
                    let (rt, sim) = (self.clone(), inner.sim.clone());
                    let tag = Component::ChaosCrash { tt: tt_idx as u32 };
                    let crash = async move {
                        sim.sleep(at.saturating_since(sim.now())).await;
                        rt.kill_node(tt_idx);
                        if let Some(after) = restart_after {
                            sim.sleep(after).await;
                            rt.restart_node(tt_idx);
                        }
                    };
                    inner.sim.spawn_named(tag, crash).detach();
                }
                FaultEvent::Degrade {
                    tt_idx,
                    start,
                    end,
                    factor,
                } => net.inject_degradation(inner.tts[tt_idx].node.id, start, end, factor),
                FaultEvent::Partition { tt_idx, start, end } => {
                    net.inject_partition(inner.tts[tt_idx].node.id, start, end)
                }
                FaultEvent::FailMapOnce { job_ord, map_idx } => {
                    self.arm_failure(job_ord, TaskFlavor::Map, map_idx)
                }
                FaultEvent::FailReduceOnce {
                    job_ord,
                    reduce_idx,
                } => self.arm_failure(job_ord, TaskFlavor::Reduce, reduce_idx),
            }
        }
    }

    /// Arms the next attempt of task `idx` (of `kind`) of the `job_ord`-th
    /// submitted job to fail; that job must not be submitted yet.
    fn arm_failure(&self, job_ord: u32, kind: TaskFlavor, idx: usize) {
        assert!(
            job_ord >= self.inner.next_id.get(),
            "job {job_ord} was already submitted: arm its task failures before"
        );
        self.inner.armed.borrow_mut().insert((job_ord, kind, idx));
    }
}
