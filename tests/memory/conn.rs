//! What an idle connection, and a busy end, cost on the heap.
//!
//! The RDMA engines connect every ReduceTask to every TaskTracker up front
//! (§III-B-1), so live connections grow as reducers × nodes and their size
//! sets the memory peak of the large points (`scale_256` holds about 65 000
//! at once, 16 320 of their ends with sends queued). The idle case builds
//! K × T idle connections the way the engines do — server ends joining one
//! [`EndpointSet`] per TaskTracker through [`ucr_listen_into`], client ends
//! joining one set per reducer through [`UcrConnector::try_connect_into`] —
//! then holds the live heap they add, counting both ends and both sets, to a
//! byte and an allocation budget per connection: a 184-byte queue pair and a
//! 24-byte member entry in each set. The busy case holds an end with a
//! `SEND` in its engine's hands and three queued behind it to a budget of
//! its own: the engine task, the work queue and the busy state.

use std::rc::Rc;

use rmr_core::proto::{PacketBudget, ShufMsg};
use rmr_core::JobId;
use rmr_des::Sim;
use rmr_net::{
    connect_qp, ucr_listen_into, Cq, EndpointSet, FabricParams, Network, NodeId, Qp, UcrConnector,
};

use super::heap;

/// Reducers and TaskTrackers: 4 096 connections.
const K: usize = 64;
const T: usize = 64;
/// What one idle connection may add to the heap: its queue pair (both ends)
/// and its entry in the set on either side. An end with a `RefCell` flag on
/// its receive window and busy state (264 B), an end held through an `Rc`'s
/// own allocation, or a queue pair that carries a full `Network` clone, is
/// over.
const MAX_BYTES_PER_CONN: f64 = 232.0;
/// Blocks per connection, not counting the one member table each set grows
/// (a set's, not a connection's).
const MAX_ALLOCS_PER_CONN: f64 = 1.0;

/// Each reducer connects to every TaskTracker in turn and keeps nothing but
/// its set: the engines' `Copier::connect`, without the bookkeeping above
/// the net layer.
fn connect_all(
    sim: &Sim,
    nodes: &[NodeId],
    reducers: &[Rc<EndpointSet<u64>>],
    servers: &[UcrConnector<u64>],
) {
    for (r, set) in reducers.iter().enumerate() {
        let (set, servers, from) = (Rc::clone(set), servers.to_vec(), nodes[r % T]);
        sim.spawn_named("reducer", async move {
            for server in &servers {
                server
                    .try_connect_into(from, &set)
                    .await
                    .expect("the TaskTracker is listening");
            }
        })
        .detach();
    }
    sim.run();
}

#[test]
fn an_idle_connection_is_one_small_allocation() {
    let sim = Sim::new(1);
    let net = Network::new(&sim, FabricParams::ib_verbs_qdr());
    let nodes: Vec<NodeId> = (0..T).map(|_| net.add_node(None)).collect();
    // Warm-up: the same tasks and timers without a connection, so the
    // executor's task table and event slab are already at their size.
    for _ in 0..K {
        let sim2 = sim.clone();
        let delay = net.fabric().connect_cost;
        sim.spawn_named("reducer", async move {
            for _ in 0..T {
                sim2.sleep(delay).await;
            }
        })
        .detach();
    }
    sim.run();

    let before = heap();
    let tts: Vec<_> = nodes
        .iter()
        .map(|&node| {
            let set = EndpointSet::<u64>::new();
            let connector = ucr_listen_into(&net, node, &set);
            (set, connector)
        })
        .collect();
    let connectors: Vec<_> = tts.iter().map(|(_, c)| c.clone()).collect();
    let reducers: Vec<_> = (0..K).map(|_| EndpointSet::new()).collect();
    let empty = heap();
    connect_all(&sim, &nodes, &reducers, &connectors);
    let connected = heap();

    assert_eq!(sim.live_tasks(), 0, "an idle connection owns no task");
    assert!(reducers.iter().all(|set| set.len() == T));
    assert!(connectors.iter().all(|c| c.served() == K));
    let conns = (K * T) as f64;
    let bytes = (connected.bytes - empty.bytes) as f64 / conns;
    let allocs = (connected.blocks - empty.blocks - (K + T) as isize) as f64 / conns;
    assert!(
        bytes <= MAX_BYTES_PER_CONN,
        "{bytes:.1} B of live heap per idle connection (budget {MAX_BYTES_PER_CONN})"
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_CONN,
        "{allocs:.3} live allocations per idle connection (budget {MAX_ALLOCS_PER_CONN})"
    );

    // Closing every connection gives all of it back: the reducers' sets
    // close the client ends, whose flushes land in the TaskTrackers' sets,
    // which then close the server ends.
    drop(reducers);
    sim.run();
    drop((tts, connectors));
    sim.run();
    let after = heap();
    assert_eq!(
        (after.bytes, after.blocks),
        (before.bytes, before.blocks),
        "live (bytes, blocks) after every set is gone"
    );
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("per idle connection: {bytes:.1} B, {allocs:.3} allocations");
}

/// Busy ends, each a connection of its own.
const BUSY_ENDS: usize = 1024;
/// What an end with four sends posted, the peer not ready for any, may add
/// to the heap: its engine task holding the first, the work queue holding
/// the other three, and the busy state. While the engine's future kept its
/// request twice over and a transfer per opcode it was 1 144 B.
const MAX_BYTES_PER_BUSY_END: f64 = 920.0;

/// Posts four sends on each client end; the peers post no receive, so every
/// engine stalls on its first (receiver not ready).
fn post_four(sim: &Sim, pairs: &[(Qp<ShufMsg>, Qp<ShufMsg>)]) {
    let request = ShufMsg::Request {
        job: JobId(0),
        map_idx: 0,
        reduce: 0,
        attempt: 0,
        budget: PacketBudget::Bytes(1),
    };
    for (client, _) in pairs {
        for wr_id in 0..4 {
            client.post_send(wr_id, 64, request.clone());
        }
    }
    sim.run();
}

/// Lets every stalled send through and takes its completions off the CQ.
fn drain(sim: &Sim, pairs: &[(Qp<ShufMsg>, Qp<ShufMsg>)], cq: &Cq<ShufMsg>) {
    for (_, server) in pairs {
        for wr_id in 0..4 {
            server.post_recv(wr_id);
        }
    }
    sim.run();
    while cq.poll().is_some() {}
}

#[test]
fn a_busy_end_is_its_engine_queue_and_busy_state() {
    let sim = Sim::new(1);
    let net = Network::new(&sim, FabricParams::ib_verbs_qdr());
    let (a, b) = (net.add_node(None), net.add_node(None));
    let cq = Rc::new(Cq::<ShufMsg>::new());
    let (net2, cq2) = (net.clone(), Rc::clone(&cq));
    let pairs = sim.block_on(sim.spawn(async move {
        let mut pairs = Vec::with_capacity(BUSY_ENDS);
        for _ in 0..BUSY_ENDS {
            pairs.push(connect_qp(&net2, a, b, &cq2, &cq2).await);
        }
        pairs
    }));
    // Warm-up: one busy round, so the executor's task table, the event
    // slab and the CQ's buffer are already at their size.
    post_four(&sim, &pairs);
    drain(&sim, &pairs, &cq);

    let idle = heap();
    post_four(&sim, &pairs);
    let busy = heap();
    assert_eq!(sim.live_tasks(), BUSY_ENDS, "one engine per busy end");
    drain(&sim, &pairs, &cq);
    let drained = heap();
    assert_eq!(sim.live_tasks(), 0, "a drained end has no engine");
    assert_eq!(
        (drained.bytes, drained.blocks),
        (idle.bytes, idle.blocks),
        "a drained end gives its busy state back"
    );
    let bytes = (busy.bytes - idle.bytes) as f64 / BUSY_ENDS as f64;
    let blocks = (busy.blocks - idle.blocks) as f64 / BUSY_ENDS as f64;
    assert!(
        bytes <= MAX_BYTES_PER_BUSY_END,
        "{bytes:.1} B of live heap per busy end (budget {MAX_BYTES_PER_BUSY_END})"
    );
    drop(pairs);
    sim.run();
    // Last: under the test harness's output capture, printing allocates.
    eprintln!("per busy end: {bytes:.1} B in {blocks:.2} allocations");
}
