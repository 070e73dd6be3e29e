//! Property test of the queue-pair engine against a scan oracle.
//!
//! A queue pair end has no parked task: the `post_*` that finds the end idle
//! starts an engine, later posts queue behind it, and the engine exits when
//! the queue drains. Random programs post on several QPs at random times —
//! delays are either far shorter than a transfer (the post lands while the
//! engine is mid-transfer) or far longer (it lands after the engine exited)
//! — while the peers post receives at random times, possibly too few.
//!
//! The oracle is one scan over each QP's posts in posting order. A work
//! request starts once it has been posted, the one before it has completed
//! and, for a `SEND`, the receive it consumes has been posted; it completes
//! a transfer time later. Everything behind a `SEND` that never gets its
//! receive never completes.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use rmr_des::prelude::*;
use rmr_net::verbs::{connect_qp, Cq, Op};
use rmr_net::{FabricParams, Network};

/// 1 B/ms: a work request of `b` bytes takes `b` ms on an idle wire.
const MS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy)]
struct Post {
    delay_ms: u64,
    kind: u8, // 0 send, 1 write, 2 read
    bytes: u64,
}

fn post() -> impl Strategy<Value = Post> {
    (prop_oneof![0u64..4, 5_000u64..9_000], 0u8..3, 100u64..2_000).prop_map(
        |(delay_ms, kind, bytes)| Post {
            delay_ms,
            kind,
            bytes,
        },
    )
}

/// One QP's program: its posts, and the peer's receive postings as
/// `(delay_ms, how many)`.
type Program = (Vec<Post>, Vec<(u64, u64)>);

fn program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(post(), 1..14),
        proptest::collection::vec((0u64..6_000, 1u64..4), 0..5),
    )
}

/// What the run recorded for one QP.
#[derive(Default)]
struct Observed {
    post_ns: Vec<u64>,
    recv_post_ns: Vec<u64>,
    /// `(wr_id, op, t_ns)` off the send CQ, in arrival order.
    completions: Vec<(u64, Op, u64)>,
    /// `(seq, t_ns)` of every `Qp::completed` waiter that resumed.
    resumed: Vec<(u64, u64)>,
    /// `(recv wr_id, payload)` off the peer's receive CQ, in arrival order.
    received: Vec<(u64, u64)>,
    /// The peer's receive CQ ended with a flush: the posting end closed.
    flushed: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_the_scan_oracle(programs in proptest::collection::vec(program(), 1..4)) {
        let sim = Sim::new(11);
        let mut fabric = FabricParams::ib_verbs_qdr();
        fabric.link_bw = 1_000.0;
        fabric.latency = SimDuration::ZERO;
        fabric.connect_cost = SimDuration::ZERO;
        fabric.cpu_per_message = 0.0;
        let net = Network::new(&sim, fabric);
        let observed: Vec<Rc<RefCell<Observed>>> =
            programs.iter().map(|_| Rc::default()).collect();

        for ((posts, recvs), obs) in programs.iter().cloned().zip(&observed) {
            // Each pair has two nodes of its own, and only one end posts:
            // its queue is serial, so nothing ever shares a wire.
            let (a, b) = (net.add_node(None), net.add_node(None));
            let (sim, net, obs) = (sim.clone(), net.clone(), Rc::clone(obs));
            sim.clone().spawn_named("program", async move {
                let (cq_a, cq_b, recv_b) = (Cq::<u64>::new(), Cq::new(), Cq::new());
                let (qa, qb) = connect_qp(&net, a, b, &cq_a, &cq_b).await;
                let qa = Rc::new(qa);
                qb.bind_recv_cq(&recv_b, 7);
                let now = { let sim = sim.clone(); move || sim.now().as_nanos() };

                let (obs2, now2) = (Rc::clone(&obs), now.clone());
                sim.spawn_named("send-cq", async move {
                    while let Some(c) = cq_a.next().await {
                        obs2.borrow_mut().completions.push((c.wr_id, c.op, now2()));
                    }
                })
                .detach();
                let obs2 = Rc::clone(&obs);
                sim.spawn_named("recv-cq", async move {
                    while let Some(c) = recv_b.next().await {
                        let mut obs = obs2.borrow_mut();
                        assert!(!obs.flushed, "a completion after the flush");
                        assert_eq!(c.qp_num, 7);
                        match c.op {
                            Op::Recv => obs.received.push((c.wr_id, c.payload.unwrap())),
                            op => {
                                assert_eq!(op, Op::Flush);
                                obs.flushed = true;
                            }
                        }
                    }
                })
                .detach();
                let (sim2, obs2, now2) = (sim.clone(), Rc::clone(&obs), now.clone());
                sim.spawn_named("receiver", async move {
                    let mut wr_id = 500;
                    for (delay_ms, n) in recvs {
                        sim2.sleep(SimDuration::from_millis(delay_ms)).await;
                        for _ in 0..n {
                            qb.post_recv(wr_id);
                            wr_id += 1;
                            obs2.borrow_mut().recv_post_ns.push(now2());
                        }
                    }
                    // Stay connected to the end: parked, `qb` in hand.
                    std::future::pending::<()>().await;
                })
                .detach();

                for (i, p) in posts.into_iter().enumerate() {
                    sim.sleep(SimDuration::from_millis(p.delay_ms)).await;
                    obs.borrow_mut().post_ns.push(now());
                    let i = i as u64;
                    let seq = match p.kind {
                        0 => qa.post_send(i, p.bytes, i * 3),
                        1 => qa.post_rdma_write(i, p.bytes),
                        _ => qa.post_rdma_read(i, p.bytes),
                    };
                    assert_eq!(seq, i, "send-queue positions count posts");
                    let (qa, obs2, now2) = (Rc::clone(&qa), Rc::clone(&obs), now.clone());
                    sim.spawn_named("waiter", async move {
                        qa.completed(seq).await;
                        obs2.borrow_mut().resumed.push((seq, now2()));
                    })
                    .detach();
                }
            })
            .detach();
        }
        sim.run();

        for ((posts, _), obs) in programs.iter().zip(&observed) {
            let obs = obs.borrow();
            // The scan.
            let (mut prev_done, mut sends) = (0u64, 0usize);
            let mut expect = Vec::new();
            for (i, p) in posts.iter().enumerate() {
                let mut start = obs.post_ns[i].max(prev_done);
                if p.kind == 0 {
                    match obs.recv_post_ns.get(sends) {
                        Some(&posted) => start = start.max(posted),
                        None => break, // RNR for good; the queue is stuck behind it
                    }
                    sends += 1;
                }
                let op = [Op::Send, Op::RdmaWrite, Op::RdmaRead][p.kind as usize];
                expect.push((i as u64, op, start + p.bytes * MS));
                // Scan on from what the run did, so a nanosecond of fluid
                // rounding in one step is not charged to the next.
                prev_done = obs.completions.get(i).map_or(start + p.bytes * MS, |c| c.2);
            }
            // In posting order, each exactly once, nothing past a stuck SEND.
            prop_assert_eq!(obs.completions.len(), expect.len());
            for (got, want) in obs.completions.iter().zip(&expect) {
                prop_assert_eq!((got.0, got.1), (want.0, want.1));
                prop_assert!(
                    (want.2..=want.2 + 2).contains(&got.2),
                    "wr {} completed at {} ns, the scan says {} ns", got.0, got.2, want.2
                );
            }
            // Every waiter resumed at its own completion, the rest never.
            let resumed: Vec<(u64, u64)> =
                obs.completions.iter().map(|c| (c.0, c.2)).collect();
            prop_assert_eq!(&obs.resumed, &resumed);
            // The peer saw the sends in order, on its receives in order.
            let sent: Vec<(u64, u64)> = expect
                .iter()
                .filter(|e| e.1 == Op::Send)
                .enumerate()
                .map(|(k, e)| (500 + k as u64, e.0 * 3))
                .collect();
            prop_assert_eq!(&obs.received, &sent);
            // The posting end closes when its last waiter lets go of it —
            // after everything it posted, if nothing is stuck; never, else.
            prop_assert_eq!(obs.flushed, expect.len() == posts.len());
        }
    }
}
