//! Property tests for reliable delivery: a transport under drops,
//! duplicates, reordering, and delays delivers exactly the same message
//! multiset as a lossless network — faults perturb timing, never
//! content — fault replay is deterministic for a fixed seed, and both
//! nets settle the same fate for the same `(src, seq)`.

use proptest::prelude::*;
use std::time::Duration;
use xdp_fault::{FaultPlan, LinkFault};
use xdp_ir::{ElemType, Section, TransferKind, Triplet, VarId};
use xdp_machine::{CostModel, SimNet, ThreadNet, Topology};
use xdp_runtime::{Buffer, Msg, Tag};

fn msg(salt: i64, src: usize, len: usize) -> Msg {
    Msg {
        tag: Tag::salted(VarId(0), Section::new(vec![Triplet::range(1, 2)]), salt),
        kind: TransferKind::Value,
        payload: Some(std::sync::Arc::new(Buffer::zeros(ElemType::F64, len))),
        src,
    }
}

fn payload_len(m: &Msg) -> usize {
    match m.payload.as_deref() {
        Some(Buffer::F64(v)) => v.len(),
        _ => 0,
    }
}

/// A fault plan aggressive enough to exercise every path but gentle
/// enough (drop < 1) that retry always converges within the budget.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.4,
        0.0f64..0.5,
        0.0f64..0.6,
        0.0f64..0.5,
    )
        .prop_map(|(seed, drop, dup, reorder, delay_p)| {
            let mut plan = FaultPlan::uniform(
                seed,
                LinkFault {
                    drop,
                    dup,
                    reorder,
                    delay_p,
                    delay: 80.0,
                },
            );
            plan.rto = 300.0;
            plan.max_retries = 32;
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ThreadNet: the claimed multiset of (salt, payload length) under
    // faults equals the lossless one, regardless of seed or fault mix.
    #[test]
    fn threaded_faulty_delivery_equals_lossless(
        plan in arb_plan(),
        sizes in prop::collection::vec(1usize..40, 1..20),
    ) {
        let send_all = |net: &ThreadNet| {
            for (i, &len) in sizes.iter().enumerate() {
                net.send(msg(i as i64, 0, len), None);
            }
        };
        let recv_all = |net: &ThreadNet| -> Vec<(i64, usize)> {
            let mut got = Vec::new();
            for (i, _) in sizes.iter().enumerate() {
                let m = net
                    .recv(&msg(i as i64, 0, 1).tag, 1, Duration::from_secs(20))
                    .expect("reliable delivery must converge");
                got.push((m.tag.salt, payload_len(&m)));
            }
            got.sort_unstable();
            got
        };

        let lossless = ThreadNet::new(2);
        send_all(&lossless);
        let want = recv_all(&lossless);

        let faulty = ThreadNet::with_faults(2, plan);
        send_all(&faulty);
        let got = recv_all(&faulty);

        prop_assert_eq!(got, want);
        prop_assert_eq!(faulty.stats().messages, sizes.len() as u64,
            "dedup must not double-count claims");
        prop_assert_eq!(faulty.pending_messages(), 0);
        prop_assert!(faulty.lost().is_empty());
    }

    // SimNet: the analytic retry model arrives at the same matches as a
    // fault-free run — same payloads, same match count — only later.
    #[test]
    fn sim_faulty_delivery_equals_lossless(
        plan in arb_plan(),
        sizes in prop::collection::vec(1usize..40, 1..20),
    ) {
        let run = |mut net: SimNet| -> (Vec<(i64, usize)>, f64) {
            for (i, &len) in sizes.iter().enumerate() {
                let m = msg(i as i64, 0, len);
                net.post_send(m, None, 10.0 * i as f64);
            }
            let mut got = Vec::new();
            let mut t_max = 0.0f64;
            for (i, _) in sizes.iter().enumerate() {
                let c = net
                    .post_recv(msg(i as i64, 0, 1).tag, 1, 0.0, i as u64 + 1)
                    .expect("reliable delivery must converge");
                t_max = t_max.max(c.arrive_at);
                got.push((c.msg.tag.salt, payload_len(&c.msg)));
            }
            got.sort_unstable();
            (got, t_max)
        };

        let (want, t_clean) =
            run(SimNet::new(2, CostModel::default_1993(), Topology::Uniform));
        let (got, t_faulty) = run(SimNet::with_faults(
            2,
            CostModel::default_1993(),
            Topology::Uniform,
            plan,
        ));
        prop_assert_eq!(got, want);
        prop_assert!(t_faulty >= t_clean,
            "faults may only delay: {} < {}", t_faulty, t_clean);
    }

    // Both nets apply one fate per (src, seq): the same sends from several
    // processors, with losses and kills, leave the same counters and the
    // same dead letters, sorted by (src, seq).
    #[test]
    fn both_nets_settle_the_same_fates(
        plan in arb_plan(),
        retries in 0u32..3,
        kills in prop::collection::vec((0usize..3, 1u64..8), 0..3),
        sends in prop::collection::vec((0usize..3, 0i64..4, prop::option::of(0usize..3)), 1..40),
    ) {
        let plan = FaultPlan { max_retries: retries, kill: kills, ..plan };
        let threaded = ThreadNet::with_faults(3, plan.clone());
        let mut sim = SimNet::with_faults(3, CostModel::default_1993(), Topology::Uniform, plan);
        for (i, &(src, salt, dest)) in sends.iter().enumerate() {
            threaded.send(msg(salt, src, 1), dest);
            sim.post_send(msg(salt, src, 1), dest, i as f64);
        }
        let letters = |mut lost: Vec<xdp_machine::LostMsg>| {
            lost.sort_by_key(|l| (l.src, l.seq));
            lost.into_iter().map(|l| (l.src, l.seq, l.attempts, l.tag, l.dest)).collect::<Vec<_>>()
        };
        prop_assert_eq!(threaded.fault_stats(), sim.fault_stats());
        prop_assert_eq!(letters(threaded.lost()), letters(sim.lost().to_vec()));
    }

    // Both reliable nets count a message the same way when it is claimed.
    // One sequence of sends and receives over a few names on P = 3: a
    // threaded receive that finds nothing waits, and the first waiting one
    // a new send may reach claims it, as on the simulator. Then every
    // message left is claimed, first sent first, on its own pid.
    #[test]
    fn both_nets_count_the_same_things(
        posts in prop::collection::vec(
            (any::<bool>(), 0usize..3, 0i64..3, prop::option::of(0usize..3)),
            1..40,
        ),
    ) {
        let threaded = ThreadNet::new(3);
        let mut sim = SimNet::new(3, CostModel::default_1993(), Topology::Uniform);
        // Which sends each net delivered: a payload's length is its index + 1.
        let (mut on_sim, mut on_threads) = (vec![false; posts.len()], vec![false; posts.len()]);
        let claim = |seen: &mut Vec<bool>, m: &Msg| seen[payload_len(m) - 1] = true;
        let mut waiting: Vec<(Tag, usize)> = Vec::new();
        let poll = Duration::ZERO;
        for (i, &(send, pid, salt, dest)) in posts.iter().enumerate() {
            let m = msg(salt, pid, i + 1);
            let done = if send {
                threaded.send(m.clone(), dest);
                for w in 0..waiting.len() {
                    if let Some(got) = threaded.recv(&waiting[w].0, waiting[w].1, poll) {
                        claim(&mut on_threads, &got);
                        waiting.remove(w);
                        break;
                    }
                }
                sim.post_send(m, dest, i as f64)
            } else {
                match threaded.recv(&m.tag, pid, poll) {
                    Some(got) => claim(&mut on_threads, &got),
                    None => waiting.push((m.tag.clone(), pid)),
                }
                sim.post_recv(m.tag, pid, i as f64, i as u64)
            };
            if let Some(c) = done {
                claim(&mut on_sim, &c.msg);
            }
        }
        let end = posts.len() as f64;
        for (i, &(send, _, salt, dest)) in posts.iter().enumerate() {
            let (tag, pid) = (msg(salt, 0, 1).tag, dest.unwrap_or(0));
            if send && !on_sim[i] {
                let c = sim.post_recv(tag.clone(), pid, end, i as u64).expect("the first left");
                claim(&mut on_sim, &c.msg);
            }
            if send && !on_threads[i] {
                claim(&mut on_threads, &threaded.recv(&tag, pid, poll).expect("the first left"));
            }
        }
        prop_assert_eq!(sim.pending().0, 0);
        prop_assert_eq!(threaded.pending_messages(), 0);
        let (a, b) = (threaded.stats(), sim.stats());
        prop_assert_eq!(
            (a.messages, a.payload_bytes, a.wire_bytes, a.bound_messages, a.unbound_messages),
            (b.messages, b.payload_bytes, b.wire_bytes, b.bound_messages, b.unbound_messages)
        );
        prop_assert_eq!((a.sent_by, a.received_by), (b.sent_by, b.received_by));
    }

    // Fixed seed => identical virtual-time delivery schedule in the sim,
    // run-to-run.
    #[test]
    fn sim_fault_schedule_is_reproducible(
        plan in arb_plan(),
        sizes in prop::collection::vec(1usize..40, 1..12),
    ) {
        let run = || -> Vec<(i64, u64)> {
            let mut net = SimNet::with_faults(
                2,
                CostModel::default_1993(),
                Topology::Uniform,
                plan.clone(),
            );
            for (i, &len) in sizes.iter().enumerate() {
                net.post_send(msg(i as i64, 0, len), None, 0.0);
            }
            (0..sizes.len())
                .map(|i| {
                    let c = net
                        .post_recv(msg(i as i64, 0, 1).tag, 1, 0.0, i as u64 + 1)
                        .expect("converges");
                    (c.msg.tag.salt, c.arrive_at.to_bits())
                })
                .collect()
        };
        prop_assert_eq!(run(), run());
    }
}
