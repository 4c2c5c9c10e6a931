//! The deterministic virtual-time network.
//!
//! XDP's communication is a rendezvous on the transferred section's *name*:
//! a send with unspecified destination pairs with whichever processor posts
//! a matching receive ("It is legal to have several processors initiate
//! receive statements for the same section concurrently", §2.7). [`SimNet`]
//! implements that matching over virtual time:
//!
//! * sends and receives are posted with the posting processor's virtual
//!   clock;
//! * a pair is matched as soon as both sides are present, earliest virtual
//!   post time first (sequence numbers break ties deterministically);
//! * the receive's completion time is computed analytically:
//!   `max(send_time + wire_time, recv_time) + cpu_overhead
//!   (+ match_overhead if the message carried its name)`.
//!
//! Because completion times are pure functions of post times, the whole
//! simulation is reproducible bit-for-bit regardless of host scheduling.

use crate::cost::CostModel;
use crate::faults::{Faults, LostMsg};
use crate::pool::{Pool, RecvPost, SendPost};
use crate::stats::NetStats;
use crate::topo::Topology;
use xdp_fault::{FaultEvent, FaultPlan, FaultStats};
use xdp_runtime::{Msg, Tag};

/// A matched receive: delivered message plus its timing.
///
/// `arrive_at` is when the message is available at the receiver;
/// `handling` is the receiver-CPU cost of completing it (the LogP `o`,
/// plus the matcher lookup for name-carrying messages, plus the
/// eager-protocol extra copy when the message arrived *unexpected*). The
/// executor charges `handling` to the receiving processor's clock at the
/// moment the completion is applied.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The request id the receiver supplied at post time.
    pub req_id: u64,
    /// Receiving processor.
    pub dst: usize,
    /// The delivered message.
    pub msg: Msg,
    /// Virtual time at which the sender posted the message — the start of
    /// the wire-transit interval (trace exports and critical-path
    /// analysis follow this happens-before edge).
    pub sent_at: f64,
    /// Virtual time at which the message is available on `dst`.
    pub arrive_at: f64,
    /// Receiver-CPU time to complete the receive.
    pub handling: f64,
}

/// The simulated network and matcher.
#[derive(Clone, Debug)]
pub struct SimNet {
    model: CostModel,
    topo: Topology,
    pool: Pool,
    faults: Faults,
}

impl SimNet {
    /// A fault-free network of `nprocs` processors.
    pub fn new(nprocs: usize, model: CostModel, topo: Topology) -> SimNet {
        SimNet::with_faults(nprocs, model, topo, FaultPlan::none())
    }

    /// A network of `nprocs` processors with injected faults.
    ///
    /// Virtual time is analytic, so the whole retry chain is resolved at
    /// post time: the first non-dropped attempt's cumulative backoff (plus
    /// any injected delay) is added to the message's transit latency;
    /// duplicates are counted and suppressed analytically (rendezvous
    /// matching consumes each send exactly once, so a duplicate can never
    /// double-deliver here); a message whose every attempt drops is
    /// recorded in [`SimNet::lost`] instead of being posted. Plan time
    /// quantities (`rto`, `delay`) are virtual time units.
    pub fn with_faults(nprocs: usize, model: CostModel, topo: Topology, plan: FaultPlan) -> SimNet {
        SimNet {
            model,
            topo,
            pool: Pool::new(nprocs),
            faults: Faults::new(plan),
        }
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Post a send at virtual `time` on the sending processor. Returns the
    /// completion if a matching receive was already waiting.
    pub fn post_send(&mut self, msg: Msg, dest: Option<usize>, time: f64) -> Option<Completion> {
        // A reorder or a duplicate is only counted: pairs are picked by
        // post time, and the matcher consumes each send once.
        let Some((extra, _)) = self.faults.settle(&msg, dest, |rel| time + rel) else {
            return None; // permanently lost: never enters the matcher
        };
        let send = SendPost {
            msg,
            dest,
            time,
            extra,
        };
        let seq = self.pool.tick();
        let (send, recv) = self.pool.post_send(seq, send, false)?;
        Some(self.complete(send, recv))
    }

    /// Post a receive for `tag` at virtual `time` on processor `dst`.
    /// Returns the completion if a matching send was already posted.
    pub fn post_recv(
        &mut self,
        tag: Tag,
        dst: usize,
        time: f64,
        req_id: u64,
    ) -> Option<Completion> {
        let recv = RecvPost { dst, time, req_id };
        let seq = self.pool.tick();
        let (send, recv) = self.pool.post_recv(seq, tag, recv)?;
        Some(self.complete(send, recv))
    }

    fn complete(&mut self, send: SendPost, recv: RecvPost) -> Completion {
        let bound = send.dest.is_some();
        let wire = send.wire();
        let link = self.topo.link(send.msg.src, recv.dst);
        let arrive_at = send.time + send.extra + self.model.link_time(wire, link);
        let mut handling = self.model.cpu_overhead;
        if !bound {
            handling += self.model.match_overhead;
        }
        if arrive_at < recv.time && self.model.unexpected_overhead > 0.0 {
            // Unexpected message under an eager protocol: it sat in the
            // system buffer and costs an extra copy at match time.
            // Preposted receives avoid this (§3.2's motivation for
            // hoisting receives). `unexpected_overhead == 0` models a
            // rendezvous protocol with no buffering copy at all.
            handling += self.model.unexpected_overhead + self.model.beta * wire as f64;
        }
        // A redistribution's staging buffer is live on both endpoints from
        // the send post until the receiver has finished handling it.
        let end = arrive_at.max(recv.time) + handling;
        self.pool.record(&send, recv.dst, end);
        Completion {
            req_id: recv.req_id,
            dst: recv.dst,
            sent_at: send.time,
            msg: send.msg,
            arrive_at,
            handling,
        }
    }

    /// Traffic counters. `redist_peak_bytes` charges a redistribution
    /// message's bytes to both endpoints from its send post through its
    /// receive's completion, in virtual time — the planner's accounting.
    pub fn stats(&self) -> NetStats {
        self.pool.stats()
    }

    /// Messages permanently lost to injected faults (dead letters).
    pub fn lost(&self) -> &[LostMsg] {
        &self.faults.dead
    }

    /// Snapshot of fault/delivery counters (all zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Timestamped fault events (virtual time).
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.faults.events
    }

    /// Numbers of unmatched sends and receives (for deadlock diagnosis).
    pub fn pending(&self) -> (usize, usize) {
        self.pool.pending()
    }

    /// Human-readable description of unmatched posts, one line each, by
    /// name, then in post order.
    pub fn pending_detail(&self) -> String {
        self.pool.pending_detail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::{ElemType, Section, TransferKind, Triplet, VarId};
    use xdp_runtime::Buffer;

    fn tag(v: u32) -> Tag {
        Tag::new(VarId(v), Section::new(vec![Triplet::range(1, 4)]))
    }

    fn msg(v: u32, src: usize) -> Msg {
        Msg {
            tag: tag(v),
            kind: TransferKind::Value,
            payload: Some(std::sync::Arc::new(Buffer::zeros(ElemType::F64, 4))),
            src,
        }
    }

    fn net() -> SimNet {
        SimNet::new(4, CostModel::default_1993(), Topology::Uniform)
    }

    #[test]
    fn send_then_recv_matches() {
        let mut n = net();
        assert!(n.post_send(msg(0, 0), None, 10.0).is_none());
        let c = n.post_recv(tag(0), 1, 50.0, 7).expect("match");
        assert_eq!(c.req_id, 7);
        assert_eq!(c.dst, 1);
        // arrive = 10 + (100 + 0.1*(32+8+24)) = 116.4; receive was posted
        // before arrival, so handling = o + match = 12.
        assert!((c.arrive_at - 116.4).abs() < 1e-9, "{}", c.arrive_at);
        assert!((c.handling - 12.0).abs() < 1e-9, "{}", c.handling);
        assert_eq!(n.pending(), (0, 0));
    }

    #[test]
    fn recv_then_send_matches() {
        let mut n = net();
        assert!(n.post_recv(tag(0), 2, 5.0, 1).is_none());
        let c = n.post_send(msg(0, 0), None, 200.0).expect("match");
        assert_eq!(c.dst, 2);
        // Receiver waited: the message arrives after the wire.
        assert!(c.arrive_at > 300.0);
    }

    #[test]
    fn late_receiver_pays_no_wire_wait() {
        let mut n = net();
        n.post_send(msg(0, 0), None, 0.0);
        let c = n.post_recv(tag(0), 1, 10_000.0, 1).unwrap();
        // Message long since arrived: it was *unexpected*, so handling
        // includes the eager-protocol copy (5 + 0.1 * 64 wire bytes).
        assert!((c.arrive_at - 106.4).abs() < 1e-9, "{}", c.arrive_at);
        assert!(
            (c.handling - (12.0 + 5.0 + 6.4)).abs() < 1e-9,
            "{}",
            c.handling
        );
    }

    #[test]
    fn bound_send_only_matches_listed_destination() {
        let mut n = net();
        assert!(n.post_send(msg(0, 0), Some(2), 0.0).is_none());
        // P1's receive does not match a send bound to P2.
        assert!(n.post_recv(tag(0), 1, 0.0, 1).is_none());
        let c = n.post_recv(tag(0), 2, 0.0, 2).expect("match");
        assert_eq!(c.dst, 2);
        // The bound message pays no name header and no match overhead:
        // arrives at 100 + 0.1*32 = 103.2; handling is the bare o = 10.
        assert!((c.arrive_at - 103.2).abs() < 1e-9, "{}", c.arrive_at);
        assert!((c.handling - 10.0).abs() < 1e-9, "{}", c.handling);
        // P1's receive still pending.
        assert_eq!(n.pending(), (0, 1));
    }

    #[test]
    fn fifo_matching_among_multiple_outstanding() {
        // Two sends on one tag, two receives: earliest send pairs with
        // earliest receive — the §2.7 task-farm pattern.
        let mut n = net();
        n.post_send(msg(0, 0), None, 0.0);
        n.post_send(msg(0, 1), None, 5.0);
        let c1 = n.post_recv(tag(0), 2, 1.0, 11).unwrap();
        assert_eq!(c1.msg.src, 0, "earliest send first");
        let c2 = n.post_recv(tag(0), 3, 1.0, 12).unwrap();
        assert_eq!(c2.msg.src, 1);
    }

    #[test]
    fn earliest_receiver_wins() {
        let mut n = net();
        n.post_recv(tag(0), 3, 7.0, 31);
        n.post_recv(tag(0), 1, 2.0, 11);
        let c = n.post_send(msg(0, 0), None, 10.0).unwrap();
        assert_eq!(c.dst, 1, "earlier-posted receive matches first");
        assert_eq!(n.pending(), (0, 1));
    }

    #[test]
    fn tags_do_not_cross_match() {
        let mut n = net();
        n.post_send(msg(0, 0), None, 0.0);
        assert!(n.post_recv(tag(1), 1, 0.0, 1).is_none());
        assert_eq!(n.pending(), (1, 1));
        assert!(n.pending_detail().contains("unmatched send"));
        assert!(n.pending_detail().contains("unmatched recv"));
    }

    /// A deadlock's listing is the same on every run: by name, then in
    /// post order, whatever the order the names were first posted in.
    #[test]
    fn pending_posts_are_listed_by_name_then_post_order() {
        let mut n = net();
        n.post_recv(tag(2), 3, 4.0, 1);
        n.post_send(msg(1, 0), Some(2), 5.0);
        n.post_recv(tag(0), 1, 6.0, 2);
        n.post_send(msg(2, 1), Some(0), 1.0);
        n.post_send(msg(1, 3), None, 2.0);
        n.post_recv(tag(0), 2, 3.0, 3);
        assert_eq!(n.pending(), (3, 3));
        let want = [
            "  unmatched recv v0[1:4] on p1 at t=6",
            "  unmatched recv v0[1:4] on p2 at t=3",
            "  unmatched send v1[1:4] from p0 at t=5",
            "  unmatched send v1[1:4] from p3 at t=2",
            "  unmatched recv v2[1:4] on p3 at t=4",
            "  unmatched send v2[1:4] from p1 at t=1",
        ];
        assert_eq!(n.pending_detail(), want.map(|l| format!("{l}\n")).concat());
    }

    #[test]
    fn topology_affects_completion() {
        let mut near = SimNet::new(4, CostModel::default_1993(), Topology::Linear);
        let mut far = SimNet::new(4, CostModel::default_1993(), Topology::Linear);
        near.post_send(msg(0, 0), None, 0.0);
        far.post_send(msg(0, 0), None, 0.0);
        let c_near = near.post_recv(tag(0), 1, 0.0, 1).unwrap();
        let c_far = far.post_recv(tag(0), 3, 0.0, 1).unwrap();
        assert!(c_far.arrive_at > c_near.arrive_at);
    }

    #[test]
    fn faulty_sim_delays_but_delivers() {
        use xdp_fault::LinkFault;
        let mut plan = FaultPlan::uniform(
            3,
            LinkFault {
                drop: 0.5,
                ..LinkFault::default()
            },
        );
        plan.rto = 50.0;
        let mut faulty = SimNet::with_faults(4, CostModel::default_1993(), Topology::Uniform, plan);
        let mut clean = net();
        for k in 0..20 {
            faulty.post_send(msg(0, 0), None, k as f64);
            clean.post_send(msg(0, 0), None, k as f64);
        }
        let mut extra_total = 0.0;
        for k in 0..20 {
            let cf = faulty
                .post_recv(tag(0), 1, 1e6, k)
                .expect("retries deliver");
            let cc = clean.post_recv(tag(0), 1, 1e6, k).expect("clean");
            assert_eq!(cf.msg, cc.msg, "payloads identical under faults");
            assert!(cf.arrive_at >= cc.arrive_at, "faults never speed delivery");
            extra_total += cf.arrive_at - cc.arrive_at;
        }
        let f = faulty.fault_stats();
        assert!(f.injected_drops > 0, "50% drop plan injected nothing");
        assert_eq!(f.retries, f.injected_drops);
        assert!(extra_total > 0.0, "retries must cost virtual time");
        assert_eq!(faulty.stats().messages, clean.stats().messages);
        assert!(faulty.lost().is_empty());
    }

    #[test]
    fn killed_message_becomes_dead_letter_not_match() {
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1));
        plan.max_retries = 2;
        let mut n = SimNet::with_faults(4, CostModel::default_1993(), Topology::Uniform, plan);
        assert!(n.post_send(msg(0, 0), None, 0.0).is_none());
        assert!(
            n.post_recv(tag(0), 1, 10.0, 1).is_none(),
            "lost send never matches"
        );
        assert_eq!(n.lost().len(), 1);
        let dl = &n.lost()[0];
        assert!(dl.matches(&tag(0), 1));
        assert!(!dl.matches(&tag(1), 1));
        assert_eq!(dl.attempts, 3);
        assert_eq!(n.fault_stats().lost, 1);
        assert_eq!(n.pending(), (0, 1), "only the receive is left unmatched");
    }

    #[test]
    fn sim_fault_replay_is_deterministic() {
        use xdp_fault::LinkFault;
        let run = || {
            let plan = FaultPlan::uniform(
                99,
                LinkFault {
                    drop: 0.3,
                    dup: 0.3,
                    reorder: 0.3,
                    delay_p: 0.3,
                    delay: 40.0,
                },
            );
            let mut n = SimNet::with_faults(2, CostModel::default_1993(), Topology::Uniform, plan);
            let mut arrivals = Vec::new();
            for k in 0..25 {
                n.post_send(msg(0, 0), None, k as f64);
            }
            for k in 0..25 {
                arrivals.push(n.post_recv(tag(0), 1, 1e6, k).unwrap().arrive_at);
            }
            (arrivals, n.fault_stats())
        };
        let (a1, s1) = run();
        let (a2, s2) = run();
        assert_eq!(a1, a2, "virtual arrival times must replay exactly");
        assert_eq!(s1, s2);
        assert!(s1.any_injected());
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        n.post_send(msg(0, 0), None, 0.0);
        n.post_recv(tag(0), 1, 0.0, 1).unwrap();
        n.post_send(msg(1, 2), Some(3), 0.0);
        n.post_recv(tag(1), 3, 0.0, 2).unwrap();
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.unbound_messages, 1);
        assert_eq!(s.bound_messages, 1);
        assert_eq!(s.payload_bytes, 64);
        assert_eq!(s.wire_bytes, 64 + 32); // header only on unbound
        assert_eq!(s.sent_by, vec![1, 0, 1, 0]);
        assert_eq!(s.received_by, vec![0, 1, 0, 1]);
    }
}
