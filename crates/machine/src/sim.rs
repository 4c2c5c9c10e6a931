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
use crate::faults::Faults;
use crate::stats::NetStats;
use crate::topo::Topology;
use std::collections::HashMap;
use xdp_fault::{FaultEvent, FaultPlan, FaultStats};
use xdp_runtime::{Msg, Tag, REDIST_SALT_FLOOR};

/// A posted, not-yet-matched send.
#[derive(Clone, Debug)]
struct SendPost {
    msg: Msg,
    /// Explicit destination pids (`E -> S`) or `None` for `E ->`.
    dest: Option<Vec<usize>>,
    time: f64,
    seq: u64,
    /// Extra transit latency from injected faults (retry backoff + delay);
    /// 0 on a fault-free net. Charged to the wire interval, so the
    /// critical-path analyzer attributes retry time rather than losing it.
    extra: f64,
}

/// A message permanently lost under fault injection: every transmission
/// attempt was dropped. Both nets keep these dead letters, and a stuck
/// machine consults them to report a *loss* instead of a deadlock.
#[derive(Clone, Debug)]
pub struct LostMsg {
    pub tag: Tag,
    pub dest: Option<Vec<usize>>,
    pub src: usize,
    pub seq: u64,
    pub attempts: u32,
}

impl LostMsg {
    /// Could a receive for `tag` on `dst` have paired with this message?
    pub fn matches(&self, tag: &Tag, dst: usize) -> bool {
        self.tag == *tag
            && match &self.dest {
                None => true,
                Some(pids) => pids.contains(&dst),
            }
    }
}

/// A posted, not-yet-matched receive.
#[derive(Clone, Debug)]
struct RecvPost {
    dst: usize,
    time: f64,
    seq: u64,
    req_id: u64,
}

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
    sends: HashMap<Tag, Vec<SendPost>>,
    recvs: HashMap<Tag, Vec<RecvPost>>,
    seq: u64,
    faults: Faults,
    /// Live intervals of redistribution staging buffers, identified by
    /// their salt floor: `(start, end, src, dst, payload_bytes)` in
    /// virtual time. Swept by [`SimNet::redist_peak_bytes`].
    redist_spans: Vec<(f64, f64, usize, usize, u64)>,
    /// Traffic counters.
    pub stats: NetStats,
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
            sends: HashMap::new(),
            recvs: HashMap::new(),
            seq: 0,
            faults: Faults::new(plan),
            redist_spans: Vec::new(),
            stats: NetStats::new(nprocs),
        }
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Post a send at virtual `time` on the sending processor. Returns the
    /// completion if a matching receive was already waiting.
    pub fn post_send(
        &mut self,
        msg: Msg,
        dest: Option<Vec<usize>>,
        time: f64,
    ) -> Option<Completion> {
        // A reorder or a duplicate is only counted: pairs are picked by
        // post time, and the matcher consumes each send once.
        let Some((extra, _)) = self.faults.settle(&msg, &dest, |rel| time + rel) else {
            return None; // permanently lost: never enters the matcher
        };
        let seq = self.next_seq();
        let post = SendPost {
            msg,
            dest,
            time,
            seq,
            extra,
        };
        // Earliest eligible receive.
        let eligible = |r: &RecvPost, d: &Option<Vec<usize>>| match d {
            None => true,
            Some(pids) => pids.contains(&r.dst),
        };
        let waiting = self.recvs.get_mut(&post.msg.tag);
        let pick = waiting.as_ref().and_then(|q| {
            q.iter()
                .enumerate()
                .filter(|(_, r)| eligible(r, &post.dest))
                .min_by(|(_, a), (_, b)| (a.time, a.seq).partial_cmp(&(b.time, b.seq)).unwrap())
                .map(|(i, _)| i)
        });
        if let (Some(i), Some(q)) = (pick, waiting) {
            let recv = q.remove(i);
            return Some(self.complete(post, recv));
        }
        // The tag is cloned only for a name no send is queued under.
        match self.sends.get_mut(&post.msg.tag) {
            Some(q) => q.push(post),
            None => {
                self.sends.insert(post.msg.tag.clone(), vec![post]);
            }
        }
        None
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
        let seq = self.next_seq();
        let recv = RecvPost {
            dst,
            time,
            seq,
            req_id,
        };
        let pick = self.sends.get(&tag).and_then(|q| {
            q.iter()
                .enumerate()
                .filter(|(_, s)| match &s.dest {
                    None => true,
                    Some(pids) => pids.contains(&dst),
                })
                .min_by(|(_, a), (_, b)| (a.time, a.seq).partial_cmp(&(b.time, b.seq)).unwrap())
                .map(|(i, _)| i)
        });
        match pick {
            Some(i) => {
                let send = self.sends.get_mut(&tag).unwrap().remove(i);
                Some(self.complete(send, recv))
            }
            None => {
                self.recvs.entry(tag).or_default().push(recv);
                None
            }
        }
    }

    fn complete(&mut self, send: SendPost, recv: RecvPost) -> Completion {
        let bound = send.dest.is_some();
        let wire = if bound {
            send.msg.payload_bytes()
        } else {
            send.msg.size_bytes()
        };
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
        self.stats.record(
            send.msg.src,
            recv.dst,
            send.msg.payload_bytes(),
            wire,
            bound,
        );
        if send.msg.tag.salt >= REDIST_SALT_FLOOR && send.msg.src != recv.dst {
            // Redistribution staging buffer: live on both endpoints from
            // the send post until the receiver has finished handling it.
            let end = arrive_at.max(recv.time) + handling;
            self.redist_spans.push((
                send.time,
                end,
                send.msg.src,
                recv.dst,
                send.msg.payload_bytes(),
            ));
        }
        Completion {
            req_id: recv.req_id,
            dst: recv.dst,
            sent_at: send.time,
            msg: send.msg,
            arrive_at,
            handling,
        }
    }

    /// Measured redistribution-staging high-water mark: the maximum, over
    /// processors and virtual time, of live redistribution payload bytes
    /// (messages whose tag salt is at or above
    /// [`xdp_runtime::REDIST_SALT_FLOOR`]). A message's bytes are charged
    /// to both endpoints for its whole live interval — send post through
    /// receive completion — matching the planner's accounting. Sweeps the
    /// recorded spans per processor; at equal timestamps releases apply
    /// before acquisitions, so back-to-back rounds don't double-charge.
    pub fn redist_peak_bytes(&self) -> u64 {
        let mut peak = 0u64;
        let mut events: Vec<(f64, bool, u64)> = Vec::new();
        for p in 0..self.stats.sent_by.len() {
            events.clear();
            for &(start, end, src, dst, bytes) in &self.redist_spans {
                if src == p || dst == p {
                    events.push((start, true, bytes));
                    events.push((end, false, bytes));
                }
            }
            // Sort by time; at ties, ends (false < true) come first.
            events.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
            let mut live = 0u64;
            for &(_, is_start, bytes) in events.iter() {
                if is_start {
                    live += bytes;
                    peak = peak.max(live);
                } else {
                    live = live.saturating_sub(bytes);
                }
            }
        }
        peak
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
        (
            self.sends.values().map(|v| v.len()).sum(),
            self.recvs.values().map(|v| v.len()).sum(),
        )
    }

    /// Human-readable description of unmatched posts.
    pub fn pending_detail(&self) -> String {
        let mut out = String::new();
        for (tag, q) in &self.sends {
            for s in q {
                out.push_str(&format!(
                    "  unmatched send {tag} from p{} at t={}\n",
                    s.msg.src, s.time
                ));
            }
        }
        for (tag, q) in &self.recvs {
            for r in q {
                out.push_str(&format!(
                    "  unmatched recv {tag} on p{} at t={}\n",
                    r.dst, r.time
                ));
            }
        }
        out
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
        assert!(n.post_send(msg(0, 0), Some(vec![2]), 0.0).is_none());
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
        assert_eq!(faulty.stats.messages, clean.stats.messages);
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
        n.post_send(msg(1, 2), Some(vec![3]), 0.0);
        n.post_recv(tag(1), 3, 0.0, 2).unwrap();
        assert_eq!(n.stats.messages, 2);
        assert_eq!(n.stats.unbound_messages, 1);
        assert_eq!(n.stats.bound_messages, 1);
        assert_eq!(n.stats.payload_bytes, 64);
        assert_eq!(n.stats.wire_bytes, 64 + 32); // header only on unbound
        assert_eq!(n.stats.sent_by, vec![1, 0, 1, 0]);
        assert_eq!(n.stats.received_by, vec![0, 1, 0, 1]);
    }
}
