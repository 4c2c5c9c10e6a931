//! The real-parallel matcher: rendezvous matching through a shared,
//! lock-protected pool. The task machine (`xdp_core::AsyncExec`) runs
//! every processor as a cooperative task over a few worker threads, and
//! posts its receives here as `SimExec` does on `SimNet`
//! ([`ThreadNet::post_recv`]): whichever half of a pair is posted second
//! pairs it, and the pair waits in the receiver's queue until the
//! receiver takes it ([`ThreadNet::take`]). A receiver with nothing to
//! take parks, and the send that pairs one of its receives returns its
//! pid to be woken. A blocking `recv` with a timeout remains for callers
//! that own a thread; it claims a queued send and posts nothing.
//!
//! Pairing is the pool's ([`crate::pool`]), as on [`crate::sim::SimNet`],
//! with the pool's lock-order tick for a post's time: messages pair with
//! receives by exact name; unspecified-destination messages go to the
//! earliest posted receive; destination-bound messages only to the pid
//! they name. The benchmark's `exec-comm-tasks` workload runs on this
//! backend; correctness tests assert its final state equals the
//! simulator's.
//!
//! # Injected faults
//!
//! With an active [`FaultPlan`], each send gets a per-sender sequence
//! number, and its whole fate is settled under the pool lock by
//! [`xdp_fault::Injector::fate`], as on `SimNet`: the same `(src,
//! seq)` meets the same drops, retries, duplicate, reorder and delay on
//! both machines, so their [`FaultStats`] and dead letters agree.
//!
//! * A message whose every attempt drops is a dead letter at once (a
//!   [`LostMsg`], as on the simulator, listed by [`ThreadNet::lost`]);
//!   it never enters the pool, so quiescence sees the loss without waiting.
//! * A duplicate is counted and suppressed: a message pairs once.
//! * A reordered message jumps ahead of its name's queue.
//! * A delay, and the backoff of dropped attempts, are counted and the
//!   message enters the pool at its send. `SimNet` pairs a send with a
//!   receive by post time, so a delay changes no match there either.
//!
//! No timer runs: nothing in the pool waits on a clock.

use crate::faults::{Faults, LostMsg};
use crate::pool::{Pair, Pool, RecvPost, SendPost};
use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdp_fault::{FaultEvent, FaultPlan, FaultStats};
use xdp_runtime::{Msg, Tag};

/// The pool (its times lock-order ticks), the fault record, and each
/// pid's paired receives and park flag, under one lock.
struct State {
    pool: Pool,
    faults: Faults,
    /// Each pid's receives paired and not yet taken: request id and send.
    inbox: Vec<Vec<(u64, SendPost)>>,
    /// Is the pid parked: waiting for a pair, to be woken by the send
    /// that makes one?
    parked: Vec<bool>,
}

struct Inner {
    state: Mutex<State>,
    cond: Condvar,
    /// Stamps fault events in wall µs since the net was made.
    epoch: Instant,
    /// Receives paired for each pid: what [`ThreadNet::paired`] reads
    /// without the lock.
    paired: Vec<AtomicU64>,
}

impl Inner {
    /// Put a pair in its receiver's queue. Returns the receiver's pid if
    /// it is parked, unparked now, for the caller to wake.
    fn hold(&self, st: &mut State, (send, recv): Pair) -> Option<usize> {
        let pid = recv.dst;
        st.inbox[pid].push((recv.req_id, send));
        // Counted under the lock, so a receiver that reads the new count
        // takes after the pair is queued.
        self.paired[pid].fetch_add(1, Ordering::Release);
        std::mem::take(&mut st.parked[pid]).then_some(pid)
    }
}

/// A cloneable handle to the shared network.
#[derive(Clone)]
pub struct ThreadNet {
    inner: Arc<Inner>,
}

impl ThreadNet {
    /// A reliable (fault-free) network for `nprocs` processors.
    pub fn new(nprocs: usize) -> ThreadNet {
        ThreadNet::with_faults(nprocs, FaultPlan::none())
    }

    /// A network for `nprocs` processors with injected faults. An inactive
    /// plan bypasses injection entirely (identical to [`new`]).
    ///
    /// Each message's fate is settled at its send (see the module docs);
    /// plan time quantities (`rto`, `delay`) never make a message wait
    /// here.
    ///
    /// [`new`]: ThreadNet::new
    pub fn with_faults(nprocs: usize, plan: FaultPlan) -> ThreadNet {
        ThreadNet {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    pool: Pool::new(nprocs),
                    faults: Faults::new(plan),
                    inbox: vec![Vec::new(); nprocs],
                    parked: vec![false; nprocs],
                }),
                cond: Condvar::new(),
                epoch: Instant::now(),
                paired: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// Post a message (non-blocking: XDP sends are initiations): pair it
    /// with the earliest posted receive it may reach, or queue it. Returns
    /// the paired receiver's pid if that pid is parked, for the caller to
    /// wake. A message lost to an injected fault wakes nobody.
    pub fn send(&self, msg: Msg, dest: Option<usize>) -> Option<usize> {
        let mut st = self.inner.state.lock();
        let at_send = |_| self.inner.epoch.elapsed().as_secs_f64() * 1e6;
        let (_, reorder) = st.faults.settle(&msg, dest, at_send)?;
        let now = st.pool.tick();
        let send = SendPost {
            msg,
            dest,
            time: now as f64,
            extra: 0.0,
        };
        let woken = match st.pool.post_send(now, send, reorder) {
            Some(pair) => self.inner.hold(&mut st, pair),
            None => None,
        };
        drop(st);
        self.inner.cond.notify_all();
        woken
    }

    /// Post receive `req_id` of `tag` on `pid`: pair it with the earliest
    /// queued send that may reach it, into `pid`'s queue, or wait for one.
    pub fn post_recv(&self, tag: Tag, pid: usize, req_id: u64) {
        let mut st = self.inner.state.lock();
        let now = st.pool.tick();
        let recv = RecvPost {
            dst: pid,
            time: now as f64,
            req_id,
        };
        if let Some(pair) = st.pool.post_recv(now, tag, recv) {
            // The poster is running, so it is not parked.
            self.inner.hold(&mut st, pair);
        }
    }

    /// How many receives have been paired for `pid`: a count that only
    /// grows, bumped under the pool's lock by each pair. A receiver that
    /// read it before its last [`take`](ThreadNet::take) and finds it
    /// unchanged has nothing new to take.
    pub fn paired(&self, pid: usize) -> u64 {
        self.inner.paired[pid].load(Ordering::Acquire)
    }

    /// Take `pid`'s paired receives, each request id with its message,
    /// into `out`, in pairing order. With `park` and nothing to take,
    /// park `pid` instead: the send that pairs one of its receives returns
    /// it. Both happen under the lock a send takes, so no pair falls
    /// between an empty take and the park.
    pub fn take(&self, pid: usize, park: bool, out: &mut Vec<(u64, Msg)>) {
        let mut guard = self.inner.state.lock();
        let st = &mut *guard;
        if st.inbox[pid].is_empty() {
            st.parked[pid] |= park;
            return;
        }
        let now = st.pool.tick() as f64;
        for (req, send) in st.inbox[pid].drain(..) {
            st.pool.record(&send, pid, now);
            out.push((req, send.msg));
        }
    }

    /// Claim the first eligible queued message with this name; blocks
    /// until one arrives or `timeout` elapses, and is `None` then, whether
    /// the message is not sent yet, never sent or dead-lettered ([`lost`]
    /// lists those).
    ///
    /// The deadline is fixed at entry: spurious or unrelated condvar
    /// wakeups never extend the wait. A poll — a zero timeout — reads no
    /// clock.
    ///
    /// [`lost`]: ThreadNet::lost
    pub fn recv(&self, tag: &Tag, self_pid: usize, timeout: Duration) -> Option<Msg> {
        let mut st = self.inner.state.lock();
        let deadline = (!timeout.is_zero()).then(|| Instant::now() + timeout);
        loop {
            if let Some(send) = st.pool.claim(tag, self_pid) {
                let now = st.pool.tick() as f64;
                st.pool.record(&send, self_pid, now);
                return Some(send.msg);
            }
            let left = deadline?.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.inner.cond.wait_for(&mut st, left);
        }
    }

    /// Snapshot of traffic counters. `redist_peak_bytes` charges a
    /// redistribution message's bytes to both endpoints from its send to
    /// its take, in the pool's lock order.
    pub fn stats(&self) -> NetStats {
        self.inner.state.lock().pool.stats()
    }

    /// Snapshot of fault/delivery counters (all zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.state.lock().faults.stats
    }

    /// Fault events, each stamped with its send's wall µs since net
    /// creation.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.inner.state.lock().faults.events.clone()
    }

    /// Count of unpaired messages (diagnostics).
    pub fn pending_messages(&self) -> usize {
        self.inner.state.lock().pool.pending().0
    }

    /// Messages permanently lost to injected faults (dead letters).
    pub fn lost(&self) -> Vec<LostMsg> {
        self.inner.state.lock().faults.dead.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use xdp_fault::LinkFault;
    use xdp_ir::{ElemType, Section, TransferKind, Triplet, VarId};
    use xdp_runtime::Buffer;

    fn tag(v: u32) -> Tag {
        Tag::new(VarId(v), Section::new(vec![Triplet::range(1, 2)]))
    }

    fn msg(v: u32, src: usize) -> Msg {
        Msg {
            tag: tag(v),
            kind: TransferKind::Value,
            payload: Some(std::sync::Arc::new(Buffer::zeros(ElemType::F64, 2))),
            src,
        }
    }

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn send_then_recv() {
        let net = ThreadNet::new(2);
        net.send(msg(0, 0), None);
        let got = net.recv(&tag(0), 1, T).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(net.pending_messages(), 0);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn payload_is_shared_not_copied() {
        // The claimed message's payload is the *same* allocation the
        // sender handed over — queueing, retry bookkeeping, and claiming
        // only clone the `Arc` — while the byte counters still charge the
        // full logical payload size per delivery.
        let net = ThreadNet::new(2);
        let m = msg(0, 0);
        let sent = m.payload.clone().unwrap();
        let logical = m.payload_bytes();
        net.send(m, Some(1));
        let got = net.recv(&tag(0), 1, T).unwrap();
        assert!(std::sync::Arc::ptr_eq(&sent, got.payload.as_ref().unwrap()));
        let stats = net.stats();
        assert_eq!(stats.payload_bytes, logical);
        assert_eq!(stats.wire_bytes, logical, "bound send travels payload-only");
    }

    #[test]
    fn dup_faults_share_one_payload_and_count_bytes_once() {
        // A duplicated message is suppressed at its send and claimed once,
        // sharing the sender's buffer, so payload byte accounting is
        // unchanged from a fault-free run.
        let plan = FaultPlan::uniform(
            11,
            LinkFault {
                dup: 1.0,
                ..LinkFault::default()
            },
        );
        let net = ThreadNet::with_faults(2, plan);
        let m = msg(0, 0);
        let sent = m.payload.clone().unwrap();
        let logical = m.payload_bytes();
        net.send(m, Some(1));
        let got = net.recv(&tag(0), 1, T).unwrap();
        assert!(std::sync::Arc::ptr_eq(&sent, got.payload.as_ref().unwrap()));
        assert!(net.fault_stats().injected_dups > 0);
        let stats = net.stats();
        assert_eq!(stats.messages, 1, "dedup claims one delivery");
        assert_eq!(stats.payload_bytes, logical);
    }

    #[test]
    fn recv_blocks_until_send() {
        let net = ThreadNet::new(2);
        let n2 = net.clone();
        let h = std::thread::spawn(move || n2.recv(&tag(0), 1, T).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        net.send(msg(0, 0), None);
        assert_eq!(h.join().unwrap().src, 0);
    }

    #[test]
    fn timeout_returns_none() {
        let net = ThreadNet::new(2);
        assert!(net.recv(&tag(0), 1, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn bound_messages_skip_other_pids() {
        let net = ThreadNet::new(3);
        net.send(msg(0, 0), Some(2));
        // P1 times out; P2 gets it.
        assert!(net.recv(&tag(0), 1, Duration::from_millis(10)).is_none());
        assert!(net.recv(&tag(0), 2, T).is_some());
    }

    #[test]
    fn farm_claims_are_exclusive() {
        // 8 task messages, 3 claiming workers: each message claimed once.
        let net = ThreadNet::new(4);
        for k in 0..8 {
            net.send(msg(0, 0), None);
            let _ = k;
        }
        let mut handles = Vec::new();
        for w in 1..4 {
            let n = net.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0;
                while n.recv(&tag(0), w, Duration::from_millis(50)).is_some() {
                    got += 1;
                }
                got
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 8);
        assert_eq!(net.pending_messages(), 0);
    }

    /// Regression: the old `recv` restarted the full timeout on every
    /// condvar wakeup, so unrelated `notify_all` traffic could extend the
    /// wait indefinitely. With the fixed deadline, a noisy notifier must
    /// not stretch the wait past 2x the configured timeout.
    #[test]
    fn noisy_notifier_does_not_extend_timeout() {
        let net = ThreadNet::new(2);
        let stop = Arc::new(AtomicBool::new(false));
        let noisy = {
            let net = net.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                // Hammer the condvar with wakeups far more often than the
                // receive timeout.
                while !stop.load(Ordering::Relaxed) {
                    net.inner.cond.notify_all();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let timeout = Duration::from_millis(60);
        let start = Instant::now();
        let got = net.recv(&tag(0), 1, timeout);
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        noisy.join().unwrap();
        assert!(got.is_none());
        assert!(
            elapsed < timeout * 2,
            "noisy notifier stretched {timeout:?} recv to {elapsed:?}"
        );
    }

    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::uniform(
            seed,
            LinkFault {
                drop: 0.3,
                dup: 0.2,
                reorder: 0.3,
                delay_p: 0.3,
                delay: 300.0,
            },
        )
    }

    #[test]
    fn faulty_delivery_matches_lossless_multiset() {
        // 40 messages from 2 senders through a chaotic net: the receiver
        // must see each exactly once (payload multiset equality).
        let net = ThreadNet::with_faults(3, chaos_plan(42));
        for k in 0..20u64 {
            let mut m = msg(0, 0);
            m.payload = Some(std::sync::Arc::new(Buffer::zeros(
                ElemType::F64,
                (k + 1) as usize,
            )));
            net.send(m, None);
            let mut m = msg(0, 1);
            m.payload = Some(std::sync::Arc::new(Buffer::zeros(
                ElemType::F64,
                (k + 100) as usize,
            )));
            net.send(m, None);
        }
        let mut sizes = Vec::new();
        for _ in 0..40 {
            let m = net.recv(&tag(0), 2, T).expect("a retry delivers");
            sizes.push(m.payload.as_ref().unwrap().len());
        }
        sizes.sort_unstable();
        let want: Vec<usize> = (1..=20).chain(100..120).collect();
        assert_eq!(sizes, want);
        assert_eq!(net.stats().messages, 40, "dedup must not double-count");
        assert!(net.recv(&tag(0), 2, Duration::from_millis(20)).is_none());
    }

    /// A killed message is a dead letter at its send: it pairs with no
    /// posted receive, wakes no parked pid, never enters the pool, and the
    /// dead letter names it.
    #[test]
    fn permanent_loss_is_dead_lettered() {
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1)); // first message from p0 never arrives
        plan.max_retries = 3;
        let net = ThreadNet::with_faults(2, plan);
        net.post_recv(tag(0), 1, 1);
        assert!(taken(&net, 1, true).is_empty());
        assert_eq!(net.send(msg(0, 0), None), None);
        let lost = net.lost();
        assert_eq!(lost.len(), 1);
        assert_eq!((lost[0].src, lost[0].seq, lost[0].attempts), (0, 1, 4));
        assert_eq!(net.fault_stats().lost, 1);
        assert_eq!(net.fault_stats().retries, 3);
        assert_eq!(net.pending_messages(), 0);
        assert_eq!(net.paired(1), 0);
        assert_eq!(net.send(msg(0, 0), None), Some(1), "the second one is sent");
        assert_eq!(taken(&net, 1, false), vec![(1, 0)]);
    }

    #[test]
    fn a_message_never_sent_is_not_lost() {
        let net = ThreadNet::with_faults(2, chaos_plan(7));
        assert!(net.recv(&tag(0), 1, Duration::from_millis(30)).is_none());
        assert!(net.lost().is_empty());
        assert_eq!(net.fault_stats().lost, 0);
    }

    /// Take `pid`'s paired receives: (request id, sender) each.
    fn taken(net: &ThreadNet, pid: usize, park: bool) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        net.take(pid, park, &mut out);
        out.into_iter().map(|(req, m)| (req, m.src)).collect()
    }

    /// A send pairs with the earliest posted receive it may reach — the
    /// one on the pid it names if bound — and returns that pid only if it
    /// is parked; a receive posted after its send pairs at the post. The
    /// pairs wait in each receiver's queue, counted, until it takes them.
    #[test]
    fn a_send_wakes_the_parked_pid_it_pairs_with() {
        let net = ThreadNet::new(4);
        net.post_recv(tag(0), 1, 10);
        net.post_recv(tag(0), 2, 20);
        net.post_recv(tag(0), 2, 21);
        net.post_recv(tag(1), 3, 30);
        for pid in 1..4 {
            assert!(taken(&net, pid, true).is_empty());
        }
        assert_eq!(net.send(msg(0, 0), Some(2)), Some(2));
        assert_eq!(
            net.send(msg(1, 0), Some(1)),
            None,
            "bound to a pid not posted"
        );
        assert_eq!(net.send(msg(1, 1), None), Some(3));
        assert_eq!(net.send(msg(0, 1), None), Some(1));
        assert_eq!(net.send(msg(0, 2), None), None, "p2 was woken already");
        assert_eq!(net.send(msg(0, 3), None), None, "nothing left to pair");
        assert_eq!(net.pending_messages(), 2);
        assert_eq!((net.paired(1), net.paired(2), net.paired(3)), (1, 2, 1));
        assert_eq!(taken(&net, 2, true), vec![(20, 0), (21, 2)]);
        assert_eq!(taken(&net, 1, false), vec![(10, 1)]);
        net.post_recv(tag(1), 1, 11);
        assert_eq!(taken(&net, 1, true), vec![(11, 0)], "paired at the post");
        net.post_recv(tag(0), 1, 12);
        assert_eq!(taken(&net, 1, false), vec![(12, 3)]);
        assert_eq!(net.stats().messages, 5, "a pair is counted at its take");
        assert_eq!(taken(&net, 3, false), vec![(30, 1)]);
        assert_eq!(net.stats().messages, 6);
    }

    /// An unbound send with two posted receivers on its name pairs with
    /// the earlier one and wakes that pid alone; the other stays parked
    /// until a second send pairs with it.
    #[test]
    fn an_unbound_send_completes_one_receive_and_wakes_one_pid() {
        let net = ThreadNet::new(3);
        net.post_recv(tag(0), 2, 20);
        net.post_recv(tag(0), 1, 10);
        assert!(taken(&net, 1, true).is_empty() && taken(&net, 2, true).is_empty());
        assert_eq!(net.send(msg(0, 0), None), Some(2));
        assert_eq!((net.paired(1), net.paired(2)), (0, 1));
        assert!(taken(&net, 1, true).is_empty(), "p1 stays parked");
        assert_eq!(taken(&net, 2, false), vec![(20, 0)]);
        assert_eq!(net.send(msg(0, 0), None), Some(1));
        assert_eq!(taken(&net, 1, false), vec![(10, 0)]);
        assert_eq!(net.stats().messages, 2);
    }

    /// A delayed message enters the pool at its send: it pairs with the
    /// posted receive and wakes the parked pid at once; a take leaves the
    /// pid unparked, so the next pair wakes nobody.
    #[test]
    fn a_take_unparks_its_pid() {
        let plan = FaultPlan::uniform(
            3,
            LinkFault {
                delay_p: 1.0,
                delay: 200_000.0,
                ..LinkFault::default()
            },
        );
        let net = ThreadNet::with_faults(2, plan);
        net.post_recv(tag(0), 1, 1);
        net.post_recv(tag(0), 1, 2);
        assert!(taken(&net, 1, true).is_empty());
        assert_eq!(net.send(msg(0, 0), None), Some(1));
        assert_eq!(taken(&net, 1, true), vec![(1, 0)]);
        assert_eq!(net.send(msg(0, 0), None), None);
        assert_eq!(taken(&net, 1, false), vec![(2, 0)]);
        assert_eq!(net.fault_stats().injected_delays, 2);
    }

    /// Same plan and traffic, same fate: every counter and dead letter is
    /// a function of `(seed, src, seq)`, retries included, whatever the
    /// order the receivers claim in.
    #[test]
    fn fault_replay_is_deterministic() {
        let run = |claimers: usize| {
            let plan = FaultPlan {
                max_retries: 2,
                ..chaos_plan(1234)
            };
            let net = ThreadNet::with_faults(4, plan);
            for k in 0..60 {
                net.send(msg(0, k % 2), None);
            }
            let handles: Vec<_> = (1..=claimers)
                .map(|w| {
                    let n = net.clone();
                    std::thread::spawn(move || while n.recv(&tag(0), w + 1, T / 40).is_some() {})
                })
                .collect();
            handles.into_iter().for_each(|h| h.join().unwrap());
            let lost: Vec<_> = net.lost().iter().map(|l| (l.src, l.seq)).collect();
            (net.fault_stats(), lost, net.stats().messages)
        };
        let one = run(1);
        let f = one.0;
        assert!(f.retries > 0 && f.lost > 0 && f.injected_dups > 0, "{f:?}");
        assert!(f.injected_delays > 0 && f.injected_reorders > 0, "{f:?}");
        assert_eq!(one.2 + f.lost, 60, "every message claimed or lost");
        assert_eq!(one, run(2));
    }

    #[test]
    fn duplicates_do_not_double_deliver_across_claiming_receivers() {
        // Farm pattern under heavy duplication: total claims must equal
        // messages sent even though dup copies race between two receivers.
        let plan = FaultPlan::uniform(
            9,
            LinkFault {
                dup: 1.0,
                ..LinkFault::default()
            },
        );
        let net = ThreadNet::with_faults(3, plan);
        for _ in 0..10 {
            net.send(msg(0, 0), None);
        }
        let mut handles = Vec::new();
        for w in 1..3 {
            let n = net.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0;
                while n.recv(&tag(0), w, Duration::from_millis(60)).is_some() {
                    got += 1;
                }
                got
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10);
        let f = net.fault_stats();
        assert_eq!(f.injected_dups, 10);
        assert_eq!(f.dup_suppressed, 10);
    }
}
