//! The real-parallel backend: one OS thread per simulated processor,
//! rendezvous matching through a shared, lock-protected message pool.
//!
//! Matching semantics are those of [`crate::sim::SimNet`]: messages pair
//! with receives by exact name; unspecified-destination messages go to the
//! first claiming receiver; destination-bound messages only to a listed
//! pid. The benchmark's `exec-comm-tasks` workload runs on this backend;
//! correctness tests assert its final state equals the simulator's.
//!
//! # Reliable delivery under injected faults
//!
//! With an active [`FaultPlan`] the pool becomes an unreliable medium
//! (transmission attempts can be dropped, delayed, duplicated, reordered
//! per the plan's deterministic [`Injector`]) and the net layers an
//! ack/retry protocol on top:
//!
//! * every send gets a per-sender sequence number; `(src, seq)` is the
//!   message uid;
//! * a copy of each unacked message sits on a pending list; any receiver's
//!   wait loop retransmits entries whose retry timeout (exponential
//!   backoff) has expired — there is no dedicated timer thread;
//! * claiming a message *is* the ack (the claim happens under the pool
//!   lock, so the pending entry is removed atomically with delivery);
//! * receivers dedup by uid, so injected duplicates and crossed
//!   retransmissions are suppressed without double-delivery;
//! * a message whose every attempt was dropped is dead-lettered after
//!   `max_retries` retransmissions, and a receive that can only have been
//!   waiting for it reports [`RecvFailure::Lost`] — permanently lost is a
//!   different diagnosis from late ([`RecvFailure::Timeout`]).

use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdp_fault::{FaultEvent, FaultEventKind, FaultPlan, FaultStats, Injector, RecvFailure};
use xdp_runtime::{Msg, Tag, REDIST_SALT_FLOOR};

/// Message uid under fault injection: (sending pid, per-sender 1-based seq).
type Uid = (usize, u64);

/// If `entry` is a redistribution message bound to a single destination
/// (the only shape the redistribution lowering emits), the destination
/// pid and payload bytes to charge to its staging account.
fn redist_charge(msg: &Msg, dest: &Option<Vec<usize>>) -> Option<(usize, u64)> {
    if msg.tag.salt < REDIST_SALT_FLOOR {
        return None;
    }
    match dest {
        Some(pids) if pids.len() == 1 => Some((pids[0], msg.payload_bytes())),
        _ => None,
    }
}

/// A queued message with its optional bound destination set and, under
/// fault injection, its uid for dedup.
struct QueuedEntry {
    msg: Msg,
    dest: Option<Vec<usize>>,
    uid: Option<Uid>,
}

/// An attempt sitting out an injected delay before it reaches the pool.
struct DelayedEntry {
    entry: QueuedEntry,
    ready_at: Instant,
    reorder: bool,
}

/// An unacked message awaiting retransmission.
struct PendingEntry {
    msg: Msg,
    dest: Option<Vec<usize>>,
    seq: u64,
    /// Attempts transmitted so far (1 = original only).
    attempts: u32,
    next_retry: Instant,
}

/// A message every attempt of which was dropped.
struct DeadLetter {
    tag: Tag,
    dest: Option<Vec<usize>>,
    src: usize,
    seq: u64,
    attempts: u32,
}

struct State {
    queues: HashMap<Tag, VecDeque<QueuedEntry>>,
    delayed: Vec<DelayedEntry>,
    pending: Vec<PendingEntry>,
    dead: Vec<DeadLetter>,
    delivered: HashSet<Uid>,
    next_seq: HashMap<usize, u64>,
    /// Live redistribution staging bytes currently queued toward each
    /// destination; the running maximum is `stats.redist_peak_bytes`.
    redist_live: Vec<u64>,
    stats: NetStats,
    fstats: FaultStats,
    events: Vec<FaultEvent>,
}

impl State {
    /// A redistribution message became visible in the pool: charge its
    /// destination's staging account and advance the high-water mark.
    fn redist_acquire(&mut self, msg: &Msg, dest: &Option<Vec<usize>>) {
        if let Some((p, bytes)) = redist_charge(msg, dest) {
            self.redist_live[p] += bytes;
            self.stats.redist_peak_bytes = self.stats.redist_peak_bytes.max(self.redist_live[p]);
        }
    }

    /// A redistribution message left the pool (claimed or suppressed).
    fn redist_release(&mut self, msg: &Msg, dest: &Option<Vec<usize>>) {
        if let Some((p, bytes)) = redist_charge(msg, dest) {
            self.redist_live[p] = self.redist_live[p].saturating_sub(bytes);
        }
    }
}

struct Inner {
    state: Mutex<State>,
    cond: Condvar,
    injector: Option<Injector>,
    epoch: Instant,
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
    /// plan bypasses the delivery layer entirely (identical to [`new`]).
    ///
    /// Plan time quantities (`rto`, `delay`) are wall-clock microseconds
    /// on this backend.
    ///
    /// [`new`]: ThreadNet::new
    pub fn with_faults(nprocs: usize, plan: FaultPlan) -> ThreadNet {
        let injector = plan.is_active().then(|| Injector::new(plan));
        ThreadNet {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queues: HashMap::new(),
                    delayed: Vec::new(),
                    pending: Vec::new(),
                    dead: Vec::new(),
                    delivered: HashSet::new(),
                    next_seq: HashMap::new(),
                    redist_live: vec![0; nprocs],
                    stats: NetStats::new(nprocs),
                    fstats: FaultStats::default(),
                    events: Vec::new(),
                }),
                cond: Condvar::new(),
                injector,
                epoch: Instant::now(),
            }),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.inner.epoch).as_secs_f64() * 1e6
    }

    /// Perform one transmission attempt of `(src, seq)` under injection,
    /// recording what the injector did to it. `attempt` is 0-based.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &self,
        st: &mut State,
        inj: &Injector,
        msg: &Msg,
        dest: &Option<Vec<usize>>,
        seq: u64,
        attempt: u32,
        now: Instant,
    ) {
        let d = inj.decide(msg.src, seq, attempt);
        let t = self.micros(now);
        let event = |kind| FaultEvent {
            t,
            kind,
            src: msg.src,
            seq,
            tag: msg.tag.to_string(),
        };
        if d.drop {
            st.fstats.injected_drops += 1;
            st.events.push(event(FaultEventKind::DropInjected));
            return;
        }
        let copies = if d.dup { 2 } else { 1 };
        if d.dup {
            st.fstats.injected_dups += 1;
            st.events.push(event(FaultEventKind::DupInjected));
        }
        if d.reorder {
            st.fstats.injected_reorders += 1;
        }
        for _ in 0..copies {
            let entry = QueuedEntry {
                msg: msg.clone(),
                dest: dest.clone(),
                uid: Some((msg.src, seq)),
            };
            if d.extra_delay > 0.0 {
                st.fstats.injected_delays += 1;
                st.delayed.push(DelayedEntry {
                    entry,
                    ready_at: now + Duration::from_secs_f64(d.extra_delay * 1e-6),
                    reorder: d.reorder,
                });
            } else {
                st.redist_acquire(&entry.msg, &entry.dest);
                let q = st.queues.entry(msg.tag.clone()).or_default();
                if d.reorder {
                    q.push_front(entry);
                } else {
                    q.push_back(entry);
                }
            }
        }
    }

    /// Move delayed attempts whose time has come into the visible pool.
    /// Copies of a message that was claimed while they sat out their delay
    /// are suppressed here instead of entering the queue at all.
    fn promote_delayed(&self, st: &mut State, now: Instant) {
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].ready_at <= now {
                let DelayedEntry { entry, reorder, .. } = st.delayed.swap_remove(i);
                if let Some(uid) = entry.uid {
                    if st.delivered.contains(&uid) {
                        st.fstats.dup_suppressed += 1;
                        st.events.push(FaultEvent {
                            t: self.micros(now),
                            kind: FaultEventKind::DupSuppressed,
                            src: uid.0,
                            seq: uid.1,
                            tag: entry.msg.tag.to_string(),
                        });
                        continue;
                    }
                }
                st.redist_acquire(&entry.msg, &entry.dest);
                let q = st.queues.entry(entry.msg.tag.clone()).or_default();
                if reorder {
                    q.push_front(entry);
                } else {
                    q.push_back(entry);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Retransmit every pending entry whose retry timer expired; entries
    /// out of retries are dead-lettered. Runs inside any receiver's wait
    /// loop — the protocol needs no timer thread.
    fn sweep_retries(&self, st: &mut State, now: Instant) {
        let Some(inj) = &self.inner.injector else {
            return;
        };
        let plan = inj.plan();
        let mut i = 0;
        while i < st.pending.len() {
            if st.pending[i].next_retry > now {
                i += 1;
                continue;
            }
            if st.pending[i].attempts > plan.max_retries {
                let p = st.pending.swap_remove(i);
                st.fstats.lost += 1;
                st.events.push(FaultEvent {
                    t: self.micros(now),
                    kind: FaultEventKind::Lost {
                        attempts: p.attempts,
                    },
                    src: p.msg.src,
                    seq: p.seq,
                    tag: p.msg.tag.to_string(),
                });
                st.dead.push(DeadLetter {
                    tag: p.msg.tag,
                    dest: p.dest,
                    src: p.msg.src,
                    seq: p.seq,
                    attempts: p.attempts,
                });
                continue;
            }
            let attempt = st.pending[i].attempts; // 0-based number of this retry
            let (msg, dest, seq) = {
                let p = &st.pending[i];
                (p.msg.clone(), p.dest.clone(), p.seq)
            };
            st.fstats.retries += 1;
            st.events.push(FaultEvent {
                t: self.micros(now),
                kind: FaultEventKind::Retry { attempt },
                src: msg.src,
                seq,
                tag: msg.tag.to_string(),
            });
            self.transmit(st, inj, &msg, &dest, seq, attempt, now);
            let p = &mut st.pending[i];
            p.attempts += 1;
            p.next_retry = now + rto_after(plan, p.attempts);
            i += 1;
        }
    }

    /// Post a message (non-blocking: XDP sends are initiations).
    pub fn send(&self, msg: Msg, dest: Option<Vec<usize>>) {
        let mut st = self.inner.state.lock();
        match &self.inner.injector {
            None => {
                st.redist_acquire(&msg, &dest);
                st.queues
                    .entry(msg.tag.clone())
                    .or_default()
                    .push_back(QueuedEntry {
                        msg,
                        dest,
                        uid: None,
                    });
            }
            Some(inj) => {
                let now = Instant::now();
                let seq = {
                    let c = st.next_seq.entry(msg.src).or_insert(0);
                    *c += 1;
                    *c
                };
                self.transmit(&mut st, inj, &msg, &dest, seq, 0, now);
                let next_retry = now + rto_after(inj.plan(), 1);
                st.pending.push(PendingEntry {
                    msg,
                    dest,
                    seq,
                    attempts: 1,
                    next_retry,
                });
            }
        }
        drop(st);
        self.inner.cond.notify_all();
    }

    /// Claim the first eligible message with this name; blocks until one
    /// arrives or `timeout` elapses (`None` on timeout or permanent loss —
    /// use [`recv_diag`] for the named diagnosis).
    ///
    /// [`recv_diag`]: ThreadNet::recv_diag
    pub fn recv(&self, tag: &Tag, self_pid: usize, timeout: Duration) -> Option<Msg> {
        self.recv_diag(tag, self_pid, timeout).ok()
    }

    /// Claim the first eligible message with this name, or say *why not*:
    /// [`RecvFailure::Lost`] when the only matching message was
    /// dead-lettered (permanently dropped), [`RecvFailure::Timeout`] when
    /// the deadline elapsed with nothing eligible.
    ///
    /// The deadline is fixed at entry (`Instant`-based): spurious or
    /// unrelated condvar wakeups never extend the wait.
    pub fn recv_diag(
        &self,
        tag: &Tag,
        self_pid: usize,
        timeout: Duration,
    ) -> Result<Msg, RecvFailure> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            let now = Instant::now();
            if self.inner.injector.is_some() {
                self.promote_delayed(&mut st, now);
                self.sweep_retries(&mut st, now);
            }
            // Scan for an eligible message, suppressing already-delivered
            // duplicates as they surface.
            let eligible = |e: &QueuedEntry| match &e.dest {
                None => true,
                Some(pids) => pids.contains(&self_pid),
            };
            loop {
                let entry = {
                    let Some(q) = st.queues.get_mut(tag) else {
                        break;
                    };
                    let Some(pos) = q.iter().position(eligible) else {
                        break;
                    };
                    q.remove(pos).unwrap()
                };
                if let Some(uid) = entry.uid {
                    if st.delivered.contains(&uid) {
                        st.redist_release(&entry.msg, &entry.dest);
                        st.fstats.dup_suppressed += 1;
                        st.events.push(FaultEvent {
                            t: self.micros(now),
                            kind: FaultEventKind::DupSuppressed,
                            src: uid.0,
                            seq: uid.1,
                            tag: entry.msg.tag.to_string(),
                        });
                        continue;
                    }
                    st.delivered.insert(uid);
                    // Claiming is the ack: stop retransmitting, and purge
                    // outstanding duplicate copies so they never linger
                    // in the pool as unclaimable garbage.
                    st.pending.retain(|p| (p.msg.src, p.seq) != uid);
                    if let Some(q) = st.queues.get_mut(tag) {
                        let before = q.len();
                        q.retain(|e| e.uid != Some(uid));
                        for _ in 0..before - q.len() {
                            st.redist_release(&entry.msg, &entry.dest);
                            st.fstats.dup_suppressed += 1;
                            st.events.push(FaultEvent {
                                t: self.micros(now),
                                kind: FaultEventKind::DupSuppressed,
                                src: uid.0,
                                seq: uid.1,
                                tag: entry.msg.tag.to_string(),
                            });
                        }
                    }
                }
                let QueuedEntry { msg, dest, .. } = entry;
                st.redist_release(&msg, &dest);
                let bound = dest.is_some();
                let wire = if bound {
                    msg.payload_bytes()
                } else {
                    msg.size_bytes()
                };
                st.stats
                    .record(msg.src, self_pid, msg.payload_bytes(), wire, bound);
                return Ok(msg);
            }
            // Nothing eligible now. If a matching message is permanently
            // dead and nothing live could still satisfy us, diagnose loss
            // immediately rather than burning the whole deadline.
            if !st.dead.is_empty() {
                let matches_me = |t: &Tag, dest: &Option<Vec<usize>>| {
                    t == tag
                        && match dest {
                            None => true,
                            Some(pids) => pids.contains(&self_pid),
                        }
                };
                let live = st.pending.iter().any(|p| matches_me(&p.msg.tag, &p.dest))
                    || st
                        .delayed
                        .iter()
                        .any(|d| matches_me(&d.entry.msg.tag, &d.entry.dest));
                if !live {
                    if let Some(dl) = st.dead.iter().find(|d| matches_me(&d.tag, &d.dest)) {
                        let _ = (dl.src, dl.seq);
                        return Err(RecvFailure::Lost {
                            attempts: dl.attempts,
                        });
                    }
                }
            }
            // Fixed deadline: wait only for the time actually remaining,
            // capped by the next retry timer / delayed-delivery instant so
            // the protocol makes progress even with no other traffic.
            let mut wake_at = deadline;
            for p in &st.pending {
                wake_at = wake_at.min(p.next_retry);
            }
            for d in &st.delayed {
                wake_at = wake_at.min(d.ready_at);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvFailure::Timeout);
            }
            let wait = wake_at
                .saturating_duration_since(now)
                .max(Duration::from_micros(50));
            let _ = self.inner.cond.wait_for(&mut st, wait);
        }
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> NetStats {
        self.inner.state.lock().stats.clone()
    }

    /// Snapshot of fault/delivery counters (all zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.state.lock().fstats
    }

    /// Timestamped fault events (wall µs since net creation).
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.inner.state.lock().events.clone()
    }

    /// Count of unclaimed messages (diagnostics).
    pub fn pending_messages(&self) -> usize {
        self.inner
            .state
            .lock()
            .queues
            .values()
            .map(|q| q.len())
            .sum()
    }

    /// Count of dead-lettered (permanently lost) messages.
    pub fn dead_letters(&self) -> usize {
        self.inner.state.lock().dead.len()
    }
}

/// Retry timeout after `attempts` transmissions: `rto * backoff^(n-1)`,
/// converted from the plan's microseconds to a `Duration`.
fn rto_after(plan: &FaultPlan, attempts: u32) -> Duration {
    let exp = attempts.saturating_sub(1).min(20);
    let us = plan.rto * plan.backoff.powi(exp as i32);
    Duration::from_secs_f64((us * 1e-6).min(60.0))
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
        // The delivered message's payload is the *same* allocation the
        // sender handed over — queueing, retry bookkeeping, and claiming
        // only clone the `Arc` — while the byte counters still charge the
        // full logical payload size per delivery.
        let net = ThreadNet::new(2);
        let m = msg(0, 0);
        let sent = m.payload.clone().unwrap();
        let logical = m.payload_bytes();
        net.send(m, Some(vec![1]));
        let got = net.recv(&tag(0), 1, T).unwrap();
        assert!(std::sync::Arc::ptr_eq(&sent, got.payload.as_ref().unwrap()));
        let stats = net.stats();
        assert_eq!(stats.payload_bytes, logical);
        assert_eq!(stats.wire_bytes, logical, "bound send travels payload-only");
    }

    #[test]
    fn dup_faults_share_one_payload_and_count_bytes_once() {
        // A dup-injected retransmission carries the same shared buffer;
        // dedup claims it once, so payload byte accounting is unchanged
        // from a fault-free run.
        let plan = FaultPlan {
            rto: 50_000.0,
            ..FaultPlan::uniform(
                11,
                LinkFault {
                    dup: 1.0,
                    ..LinkFault::default()
                },
            )
        };
        let net = ThreadNet::with_faults(2, plan);
        let m = msg(0, 0);
        let sent = m.payload.clone().unwrap();
        let logical = m.payload_bytes();
        net.send(m, Some(vec![1]));
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
        net.send(msg(0, 0), Some(vec![2]));
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
        let mut p = FaultPlan::uniform(
            seed,
            LinkFault {
                drop: 0.3,
                dup: 0.2,
                reorder: 0.3,
                delay_p: 0.3,
                delay: 300.0, // µs
            },
        );
        p.rto = 500.0; // µs
        p
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
            let m = net.recv(&tag(0), 2, T).expect("retry must deliver");
            sizes.push(m.payload.as_ref().unwrap().len());
        }
        sizes.sort_unstable();
        let want: Vec<usize> = (1..=20).chain(100..120).collect();
        assert_eq!(sizes, want);
        assert_eq!(net.stats().messages, 40, "dedup must not double-count");
        assert!(net.recv(&tag(0), 2, Duration::from_millis(20)).is_none());
    }

    #[test]
    fn permanent_loss_is_diagnosed_as_lost_not_timeout() {
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1)); // first message from p0 never arrives
        plan.rto = 200.0;
        plan.max_retries = 3;
        let net = ThreadNet::with_faults(2, plan);
        net.send(msg(0, 0), None);
        match net.recv_diag(&tag(0), 1, T) {
            Err(RecvFailure::Lost { attempts }) => assert_eq!(attempts, 4),
            other => panic!("want Lost, got {other:?}"),
        }
        assert_eq!(net.dead_letters(), 1);
        assert_eq!(net.fault_stats().lost, 1);
    }

    #[test]
    fn missing_message_is_timeout_not_lost() {
        // Nothing was ever sent: the diagnosis must be Timeout.
        let net = ThreadNet::with_faults(2, chaos_plan(7));
        match net.recv_diag(&tag(0), 1, Duration::from_millis(30)) {
            Err(RecvFailure::Timeout) => {}
            other => panic!("want Timeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_replay_is_deterministic() {
        // Same plan + same traffic => identical injection counters. The
        // plan is drop-free with an rto far beyond the test window, so no
        // timing-dependent retransmissions occur and every counter is a
        // pure function of (seed, seq). Determinism of the per-attempt
        // drop/retry chain is covered by the injector unit tests and the
        // virtual-time sim replay test.
        let run = || {
            let mut plan = FaultPlan::uniform(
                1234,
                LinkFault {
                    dup: 0.3,
                    reorder: 0.4,
                    delay_p: 0.3,
                    delay: 50.0,
                    ..LinkFault::default()
                },
            );
            plan.rto = 1_000_000.0; // 1s: no retries inside the test
            let net = ThreadNet::with_faults(2, plan);
            for _ in 0..30 {
                net.send(msg(0, 0), None);
            }
            for _ in 0..30 {
                net.recv(&tag(0), 1, T).unwrap();
            }
            let f = net.fault_stats();
            (f.injected_dups, f.injected_delays, f.injected_reorders)
        };
        let a = run();
        assert!(a.0 + a.1 + a.2 > 0, "chaos plan injected nothing");
        assert_eq!(a, run());
    }

    #[test]
    fn duplicates_do_not_double_deliver_across_claiming_receivers() {
        // Farm pattern under heavy duplication: total claims must equal
        // messages sent even though dup copies race between two receivers.
        let mut plan = FaultPlan::uniform(
            9,
            LinkFault {
                dup: 1.0,
                ..LinkFault::default()
            },
        );
        plan.rto = 1_000_000.0; // keep retransmissions out of the window
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
