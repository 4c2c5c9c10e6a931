//! The deterministic injector: every fault decision is a pure function of
//! `(seed, src, seq, attempt)`.
//!
//! Both transports ask the injector one question when a message is sent —
//! "what is the fate of message `(src, seq)`?" ([`Injector::fate`]) — and
//! get the same answer no matter which backend asks, in what order, or
//! from which thread. That is what makes a chaos run replayable: the task
//! machine's interleaving can differ arbitrarily between runs, but the
//! set of dropped/duplicated/delayed attempts cannot.

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::plan::FaultPlan;
use crate::stats::{FaultEvent, FaultEventKind, FaultStats};

/// What the network does to one transmission attempt.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Decision {
    /// The attempt never arrives.
    pub drop: bool,
    /// A second copy of the attempt arrives (and is suppressed).
    pub dup: bool,
    /// The attempt jumps ahead of already-queued traffic at the receiver.
    pub reorder: bool,
    /// Extra transit time added to the attempt (0 when not delayed).
    pub extra_delay: f64,
}

impl Decision {
    /// Clean delivery: nothing injected.
    pub fn clean() -> Decision {
        Decision {
            drop: false,
            dup: false,
            reorder: false,
            extra_delay: 0.0,
        }
    }
}

/// Deterministic fault oracle for a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct Injector {
    plan: FaultPlan,
}

impl Injector {
    pub fn new(plan: FaultPlan) -> Injector {
        Injector { plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of transmission attempt `attempt` (0 = original
    /// send) of the `seq`-th message (1-based) sent by processor `src`.
    pub fn decide(&self, src: usize, seq: u64, attempt: u32) -> Decision {
        if self.plan.killed(src, seq) {
            return Decision {
                drop: true,
                ..Decision::clean()
            };
        }
        let link = self.plan.link(src);
        if !link.is_active() {
            return Decision::clean();
        }
        // One private stream per (src, seq, attempt): mix the coordinates
        // into the seed with distinct odd multipliers (splitmix-style) so
        // neighbouring attempts get unrelated streams.
        let mixed = self
            .plan
            .seed
            .wrapping_add((src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        let mut coin = |p: f64| -> bool {
            if p <= 0.0 {
                // Still consume a draw so decisions for later fields do not
                // shift when an earlier probability is zero vs. nonzero.
                let _ = rng.next_u64();
                return false;
            }
            (rng.next_u64() as f64 / u64::MAX as f64) < p
        };
        let drop = coin(link.drop);
        let dup = coin(link.dup);
        let reorder = coin(link.reorder);
        let delayed = coin(link.delay_p);
        Decision {
            drop,
            dup: dup && !drop,
            reorder: reorder && !drop,
            extra_delay: if delayed && !drop { link.delay } else { 0.0 },
        }
    }

    /// The first attempt number that is *not* dropped, along with the
    /// decision for it, or `None` if every allowed attempt is dropped
    /// (the message is permanently lost).
    pub fn first_delivery(&self, src: usize, seq: u64) -> Option<(u32, Decision)> {
        for attempt in 0..=self.plan.max_retries {
            let d = self.decide(src, seq, attempt);
            if !d.drop {
                return Some((attempt, d));
            }
        }
        None
    }

    /// The whole fate of the `seq`-th message of `src`, named `tag`,
    /// settled at its send: both nets ask this once per message.
    pub fn fate(&self, src: usize, seq: u64, tag: &str) -> Fate {
        let plan = &self.plan;
        let delivery = self.first_delivery(src, seq);
        let drops = delivery.map_or(plan.max_retries + 1, |(k, _)| k);
        let mut events = Vec::new();
        let mut event = |t, kind| {
            events.push(FaultEvent {
                t,
                kind,
                src,
                seq,
                tag: tag.to_string(),
            })
        };
        for a in 0..drops {
            let t = plan.retry_delay(a);
            if a > 0 {
                event(t, FaultEventKind::Retry { attempt: a });
            }
            event(t, FaultEventKind::DropInjected);
        }
        let mut latency = plan.retry_delay(drops);
        let Some((_, d)) = delivery else {
            event(latency, FaultEventKind::Lost { attempts: drops });
            return Fate {
                drops,
                latency: None,
                dup: false,
                reorder: false,
                delay: 0.0,
                events,
            };
        };
        if drops > 0 {
            event(latency, FaultEventKind::Retry { attempt: drops });
        }
        if d.extra_delay > 0.0 {
            latency += d.extra_delay;
        }
        if d.dup {
            event(latency, FaultEventKind::DupInjected);
            event(latency, FaultEventKind::DupSuppressed);
        }
        Fate {
            drops,
            latency: Some(latency),
            dup: d.dup,
            reorder: d.reorder,
            delay: d.extra_delay,
            events,
        }
    }
}

/// What a plan does to one message, decided whole when it is sent. A
/// duplicate is suppressed at once, since a message is claimed once.
#[derive(Clone, PartialEq, Debug)]
pub struct Fate {
    /// Transmission attempts dropped: every allowed one when lost.
    pub drops: u32,
    /// The delivering attempt's extra transit time (the backoff of the
    /// dropped attempts plus any injected delay), or `None` when every
    /// allowed attempt dropped and the message is lost.
    pub latency: Option<f64>,
    /// The delivering attempt was duplicated.
    pub dup: bool,
    /// The delivering attempt jumps ahead of queued traffic.
    pub reorder: bool,
    /// The delivering attempt's injected delay (0 when not delayed).
    pub delay: f64,
    /// What happened, attempt by attempt, at times relative to the send.
    pub events: Vec<FaultEvent>,
}

impl Fate {
    /// Add this message's fate to a run's counters.
    pub fn count(&self, stats: &mut FaultStats) {
        let lost = self.latency.is_none();
        stats.injected_drops += u64::from(self.drops);
        stats.retries += u64::from(self.drops - u32::from(lost));
        stats.lost += u64::from(lost);
        stats.injected_dups += u64::from(self.dup);
        stats.dup_suppressed += u64::from(self.dup);
        stats.injected_delays += u64::from(self.delay > 0.0);
        stats.injected_reorders += u64::from(self.reorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LinkFault;

    fn chaotic_plan(seed: u64) -> FaultPlan {
        FaultPlan::uniform(
            seed,
            LinkFault {
                drop: 0.3,
                dup: 0.2,
                reorder: 0.2,
                delay_p: 0.5,
                delay: 100.0,
            },
        )
    }

    #[test]
    fn decisions_are_replayable() {
        let a = Injector::new(chaotic_plan(42));
        let b = Injector::new(chaotic_plan(42));
        for src in 0..4 {
            for seq in 1..50 {
                for attempt in 0..3 {
                    assert_eq!(a.decide(src, seq, attempt), b.decide(src, seq, attempt));
                }
            }
        }
    }

    #[test]
    fn seed_changes_decisions() {
        let a = Injector::new(chaotic_plan(1));
        let b = Injector::new(chaotic_plan(2));
        let differs = (0..4)
            .flat_map(|src| (1..100u64).map(move |seq| (src, seq)))
            .any(|(src, seq)| a.decide(src, seq, 0) != b.decide(src, seq, 0));
        assert!(
            differs,
            "different seeds should give different fault patterns"
        );
    }

    #[test]
    fn inactive_link_is_clean() {
        let inj = Injector::new(FaultPlan::none());
        assert_eq!(inj.decide(0, 1, 0), Decision::clean());
        assert_eq!(inj.first_delivery(3, 7), Some((0, Decision::clean())));
    }

    #[test]
    fn killed_messages_never_deliver() {
        let mut plan = FaultPlan::none();
        plan.kill.push((1, 3));
        let inj = Injector::new(plan);
        assert!(inj.decide(1, 3, 0).drop);
        assert!(inj.decide(1, 3, 9).drop);
        assert_eq!(inj.first_delivery(1, 3), None);
        assert_eq!(inj.first_delivery(1, 2), Some((0, Decision::clean())));
    }

    /// A killed message's fate is every allowed attempt dropped, retried
    /// on the plan's schedule, then lost; a clean one's is nothing.
    #[test]
    fn a_killed_message_is_lost_after_every_attempt() {
        let mut plan = FaultPlan::none();
        plan.kill.push((1, 3));
        (plan.rto, plan.max_retries) = (100.0, 2);
        let inj = Injector::new(plan);
        let fate = inj.fate(1, 3, "t");
        assert_eq!((fate.drops, fate.latency), (3, None));
        let kinds: Vec<_> = fate.events.iter().map(|e| (e.t, e.kind)).collect();
        use FaultEventKind::*;
        assert_eq!(
            kinds,
            [
                (0.0, DropInjected),
                (100.0, Retry { attempt: 1 }),
                (100.0, DropInjected),
                (300.0, Retry { attempt: 2 }),
                (300.0, DropInjected),
                (700.0, Lost { attempts: 3 }),
            ]
        );
        let clean = inj.fate(1, 2, "t");
        assert_eq!((clean.drops, clean.latency), (0, Some(0.0)));
        assert!(clean.events.is_empty());
    }

    /// A fate's counters are its events, counted: the one record both
    /// nets add up.
    #[test]
    fn a_fate_counts_what_its_events_say() {
        let inj = Injector::new(FaultPlan {
            max_retries: 1,
            ..chaotic_plan(5)
        });
        let (mut counted, mut seen) = (FaultStats::default(), FaultStats::default());
        for seq in 1..400 {
            let fate = inj.fate(seq as usize % 3, seq, "t");
            fate.count(&mut counted);
            for e in &fate.events {
                match e.kind {
                    FaultEventKind::Retry { .. } => seen.retries += 1,
                    FaultEventKind::DropInjected => seen.injected_drops += 1,
                    FaultEventKind::DupInjected => seen.injected_dups += 1,
                    FaultEventKind::DupSuppressed => seen.dup_suppressed += 1,
                    FaultEventKind::Lost { .. } => seen.lost += 1,
                }
            }
        }
        assert!(counted.lost > 0 && counted.retries > 0 && counted.injected_dups > 0);
        (seen.injected_delays, seen.injected_reorders) =
            (counted.injected_delays, counted.injected_reorders);
        assert_eq!(counted, seen);
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let inj = Injector::new(chaotic_plan(7));
        let n = 2000;
        let drops = (1..=n).filter(|&seq| inj.decide(0, seq, 0).drop).count();
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "drop rate {rate} too far from configured 0.3"
        );
    }

    #[test]
    fn dropped_attempts_inject_nothing_else() {
        let inj = Injector::new(chaotic_plan(11));
        for seq in 1..500 {
            let d = inj.decide(2, seq, 0);
            if d.drop {
                assert!(!d.dup && !d.reorder && d.extra_delay == 0.0);
            }
        }
    }
}
