//! The deterministic injector: every fault decision is a pure function of
//! `(seed, src, seq, attempt)`.
//!
//! Both transports ask the injector the same question — "what happens to
//! transmission attempt `attempt` of message `(src, seq)`?" — and get the
//! same answer no matter which backend asks, in what order, or from which
//! thread. That is what makes a chaos run replayable: the task machine's
//! interleaving can differ arbitrarily between runs, but the set of
//! dropped/duplicated/delayed attempts cannot.

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::plan::FaultPlan;

/// What the network does to one transmission attempt.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Decision {
    /// The attempt never arrives.
    pub drop: bool,
    /// A second copy of the attempt arrives (dedup must suppress it).
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
    /// (the message is permanently lost). Used by the simulator, which
    /// can resolve the whole retry chain analytically at post time.
    pub fn first_delivery(&self, src: usize, seq: u64) -> Option<(u32, Decision)> {
        for attempt in 0..=self.plan.max_retries {
            let d = self.decide(src, seq, attempt);
            if !d.drop {
                return Some((attempt, d));
            }
        }
        None
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
