//! What a net keeps of injected faults. Both nets settle each message's
//! whole fate once, at its send, through [`Faults::settle`], so their
//! counters and dead letters are the same function of `(src, seq)`.

use crate::pool::eligible;
use std::collections::HashMap;
use xdp_fault::{FaultEvent, FaultPlan, FaultStats, Injector};
use xdp_runtime::{Msg, Tag};

/// A message permanently lost under fault injection: every transmission
/// attempt was dropped. Both nets keep these dead letters, and a stuck
/// machine consults them to report a *loss* instead of a deadlock.
#[derive(Clone, Debug)]
pub struct LostMsg {
    pub tag: Tag,
    pub dest: Option<usize>,
    pub src: usize,
    pub seq: u64,
    pub attempts: u32,
}

impl LostMsg {
    /// Could a receive for `tag` on `dst` have paired with this message?
    pub fn matches(&self, tag: &Tag, dst: usize) -> bool {
        self.tag == *tag && eligible(self.dest, dst)
    }
}

/// A net's fault record: the plan's injector (none for an inactive
/// plan), each sender's count of sends, and what their fates left.
#[derive(Clone, Debug, Default)]
pub(crate) struct Faults {
    injector: Option<Injector>,
    sent: HashMap<usize, u64>,
    pub(crate) dead: Vec<LostMsg>,
    pub(crate) stats: FaultStats,
    pub(crate) events: Vec<FaultEvent>,
}

impl Faults {
    pub(crate) fn new(plan: FaultPlan) -> Faults {
        Faults {
            injector: plan.is_active().then(|| Injector::new(plan)),
            ..Faults::default()
        }
    }

    /// Settle the fate of `msg`, bound to `dest`: count it, keep its
    /// events (each at `stamp` of its time relative to the send), and
    /// dead-letter it if every attempt drops. `None` when lost, else its
    /// extra transit time and whether it jumps its name's queue.
    pub(crate) fn settle(
        &mut self,
        msg: &Msg,
        dest: Option<usize>,
        stamp: impl Fn(f64) -> f64,
    ) -> Option<(f64, bool)> {
        let Some(inj) = &self.injector else {
            return Some((0.0, false));
        };
        let seq = {
            let c = self.sent.entry(msg.src).or_insert(0);
            *c += 1;
            *c
        };
        let fate = inj.fate(msg.src, seq, &msg.tag.to_string());
        fate.count(&mut self.stats);
        let stamped = (fate.events.into_iter()).map(|e| FaultEvent { t: stamp(e.t), ..e });
        self.events.extend(stamped);
        let Some(latency) = fate.latency else {
            self.dead.push(LostMsg {
                tag: msg.tag.clone(),
                dest,
                src: msg.src,
                seq,
                attempts: fate.drops,
            });
            return None;
        };
        Some((latency, fate.reorder))
    }
}
