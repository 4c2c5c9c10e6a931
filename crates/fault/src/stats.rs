//! Counters and events shared by both fault-injecting transports.

/// Aggregate fault/delivery counters for one run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultStats {
    /// Transmission attempts dropped by injection.
    pub injected_drops: u64,
    /// Duplicate copies injected.
    pub injected_dups: u64,
    /// Attempts delayed by injection.
    pub injected_delays: u64,
    /// Attempts reordered past queued traffic.
    pub injected_reorders: u64,
    /// Retransmissions performed by the delivery layer.
    pub retries: u64,
    /// Duplicate copies suppressed (a message is claimed once).
    pub dup_suppressed: u64,
    /// Messages dead-lettered after exhausting retries.
    pub lost: u64,
}

impl FaultStats {
    /// Did injection perturb this run at all?
    pub fn any_injected(&self) -> bool {
        self.injected_drops > 0
            || self.injected_dups > 0
            || self.injected_delays > 0
            || self.injected_reorders > 0
    }

    /// One-line human summary for CLI / experiment output.
    pub fn summary(&self) -> String {
        format!(
            "drops {} dups {} delays {} reorders {} | retries {} dup-suppressed {} lost {}",
            self.injected_drops,
            self.injected_dups,
            self.injected_delays,
            self.injected_reorders,
            self.retries,
            self.dup_suppressed,
            self.lost
        )
    }
}

/// What a single fault event was.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultEventKind {
    /// The delivery layer retransmitted (this is transmission `attempt`,
    /// 0-based; the original send was attempt 0).
    Retry { attempt: u32 },
    /// Injection dropped a transmission attempt.
    DropInjected,
    /// Injection added a duplicate copy.
    DupInjected,
    /// A duplicate was suppressed.
    DupSuppressed,
    /// The message was dead-lettered after `attempts` transmissions.
    Lost { attempts: u32 },
}

/// One fault event, timestamped in the backend's time units, attributed to
/// the sending processor and the message's rendezvous tag.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultEvent {
    /// Event time: virtual units simulated; on the task machine, which
    /// settles a message's fate at its send, the send's wall µs.
    pub t: f64,
    pub kind: FaultEventKind,
    /// Sending processor.
    pub src: usize,
    /// Per-sender sequence number (1-based).
    pub seq: u64,
    /// Rendezvous tag, rendered (`var@sec` form).
    pub tag: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_every_counter() {
        let s = FaultStats {
            injected_drops: 1,
            injected_dups: 2,
            injected_delays: 3,
            injected_reorders: 4,
            retries: 5,
            dup_suppressed: 6,
            lost: 7,
        };
        let line = s.summary();
        for n in ["1", "2", "3", "4", "5", "6", "7"] {
            assert!(line.contains(n), "summary missing {n}: {line}");
        }
        assert!(s.any_injected());
        assert!(!FaultStats::default().any_injected());
    }
}
