//! Network traffic accounting.

/// Counters maintained by both network backends; the experiment harnesses
/// report these alongside virtual/wall time.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Total messages matched (delivered).
    pub messages: u64,
    /// Total payload bytes delivered.
    pub payload_bytes: u64,
    /// Total wire bytes delivered (payload + name headers for unbound
    /// messages).
    pub wire_bytes: u64,
    /// Messages that traveled with their name (unbound rendezvous).
    pub unbound_messages: u64,
    /// Messages whose destination was bound at compile time.
    pub bound_messages: u64,
    /// Per-processor sent message counts.
    pub sent_by: Vec<u64>,
    /// Per-processor received message counts.
    pub received_by: Vec<u64>,
    /// High-water mark of live redistribution staging bytes on any single
    /// processor (messages whose tag salt marks them as part of an
    /// explicit redistribution schedule). 0 when the run redistributed
    /// nothing.
    pub redist_peak_bytes: u64,
}

impl NetStats {
    /// Counters for an `n`-processor machine.
    pub fn new(nprocs: usize) -> NetStats {
        NetStats {
            sent_by: vec![0; nprocs],
            received_by: vec![0; nprocs],
            ..NetStats::default()
        }
    }

    /// Record one delivered message.
    pub fn record(&mut self, src: usize, dst: usize, payload: u64, wire: u64, bound: bool) {
        self.messages += 1;
        self.payload_bytes += payload;
        self.wire_bytes += wire;
        if bound {
            self.bound_messages += 1;
        } else {
            self.unbound_messages += 1;
        }
        self.sent_by[src] += 1;
        self.received_by[dst] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_accumulates() {
        let mut s = NetStats::new(2);
        s.record(0, 1, 32, 64, false);
        s.record(1, 0, 16, 16, true);
        assert_eq!(s.messages, 2);
        assert_eq!(s.payload_bytes, 48);
        assert_eq!(s.wire_bytes, 80);
        assert_eq!(s.unbound_messages, 1);
        assert_eq!(s.bound_messages, 1);
        assert_eq!(s.sent_by, vec![1, 1]);
        assert_eq!(s.received_by, vec![1, 1]);
    }

    const P: usize = 4;

    /// (src, dst, payload, header, bound) — wire is payload plus the name
    /// header when the message travels unbound, as both network backends
    /// compute it.
    fn record_strategy() -> impl Strategy<Value = (usize, usize, u64, u64, bool)> {
        (0usize..P, 0usize..P, 0u64..4096, 1u64..64, 0u8..2)
            .prop_map(|(src, dst, payload, header, b)| (src, dst, payload, header, b == 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counter invariants every report relies on: messages split
        /// exactly into bound + unbound, per-processor send/receive counts
        /// both sum to the message total, and wire bytes dominate payload
        /// bytes (headers only ever add).
        #[test]
        fn invariants_hold(records in prop::collection::vec(record_strategy(), 0..64)) {
            let mut s = NetStats::new(P);
            for (src, dst, payload, header, bound) in records {
                let wire = payload + if bound { 0 } else { header };
                s.record(src, dst, payload, wire, bound);
            }
            prop_assert_eq!(s.messages, s.bound_messages + s.unbound_messages);
            prop_assert_eq!(s.sent_by.iter().sum::<u64>(), s.messages);
            prop_assert_eq!(s.received_by.iter().sum::<u64>(), s.messages);
            prop_assert!(s.wire_bytes >= s.payload_bytes);
        }
    }
}
