//! Communication schedules: a redistribution as explicit rounds of
//! point-to-point messages.
//!
//! This is the XDP view of collective communication: a redistribution is
//! not an opaque runtime call but a compile-time *schedule* — an ordered
//! list of rounds, each a set of tagged point-to-point transfers. The
//! planner prices a schedule ([`CommSchedule::predicted_cost`]) and bounds
//! its staging memory (the three peak accountings) before any data moves;
//! the machine runs only its lowering to Figure 1 statements.

use std::fmt;
use xdp_ir::{Section, VarId};
use xdp_machine::{CostModel, Topology};

/// One point-to-point message of a schedule.
///
/// The payload is the row-major concatenation of `secs`, read on the
/// sender and written at the same indices on the receiver. A staged plan
/// packs several sections into one message.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor; never the sender.
    pub dst: usize,
    /// The variable the tag matches on.
    pub var: VarId,
    /// Sections moved, in payload order.
    pub secs: Vec<Section>,
    /// Message type (the paper's §4 send/receive linking structure);
    /// unique per transfer within a schedule so tags never collide.
    pub salt: i64,
    /// Payload bytes.
    pub bytes: u64,
}

impl Transfer {
    /// A transfer of `secs` from `src` to another processor `dst`.
    pub fn new(
        src: usize,
        dst: usize,
        var: VarId,
        secs: Vec<Section>,
        salt: i64,
        elem_bytes: u64,
    ) -> Transfer {
        debug_assert!(src != dst, "a transfer crosses processors");
        let bytes: u64 = secs.iter().map(|s| s.volume() as u64 * elem_bytes).sum();
        Transfer {
            src,
            dst,
            var,
            secs,
            salt,
            bytes,
        }
    }
}

/// One round: transfers that may proceed concurrently. Rounds execute in
/// order; within a round every send is initiated before any receive
/// completes, so a round is deadlock-free over a buffering network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    pub transfers: Vec<Transfer>,
}

/// An explicit collective-communication schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct CommSchedule {
    /// Machine size the schedule was built for.
    pub nprocs: usize,
    /// Rounds in execution order.
    pub rounds: Vec<Round>,
}

impl CommSchedule {
    /// An empty schedule for `nprocs` processors.
    pub fn new(nprocs: usize) -> CommSchedule {
        CommSchedule {
            nprocs,
            rounds: Vec::new(),
        }
    }

    /// Append a round (dropped if empty).
    pub fn push_round(&mut self, r: Round) {
        if !r.transfers.is_empty() {
            self.rounds.push(r);
        }
    }

    /// All transfers in execution order.
    pub fn transfers(&self) -> impl Iterator<Item = &Transfer> {
        self.rounds.iter().flat_map(|r| r.transfers.iter())
    }

    /// Message count.
    pub fn message_count(&self) -> usize {
        self.transfers().count()
    }

    /// Total wire bytes.
    fn total_bytes(&self) -> u64 {
        self.transfers().map(|t| t.bytes).sum()
    }

    /// Exact per-round live-buffer footprint: `footprint[r][p]` is the
    /// number of staging bytes processor `p` holds while round `r` is in
    /// flight — send staging for every transfer it sources plus receive
    /// staging for every transfer it sinks.
    fn round_footprints(&self) -> Vec<Vec<u64>> {
        self.rounds
            .iter()
            .map(|round| {
                let mut fp = vec![0u64; self.nprocs];
                for t in &round.transfers {
                    fp[t.src] += t.bytes;
                    fp[t.dst] += t.bytes;
                }
                fp
            })
            .collect()
    }

    /// Peak live-buffer bytes on any single processor when rounds execute
    /// one at a time (round-synchronized execution): the maximum over
    /// rounds and processors of [`CommSchedule::round_footprints`].
    pub fn peak_bytes(&self) -> u64 {
        self.round_footprints()
            .iter()
            .flat_map(|fp| fp.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Conservative peak for round-synchronized lowering. Per-round
    /// awaits keep a processor at most one round ahead of its peers, but
    /// a fast peer may already have sent round `r+1` traffic while this
    /// processor's round-`r` staging is still live — so charge each
    /// round's full footprint plus the *next* round's receive staging,
    /// maximized over rounds and processors.
    pub fn synced_peak_bytes(&self) -> u64 {
        let fp = self.round_footprints();
        let recv_fp: Vec<Vec<u64>> = self
            .rounds
            .iter()
            .map(|round| {
                let mut r = vec![0u64; self.nprocs];
                for t in &round.transfers {
                    r[t.dst] += t.bytes;
                }
                r
            })
            .collect();
        let mut peak = 0u64;
        for (r, round_fp) in fp.iter().enumerate() {
            for (p, &live) in round_fp.iter().enumerate() {
                let next = recv_fp.get(r + 1).map_or(0, |v| v[p]);
                peak = peak.max(live + next);
            }
        }
        peak
    }

    /// Peak live-buffer bytes on any single processor when *all* rounds
    /// may be in flight at once (the historical lowering pre-posts every
    /// receive and issues every send before the first await, so nothing
    /// bounds cross-round overlap): per processor, the sum over rounds of
    /// its footprint, maximized over processors.
    pub fn flat_peak_bytes(&self) -> u64 {
        let mut total = vec![0u64; self.nprocs];
        for fp in self.round_footprints() {
            for (p, b) in fp.iter().enumerate() {
                total[p] += b;
            }
        }
        total.into_iter().max().unwrap_or(0)
    }

    /// Predict the schedule's completion time (max processor clock) under a
    /// cost model and topology, mirroring the simulator's accounting for
    /// destination-bound sends: the sender pays `cpu_overhead` per message,
    /// the wire `alpha·(1 + hop_factor·(hops-1)) + beta·bytes` (with α/β
    /// scaled by the tier multipliers on a tiered topology), and the
    /// receiver `cpu_overhead` to handle the arrival.
    pub fn predicted_cost(&self, model: &CostModel, topo: &Topology) -> f64 {
        let mut clock = vec![0.0f64; self.nprocs];
        for round in &self.rounds {
            let mut arrivals: Vec<(usize, f64)> = Vec::with_capacity(round.transfers.len());
            for t in &round.transfers {
                clock[t.src] += model.cpu_overhead;
                let link = topo.link(t.src, t.dst);
                let arrive = clock[t.src] + model.link_time(t.bytes, link);
                arrivals.push((t.dst, arrive));
            }
            for (dst, arrive) in arrivals {
                clock[dst] = clock[dst].max(arrive) + model.cpu_overhead;
            }
        }
        clock.iter().copied().fold(0.0, f64::max)
    }
}

impl fmt::Display for CommSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule: {} procs, {} rounds, {} messages, {} bytes",
            self.nprocs,
            self.rounds.len(),
            self.message_count(),
            self.total_bytes()
        )?;
        for (i, round) in self.rounds.iter().enumerate() {
            writeln!(f, "  round {i}:")?;
            for t in &round.transfers {
                let secs: Vec<String> = t.secs.iter().map(|s| s.to_string()).collect();
                writeln!(
                    f,
                    "    p{} -> p{} move {} ({} B, #{})",
                    t.src,
                    t.dst,
                    secs.join(" "),
                    t.bytes,
                    t.salt
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::Triplet;

    fn sec(lo: i64, hi: i64) -> Section {
        Section::new(vec![Triplet::range(lo, hi)])
    }

    #[test]
    fn counts_and_bytes() {
        let mut s = CommSchedule::new(2);
        s.push_round(Round {
            transfers: vec![
                Transfer::new(0, 1, VarId(0), vec![sec(1, 4)], 1, 8),
                Transfer::new(1, 0, VarId(0), vec![sec(5, 8)], 2, 8),
            ],
        });
        s.push_round(Round { transfers: vec![] }); // dropped
        assert_eq!(s.rounds.len(), 1);
        assert_eq!(s.message_count(), 2);
        assert_eq!(s.total_bytes(), 64);
    }

    #[test]
    fn footprints_charge_both_endpoints() {
        let mut s = CommSchedule::new(3);
        s.push_round(Round {
            transfers: vec![
                Transfer::new(0, 1, VarId(0), vec![sec(1, 4)], 1, 8), // 32 B
                Transfer::new(2, 0, VarId(0), vec![sec(5, 6)], 2, 8), // 16 B
            ],
        });
        s.push_round(Round {
            transfers: vec![Transfer::new(1, 0, VarId(0), vec![sec(1, 2)], 3, 8)],
        });
        assert_eq!(
            s.round_footprints(),
            vec![vec![48, 32, 16], vec![16, 16, 0]]
        );
        assert_eq!(s.peak_bytes(), 48);
        // Round-synchronized execution may see round 1's arrival early.
        assert_eq!(s.synced_peak_bytes(), 64);
        // Unsynchronized execution may have both rounds live at once.
        assert_eq!(s.flat_peak_bytes(), 64);
    }

    #[test]
    fn predicted_cost_accounts_rounds() {
        let model = CostModel::default_1993();
        let mut one = CommSchedule::new(2);
        one.push_round(Round {
            transfers: vec![Transfer::new(0, 1, VarId(0), vec![sec(1, 8)], 1, 8)],
        });
        let mut two = CommSchedule::new(2);
        for salt in [1, 2] {
            two.push_round(Round {
                transfers: vec![Transfer::new(0, 1, VarId(0), vec![sec(1, 4)], salt, 8)],
            });
        }
        let (c1, c2) = (
            one.predicted_cost(&model, &Topology::Uniform),
            two.predicted_cost(&model, &Topology::Uniform),
        );
        // Same bytes, twice the per-message overhead: two rounds cost more.
        assert!(c2 > c1, "{c2} vs {c1}");
    }

    #[test]
    fn topology_raises_cost_with_distance() {
        let model = CostModel::default_1993();
        let mut s = CommSchedule::new(8);
        s.push_round(Round {
            transfers: vec![Transfer::new(0, 7, VarId(0), vec![sec(1, 8)], 1, 8)],
        });
        let near = s.predicted_cost(&model, &Topology::Uniform);
        let far = s.predicted_cost(&model, &Topology::Linear);
        assert!(far > near, "{far} vs {near}");
    }
}
