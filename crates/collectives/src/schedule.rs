//! Communication schedules: collectives as explicit rounds of point-to-point
//! messages.
//!
//! This is the XDP view of collective communication: a collective is not an
//! opaque runtime call but a compile-time *schedule* — an ordered list of
//! rounds, each a set of tagged point-to-point transfers. The same schedule
//! object drives the discrete-event simulator (virtual time), the threaded
//! backend (real concurrency), and the cost predictor, so a plan can be
//! priced before any data moves.

use std::fmt;
use xdp_ir::{Section, VarId};
use xdp_machine::{CostModel, Topology};

/// One point-to-point message of a schedule.
///
/// The payload is the row-major concatenation of `secs` read from the
/// sender; the receiver scatters it into `recv_secs` (pairwise, in order).
/// For most collectives `recv_secs == secs`; all-to-all algorithms permute
/// placement, and Bruck packs several sections into one message.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor. `src == dst` marks a local permutation step
    /// (no wire traffic; e.g. Bruck's rotations).
    pub dst: usize,
    /// The variable the tag matches on.
    pub var: VarId,
    /// Sections read on the sender, in payload order.
    pub secs: Vec<Section>,
    /// Sections written on the receiver, pairwise conformable with `secs`.
    pub recv_secs: Vec<Section>,
    /// Message type (the paper's §4 send/receive linking structure);
    /// unique per transfer within a schedule so tags never collide.
    pub salt: i64,
    /// Payload bytes.
    pub bytes: u64,
    /// Receiver combines element-wise (`+=`) instead of overwriting
    /// (reductions).
    pub combine: bool,
}

impl Transfer {
    /// A transfer whose receive placement mirrors the send sections.
    pub fn new(
        src: usize,
        dst: usize,
        var: VarId,
        secs: Vec<Section>,
        salt: i64,
        elem_bytes: u64,
    ) -> Transfer {
        let bytes: u64 = secs.iter().map(|s| s.volume() as u64 * elem_bytes).sum();
        Transfer {
            src,
            dst,
            var,
            recv_secs: secs.clone(),
            secs,
            salt,
            bytes,
            combine: false,
        }
    }

    /// Total elements moved.
    pub fn volume(&self) -> i64 {
        self.secs.iter().map(Section::volume).sum()
    }

    /// Is this a local (same-processor) permutation step?
    pub fn is_local(&self) -> bool {
        self.src == self.dst
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

    /// Cross-processor message count (local permutations excluded).
    pub fn message_count(&self) -> usize {
        self.transfers().filter(|t| !t.is_local()).count()
    }

    /// Total wire bytes (payloads of cross-processor transfers).
    pub fn total_bytes(&self) -> u64 {
        self.transfers()
            .filter(|t| !t.is_local())
            .map(|t| t.bytes)
            .sum()
    }

    /// Exact per-round live-buffer footprint: `footprint[r][p]` is the
    /// number of staging bytes processor `p` holds while round `r` is in
    /// flight — send staging for every transfer it sources plus receive
    /// staging for every transfer it sinks (a local permutation step
    /// counts once: the copy is staged on its one processor).
    pub fn round_footprints(&self) -> Vec<Vec<u64>> {
        self.rounds
            .iter()
            .map(|round| {
                let mut fp = vec![0u64; self.nprocs];
                for t in &round.transfers {
                    fp[t.src] += t.bytes;
                    if !t.is_local() {
                        fp[t.dst] += t.bytes;
                    }
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
                    if !t.is_local() {
                        r[t.dst] += t.bytes;
                    }
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
    /// receiver `cpu_overhead` to handle the arrival. Local permutation
    /// steps cost `beta·bytes` of copy time on their processor.
    pub fn predicted_cost(&self, model: &CostModel, topo: &Topology) -> f64 {
        let mut clock = vec![0.0f64; self.nprocs];
        for round in &self.rounds {
            let mut arrivals: Vec<(usize, f64)> = Vec::with_capacity(round.transfers.len());
            for t in &round.transfers {
                if t.is_local() {
                    clock[t.src] += model.beta * t.bytes as f64;
                    continue;
                }
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
                let kind = if t.is_local() {
                    "local"
                } else if t.combine {
                    "combine"
                } else {
                    "move"
                };
                writeln!(
                    f,
                    "    p{} -> p{} {} {} ({} B, #{})",
                    t.src,
                    t.dst,
                    kind,
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
                Transfer::new(1, 1, VarId(0), vec![sec(5, 8)], 2, 8),
            ],
        });
        s.push_round(Round { transfers: vec![] }); // dropped
        assert_eq!(s.rounds.len(), 1);
        assert_eq!(s.message_count(), 1);
        assert_eq!(s.total_bytes(), 32);
    }

    #[test]
    fn footprints_charge_both_endpoints_and_locals_once() {
        let mut s = CommSchedule::new(3);
        s.push_round(Round {
            transfers: vec![
                Transfer::new(0, 1, VarId(0), vec![sec(1, 4)], 1, 8), // 32 B on the wire
                Transfer::new(2, 2, VarId(0), vec![sec(5, 6)], 2, 8), // 16 B local copy
            ],
        });
        s.push_round(Round {
            transfers: vec![Transfer::new(1, 0, VarId(0), vec![sec(1, 2)], 3, 8)],
        });
        assert_eq!(
            s.round_footprints(),
            vec![vec![32, 32, 16], vec![16, 16, 0]]
        );
        assert_eq!(s.peak_bytes(), 32);
        // Unsynchronized execution may have both rounds live at once.
        assert_eq!(s.flat_peak_bytes(), 48);
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

        // A nearest-neighbour ring is one hop on both, except for the
        // wrap-around link a linear array makes long.
        let ring = crate::algorithms::allgather_ring(VarId(0), 16, 8, 8);
        let near = ring.predicted_cost(&model, &Topology::Uniform);
        let far = ring.predicted_cost(&model, &Topology::Linear);
        assert!(far >= near, "{far} vs {near}");
    }
}
