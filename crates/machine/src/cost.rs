//! The parametric machine cost model.
//!
//! Times are in abstract microseconds of virtual time. Defaults approximate
//! an early-90s multicomputer (high per-message latency relative to flop
//! time), which is the regime in which XDP's message-count optimizations
//! matter most; every experiment harness sweeps the parameters that its
//! claim depends on.

use crate::topo::{Link, Tier};

/// Hockney/LogP-style cost parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message network latency α (one hop), charged between send
    /// initiation and receive completion.
    pub alpha: f64,
    /// Per-byte transfer time β.
    pub beta: f64,
    /// Per-message CPU overhead o charged to the sender at initiation and
    /// to the receiver at completion (the LogP `o`).
    pub cpu_overhead: f64,
    /// Extra latency multiplier per additional hop (topology scaling).
    pub hop_factor: f64,
    /// Time per floating-point operation (kernels and element-wise
    /// assignments charge this).
    pub flop_time: f64,
    /// Fixed time per run-time symbol-table query (`iown`/`accessible`/
    /// `await` polls) — the run-time price of un-eliminated compute rules
    /// (§3.1).
    pub symtab_op_time: f64,
    /// Time per segment descriptor examined by a query — the §3.1 `iown()`
    /// algorithm scans the descriptor array, so finer segmentation makes
    /// every surviving compute rule slower.
    pub seg_scan_time: f64,
    /// Extra receiver-side time to match an *unbound* (name-carrying)
    /// message; compile-time-bound communication (§3.2) skips it.
    pub match_overhead: f64,
    /// Extra receiver-side time when a message arrives before its receive
    /// was posted (an *unexpected* message buffered by the eager protocol
    /// and copied on match); preposted receives (§3.2) avoid it. Charged as
    /// `unexpected_overhead + beta * bytes` (the extra copy).
    pub unexpected_overhead: f64,
    /// Per-tier multiplier on α, indexed by [`Tier`] (node / rack /
    /// cluster). All 1.0 by default, so flat topologies and untiered
    /// models are unchanged; a `Tiered` machine with 100x cross-rack
    /// latency sets `tier_alpha[Tier::Cluster] = 100.0`.
    pub tier_alpha: [f64; 3],
    /// Per-tier multiplier on β, indexed by [`Tier`]. All 1.0 by
    /// default.
    pub tier_beta: [f64; 3],
    /// Peak live-buffer budget (bytes, per processor) for redistribution
    /// planning. `None` plans for time only — the historical behavior.
    /// `Some(b)` makes the planner pick the fastest decomposition whose
    /// per-processor peak staging footprint fits `b`.
    pub mem_budget: Option<u64>,
}

impl CostModel {
    /// A 1993-flavored default: 100us message latency, 10MB/s network,
    /// ~10 MFLOP/s processors.
    pub fn default_1993() -> CostModel {
        CostModel {
            alpha: 100.0,
            beta: 0.1,
            cpu_overhead: 10.0,
            hop_factor: 0.2,
            flop_time: 0.1,
            symtab_op_time: 0.5,
            seg_scan_time: 0.05,
            match_overhead: 2.0,
            unexpected_overhead: 5.0,
            tier_alpha: [1.0; 3],
            tier_beta: [1.0; 3],
            mem_budget: None,
        }
    }

    /// Set the α/β multipliers of one tier (builder-style).
    pub fn with_tier_scale(mut self, tier: Tier, alpha_scale: f64, beta_scale: f64) -> CostModel {
        self.tier_alpha[tier as usize] = alpha_scale;
        self.tier_beta[tier as usize] = beta_scale;
        self
    }

    /// Set the per-processor peak-bytes budget for redistribution planning
    /// (builder-style).
    pub fn with_mem_budget(mut self, budget: u64) -> CostModel {
        self.mem_budget = Some(budget);
        self
    }

    /// A shared-address machine in the KSR1 mold (§3.2: "receives and
    /// sends might be translated as prefetch and poststore instructions"):
    /// transfers cost a cache-line-ish setup plus per-byte copy, no
    /// software rendezvous, no eager-buffer copies.
    pub fn shared_address() -> CostModel {
        CostModel {
            alpha: 2.0,
            beta: 0.02,
            cpu_overhead: 1.0,
            hop_factor: 0.0,
            match_overhead: 0.0,
            unexpected_overhead: 0.0,
            ..CostModel::default_1993()
        }
    }

    /// Free communication — isolates pure computation time.
    pub fn zero_comm() -> CostModel {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            cpu_overhead: 0.0,
            hop_factor: 0.0,
            match_overhead: 0.0,
            unexpected_overhead: 0.0,
            ..CostModel::default_1993()
        }
    }

    /// Wire time of a `bytes`-byte message over `hops` hops. A self
    /// message (`hops == 0`, the ownership-migration loopback case) pays
    /// only the copy cost, not network latency.
    pub fn wire_time(&self, bytes: u64, hops: u32) -> f64 {
        self.link_time(
            bytes,
            Link {
                hops,
                tier: Tier::Node,
            },
        )
    }

    /// Wire time of a `bytes`-byte message over `link`, with α and β
    /// scaled by the multipliers of the tier the link crosses. On flat
    /// topologies every link is [`Tier::Node`], so with default
    /// multipliers this is exactly [`CostModel::wire_time`].
    pub fn link_time(&self, bytes: u64, link: Link) -> f64 {
        let t = link.tier as usize;
        let beta = self.beta * self.tier_beta[t];
        if link.hops == 0 {
            return beta * bytes as f64;
        }
        let alpha = self.alpha * self.tier_alpha[t];
        let hop_scale = 1.0 + self.hop_factor * (link.hops - 1) as f64;
        alpha * hop_scale + beta * bytes as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::default_1993()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes_and_hops() {
        let m = CostModel::default_1993();
        assert_eq!(m.wire_time(0, 1), 100.0);
        assert_eq!(m.wire_time(1000, 1), 200.0);
        assert_eq!(m.wire_time(0, 2), 120.0);
        assert!(m.wire_time(100, 3) > m.wire_time(100, 2));
    }

    #[test]
    fn link_time_scales_by_tier() {
        let m = CostModel::default_1993().with_tier_scale(Tier::Cluster, 100.0, 2.0);
        let node = Link {
            hops: 1,
            tier: Tier::Node,
        };
        let cluster = Link {
            hops: 1,
            tier: Tier::Cluster,
        };
        // Node tier with default multipliers matches wire_time exactly.
        assert_eq!(m.link_time(1000, node), m.wire_time(1000, 1));
        // Cluster tier pays 100x alpha and 2x beta.
        assert_eq!(m.link_time(0, cluster), 100.0 * m.alpha);
        assert_eq!(
            m.link_time(1000, cluster),
            100.0 * m.alpha + 2.0 * m.beta * 1000.0
        );
        // Self messages pay only the (tier-scaled) copy cost.
        let self_link = Link {
            hops: 0,
            tier: Tier::Node,
        };
        assert_eq!(m.link_time(100, self_link), m.beta * 100.0);
    }

    #[test]
    fn zero_comm_is_free() {
        let m = CostModel::zero_comm();
        assert_eq!(m.wire_time(1 << 20, 5), 0.0);
        assert!(m.flop_time > 0.0);
    }
}
