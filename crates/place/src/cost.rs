//! The composable placement cost model.
//!
//! Three ingredients, all in the machine model's virtual microseconds:
//!
//! * **compute** — a phase's element-touches concentrate on the most
//!   loaded processor: `work x max_share x flop_time`, where `max_share`
//!   is the largest ownership fraction any processor holds under the
//!   candidate distribution ([`Distribution::owned_volume`]). Collapsed
//!   placements serialize (`max_share = 1`).
//! * **shifts** — nearest-neighbour reads across a cut dimension charge
//!   an exact separable nearest-neighbour exchange per repeat (see
//!   [`shift_cost`]).
//! * **transitions** — changing the distribution between phases charges
//!   the `xdp-collectives` planner's predicted cost for the chosen
//!   schedule ([`xdp_collectives::planner::plan`]), summed over the
//!   co-placed group.

use crate::phase::{Phase, PhaseGraph};
use crate::PlaceOptions;
use xdp_collectives::planner::try_plan;
use xdp_ir::{DimDist, Distribution, Triplet};
use xdp_machine::Topology;

/// Crude floating-point operations charged per element-touch — real
/// kernels do more than one flop per element visited (an FFT sweep does
/// `~5 log n`). 8 keeps the compute term in the same decade as the
/// simulator for the repo's kernels.
pub const FLOPS_PER_TOUCH: f64 = 8.0;

/// Largest fraction of the array any single processor owns.
fn max_share(dist: &Distribution, bounds: &[Triplet]) -> f64 {
    let total: i64 = bounds.iter().map(|t| t.count()).product();
    if total == 0 {
        return 0.0;
    }
    let max_owned = (0..dist.nprocs())
        .map(|p| dist.owned_volume(bounds, p))
        .max()
        .unwrap_or(total);
    max_owned as f64 / total as f64
}

/// Compute cost of a phase under a candidate distribution.
pub fn compute_cost(
    phase: &Phase,
    dist: &Distribution,
    bounds: &[Triplet],
    c: &PlaceOptions,
) -> f64 {
    phase.work * FLOPS_PER_TOUCH * max_share(dist, bounds) * c.model.flop_time
}

/// Elements a processor must fetch per direction of a shifted read in
/// dimension `d` (per unit of the other-dimension plane).
fn cross_1d(dd: DimDist, bound: Triplet, np: usize, offset: i64) -> f64 {
    let n = bound.count() as f64;
    let o = offset.unsigned_abs() as f64;
    match dd {
        DimDist::Star => 0.0,
        DimDist::Block => {
            let chunk = (n / np as f64).ceil();
            if chunk >= n {
                0.0
            } else {
                o.min(chunk)
            }
        }
        // Cyclic: every element's neighbour lives on another processor,
        // so a processor fetches its entire local extent per direction.
        DimDist::Cyclic => {
            if np <= 1 {
                0.0
            } else {
                (n / np as f64).ceil()
            }
        }
        DimDist::BlockCyclic(b) => {
            if np <= 1 {
                0.0
            } else {
                (o.min(b as f64)) * (n / (b as f64 * np as f64)).ceil()
            }
        }
    }
}

/// Cost of one nearest-neighbour message of `bytes` under the machine's
/// topology. Flat topologies charge one hop. A tiered machine charges
/// the average over all adjacent-pid links: most neighbours share a
/// node, but every `procs_per_node`-th pair crosses a node boundary and
/// every rack's-worth crosses a rack boundary, so the per-tier alpha/beta
/// multipliers surface in the placement search.
fn neighbor_wire_time(bytes: u64, c: &PlaceOptions) -> f64 {
    use xdp_machine::{Link, Tier};
    if let Topology::Tiered {
        procs_per_node: ppn,
        nodes_per_rack: npr,
        racks,
    } = c.topo
    {
        let nprocs = ppn * npr * racks;
        if nprocs <= 1 {
            return c.model.wire_time(bytes, 1);
        }
        // Adjacent-pid pairs by the boundary they cross.
        let cluster = (racks - 1) as f64;
        let rack = (racks * (npr - 1)) as f64;
        let node = (racks * npr * (ppn - 1)) as f64;
        let t = |hops, tier| c.model.link_time(bytes, Link { hops, tier });
        (node * t(1, Tier::Node) + rack * t(2, Tier::Rack) + cluster * t(3, Tier::Cluster))
            / (nprocs - 1) as f64
    } else {
        c.model.wire_time(bytes, 1)
    }
}

/// Predicted per-sweep x repeats nearest-neighbour exchange cost of the
/// phase's shifts under `dist`: for each shift, both directions pay one
/// message (`alpha` + sender/receiver overhead) carrying the crossing
/// elements of this processor's slice of the plane.
pub fn shift_cost(
    phase: &Phase,
    dist: &Distribution,
    bounds: &[Triplet],
    elem_bytes: u64,
    c: &PlaceOptions,
) -> f64 {
    let mut total = 0.0;
    for sh in &phase.shifts {
        let d = sh.dim;
        if d >= dist.rank() || !dist.dims()[d].is_distributed() {
            continue;
        }
        let axis = dist.grid_axis(d).unwrap();
        let np = dist.grid().extent(axis);
        if np <= 1 {
            continue;
        }
        // The plane is partitioned among the processors of the *other*
        // grid axes.
        let spread: usize = (0..dist.grid().rank())
            .filter(|a| *a != axis)
            .map(|a| dist.grid().extent(a))
            .product();
        let per_dir_elems =
            cross_1d(dist.dims()[d], bounds[d], np, sh.offset) * sh.plane / spread as f64;
        let bytes = (per_dir_elems * elem_bytes as f64).ceil() as u64;
        let per_dir = 2.0 * c.model.cpu_overhead + neighbor_wire_time(bytes, c);
        total += 2.0 * per_dir * sh.repeat;
    }
    total
}

/// Full predicted cost of running one phase under `dist`.
pub fn phase_cost(
    phase: &Phase,
    dist: &Distribution,
    bounds: &[Triplet],
    elem_bytes: u64,
    c: &PlaceOptions,
) -> f64 {
    compute_cost(phase, dist, bounds, c) + shift_cost(phase, dist, bounds, elem_bytes, c)
}

/// Predicted cost of redistributing the whole co-placed group from
/// `from` to `to` (0 when equal: nothing moves).
pub fn transition_cost(
    graph: &PhaseGraph,
    program: &xdp_ir::Program,
    from: &Distribution,
    to: &Distribution,
    c: &PlaceOptions,
) -> f64 {
    if from == to {
        return 0.0;
    }
    let mut total = 0.0;
    for &v in &graph.group {
        let bytes = program.decl(v).elem.size_bytes();
        // Under a memory budget an infeasible transition is priced
        // infinite, so AutoPlace routes around it rather than emitting a
        // redistribute no plan can satisfy.
        match try_plan(v, &graph.bounds, bytes, from, to, &c.model, &c.topo, false) {
            Ok(p) => total += p.predicted,
            Err(_) => return f64::INFINITY,
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{DimNeed, Shift};
    use xdp_ir::ProcGrid;
    use xdp_machine::CostModel;

    fn b(lb: i64, ub: i64) -> Triplet {
        Triplet::range(lb, ub)
    }

    fn stencil_phase() -> Phase {
        Phase {
            index: 0,
            stmts: (0, 1),
            label: "stencil".into(),
            work: 64.0 * 10.0,
            needs: vec![DimNeed::Free, DimNeed::Free],
            shifts: vec![
                Shift {
                    dim: 0,
                    offset: -1,
                    plane: 8.0,
                    repeat: 10.0,
                },
                Shift {
                    dim: 0,
                    offset: 1,
                    plane: 8.0,
                    repeat: 10.0,
                },
            ],
        }
    }

    #[test]
    fn max_share_balances() {
        let bounds = vec![b(1, 8), b(1, 8)];
        let blk = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        assert_eq!(max_share(&blk, &bounds), 0.25);
        let col = Distribution::collapsed(2, 4);
        assert_eq!(max_share(&col, &bounds), 1.0);
    }

    #[test]
    fn collapsed_compute_beats_distributed_only_when_serial_is_free() {
        let bounds = vec![b(1, 8), b(1, 8)];
        let c = PlaceOptions::default();
        let ph = stencil_phase();
        let blk = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let col = Distribution::collapsed(2, 4);
        assert!(compute_cost(&ph, &blk, &bounds, &c) < compute_cost(&ph, &col, &bounds, &c));
    }

    #[test]
    fn shift_cost_zero_on_uncut_dim_and_high_for_cyclic() {
        let bounds = vec![b(1, 8), b(1, 8)];
        let c = PlaceOptions::default();
        let ph = stencil_phase();
        let row = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let col = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
        let cyc = Distribution::new(vec![DimDist::Cyclic, DimDist::Star], ProcGrid::linear(4));
        // Shifts are in dim 0: a column distribution never cuts them.
        assert_eq!(shift_cost(&ph, &col, &bounds, 8, &c), 0.0);
        let rowc = shift_cost(&ph, &row, &bounds, 8, &c);
        let cycc = shift_cost(&ph, &cyc, &bounds, 8, &c);
        assert!(rowc > 0.0);
        assert!(
            cycc > rowc,
            "cyclic exchanges whole slabs: {cycc} vs {rowc}"
        );
    }

    #[test]
    fn tier_asymmetry_raises_shift_cost() {
        use xdp_machine::Tier;
        let bounds = vec![b(1, 8), b(1, 8)];
        let ph = stencil_phase();
        let row = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let flat = PlaceOptions::default();
        let tiered = PlaceOptions {
            model: CostModel::default_1993().with_tier_scale(Tier::Rack, 100.0, 100.0),
            topo: Topology::tiered(2, 2, 1),
        };
        let cheap = shift_cost(&ph, &row, &bounds, 8, &flat);
        let dear = shift_cost(&ph, &row, &bounds, 8, &tiered);
        assert!(
            dear > cheap,
            "a 100x rack link must surface in the shift term: {dear} vs {cheap}"
        );
    }

    #[test]
    fn transition_cost_zero_when_unchanged() {
        use xdp_ir::build as bb;
        use xdp_ir::ElemType;
        let mut p = xdp_ir::Program::new();
        let a = p.declare(bb::array(
            "A",
            ElemType::F64,
            vec![(1, 8), (1, 8)],
            vec![DimDist::Block, DimDist::Star],
            ProcGrid::linear(4),
        ));
        let graph = PhaseGraph {
            anchor: a,
            group: vec![a],
            bounds: vec![b(1, 8), b(1, 8)],
            elem_bytes: 8,
            nprocs: 4,
            phases: vec![stencil_phase()],
            dropped_redistributes: vec![],
        };
        let c = PlaceOptions::default();
        let row = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let col = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
        assert_eq!(transition_cost(&graph, &p, &row, &row, &c), 0.0);
        assert!(transition_cost(&graph, &p, &row, &col, &c) > 0.0);
    }
}
