//! # xdp-place — automatic data-placement search
//!
//! The paper's thesis is that an explicit compile-time representation of
//! data placement lets the *compiler* optimize data movement. The other
//! crates make placement explicit (`xdp-ir`), executable (`xdp-core`),
//! rewritable (`xdp-compiler`), schedulable (`xdp-collectives`) and
//! observable (`xdp-trace`); this crate closes the loop and *chooses*
//! the placement:
//!
//! 1. [`phase::extract`] reads a program's reference patterns into a
//!    *phase graph* — maximal statement runs whose locality demands are
//!    jointly satisfiable, with per-phase work and stencil shifts;
//! 2. [`candidates::enumerate`] lists the legal `Distribution`s per
//!    phase (per-dim `BLOCK`/`CYCLIC`/collapsed over every legal
//!    `ProcGrid` factorization);
//! 3. [`cost`] scores candidates — compute from owned volumes, movement
//!    from the `xdp-collectives` planner, optionally calibrated against
//!    an `xdp-trace` critical-path report;
//! 4. [`search::search`] runs an exact DP over phase boundaries and
//!    [`search::apply`] rewrites the program: declared distributions for
//!    phase 0 (co-arrays aligned to the anchor) and `Stmt::Redistribute`
//!    at every boundary whose placement changes.
//!
//! Programs that migrate ownership by hand (`=>`/`<=-` loops, as in the
//! paper's §4 FFT listing) are analyzed but not rewritten — the
//! placement is reported for comparison instead ([`Placed::rewritten`]).

pub mod candidates;
pub mod cost;
pub mod phase;
pub mod search;

pub use cost::Costs;
pub use phase::{DimNeed, Phase, PhaseGraph, PlaceError, Shift};
pub use search::{PhaseChoice, SearchOutcome};

use xdp_ir::{Distribution, Program};
use xdp_machine::{CostModel, Topology};

/// Options controlling the search.
#[derive(Clone, Debug)]
pub struct PlaceOptions {
    pub model: CostModel,
    pub topo: Topology,
    /// Consider `CYCLIC` per-dimension distributions too.
    pub allow_cyclic: bool,
    /// Most array dimensions distributed at once (grid rank).
    pub max_dist_dims: usize,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            model: CostModel::default_1993(),
            topo: Topology::Uniform,
            allow_cyclic: true,
            max_dist_dims: 2,
        }
    }
}

impl PlaceOptions {
    fn costs(&self) -> Costs {
        Costs::new(self.model, self.topo.clone())
    }
}

/// The full report of a placement decision.
#[derive(Clone, Debug)]
pub struct Placement {
    pub anchor_name: String,
    pub group_names: Vec<String>,
    pub nprocs: usize,
    pub choices: Vec<PhaseChoice>,
    pub total_predicted: f64,
    pub candidates_considered: usize,
}

impl Placement {
    /// One line per phase: label, chosen distribution, predicted costs.
    pub fn describe(&self) -> Vec<String> {
        self.choices
            .iter()
            .map(|c| {
                format!(
                    "phase {} [{}]: {} predicted {:.1} (compute {:.1} + shift {:.1} + move {:.1})",
                    c.phase,
                    c.label,
                    c.dist,
                    c.total(),
                    c.compute,
                    c.shift,
                    c.transition
                )
            })
            .collect()
    }
}

/// The outcome of [`optimize`].
#[derive(Clone, Debug)]
pub struct Placed {
    pub placement: Placement,
    /// The optimized program — identical to the input when
    /// `rewritten == false`.
    pub program: Program,
    /// False when the program migrates ownership by hand, making a decl
    /// rewrite unsafe; the placement is then advisory.
    pub rewritten: bool,
}

/// Run the full pipeline: extract, enumerate, score, search, rewrite.
pub fn optimize(p: &Program, opts: &PlaceOptions) -> Result<Placed, PlaceError> {
    let graph = phase::extract(p)?;
    let all: Vec<Distribution> = candidates::enumerate(
        graph.bounds.len(),
        graph.nprocs,
        opts.max_dist_dims,
        opts.allow_cyclic,
    );
    let legal = candidates::per_phase(&all, &graph.phases);
    let costs = opts.costs();
    let outcome = search::search(&graph, p, &all, &legal, &costs);
    let placement = Placement {
        anchor_name: p.decl(graph.anchor).name.clone(),
        group_names: graph
            .group
            .iter()
            .map(|v| p.decl(*v).name.clone())
            .collect(),
        nprocs: graph.nprocs,
        choices: outcome.choices.clone(),
        total_predicted: outcome.total_predicted,
        candidates_considered: outcome.candidates_considered,
    };
    if graph.hand_migration {
        return Ok(Placed {
            placement,
            program: p.clone(),
            rewritten: false,
        });
    }
    let program = search::apply(p, &graph, &outcome.choices);
    Ok(Placed {
        placement,
        program,
        rewritten: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    #[test]
    fn optimize_end_to_end_on_two_phase_program() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 64), (1, 64)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let sweep = |all_dim: usize| {
            let subs = if all_dim == 0 {
                vec![b::all(), b::at(b::iv("j"))]
            } else {
                vec![b::at(b::iv("j")), b::all()]
            };
            b::do_loop(
                "j",
                b::c(1),
                b::c(64),
                vec![b::kernel("fft1d", vec![b::sref(a, subs)])],
            )
        };
        p.body = vec![sweep(0), sweep(1)];
        let placed = optimize(&p, &PlaceOptions::default()).unwrap();
        assert!(placed.rewritten);
        assert_eq!(placed.placement.choices.len(), 2);
        assert_eq!(placed.placement.anchor_name, "A");
        assert!(placed.placement.total_predicted > 0.0);
        assert_eq!(placed.program.stmt_census().redistributes, 1);
        assert_eq!(placed.placement.describe().len(), 2);
        assert!(xdp_ir::validate(&placed.program).is_empty());
    }

    #[test]
    fn hand_migration_is_report_only() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![
                b::kernel("touch", vec![ai.clone()]),
                b::guarded(b::iown(ai.clone()), vec![b::send_own_val(ai.clone())]),
            ],
        )];
        let placed = optimize(&p, &PlaceOptions::default()).unwrap();
        assert!(!placed.rewritten);
        assert_eq!(placed.program, p, "program untouched");
        assert!(!placed.placement.choices.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let p = Program::new();
        assert_eq!(
            optimize(&p, &PlaceOptions::default()).unwrap_err(),
            PlaceError::NoAnchor
        );
    }
}
