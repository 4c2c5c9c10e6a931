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
//! When the program text itself fixes where a member of the searched group
//! lives — it migrates ownership by hand (`=>`/`<=-` loops, as in the
//! paper's §4 FFT listing), sends or receives it, indexes or guards on
//! `mypid` around it, or takes its `mylb`/`myub` outside a loop header
//! ([`Dists::pinned`]) — the program is analyzed but not rewritten: the
//! placement is reported for comparison instead ([`Placed::advisory`]).

pub mod candidates;
pub mod cost;
pub mod phase;
pub mod search;

pub use phase::{DimNeed, Phase, PhaseGraph, PlaceError, Shift};
pub use search::{PhaseChoice, SearchOutcome};

use xdp_ir::analysis::Dists;
use xdp_ir::{Distribution, Program};
use xdp_machine::{CostModel, Topology};

/// The machine the candidates are scored against.
#[derive(Clone, Debug)]
pub struct PlaceOptions {
    pub model: CostModel,
    pub topo: Topology,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            model: CostModel::default_1993(),
            topo: Topology::Uniform,
        }
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
    /// The optimized program — identical to the input when the placement
    /// is advisory.
    pub program: Program,
    /// Why the placement is only reported: the first member of the group
    /// the program text pins, with the clause and the statement.
    pub advisory: Option<String>,
}

/// Run the full pipeline: extract, enumerate, score, search, rewrite.
pub fn optimize(p: &Program, opts: &PlaceOptions) -> Result<Placed, PlaceError> {
    let dists = Dists::of(p);
    let graph = phase::extract(&dists)?;
    // Up to two distributed dimensions, each BLOCK or CYCLIC.
    let all: Vec<Distribution> = candidates::enumerate(graph.bounds.len(), graph.nprocs, 2, true);
    let legal = candidates::per_phase(&all, &graph.phases);
    let outcome = search::search(&graph, p, &all, &legal, opts);
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
    let advisory = graph.group.iter().find_map(|&v| dists.pinned(v));
    let program = match advisory {
        Some(_) => p.clone(),
        None => search::apply(p, &graph, &outcome.choices),
    };
    Ok(Placed {
        placement,
        program,
        advisory,
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
        assert_eq!(placed.advisory, None);
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
        let why = placed.advisory.expect("advisory");
        assert_eq!(
            why,
            "A is moved by an ownership transfer in statement 1 (`do i = 1, 8`)"
        );
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
