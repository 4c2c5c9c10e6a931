//! The placement search and program rewriting.
//!
//! With per-phase candidate sets in hand the problem is a shortest path
//! through a layered graph: layer `k` holds phase `k`'s legal
//! distributions, an edge `(c', c)` costs the redistribution from `c'`
//! to `c`, and node `c` in layer `k` costs running phase `k` under `c`.
//! Dynamic programming solves it exactly. The *initial* placement is
//! free — it becomes the declared distribution, not a run-time move.
//!
//! Ties keep the first-enumerated candidate (strict `<` updates only),
//! which by construction prefers collapsed over distributed and `BLOCK`
//! over `CYCLIC` at equal predicted cost.

use crate::cost;
use crate::phase::PhaseGraph;
use crate::PlaceOptions;
use xdp_ir::{Distribution, Program, Stmt};

/// The chosen distribution and its predicted cost breakdown for one
/// phase.
#[derive(Clone, Debug)]
pub struct PhaseChoice {
    pub phase: usize,
    pub label: String,
    pub dist: Distribution,
    /// Predicted compute cost of the phase under `dist`.
    pub compute: f64,
    /// Predicted intra-phase shift (stencil-exchange) cost.
    pub shift: f64,
    /// Predicted cost of the redistribution *into* this phase (0 for the
    /// first phase and for unchanged boundaries).
    pub transition: f64,
}

impl PhaseChoice {
    /// Total predicted cost attributed to this phase.
    pub fn total(&self) -> f64 {
        self.compute + self.shift + self.transition
    }
}

/// The search result: one choice per phase.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    pub choices: Vec<PhaseChoice>,
    pub total_predicted: f64,
    /// Total number of (phase, candidate) pairs scored.
    pub candidates_considered: usize,
}

/// Exact DP over phase boundaries.
pub fn search(
    graph: &PhaseGraph,
    program: &Program,
    all: &[Distribution],
    legal: &[Vec<usize>],
    opts: &PlaceOptions,
) -> SearchOutcome {
    let nph = graph.phases.len();
    assert_eq!(legal.len(), nph);
    // node_cost[k][j]: run phase k under legal[k][j].
    let node_cost: Vec<Vec<f64>> = graph
        .phases
        .iter()
        .zip(legal)
        .map(|(ph, cands)| {
            cands
                .iter()
                .map(|&ci| cost::phase_cost(ph, &all[ci], &graph.bounds, graph.elem_bytes, opts))
                .collect()
        })
        .collect();
    let candidates_considered: usize = legal.iter().map(|v| v.len()).sum();

    // best[k][j]: cheapest cost of phases 0..=k ending in candidate j.
    let mut best: Vec<Vec<f64>> = Vec::with_capacity(nph);
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(nph);
    best.push(node_cost[0].clone());
    back.push(vec![usize::MAX; legal[0].len()]);
    for k in 1..nph {
        let mut layer = vec![f64::INFINITY; legal[k].len()];
        let mut blink = vec![0usize; legal[k].len()];
        for (j, &cj) in legal[k].iter().enumerate() {
            for (i, &ci) in legal[k - 1].iter().enumerate() {
                let trans = cost::transition_cost(graph, program, &all[ci], &all[cj], opts);
                let total = best[k - 1][i] + trans + node_cost[k][j];
                if total < layer[j] {
                    layer[j] = total;
                    blink[j] = i;
                }
            }
        }
        best.push(layer);
        back.push(blink);
    }

    // Backtrack from the cheapest final state (first wins on ties).
    let mut end = 0usize;
    for j in 1..best[nph - 1].len() {
        if best[nph - 1][j] < best[nph - 1][end] {
            end = j;
        }
    }
    let total_predicted = best[nph - 1][end];
    let mut idx = vec![0usize; nph];
    idx[nph - 1] = end;
    for k in (1..nph).rev() {
        idx[k - 1] = back[k][idx[k]];
    }

    let mut choices = Vec::with_capacity(nph);
    for (k, ph) in graph.phases.iter().enumerate() {
        let ci = legal[k][idx[k]];
        let dist = all[ci].clone();
        let transition = if k == 0 {
            0.0
        } else {
            let prev = &all[legal[k - 1][idx[k - 1]]];
            cost::transition_cost(graph, program, prev, &dist, opts)
        };
        choices.push(PhaseChoice {
            phase: k,
            label: ph.label.clone(),
            dist: dist.clone(),
            compute: cost::compute_cost(ph, &dist, &graph.bounds, opts),
            shift: cost::shift_cost(ph, &dist, &graph.bounds, graph.elem_bytes, opts),
            transition,
        });
    }
    SearchOutcome {
        choices,
        total_predicted,
        candidates_considered,
    }
}

/// Rewrite the program to realize the chosen placement:
///
/// * group declarations adopt the phase-0 distribution — the anchor
///   directly, same-bounds co-arrays via [`Distribution::aligned`] so
///   their ownership provably tracks the anchor's;
/// * the original top-level `Redistribute` statements on group arrays
///   are dropped;
/// * at every phase boundary whose chosen distribution differs, a
///   `Stmt::Redistribute` per group array is inserted.
pub fn apply(program: &Program, graph: &PhaseGraph, choices: &[PhaseChoice]) -> Program {
    let mut out = program.clone();
    let first = &choices[0].dist;
    for &v in &graph.group {
        let d = &mut out.decls[v.index()];
        d.dist = Some(if v == graph.anchor {
            first.clone()
        } else {
            Distribution::aligned(
                first.clone(),
                graph.bounds.clone(),
                vec![0; graph.bounds.len()],
            )
        });
        // Old segment shapes were chosen for the old distribution.
        d.segment_shape = None;
    }
    let mut body = Vec::with_capacity(program.body.len());
    for (k, ph) in graph.phases.iter().enumerate() {
        if k > 0 && choices[k].dist != choices[k - 1].dist {
            let to = &choices[k].dist;
            for &v in &graph.group {
                let d = if v == graph.anchor {
                    to.clone()
                } else {
                    Distribution::aligned(
                        to.clone(),
                        graph.bounds.clone(),
                        vec![0; graph.bounds.len()],
                    )
                };
                body.push(Stmt::Redistribute { var: v, dist: d });
            }
        }
        for i in ph.stmts.0..ph.stmts.1 {
            if graph.dropped_redistributes.contains(&i) {
                continue;
            }
            body.push(program.body[i].clone());
        }
    }
    out.body = body;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    /// FFT-shaped: sweep dim0-local, then dim1-local, explicit
    /// redistribute between (which the search re-decides).
    fn two_phase() -> Program {
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
        p.body = vec![
            sweep(0),
            b::redistribute(
                a,
                Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4)),
            ),
            sweep(1),
        ];
        p
    }

    fn run_search(p: &Program) -> (PhaseGraph, Vec<Distribution>, SearchOutcome) {
        let g = phase::extract(&xdp_ir::analysis::Dists::of(p)).unwrap();
        let all = crate::candidates::enumerate(g.bounds.len(), g.nprocs, 2, true);
        let legal = crate::candidates::per_phase(&all, &g.phases);
        let out = search(&g, p, &all, &legal, &PlaceOptions::default());
        (g, all, out)
    }

    #[test]
    fn fft_shape_chooses_orthogonal_blocks() {
        let p = two_phase();
        let (g, _, out) = run_search(&p);
        assert_eq!(out.choices.len(), 2);
        // Phase 0 needs dim0 local: dim0 stays *, dim1 distributed BLOCK.
        let d0 = &out.choices[0].dist;
        assert!(!d0.dims()[0].is_distributed());
        assert_eq!(d0.dims()[1], DimDist::Block);
        // Phase 1 needs dim1 local: dim0 distributed BLOCK.
        let d1 = &out.choices[1].dist;
        assert_eq!(d1.dims()[0], DimDist::Block);
        assert!(!d1.dims()[1].is_distributed());
        // The boundary pays a real transition.
        assert!(out.choices[1].transition > 0.0);
        assert!(out.total_predicted.is_finite());
        assert!(out.candidates_considered > 4);
        assert_eq!(g.phases.len(), 2);
    }

    #[test]
    fn apply_rewrites_decl_and_inserts_redistribute() {
        let p = two_phase();
        let (g, _, out) = run_search(&p);
        let opt = apply(&p, &g, &out.choices);
        // Declared distribution becomes the phase-0 choice.
        let a = opt.lookup("A").unwrap();
        assert_eq!(opt.decl(a).dist.as_ref().unwrap(), &out.choices[0].dist);
        // Exactly one redistribute (the phase boundary), to the phase-1
        // choice.
        let census = opt.stmt_census();
        assert_eq!(census.redistributes, 1);
        let mut seen = None;
        opt.visit(&mut |s| {
            if let Stmt::Redistribute { dist, .. } = s {
                seen = Some(dist.clone());
            }
        });
        assert_eq!(seen.unwrap(), out.choices[1].dist);
        assert!(xdp_ir::validate(&opt).is_empty());
    }

    #[test]
    fn coplaced_array_gets_aligned_distribution() {
        let mut p = two_phase();
        // A second same-bounds array read in phase 0.
        let t = p.declare(b::array(
            "T",
            ElemType::F64,
            vec![(1, 64), (1, 64)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        p.body.insert(
            0,
            b::do_loop(
                "j",
                b::c(1),
                b::c(16),
                vec![b::kernel(
                    "scale",
                    vec![b::sref(t, vec![b::all(), b::at(b::iv("j"))])],
                )],
            ),
        );
        let (g, _, out) = run_search(&p);
        assert_eq!(g.group.len(), 2);
        let opt = apply(&p, &g, &out.choices);
        let td = opt.decl(opt.lookup("T").unwrap()).dist.clone().unwrap();
        let al = td.alignment().expect("co-array is aligned to the anchor");
        assert_eq!(&al.base, &out.choices[0].dist);
        // Both arrays redistribute at the boundary.
        assert_eq!(opt.stmt_census().redistributes, 2);
        assert!(xdp_ir::validate(&opt).is_empty());
    }

    #[test]
    fn single_phase_program_keeps_initial_placement_only() {
        let mut p = two_phase();
        p.body.truncate(1); // only the dim0-local sweep
        let (_, _, out) = run_search(&p);
        assert_eq!(out.choices.len(), 1);
        assert_eq!(out.choices[0].transition, 0.0);
    }
}
