//! Automatic data placement as a compiler pass.
//!
//! Wraps [`xdp_place::optimize`]: the program's reference patterns are
//! read into a phase graph, candidate distributions are scored against
//! the machine model, and the winning placement is written back — new
//! declared distributions plus `redistribute` statements at phase
//! boundaries. The per-phase decisions (chosen distribution, predicted
//! compute/shift/move cost) surface through the pass notes, so
//! `xdpc --explain` shows *why* each phase got its placement.
//!
//! Programs the search cannot safely rewrite keep their placement and
//! only get notes: where the program text pins a member of the searched
//! group (hand-written ownership migration, a send or receive, `mypid`,
//! `mylb`/`myub` outside a loop header — `Dists::pinned`), a decl rewrite
//! could break it, and programs with no distributed anchor or no compute
//! give the search nothing to optimize.

use crate::passes::{Pass, PassResult};
use xdp_ir::Program;
use xdp_place::{optimize, PlaceOptions};

/// The automatic-placement pass. Holds the search options so callers can
/// tune the model/topology the scoring runs against.
pub struct AutoPlace {
    pub options: PlaceOptions,
}

impl AutoPlace {
    /// Search with the default 1993 machine model.
    pub fn new() -> AutoPlace {
        AutoPlace {
            options: PlaceOptions::default(),
        }
    }
}

impl Default for AutoPlace {
    fn default() -> Self {
        AutoPlace::new()
    }
}

impl Pass for AutoPlace {
    fn name(&self) -> &'static str {
        "auto-place"
    }

    fn run(&self, p: &Program) -> PassResult {
        let placed = match optimize(p, &self.options) {
            Ok(placed) => placed,
            Err(e) => {
                return PassResult {
                    program: p.clone(),
                    changed: false,
                    notes: vec![format!("not applicable: {e}")],
                };
            }
        };
        let pl = &placed.placement;
        let mut notes = vec![format!(
            "anchor {} group [{}] on {} procs: {} candidates scored, predicted total {:.1}",
            pl.anchor_name,
            pl.group_names.join(","),
            pl.nprocs,
            pl.candidates_considered,
            pl.total_predicted,
        )];
        notes.extend(pl.describe());
        if let Some(why) = placed.advisory {
            notes.push(format!("{why}: placement reported, not applied"));
            return PassResult {
                program: p.clone(),
                changed: false,
                notes,
            };
        }
        let changed = placed.program != *p;
        PassResult {
            program: placed.program,
            changed,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid, Stmt};

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
        p.body = vec![sweep(0), sweep(1)];
        p
    }

    #[test]
    fn rewrites_and_reports_per_phase_choices() {
        let p = two_phase();
        let r = AutoPlace::new().run(&p);
        assert!(r.changed);
        assert_eq!(r.program.stmt_census().redistributes, 1);
        // Header + one line per phase.
        assert!(r.notes.len() >= 3, "notes: {:?}", r.notes);
        assert!(r.notes[1].starts_with("phase 0"));
        assert!(r.notes[2].starts_with("phase 1"));
        assert!(r.notes[1].contains("predicted"));
    }

    #[test]
    fn hand_migration_reports_without_rewriting() {
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
        let r = AutoPlace::new().run(&p);
        assert!(!r.changed);
        assert_eq!(r.program, p);
        assert!(r.notes.iter().any(|n| n.contains("not applied")));
    }

    #[test]
    fn inapplicable_program_is_left_alone() {
        let p = Program::new();
        let r = AutoPlace::new().run(&p);
        assert!(!r.changed);
        assert!(r.notes[0].starts_with("not applicable"));
    }

    #[test]
    fn inserted_redistribute_targets_anchor() {
        let p = two_phase();
        let r = AutoPlace::new().run(&p);
        let a = r.program.lookup("A").unwrap();
        let mut found = false;
        r.program.visit(&mut |s| {
            if let Stmt::Redistribute { var, .. } = s {
                assert_eq!(*var, a);
                found = true;
            }
        });
        assert!(found);
    }
}
