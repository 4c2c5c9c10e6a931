//! The ownership-migration strategy (§2.2, second fragment).
//!
//! "An important feature of XDP is that other strategies than
//! 'owner-compute' can be expressed. For instance, the compiler might
//! determine that it would save future communication if ownership of each
//! element of the A array were moved to the same processor as the
//! corresponding element of the B array."
//!
//! A recognized naive communication loop for `A[g(i)] = f(A[g(i)],
//! B[f(i)])` with a single communicated operand is rewritten into the
//! paper's fragment:
//!
//! ```text
//! do i {
//!     iown(A[i])  : { A[i] -=> }
//!     iown(B[i])  : { A[i] <=- }
//!     await(A[i]) : { A[i] = A[i] + B[i] }
//! }
//! ```
//!
//! — ownership of `A[i]` (with its value) migrates to `B[i]`'s owner, who
//! then computes locally. On subsequent executions of the same loop the
//! `iown(A[i])` guard is already true on `B[i]`'s owner, so no transfers
//! occur at all: the migration cost is paid once and amortized (experiment
//! E6). The pass also sets `A`'s segment shape to single elements, since
//! ownership transfer granularity is the segment (§3.1).

use crate::passes::pattern::recognize;
use crate::passes::{Pass, PassResult};
use xdp_ir::build as b;
use xdp_ir::walk::rewrite_block;
use xdp_ir::{Program, VarId};

/// The ownership-migration pass.
///
/// By default the transfer statements carry the *generalized* compute
/// rules XDP advertises (§2.4): `iown(A[i]) && !iown(B[i])` on the send and
/// the mirror on the receive, so already-co-located elements (including
/// every element on repeat executions) move nothing. `paper_literal()`
/// emits the fragment exactly as printed in §2.2, which self-transfers
/// co-located elements through the ether.
pub struct MigrateOwnership {
    /// Skip the transfer when source and destination owner coincide.
    pub skip_colocated: bool,
}

impl Default for MigrateOwnership {
    fn default() -> Self {
        MigrateOwnership {
            skip_colocated: true,
        }
    }
}

impl MigrateOwnership {
    /// The verbatim §2.2 fragment (no co-location refinement).
    pub fn paper_literal() -> MigrateOwnership {
        MigrateOwnership {
            skip_colocated: false,
        }
    }
}

impl Pass for MigrateOwnership {
    fn name(&self) -> &'static str {
        "migrate-ownership"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let mut element_granular: Vec<VarId> = Vec::new();
        let body = rewrite_block(&p.body, &mut |s| {
            let Some(pat) = recognize(&s) else {
                return vec![s];
            };
            if pat.slots.len() != 1 {
                return vec![s];
            }
            let operand = pat.slots[0].operand.clone();
            if operand.var == pat.target.var {
                return vec![s];
            }
            changed = true;
            element_granular.push(pat.target.var);
            notes.push(format!(
                "rewrote owner-computes loop `{}` into ownership migration: {} follows {}",
                pat.var,
                p.decl(pat.target.var).name,
                p.decl(operand.var).name,
            ));
            let (send_rule, recv_rule) = if self.skip_colocated {
                (
                    b::iown(pat.target.clone())
                        .and(xdp_ir::BoolExpr::Not(Box::new(b::iown(operand.clone())))),
                    b::iown(operand.clone())
                        .and(xdp_ir::BoolExpr::Not(Box::new(b::iown(pat.target.clone())))),
                )
            } else {
                (b::iown(pat.target.clone()), b::iown(operand.clone()))
            };
            vec![b::do_loop(
                &pat.var,
                pat.lo.clone(),
                pat.hi.clone(),
                vec![
                    b::guarded(send_rule, vec![b::send_own_val(pat.target.clone())]),
                    b::guarded(recv_rule, vec![b::recv_own_val(pat.target.clone())]),
                    b::guarded(
                        b::await_(pat.target.clone()),
                        vec![b::assign(pat.target.clone(), pat.rhs_original.clone())],
                    ),
                ],
            )]
        });
        let mut program = p.clone();
        program.body = body;
        // Ownership transfer granularity is the segment: migrated arrays
        // need element-granular segments.
        for var in element_granular {
            let decl = &mut program.decls[var.index()];
            let rank = decl.bounds.len();
            decl.segment_shape = Some(vec![1; rank]);
        }
        PassResult {
            program,
            changed,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_owner_computes;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn lowered() -> Program {
        let grid = ProcGrid::linear(4);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Cyclic],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(16),
            vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
        )];
        lower_owner_computes(&s).unwrap()
    }

    #[test]
    fn produces_paper_fragment() {
        let p = lowered();
        let r = MigrateOwnership::paper_literal().run(&p);
        assert!(r.changed);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("iown(A[i]) : {"), "{text}");
        assert!(text.contains("A[i] -=>"), "{text}");
        assert!(text.contains("iown(B[i]) : {"), "{text}");
        assert!(text.contains("A[i] <=-"), "{text}");
        assert!(text.contains("await(A[i]) : {"), "{text}");
        assert!(text.contains("A[i] = (A[i] + B[i])"), "{text}");
        // Segment shape on A is now element-granular.
        let a = r.program.lookup("A").unwrap();
        assert_eq!(r.program.decl(a).segment_shape, Some(vec![1]));
        // No value sends/recvs remain; only the ownership pair.
        let c = r.program.stmt_census();
        assert_eq!(c.sends, 1);
        assert_eq!(c.recvs, 1);
    }

    #[test]
    fn colocated_refinement_guards_both_sides() {
        let p = lowered();
        let r = MigrateOwnership::default().run(&p);
        assert!(r.changed);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("(iown(A[i]) && !iown(B[i])) : {"), "{text}");
        assert!(text.contains("(iown(B[i]) && !iown(A[i])) : {"), "{text}");
    }

    #[test]
    fn leaves_multi_operand_loops_alone() {
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Cyclic],
            grid.clone(),
        ));
        let cc = s.declare(b::array(
            "C",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::BlockCyclic(2)],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        let ci = b::sref(cc, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![b::assign(ai, b::val(bi).add(b::val(ci)))],
        )];
        let p = lower_owner_computes(&s).unwrap();
        let r = MigrateOwnership::default().run(&p);
        assert!(!r.changed);
    }
}
