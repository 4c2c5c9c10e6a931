//! Accessibility-check elimination (§3.2).
//!
//! "If no use-def chains from a use of X in an accessible(X) intrinsic
//! lead back to a receive statement, then it may be possible to eliminate
//! the accessible(X) call." With our whole-program view the criterion is:
//! if no receive statement anywhere targets `X`'s variable, `X` can never
//! be transitional, so `accessible(X)` and `await(X)` reduce to `iown(X)`
//! (await's unowned case returns false, exactly like `iown`). The pass
//! also constant-folds rule algebra and unwraps `true : { ... }` guards.

use crate::analysis::program_has_recv_on;
use crate::passes::{Pass, PassResult};
use xdp_ir::walk::rewrite_block;
use xdp_ir::{BoolExpr, Program, Stmt};

/// The check-elimination pass.
pub struct ElideAccessibleChecks;

impl Pass for ElideAccessibleChecks {
    fn name(&self) -> &'static str {
        "elide-accessible-checks"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let body = rewrite_block(&p.body, &mut |s| match s {
            Stmt::Guarded { rule, body } => {
                let new_rule = simplify(p, &rule, &mut notes, &mut changed);
                match new_rule {
                    BoolExpr::True => {
                        changed = true;
                        notes.push("unwrapped always-true guard".to_string());
                        body
                    }
                    BoolExpr::False => {
                        changed = true;
                        notes.push("removed always-false guarded block".to_string());
                        vec![]
                    }
                    rule => vec![Stmt::Guarded { rule, body }],
                }
            }
            other => vec![other],
        });
        let mut program = p.clone();
        program.body = body;
        PassResult {
            program,
            changed,
            notes,
        }
    }
}

fn simplify(p: &Program, rule: &BoolExpr, notes: &mut Vec<String>, changed: &mut bool) -> BoolExpr {
    match rule {
        BoolExpr::Await(r) | BoolExpr::Accessible(r) if !program_has_recv_on(p, r.var) => {
            *changed = true;
            notes.push(format!(
                "downgraded await/accessible on {} to iown: no receives target it",
                p.decl(r.var).name
            ));
            BoolExpr::Iown(r.clone())
        }
        BoolExpr::And(a, b) => {
            let (a, b) = (
                simplify(p, a, notes, changed),
                simplify(p, b, notes, changed),
            );
            match (&a, &b) {
                (BoolExpr::True, _) => b,
                (_, BoolExpr::True) => a,
                (BoolExpr::False, _) | (_, BoolExpr::False) => BoolExpr::False,
                _ => BoolExpr::And(Box::new(a), Box::new(b)),
            }
        }
        BoolExpr::Or(a, b) => {
            let (a, b) = (
                simplify(p, a, notes, changed),
                simplify(p, b, notes, changed),
            );
            match (&a, &b) {
                (BoolExpr::False, _) => b,
                (_, BoolExpr::False) => a,
                (BoolExpr::True, _) | (_, BoolExpr::True) => BoolExpr::True,
                _ => BoolExpr::Or(Box::new(a), Box::new(b)),
            }
        }
        BoolExpr::Not(a) => {
            let a = simplify(p, a, notes, changed);
            match a {
                BoolExpr::True => BoolExpr::False,
                BoolExpr::False => BoolExpr::True,
                other => BoolExpr::Not(Box::new(other)),
            }
        }
        BoolExpr::Cmp(op, a, b) => {
            if let (Some(av), Some(bv)) = (a.as_const(), b.as_const()) {
                *changed = true;
                if op.eval(av, bv) {
                    BoolExpr::True
                } else {
                    BoolExpr::False
                }
            } else {
                rule.clone()
            }
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn prog() -> (Program, xdp_ir::VarId) {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        (p, a)
    }

    #[test]
    fn downgrades_await_without_receives() {
        let (mut p, a) = prog();
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        p.body = vec![b::guarded(
            b::await_(ai.clone()),
            vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitF(1.0))],
        )];
        let r = ElideAccessibleChecks.run(&p);
        assert!(r.changed);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("iown(A[1])"), "{text}");
        assert!(!text.contains("await"), "{text}");
    }

    #[test]
    fn keeps_await_with_receives() {
        let (mut p, a) = prog();
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        let other = b::sref(a, vec![b::at(b::c(5))]);
        p.body = vec![
            b::recv_val(other.clone(), other.clone()),
            b::guarded(b::await_(ai.clone()), vec![]),
        ];
        let r = ElideAccessibleChecks.run(&p);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("await(A[1])"), "{text}");
    }

    #[test]
    fn folds_constant_comparisons_and_unwraps() {
        let (mut p, a) = prog();
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        p.body = vec![
            b::guarded(
                b::cmp(xdp_ir::CmpOp::Le, b::c(1), b::c(2)),
                vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitF(1.0))],
            ),
            b::guarded(
                b::cmp(xdp_ir::CmpOp::Gt, b::c(1), b::c(2)),
                vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitF(2.0))],
            ),
        ];
        let r = ElideAccessibleChecks.run(&p);
        assert!(r.changed);
        let c = r.program.stmt_census();
        assert_eq!(c.guards, 0);
        assert_eq!(c.assigns, 1); // false branch deleted
    }

    #[test]
    fn simplifies_connectives() {
        let (mut p, a) = prog();
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        let rule = BoolExpr::And(Box::new(BoolExpr::True), Box::new(b::iown(ai.clone())));
        p.body = vec![b::guarded(rule, vec![])];
        let r = ElideAccessibleChecks.run(&p);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("iown(A[1]) : {"), "{text}");
        assert!(!text.contains("true"), "{text}");
    }
}
