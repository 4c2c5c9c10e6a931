//! Recognize hand-written (or [`MigrateOwnership`]-produced) per-element
//! ownership-migration loops and collapse them into a single
//! [`Stmt::Redistribute`], handing the communication pattern to the planner
//! in `xdp-collectives`.
//!
//! The recognized idiom migrates array `A`'s ownership to follow a witness
//! array `W` — a full loop nest over `A`'s index space whose body is exactly
//! the migration pair:
//!
//! ```text
//! do i1 = lb1, ub1 { ... do iR = lbR, ubR {
//!     (iown(A[i1,..,iR]) && !iown(W[i1,..,iR])) : { A[i1,..,iR] -=> }
//!     (iown(W[i1,..,iR]) && !iown(A[i1,..,iR])) : { A[i1,..,iR] <=- }
//! } ... }
//! ```
//!
//! (the §2.2 "paper literal" form without the co-location refinement is
//! accepted too). When the nest covers `A`'s whole bounds, `W` is statically
//! distributed, and the two arrays' index spaces conform, the nest is
//! equivalent to redistributing `A` onto `W`'s distribution — but as a
//! planned, vectorized, bound schedule instead of an element-at-a-time
//! exchange through the matcher.
//!
//! [`MigrateOwnership`]: crate::MigrateOwnership

use crate::passes::{Pass, PassResult};
use xdp_ir::walk::rewrite_block;
use xdp_ir::{
    BoolExpr, DestSet, Distribution, IntExpr, Program, SectionRef, Stmt, Subscript, TransferKind,
    VarId,
};

/// The redistribution-recognition pass.
pub struct LowerRedistribute;

/// `A[i1,..,iR]` where the subscripts are exactly the given loop variables
/// in order: return `A`.
fn cell_of(r: &SectionRef, loop_vars: &[String]) -> Option<VarId> {
    if r.subs.len() != loop_vars.len() {
        return None;
    }
    for (s, v) in r.subs.iter().zip(loop_vars) {
        match s {
            Subscript::Point(IntExpr::Var(name)) if name == v => {}
            _ => return None,
        }
    }
    Some(r.var)
}

/// `iown(X[cell])`, with `X` one of the two candidate arrays.
fn iown_of(e: &BoolExpr, loop_vars: &[String]) -> Option<VarId> {
    match e {
        BoolExpr::Iown(r) => cell_of(r, loop_vars),
        _ => None,
    }
}

/// `iown(X[cell])` or `iown(X[cell]) && !iown(Y[cell])`: the positive side
/// and (optionally) the negated side.
fn rule_of(e: &BoolExpr, loop_vars: &[String]) -> Option<(VarId, Option<VarId>)> {
    match e {
        BoolExpr::Iown(_) => Some((iown_of(e, loop_vars)?, None)),
        BoolExpr::And(l, r) => {
            let pos = iown_of(l, loop_vars)?;
            let BoolExpr::Not(n) = &**r else { return None };
            Some((pos, Some(iown_of(n, loop_vars)?)))
        }
        _ => None,
    }
}

/// Match the two-guard migration body; return `(migrated, witness)`.
fn match_pair(body: &[Stmt], loop_vars: &[String]) -> Option<(VarId, VarId)> {
    let [g1, g2] = body else { return None };
    let (Stmt::Guarded { rule: r1, body: b1 }, Stmt::Guarded { rule: r2, body: b2 }) = (g1, g2)
    else {
        return None;
    };
    // Send side: iown(A) [&& !iown(W)] : { A -=> }.
    let [Stmt::Send {
        sec,
        kind: TransferKind::OwnershipValue,
        dest: DestSet::Unspecified,
        salt: None,
    }] = &b1[..]
    else {
        return None;
    };
    let a = cell_of(sec, loop_vars)?;
    let (p1, n1) = rule_of(r1, loop_vars)?;
    if p1 != a || n1.is_some_and(|w| w == a) {
        return None;
    }
    // Recv side: iown(W) [&& !iown(A)] : { A <=- }.
    let [Stmt::Recv {
        target,
        kind: TransferKind::OwnershipValue,
        name: None,
        salt: None,
    }] = &b2[..]
    else {
        return None;
    };
    if cell_of(target, loop_vars)? != a {
        return None;
    }
    let (w, n2) = rule_of(r2, loop_vars)?;
    if w == a || n1.is_some_and(|x| x != w) || n2 != n1.map(|_| a) {
        return None;
    }
    Some((a, w))
}

/// Match a whole migration nest rooted at `s`; return the migrated array
/// and the witness distribution it should adopt.
fn match_nest(s: &Stmt, p: &Program) -> Option<(VarId, VarId, Distribution)> {
    let mut loop_vars = Vec::new();
    let mut ranges = Vec::new();
    let mut cur = s;
    let body = loop {
        let Stmt::DoLoop {
            var,
            lo: IntExpr::Const(lo),
            hi: IntExpr::Const(hi),
            step,
            body,
        } = cur
        else {
            return None;
        };
        if !matches!(step, IntExpr::Const(1)) || loop_vars.contains(var) {
            return None;
        }
        loop_vars.push(var.clone());
        ranges.push((*lo, *hi));
        match &body[..] {
            [inner @ Stmt::DoLoop { .. }] => cur = inner,
            other => break other,
        }
    };
    let (a, w) = match_pair(body, &loop_vars)?;
    let (da, dw) = (p.decl(a), p.decl(w));
    let dist = dw.dist.clone()?;
    // The nest must walk A's full index space, and W must conform to A so
    // that `iown(W[i..])` is defined wherever the loop evaluates it.
    if da.bounds.len() != loop_vars.len() || da.bounds != dw.bounds {
        return None;
    }
    for (d, t) in da.bounds.iter().enumerate() {
        if ranges[d] != (t.lb, t.ub) || t.st != 1 {
            return None;
        }
    }
    Some((a, w, dist))
}

impl Pass for LowerRedistribute {
    fn name(&self) -> &'static str {
        "lower-redistribute"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let body = rewrite_block(&p.body, &mut |s| {
            // Inner loops of a nest never match (their subscripts use the
            // outer induction variables), so bottom-up rewriting is safe.
            let Some((a, w, dist)) = match_nest(&s, p) else {
                return vec![s];
            };
            changed = true;
            notes.push(format!(
                "collapsed migration loop of {} (following {}) into `redistribute {} {}`",
                p.decl(a).name,
                p.decl(w).name,
                p.decl(a).name,
                dist,
            ));
            vec![Stmt::Redistribute { var: a, dist }]
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

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    /// `A` block-distributed, witness `W` cyclic; migration nest over
    /// `rank` dimensions.
    fn migration(rank: usize, refined: bool) -> Program {
        let grid = ProcGrid::linear(4);
        let n = 8i64;
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n); rank],
            {
                let mut d = vec![DimDist::Star; rank];
                d[0] = DimDist::Block;
                d
            },
            grid.clone(),
        ));
        let w = p.declare(b::array(
            "W",
            ElemType::F64,
            vec![(1, n); rank],
            {
                let mut d = vec![DimDist::Star; rank];
                d[rank - 1] = DimDist::Cyclic;
                d
            },
            grid,
        ));
        let vars: Vec<String> = (0..rank).map(|d| format!("i{d}")).collect();
        let subs: Vec<_> = vars.iter().map(|v| b::at(b::iv(v))).collect();
        let ac = b::sref(a, subs.clone());
        let wc = b::sref(w, subs);
        let (send_rule, recv_rule) = if refined {
            (
                b::iown(ac.clone()).and(BoolExpr::Not(Box::new(b::iown(wc.clone())))),
                b::iown(wc.clone()).and(BoolExpr::Not(Box::new(b::iown(ac.clone())))),
            )
        } else {
            (b::iown(ac.clone()), b::iown(wc.clone()))
        };
        let mut body = vec![
            b::guarded(send_rule, vec![b::send_own_val(ac.clone())]),
            b::guarded(recv_rule, vec![b::recv_own_val(ac)]),
        ];
        for v in vars.iter().rev() {
            body = vec![b::do_loop(v, b::c(1), b::c(n), body)];
        }
        p.body = body;
        p
    }

    #[test]
    fn collapses_refined_and_literal_nests() {
        for refined in [false, true] {
            for rank in [1, 2] {
                let p = migration(rank, refined);
                let r = LowerRedistribute.run(&p);
                assert!(r.changed, "rank {rank} refined {refined}");
                assert_eq!(r.program.body.len(), 1);
                let Stmt::Redistribute { var, dist } = &r.program.body[0] else {
                    panic!("expected redistribute, got {:?}", r.program.body[0]);
                };
                assert_eq!(r.program.decl(*var).name, "A");
                assert_eq!(Some(dist), p.decl(p.lookup("W").unwrap()).dist.as_ref());
                assert!(xdp_ir::validate(&r.program).is_empty());
            }
        }
    }

    #[test]
    fn partial_nests_and_extra_statements_are_left_alone() {
        // Loop covers half the index space: not a redistribution.
        let mut p = migration(1, true);
        let Stmt::DoLoop { hi, .. } = &mut p.body[0] else {
            unreachable!()
        };
        *hi = IntExpr::Const(4);
        assert!(!LowerRedistribute.run(&p).changed);

        // A third statement rides in the body: leave it alone.
        let mut p = migration(1, true);
        let Stmt::DoLoop { body, .. } = &mut p.body[0] else {
            unreachable!()
        };
        body.push(Stmt::Barrier);
        assert!(!LowerRedistribute.run(&p).changed);

        // Value-only transfers are not ownership migration.
        let mut p = migration(1, false);
        let Stmt::DoLoop { body, .. } = &mut p.body[0] else {
            unreachable!()
        };
        let Stmt::Guarded { body: b1, .. } = &mut body[0] else {
            unreachable!()
        };
        let Stmt::Send { kind, .. } = &mut b1[0] else {
            unreachable!()
        };
        *kind = TransferKind::Value;
        assert!(!LowerRedistribute.run(&p).changed);
    }

    #[test]
    fn matches_migrate_ownership_output_shape() {
        // The MigrateOwnership pass emits the same pair plus a compute
        // guard; that three-statement body must NOT collapse (the compute
        // still needs the loop), guarding against false positives.
        let mut p = migration(1, true);
        let a = p.lookup("A").unwrap();
        let Stmt::DoLoop { body, .. } = &mut p.body[0] else {
            unreachable!()
        };
        let ac = b::sref(a, vec![b::at(b::iv("i0"))]);
        body.push(b::guarded(
            b::await_(ac.clone()),
            vec![b::assign(ac.clone(), b::val(ac))],
        ));
        assert!(!LowerRedistribute.run(&p).changed);
    }
}
