//! Compile-time analysis utilities.
//!
//! The paper's implementation assumes "a fixed, known processor grid and
//! partitioning as allowed in HPF" (§3) — loop bounds and array shapes are
//! compile-time constants. The passes therefore reason *exactly*: a
//! question like "does the owner of `B[i]` equal the owner of `A[i]` for
//! all i in 1..n" is decided by enumerating the iteration space and
//! consulting the distributions, not by a conservative approximation.

use crate::{
    Block, ElemExpr, IntExpr, Ownership, Program, Section, SectionRef, Stmt, Subscript, Triplet,
    VarId,
};
use std::collections::HashMap;

/// A compile-time binding environment for loop variables.
pub type Bindings = HashMap<String, i64>;

/// Evaluate an integer expression with every variable bound and no
/// processor-dependent intrinsics (`mypid`, `mylb`, `myub` make the result
/// `None` — they are run-time values).
pub fn eval_static(e: &IntExpr, env: &Bindings) -> Option<i64> {
    match e {
        IntExpr::Const(c) => Some(*c),
        IntExpr::Var(v) => env.get(v).copied(),
        IntExpr::MyPid | IntExpr::MyLb(..) | IntExpr::MyUb(..) => None,
        IntExpr::Neg(a) => Some(eval_static(a, env)?.saturating_neg()),
        IntExpr::Bin(op, a, b) => op.apply(eval_static(a, env)?, eval_static(b, env)?),
    }
}

/// Resolve a section reference to concrete bounds under `env`. `None` if
/// any subscript is not compile-time constant, if the reference's rank
/// does not match the declaration, or if the section reaches outside the
/// declared bounds — an out-of-bounds reference has no meaningful
/// compile-time placement, so analyses must bail rather than reason from
/// a nonsensical owner.
pub fn concrete_section(p: &Program, r: &SectionRef, env: &Bindings) -> Option<Section> {
    resolve_section(p, r, env, true)
}

/// Like [`concrete_section`] but without the containment requirement:
/// the section may reach outside the declared bounds. For shape probes
/// (e.g. the frontend's loop-invariance check) where only the extents
/// matter and the binding values are synthetic.
pub fn concrete_section_unbounded(p: &Program, r: &SectionRef, env: &Bindings) -> Option<Section> {
    resolve_section(p, r, env, false)
}

fn resolve_section(
    p: &Program,
    r: &SectionRef,
    env: &Bindings,
    check_bounds: bool,
) -> Option<Section> {
    let decl = p.decl(r.var);
    if r.subs.len() != decl.bounds.len() {
        return None;
    }
    let mut dims = Vec::with_capacity(r.subs.len());
    for (d, s) in r.subs.iter().enumerate() {
        let t = match s {
            Subscript::Point(e) => Triplet::point(eval_static(e, env)?),
            Subscript::All => decl.bounds[d],
            Subscript::Range(t) => Triplet::new(
                eval_static(&t.lb, env)?,
                eval_static(&t.ub, env)?,
                eval_static(&t.st, env)?,
            ),
        };
        if t.st <= 0 {
            return None;
        }
        let bound = decl.bounds[d];
        if check_bounds && t.lb <= t.ub && (t.lb < bound.lb || t.ub > bound.ub) {
            return None;
        }
        dims.push(t);
    }
    Some(Section::new(dims))
}

/// The single compile-time owner of a reference under `env`, if the
/// variable is exclusive and every element has the same owner.
pub fn static_owner(p: &Program, r: &SectionRef, env: &Bindings) -> Option<usize> {
    let decl = p.decl(r.var);
    if decl.ownership != Ownership::Exclusive {
        return None;
    }
    let dist = decl.dist.as_ref()?;
    let sec = concrete_section(p, r, env)?;
    if sec.is_empty() {
        return None;
    }
    let mut owner = None;
    for idx in sec.iter() {
        let o = dist.owner_of(&decl.bounds, &idx);
        match owner {
            None => owner = Some(o),
            Some(prev) if prev != o => return None,
            _ => {}
        }
    }
    owner
}

/// The constant iteration values of a unit-structured loop, if its bounds
/// are compile-time constants. Caps at `max_iters` to keep enumeration
/// sane.
pub fn loop_values(
    lo: &IntExpr,
    hi: &IntExpr,
    step: &IntExpr,
    env: &Bindings,
    max_iters: usize,
) -> Option<Vec<i64>> {
    let (lo, hi, step) = (
        eval_static(lo, env)?,
        eval_static(hi, env)?,
        eval_static(step, env)?,
    );
    if step == 0 {
        return None;
    }
    let mut out = Vec::new();
    let mut i = lo;
    while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
        out.push(i);
        if out.len() > max_iters {
            return None;
        }
        i += step;
    }
    Some(out)
}

/// Compress a sorted, deduplicated index list into maximal constant-stride
/// triplets (greedy left to right).
pub fn compress_runs(sorted: &[i64]) -> Vec<Triplet> {
    let mut out = Vec::new();
    let mut k = 0;
    while k < sorted.len() {
        if k + 1 == sorted.len() {
            out.push(Triplet::point(sorted[k]));
            break;
        }
        let st = sorted[k + 1] - sorted[k];
        let mut j = k + 1;
        while j + 1 < sorted.len() && sorted[j + 1] - sorted[j] == st {
            j += 1;
        }
        out.push(Triplet::new(sorted[k], sorted[j], st.max(1)));
        k = j + 1;
    }
    out
}

/// How a statement touches a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Read,
    Write,
    /// Ownership leaves this processor (send `=>`/`-=>`).
    OwnOut,
    /// Ownership arrives (receive `<=`/`<=-`).
    OwnIn,
    /// Ownership queried (`iown`/`accessible`/`await`/`mylb`/`myub`).
    OwnQuery,
}

/// One recorded access.
#[derive(Clone, Debug)]
pub struct Access {
    pub var: VarId,
    pub r: SectionRef,
    pub kind: AccessKind,
}

fn collect_int(e: &IntExpr, out: &mut Vec<Access>) {
    match e {
        IntExpr::MyLb(r, _) | IntExpr::MyUb(r, _) => out.push(Access {
            var: r.var,
            r: (**r).clone(),
            kind: AccessKind::OwnQuery,
        }),
        IntExpr::Bin(_, a, b) => {
            collect_int(a, out);
            collect_int(b, out);
        }
        IntExpr::Neg(a) => collect_int(a, out),
        _ => {}
    }
}

fn collect_elem(e: &ElemExpr, out: &mut Vec<Access>) {
    match e {
        ElemExpr::Ref(r) => out.push(Access {
            var: r.var,
            r: r.clone(),
            kind: AccessKind::Read,
        }),
        ElemExpr::Bin(_, a, b) => {
            collect_elem(a, out);
            collect_elem(b, out);
        }
        ElemExpr::Neg(a) => collect_elem(a, out),
        ElemExpr::FromInt(i) => collect_int(i, out),
        _ => {}
    }
}

fn collect_bool(e: &crate::BoolExpr, out: &mut Vec<Access>) {
    use crate::BoolExpr::*;
    match e {
        Iown(r) | Accessible(r) | Await(r) => out.push(Access {
            var: r.var,
            r: r.clone(),
            kind: AccessKind::OwnQuery,
        }),
        Cmp(_, a, b) => {
            collect_int(a, out);
            collect_int(b, out);
        }
        And(a, b) | Or(a, b) => {
            collect_bool(a, out);
            collect_bool(b, out);
        }
        Not(a) => collect_bool(a, out),
        True | False => {}
    }
}

/// All accesses performed (transitively) by a statement.
pub fn accesses(stmt: &Stmt, out: &mut Vec<Access>) {
    match stmt {
        Stmt::Assign { target, rhs } => {
            out.push(Access {
                var: target.var,
                r: target.clone(),
                kind: AccessKind::Write,
            });
            collect_elem(rhs, out);
        }
        Stmt::ScalarAssign { value, .. } => collect_int(value, out),
        Stmt::Kernel { args, int_args, .. } => {
            for a in args {
                // Kernels may read and write any argument.
                out.push(Access {
                    var: a.var,
                    r: a.clone(),
                    kind: AccessKind::Read,
                });
                out.push(Access {
                    var: a.var,
                    r: a.clone(),
                    kind: AccessKind::Write,
                });
            }
            for e in int_args {
                collect_int(e, out);
            }
        }
        Stmt::Send {
            sec,
            kind,
            dest,
            salt,
        } => {
            if let Some(e) = salt {
                collect_int(e, out);
            }
            out.push(Access {
                var: sec.var,
                r: sec.clone(),
                kind: AccessKind::Read,
            });
            if kind.moves_ownership() {
                out.push(Access {
                    var: sec.var,
                    r: sec.clone(),
                    kind: AccessKind::OwnOut,
                });
            }
            if let crate::DestSet::Pids(es) = dest {
                for e in es {
                    collect_int(e, out);
                }
            }
        }
        Stmt::Recv {
            target,
            kind,
            name,
            salt,
        } => {
            if let Some(e) = salt {
                collect_int(e, out);
            }
            out.push(Access {
                var: target.var,
                r: target.clone(),
                kind: AccessKind::Write,
            });
            if kind.moves_ownership() {
                out.push(Access {
                    var: target.var,
                    r: target.clone(),
                    kind: AccessKind::OwnIn,
                });
            }
            if let Some(n) = name {
                // The name is only a tag; record as a query-free mention.
                let _ = n;
            }
        }
        Stmt::Guarded { rule, body } => {
            collect_bool(rule, out);
            for s in body {
                accesses(s, out);
            }
        }
        Stmt::DoLoop {
            lo, hi, step, body, ..
        } => {
            collect_int(lo, out);
            collect_int(hi, out);
            collect_int(step, out);
            for s in body {
                accesses(s, out);
            }
        }
        Stmt::Barrier => {}
        Stmt::Redistribute { var, .. } => {
            // A collective rewrite of the variable's entire placement:
            // reads and rewrites everything, moves ownership both ways.
            let whole = SectionRef::scalar(*var);
            for kind in [
                AccessKind::Read,
                AccessKind::Write,
                AccessKind::OwnOut,
                AccessKind::OwnIn,
            ] {
                out.push(Access {
                    var: *var,
                    r: whole.clone(),
                    kind,
                });
            }
        }
    }
}

/// All accesses in a block.
pub fn block_accesses(block: &Block) -> Vec<Access> {
    let mut out = Vec::new();
    for s in block {
        accesses(s, &mut out);
    }
    out
}

/// Does any receive statement anywhere in the program target variable
/// `var`? (Used by accessibility-check elimination: with no receives, a
/// section can never be transitional.)
pub fn program_has_recv_on(p: &Program, var: VarId) -> bool {
    let mut found = false;
    p.visit(&mut |s| {
        if let Stmt::Recv { target, .. } = s {
            if target.var == var {
                found = true;
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build as b;
    use crate::{DimDist, ElemType, ProcGrid};

    fn prog() -> (Program, VarId, VarId) {
        let mut p = Program::new();
        let grid = ProcGrid::linear(4);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let c = p.declare(b::array(
            "C",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Cyclic],
            grid,
        ));
        (p, a, c)
    }

    #[test]
    fn eval_static_rejects_runtime_intrinsics() {
        let env = Bindings::from([("i".to_string(), 5)]);
        assert_eq!(eval_static(&b::iv("i").add(b::c(2)), &env), Some(7));
        assert_eq!(eval_static(&b::mypid(), &env), None);
        assert_eq!(eval_static(&b::iv("j"), &env), None);
    }

    #[test]
    fn concrete_sections_and_owners() {
        let (p, a, c) = prog();
        let env = Bindings::from([("i".to_string(), 5)]);
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let sec = concrete_section(&p, &ai, &env).unwrap();
        assert_eq!(sec, Section::new(vec![Triplet::point(5)]));
        // A block: 16/4 = 4 per proc; A[5] on P1. C cyclic: C[5] on P0.
        assert_eq!(static_owner(&p, &ai, &env), Some(1));
        let ci = b::sref(c, vec![b::at(b::iv("i"))]);
        assert_eq!(static_owner(&p, &ci, &env), Some(0));
        // Spanning section has no single owner.
        let span = b::sref(a, vec![b::span(b::c(1), b::c(16))]);
        assert_eq!(static_owner(&p, &span, &env), None);
        // All-subscript resolves to full bounds.
        let all = concrete_section(&p, &b::sref(a, vec![b::all()]), &env).unwrap();
        assert_eq!(all.volume(), 16);
    }

    #[test]
    fn loop_values_enumerates() {
        let env = Bindings::new();
        assert_eq!(
            loop_values(&b::c(1), &b::c(7), &b::c(2), &env, 100),
            Some(vec![1, 3, 5, 7])
        );
        assert_eq!(
            loop_values(&b::c(1), &b::iv("n"), &b::c(1), &env, 100),
            None
        );
        assert_eq!(loop_values(&b::c(1), &b::c(1000), &b::c(1), &env, 10), None);
        assert_eq!(
            loop_values(&b::c(3), &b::c(1), &b::c(-1), &env, 100),
            Some(vec![3, 2, 1])
        );
    }

    #[test]
    fn compress_runs_finds_triplets() {
        assert_eq!(compress_runs(&[1, 2, 3, 4]), vec![Triplet::range(1, 4)]);
        assert_eq!(compress_runs(&[2, 4, 6]), vec![Triplet::new(2, 6, 2)]);
        assert_eq!(
            compress_runs(&[1, 2, 3, 7, 9, 11]),
            vec![Triplet::range(1, 3), Triplet::new(7, 11, 2)]
        );
        assert_eq!(compress_runs(&[5]), vec![Triplet::point(5)]);
        assert_eq!(compress_runs(&[]), Vec::<Triplet>::new());
    }

    #[test]
    fn accesses_classify() {
        let (_, a, c) = prog();
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        let ci = b::sref(c, vec![b::at(b::c(1))]);
        let s = b::guarded(
            b::iown(ai.clone()),
            vec![
                b::send_own_val(ai.clone()),
                b::recv_own_val(ci.clone()),
                b::assign(ai.clone(), b::val(ci.clone())),
            ],
        );
        let mut acc = Vec::new();
        accesses(&s, &mut acc);
        let kinds: Vec<AccessKind> = acc.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&AccessKind::OwnQuery));
        assert!(kinds.contains(&AccessKind::OwnOut));
        assert!(kinds.contains(&AccessKind::OwnIn));
        assert!(kinds.contains(&AccessKind::Read));
        assert!(kinds.contains(&AccessKind::Write));
    }

    #[test]
    fn recv_detection() {
        let (mut p, a, c) = prog();
        let ci = b::sref(c, vec![b::at(b::c(1))]);
        p.body = vec![b::recv_own_val(ci)];
        assert!(program_has_recv_on(&p, c));
        assert!(!program_has_recv_on(&p, a));
    }
}
