//! Static well-formedness checks for IL+XDP programs.
//!
//! The XDP philosophy is *not* to check at run time (§2.5); these are the
//! compile-time checks a front end would run once: subscript ranks match
//! declarations, constant processor ids are in range, transfer statements
//! name exclusive variables, and loop variables do not collide with
//! declared array names.

use crate::expr::{IntExpr, SectionRef};
use crate::stmt::{Decl, DestSet, Ownership, Program, Stmt};
use crate::walk::{self, Node, Role};

/// Collect static diagnostics; an empty result means the program is
/// well-formed (not necessarily deadlock-free — that is behaviour, not
/// form).
pub fn validate(p: &Program) -> Vec<String> {
    let mut v = Validator {
        p,
        out: Vec::new(),
        nprocs: p.machine_size(),
    };
    for d in &p.decls {
        if d.ownership == Ownership::Exclusive && d.dist.is_none() {
            v.out
                .push(format!("exclusive array `{}` has no distribution", d.name));
        }
        if let Some(shape) = &d.segment_shape {
            if shape.len() != d.rank() {
                v.out.push(format!(
                    "array `{}`: segment shape rank {} != array rank {}",
                    d.name,
                    shape.len(),
                    d.rank()
                ));
            }
            if shape.iter().any(|&s| s < 1) {
                v.out
                    .push(format!("array `{}`: segment extents must be >= 1", d.name));
            }
        }
    }
    // Where a query stands: the statement the walk is inside.
    let mut here = "";
    for s in &p.body {
        walk::visit(Node::Stmt(s), &mut |n| match n {
            Node::Stmt(s) => here = v.stmt(s),
            Node::Ref(r, role) => v.sref(r, role, here),
            // (An undeclared `r` is reported where the walk reaches it.)
            Node::Int(IntExpr::MyLb(r, d) | IntExpr::MyUb(r, d)) => {
                let rank = p.decls.get(r.var.index()).map(|decl| decl.rank() as u32);
                if let Some(rank) = rank.filter(|&rank| *d == 0 || *d > rank) {
                    v.out.push(format!(
                        "{here}: mylb/myub dimension {d} out of range 1..={rank}"
                    ));
                }
            }
            _ => {}
        });
    }
    v.out
}

struct Validator<'a> {
    p: &'a Program,
    out: Vec<String>,
    nprocs: Option<usize>,
}

impl<'a> Validator<'a> {
    /// The declaration `r` names — a program built through the API can
    /// name one that does not exist, which is a diagnostic like any other.
    fn decl(&mut self, r: &SectionRef, ctx: &str) -> Option<&'a Decl> {
        let decl = self.p.decls.get(r.var.index());
        if decl.is_none() {
            let n = self.p.decls.len();
            self.out.push(format!(
                "{ctx}: {} is not declared ({n} declarations)",
                r.var
            ));
        }
        decl
    }

    /// One reference, in the role the walk found it playing.
    fn sref(&mut self, r: &SectionRef, role: Role, here: &str) {
        let ctx = match role {
            Role::Written => "assignment target",
            Role::Read => "assignment rhs",
            Role::Updated => "kernel argument",
            Role::Sent(_) => "send",
            Role::Received(_) => "receive target",
            Role::Tag => "receive name",
            Role::Queried { .. } => here,
        };
        let Some(decl) = self.decl(r, ctx) else {
            return;
        };
        if r.subs.len() != decl.rank() {
            self.out.push(format!(
                "{ctx}: `{}` subscripted with {} dimension(s), declared rank {}",
                decl.name,
                r.subs.len(),
                decl.rank()
            ));
        }
        if decl.ownership == Ownership::Universal {
            let name = &decl.name;
            match role {
                Role::Sent(_) | Role::Received(_) | Role::Tag => self.out.push(format!(
                    "{ctx}: `{name}` is universal; transfers require exclusive sections"
                )),
                Role::Queried { .. } => self
                    .out
                    .push(format!("{ctx}: intrinsic on universal `{name}`")),
                Role::Written | Role::Read | Role::Updated => {}
            }
        }
    }

    /// What a statement must satisfy by itself; the name its queries are
    /// reported under.
    fn stmt(&mut self, s: &Stmt) -> &'static str {
        match s {
            Stmt::Assign { .. } => "assignment",
            Stmt::ScalarAssign { var, .. } => {
                if self.p.lookup(var).is_some() {
                    self.out.push(format!(
                        "scalar assignment to `{var}` shadows a declared array"
                    ));
                }
                "scalar assignment"
            }
            Stmt::Kernel { .. } => "kernel parameter",
            Stmt::Send { dest, .. } => {
                let pids = match dest {
                    DestSet::Pids(pids) => pids.as_slice(),
                    DestSet::Unspecified => &[],
                };
                for c in pids.iter().filter_map(IntExpr::as_const) {
                    if let Some(np) = self.nprocs.filter(|&np| c < 0 || c >= np as i64) {
                        self.out
                            .push(format!("send destination {c} out of range 0..{np}"));
                    }
                }
                "send"
            }
            Stmt::Recv { .. } => "receive",
            Stmt::Guarded { .. } => "compute rule",
            Stmt::DoLoop { var, .. } => {
                if self.p.lookup(var).is_some() {
                    self.out
                        .push(format!("loop variable `{var}` shadows a declared array"));
                }
                "loop bound"
            }
            Stmt::Barrier => "barrier",
            Stmt::Redistribute { var, dist } => {
                let whole = SectionRef::scalar(*var);
                let Some(d) = self.decl(&whole, "redistribute") else {
                    return "redistribute";
                };
                if !d.is_exclusive() {
                    self.out
                        .push(format!("redistribute of universal variable `{}`", d.name));
                }
                if dist.rank() != d.rank() {
                    self.out.push(format!(
                        "redistribute of `{}` (rank {}) with a rank-{} distribution",
                        d.name,
                        d.rank(),
                        dist.rank()
                    ));
                }
                if let Some(np) = self.nprocs.filter(|&np| dist.nprocs() != np) {
                    self.out.push(format!(
                        "redistribute of `{}` onto {} processors on a {np}-processor machine",
                        d.name,
                        dist.nprocs()
                    ));
                }
                "redistribute"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build as b;
    use crate::{DimDist, ElemType, ProcGrid};

    fn base() -> (Program, crate::VarId, crate::VarId) {
        let mut p = Program::new();
        let grid = ProcGrid::linear(4);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8), (1, 8)],
            vec![DimDist::Block, DimDist::Star],
            grid,
        ));
        let u = p.declare(b::universal_array("U", ElemType::F64, vec![(1, 8)]));
        (p, a, u)
    }

    #[test]
    fn clean_program_validates() {
        let (mut p, a, _) = base();
        let r = b::sref(a, vec![b::at(b::c(1)), b::all()]);
        p.body = vec![b::guarded(b::iown(r.clone()), vec![b::send(r)])];
        assert!(validate(&p).is_empty(), "{:?}", validate(&p));
    }

    #[test]
    fn rank_mismatch_detected() {
        let (mut p, a, _) = base();
        let bad = b::sref(a, vec![b::at(b::c(1))]); // rank 2 array, 1 sub
        p.body = vec![b::send(bad)];
        let d = validate(&p);
        assert!(d.iter().any(|m| m.contains("declared rank 2")), "{d:?}");
    }

    #[test]
    fn universal_transfers_and_intrinsics_detected() {
        let (mut p, _, u) = base();
        let ur = b::sref(u, vec![b::all()]);
        p.body = vec![b::send(ur.clone()), b::guarded(b::iown(ur.clone()), vec![])];
        let d = validate(&p);
        assert!(
            d.iter().any(|m| m.contains("transfers require exclusive")),
            "{d:?}"
        );
        assert!(
            d.iter().any(|m| m.contains("intrinsic on universal")),
            "{d:?}"
        );
    }

    #[test]
    fn bad_destination_and_dim_detected() {
        let (mut p, a, _) = base();
        let r = b::sref(a, vec![b::at(b::c(1)), b::all()]);
        p.body = vec![
            b::send_to(r.clone(), vec![b::c(9)]),
            b::assign(
                b::sref(a, vec![b::at(b::mylb(r.clone(), 3)), b::all()]),
                crate::ElemExpr::LitF(1.0),
            ),
        ];
        let d = validate(&p);
        assert!(d.iter().any(|m| m.contains("out of range 0..4")), "{d:?}");
        assert!(
            d.iter().any(|m| m.contains("dimension 3 out of range")),
            "{d:?}"
        );
    }

    #[test]
    fn an_undeclared_variable_is_a_diagnostic_wherever_it_is_named() {
        // Built through the API, not parsed: nothing else would reject it.
        let (mut p, a, _) = base();
        let ghost = || b::sref(crate::VarId(7), vec![b::all()]);
        let row = b::sref(a, vec![b::at(b::mylb(ghost(), 1)), b::all()]);
        p.body = vec![
            b::send(ghost()),
            b::recv_val(row.clone(), ghost()),
            b::guarded(b::await_(ghost()), vec![b::kernel("touch", vec![ghost()])]),
            b::do_loop("i", b::c(1), b::myub(ghost(), 1), vec![]),
            b::assign(row, b::val(ghost())),
            b::redistribute(crate::VarId(7), crate::Distribution::collapsed(2, 4)),
        ];
        let d = validate(&p);
        let missing = |m: &&String| m.ends_with("v7 is not declared (2 declarations)");
        assert_eq!(d.iter().filter(missing).count(), 9, "{d:?}");
        assert_eq!(d.len(), 9, "{d:?}");
    }

    #[test]
    fn loop_var_shadowing_detected() {
        let (mut p, a, _) = base();
        let r = b::sref(a, vec![b::at(b::c(1)), b::all()]);
        p.body = vec![b::do_loop("A", b::c(1), b::c(2), vec![b::send(r)])];
        let d = validate(&p);
        assert!(
            d.iter().any(|m| m.contains("shadows a declared array")),
            "{d:?}"
        );
    }

    #[test]
    fn segment_shape_rank_detected() {
        let (mut p, _, _) = base();
        p.decls[0].segment_shape = Some(vec![2]); // rank-2 array
        let d = validate(&p);
        assert!(d.iter().any(|m| m.contains("segment shape rank")), "{d:?}");
    }
}
