//! Recognition of the canonical naive owner-computes communication loop.
//!
//! The frontend emits a fixed shape (documented in
//! [`crate::frontend`]); the communication-optimizing passes re-derive its
//! structure from the IR rather than trusting provenance, so hand-written
//! IL+XDP in the same shape is optimized identically.

use xdp_ir::analysis::{window_of, Bindings};
use xdp_ir::{BoolExpr, DestSet, ElemExpr, IntExpr, SectionRef, Stmt, TransferKind, Triplet};

/// One communicated operand: the remote reference and the per-processor
/// temporary it is received into.
#[derive(Clone, Debug)]
pub struct CommSlot {
    /// The operand section reference (e.g. `B[i]`).
    pub operand: SectionRef,
    /// The temporary reference (e.g. `_T0[mypid]`).
    pub temp: SectionRef,
    /// The pair's message-type salt, identical on both sides.
    pub salt: Option<IntExpr>,
}

/// A recognized naive owner-computes communication loop (§2.2 shape).
#[derive(Clone, Debug)]
pub struct NaiveCommLoop {
    /// Loop variable.
    pub var: String,
    /// Loop bounds (step is 1).
    pub lo: IntExpr,
    pub hi: IntExpr,
    /// The assignment target (e.g. `A[i]`).
    pub target: SectionRef,
    /// Communicated operands in order.
    pub slots: Vec<CommSlot>,
    /// The assignment right-hand side as written (references temps).
    pub rhs_with_temps: ElemExpr,
    /// The right-hand side with temps substituted back to operands.
    pub rhs_original: ElemExpr,
}

/// The iterations of a unit-step loop, when its bounds are compile-time
/// constants; otherwise why a pass must leave it alone.
pub(crate) fn static_window(lo: &IntExpr, hi: &IntExpr) -> Result<Triplet, String> {
    window_of([lo, hi, &IntExpr::Const(1)], &Bindings::new(), None)
        .ok_or_else(|| "its bounds are not compile-time constants".to_string())
}

impl NaiveCommLoop {
    /// [`static_window`] of the loop.
    pub fn window(&self) -> Result<Triplet, String> {
        static_window(&self.lo, &self.hi)
    }
}

/// Try to recognize `stmt` as a naive communication loop.
pub fn recognize(stmt: &Stmt) -> Option<NaiveCommLoop> {
    let Stmt::DoLoop {
        var,
        lo,
        hi,
        step,
        body,
    } = stmt
    else {
        return None;
    };
    if step.as_const() != Some(1) {
        return None;
    }
    // Body: k sender guards followed by one receiver guard.
    if body.is_empty() {
        return None;
    }
    let (senders, recv_guard) = body.split_at(body.len() - 1);
    let mut operands: Vec<(SectionRef, Option<IntExpr>)> = Vec::new();
    for s in senders {
        let Stmt::Guarded {
            rule: BoolExpr::Iown(op1),
            body: inner,
        } = s
        else {
            return None;
        };
        let [Stmt::Send {
            sec,
            kind: TransferKind::Value,
            dest: DestSet::Unspecified,
            salt,
        }] = inner.as_slice()
        else {
            return None;
        };
        if sec != op1 {
            return None;
        }
        operands.push((sec.clone(), salt.clone()));
    }
    let Stmt::Guarded {
        rule: BoolExpr::Iown(target),
        body: recv_body,
    } = &recv_guard[0]
    else {
        return None;
    };
    // recv_body: one value receive per operand, then the awaited assign.
    if recv_body.len() != operands.len() + 1 {
        return None;
    }
    let mut slots = Vec::with_capacity(operands.len());
    for (k, s) in recv_body[..operands.len()].iter().enumerate() {
        let Stmt::Recv {
            target: temp,
            kind: TransferKind::Value,
            name: Some(nm),
            salt,
        } = s
        else {
            return None;
        };
        if nm != &operands[k].0 || salt != &operands[k].1 {
            return None;
        }
        slots.push(CommSlot {
            operand: operands[k].0.clone(),
            temp: temp.clone(),
            salt: salt.clone(),
        });
    }
    let Stmt::Guarded {
        rule: await_rule,
        body: assign_body,
    } = &recv_body[operands.len()]
    else {
        return None;
    };
    // The await rule must be the conjunction of awaits on each temp.
    let mut awaited = Vec::new();
    collect_awaits(await_rule, &mut awaited)?;
    if awaited.len() != slots.len() || !slots.iter().all(|s| awaited.contains(&&s.temp)) {
        return None;
    }
    let [Stmt::Assign {
        target: atarget,
        rhs,
    }] = assign_body.as_slice()
    else {
        return None;
    };
    if atarget != target {
        return None;
    }
    let mut rhs_original = rhs.clone();
    for s in &slots {
        rhs_original = rhs_original.replace_ref(&s.temp, &s.operand);
    }
    Some(NaiveCommLoop {
        var: var.clone(),
        lo: lo.clone(),
        hi: hi.clone(),
        target: target.clone(),
        slots,
        rhs_with_temps: rhs.clone(),
        rhs_original,
    })
}

/// A rule made only of `await(...)` conjuncts; collect the awaited refs.
fn collect_awaits<'a>(rule: &'a BoolExpr, out: &mut Vec<&'a SectionRef>) -> Option<()> {
    match rule {
        BoolExpr::Await(r) => {
            out.push(r);
            Some(())
        }
        BoolExpr::And(a, b) => {
            collect_awaits(a, out)?;
            collect_awaits(b, out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_owner_computes;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn lowered(n: i64) -> xdp_ir::Program {
        let grid = ProcGrid::linear(4);
        let mut s = xdp_ir::Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Cyclic],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(n),
            vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
        )];
        lower_owner_computes(&s).unwrap()
    }

    #[test]
    fn recognizes_frontend_output() {
        let p = lowered(16);
        let pat = recognize(&p.body[0]).expect("pattern");
        assert_eq!(pat.var, "i");
        assert_eq!(pat.slots.len(), 1);
        assert_eq!(pat.lo.as_const(), Some(1));
        assert_eq!(pat.hi.as_const(), Some(16));
        // The reconstructed original rhs mentions B, not the temp.
        let refs = pat.rhs_original.refs();
        assert!(refs.iter().any(|r| r.var == p.lookup("B").unwrap()));
        assert!(!refs.iter().any(|r| r.var == p.lookup("_T0").unwrap()));
    }

    #[test]
    fn rejects_other_shapes() {
        let p = lowered(16);
        // A bare loop without the pattern.
        let other = b::do_loop("i", b::c(1), b::c(4), vec![xdp_ir::Stmt::Barrier]);
        assert!(recognize(&other).is_none());
        // Non-unit step.
        if let xdp_ir::Stmt::DoLoop {
            var, lo, hi, body, ..
        } = &p.body[0]
        {
            let stepped = xdp_ir::Stmt::DoLoop {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                step: b::c(2),
                body: body.clone(),
            };
            assert!(recognize(&stepped).is_none());
        } else {
            panic!("expected loop");
        }
    }
}
