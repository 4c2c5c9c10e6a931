//! Delayed communication binding (§3.2).
//!
//! XDP sends are born destination-less; "it may be useful for
//! optimizations (and essential for code generation) to annotate an XDP
//! send statement with the id of the receiving processor". This pass makes
//! that annotation when the receiver is statically known:
//!
//! * a send with a compile-time-constant section is bound to the static
//!   owner of the matching receive's target;
//! * inside a recognized naive communication loop, the per-iteration send
//!   `B[f(i)] ->` is bound to the *owner expression* of the target's
//!   distribution evaluated at `g(i)` — e.g. `(g(i) - lb) / chunk` for
//!   `BLOCK`, `(g(i) - lb) % P` for `CYCLIC`
//!   ([`Distribution::owner_expr`](xdp_ir::Distribution::owner_expr),
//!   right for every in-bounds index) — once the target is seen to stay
//!   inside its declared bounds over the whole loop.
//!
//! Bound messages need not carry their name on the wire and skip the
//! matcher's lookup (the cost difference is what experiment E5 measures).

use crate::passes::pattern::{recognize, NaiveCommLoop};
use crate::passes::{declined, rewrite_body, Pass, PassResult};
use std::collections::HashMap;
use xdp_ir::analysis::{concrete_section, dim_form, Bindings, DimForm, Dists, Owners};
use xdp_ir::walk::{self, Node};
use xdp_ir::{DestSet, IntExpr, Program, Section, Stmt, Subscript, TransferKind, Triplet, VarId};

/// The communication-binding pass.
pub struct BindCommunication;

impl Pass for BindCommunication {
    fn name(&self) -> &'static str {
        "bind-communication"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let dists = Dists::of(p);
        let mut owners = Owners::new(&dists);

        // Map from constant-section tags to their receiver's static owner,
        // collected from every receive in the program.
        let mut recv_owner: HashMap<(VarId, Section), Option<usize>> = HashMap::new();
        let env = Bindings::new();
        for (k, top) in p.body.iter().enumerate() {
            walk::visit(Node::Stmt(top), &mut |n| {
                let Node::Stmt(Stmt::Recv {
                    target,
                    kind,
                    name,
                    salt,
                }) = n
                else {
                    return;
                };
                let nameref = Stmt::recv_match_name(target, name);
                if salt.is_some() {
                    // Salted (message-typed) pairs: leave to the loop case.
                } else if let Some(sec) = concrete_section(p, &nameref, &env) {
                    let owner = match kind {
                        // Ownership receives land wherever the receiver
                        // runs; bindable only if the receiving *statement*
                        // is guarded to a known pid — skip (conservative).
                        TransferKind::Ownership | TransferKind::OwnershipValue => None,
                        TransferKind::Value => owners.sole_owner(k, target, &env),
                    };
                    recv_owner
                        .entry((nameref.var, sec))
                        .and_modify(|e| {
                            if *e != owner {
                                *e = None; // multiple receivers: leave unbound
                            }
                        })
                        .or_insert(owner);
                }
            });
        }

        let body = rewrite_body(p, &mut |k, _, s| {
            // First chance: the naive comm loop with an owner expression.
            if let Some(pat) = recognize(&s) {
                match bind_loop(&dists, k, &pat) {
                    Ok(bound) => {
                        changed = true;
                        notes.push(format!(
                            "bound {} in-loop send(s) to the owner expression of {}",
                            pat.slots.len(),
                            p.decl(pat.target.var).name
                        ));
                        return vec![bound];
                    }
                    Err(why) => notes.push(declined(self, format_args!("loop {}", pat.var), why)),
                }
            }
            // Second chance: constant-section sends.
            if let Stmt::Send {
                sec,
                kind,
                dest: DestSet::Unspecified,
                salt: None,
            } = &s
            {
                if let Some(csec) = concrete_section(p, sec, &env) {
                    if let Some(Some(owner)) = recv_owner.get(&(sec.var, csec)) {
                        changed = true;
                        notes.push(format!(
                            "bound send of {} to p{owner}",
                            p.decl(sec.var).name
                        ));
                        return vec![Stmt::Send {
                            sec: sec.clone(),
                            kind: *kind,
                            dest: DestSet::Pids(vec![IntExpr::Const(*owner as i64)]),
                            salt: None,
                        }];
                    }
                }
            }
            vec![s]
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

/// The loop with every operand send bound to the owner of the target at
/// that iteration, or why the target's owner has no such expression.
fn bind_loop(dists: &Dists, k: usize, pat: &NaiveCommLoop) -> Result<Stmt, String> {
    let p = dists.p;
    let window = pat.window()?;
    // Receiver of every message is the owner of the target at iteration i,
    // under the distribution the target has at this statement.
    let tdecl = p.decl(pat.target.var);
    let name = xdp_ir::pretty::section_ref(p, &pat.target);
    let dist = dists.at(pat.target.var, k)?;
    // The target must stay inside its declared bounds all loop long: its
    // one subscript in the loop variable is affine, so where its ends
    // are; every other dimension is fixed.
    let env = Bindings::new();
    let mut dest = None;
    for (d, bound) in tdecl.bounds.iter().enumerate() {
        let form = dim_form(tdecl, &pat.target, d, Some(&pat.var), &env, None);
        let hull = match (form, &pat.target.subs[d]) {
            (Some(DimForm::Fixed(t)), _) => t,
            (Some(DimForm::Moving { a, lo, .. }), Subscript::Point(g)) if dest.is_none() => {
                dest = Some(
                    dist.owner_expr(&tdecl.bounds, d, g.clone())
                        .ok_or_else(|| {
                            format!(
                                "the owner of {name} is not a function of dimension {} alone",
                                d + 1
                            )
                        })?,
                );
                let ends = [window.lb, window.ub].map(|i| a.saturating_mul(i).saturating_add(lo));
                Triplet::range(ends[0].min(ends[1]), ends[0].max(ends[1]))
            }
            _ => return Err(format!("subscript {name} is not affine in {}", pat.var)),
        };
        if !window.is_empty() && (hull.is_empty() || hull.lb < bound.lb || hull.ub > bound.ub) {
            return Err(format!("{name} leaves the declared bounds"));
        }
    }
    let dest = dest.ok_or_else(|| format!("subscript {name} is not affine in {}", pat.var))?;
    Ok(rebuild_with_dest(pat, &dest))
}

fn rebuild_with_dest(pat: &NaiveCommLoop, dest: &IntExpr) -> Stmt {
    use xdp_ir::build as b;
    let mut body: Vec<Stmt> = Vec::new();
    for slot in &pat.slots {
        body.push(b::guarded(
            b::iown(slot.operand.clone()),
            vec![Stmt::Send {
                sec: slot.operand.clone(),
                kind: xdp_ir::TransferKind::Value,
                dest: DestSet::Pids(vec![dest.clone()]),
                salt: slot.salt.clone(),
            }],
        ));
    }
    let mut recv_body: Vec<Stmt> = Vec::new();
    let mut rule: Option<xdp_ir::BoolExpr> = None;
    for slot in &pat.slots {
        recv_body.push(Stmt::Recv {
            target: slot.temp.clone(),
            kind: xdp_ir::TransferKind::Value,
            name: Some(slot.operand.clone()),
            salt: slot.salt.clone(),
        });
        let aw = b::await_(slot.temp.clone());
        rule = Some(match rule {
            None => aw,
            Some(prev) => prev.and(aw),
        });
    }
    recv_body.push(b::guarded(
        rule.expect("at least one slot"),
        vec![b::assign(pat.target.clone(), pat.rhs_with_temps.clone())],
    ));
    body.push(b::guarded(b::iown(pat.target.clone()), recv_body));
    b::do_loop(&pat.var, pat.lo.clone(), pat.hi.clone(), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_owner_computes;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn lowered(nprocs: usize) -> Program {
        let grid = ProcGrid::linear(nprocs);
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
    fn binds_loop_sends_to_owner_expression() {
        let p = lowered(4);
        let r = BindCommunication.run(&p);
        assert!(r.changed);
        let text = xdp_ir::pretty::program(&r.program);
        // chunk = 4, lb = 1: dest = (i - 1) / 4.
        assert!(text.contains("B[i] -> {((i - 1) / 4)}"), "{text}");
    }

    #[test]
    fn binds_constant_section_sends() {
        // Hand-written: P0 sends B[1:2]; P1 receives it into A[5:6].
        let grid = ProcGrid::linear(4);
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = p.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid,
        ));
        let bsec = b::sref(bb, vec![b::span(b::c(1), b::c(2))]);
        let asec = b::sref(a, vec![b::span(b::c(5), b::c(6))]);
        p.body = vec![
            b::guarded(b::iown(bsec.clone()), vec![b::send(bsec.clone())]),
            b::guarded(
                b::iown(asec.clone()),
                vec![b::recv_val(asec.clone(), bsec.clone())],
            ),
        ];
        let r = BindCommunication.run(&p);
        assert!(r.changed);
        let text = xdp_ir::pretty::program(&r.program);
        // A[5:6] is on P1 (block of 4).
        assert!(text.contains("B[1:2] -> {1}"), "{text}");
    }

    #[test]
    fn ambiguous_receivers_stay_unbound() {
        // Two processors both receive the same name (farm idiom): unbound.
        let grid = ProcGrid::linear(2);
        let mut p = Program::new();
        let t = p.declare(b::array(
            "T",
            ElemType::F64,
            vec![(0, 1)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let w = p.declare(b::array(
            "W",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            grid,
        ));
        let w1 = b::sref(w, vec![b::at(b::c(1))]);
        let tm = b::sref(t, vec![b::at(b::mypid())]);
        p.body = vec![
            b::guarded(b::iown(w1.clone()), vec![b::send(w1.clone())]),
            b::recv_val(tm.clone(), w1.clone()),
        ];
        let r = BindCommunication.run(&p);
        // The receive target T[mypid] has no static owner: stays unbound.
        let mut bound = 0;
        r.program.visit(&mut |s| {
            if let Stmt::Send {
                dest: DestSet::Pids(_),
                ..
            } = s
            {
                bound += 1;
            }
        });
        assert_eq!(bound, 0);
    }
}
