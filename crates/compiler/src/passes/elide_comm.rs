//! Same-owner communication elimination (§2.2).
//!
//! "If the same processor that exclusively owns `A[i]` also owns `B[i]`,
//! then the data transfer statements can be eliminated." For each
//! communicated operand of a recognized naive communication loop, decide
//! whether the operand's owner equals the target's owner on *every*
//! iteration — their [`OwnerMap`](crate::analysis::OwnerMap)s over the
//! loop's window are equal; if so, drop the send, the receive, and the
//! temporary, and compute directly on the operand.

use crate::analysis::Owners;
use crate::passes::pattern::{recognize, NaiveCommLoop};
use crate::passes::{declined, Pass, PassResult};
use xdp_ir::build as b;
use xdp_ir::walk::rewrite_block;
use xdp_ir::{Program, Stmt};

/// The same-owner elision pass.
pub struct ElideSameOwnerComm;

impl Pass for ElideSameOwnerComm {
    fn name(&self) -> &'static str {
        "elide-same-owner-comm"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let mut owners = Owners::new(p);
        let body = rewrite_block(&p.body, &mut |s| {
            let Some(pat) = recognize(&s) else {
                return vec![s];
            };
            match try_elide(p, &mut owners, &pat, &mut notes) {
                Ok(new_stmt) => {
                    changed = true;
                    vec![new_stmt]
                }
                Err(why) => {
                    notes.push(declined(self, format_args!("loop {}", pat.var), why));
                    vec![s]
                }
            }
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

fn try_elide(
    p: &Program,
    owners: &mut Owners,
    pat: &NaiveCommLoop,
    notes: &mut Vec<String>,
) -> Result<Stmt, String> {
    let window = pat.window()?;
    let target = owners.map(&pat.target, &pat.var, window)?;
    // Which slots are same-owner on every iteration?
    let (mut keep, mut elided, mut why) = (Vec::new(), Vec::new(), String::new());
    for slot in &pat.slots {
        match owners.map(&slot.operand, &pat.var, window) {
            Ok(operand) if operand.runs == target.runs => elided.push(slot.clone()),
            other => {
                why = other.err().unwrap_or_else(|| {
                    let (o, t) = (p.decl(slot.operand.var), p.decl(pat.target.var));
                    format!(
                        "{} and {} differ in owner on some iteration",
                        o.name, t.name
                    )
                });
                keep.push(slot.clone());
            }
        }
    }
    if elided.is_empty() {
        return Err(why);
    }
    for slot in &elided {
        notes.push(format!(
            "elided transfer of operand {:?}: owner equals target owner on all {} iterations",
            p.decl(slot.operand.var).name,
            window.count()
        ));
    }

    // Rebuild the loop with only the kept slots.
    let mut body: Vec<Stmt> = Vec::new();
    for slot in &keep {
        let send = match &slot.salt {
            None => b::send(slot.operand.clone()),
            Some(salt) => b::send_salted(slot.operand.clone(), salt.clone()),
        };
        body.push(b::guarded(b::iown(slot.operand.clone()), vec![send]));
    }
    // New RHS: temps of elided slots substituted back to their operands.
    let mut rhs = pat.rhs_with_temps.clone();
    for slot in &elided {
        rhs = rhs.replace_ref(&slot.temp, &slot.operand);
    }
    let mut recv_body: Vec<Stmt> = Vec::new();
    let mut rule: Option<xdp_ir::BoolExpr> = None;
    for slot in &keep {
        let recv = match &slot.salt {
            None => b::recv_val(slot.temp.clone(), slot.operand.clone()),
            Some(salt) => b::recv_val_salted(slot.temp.clone(), slot.operand.clone(), salt.clone()),
        };
        recv_body.push(recv);
        let aw = b::await_(slot.temp.clone());
        rule = Some(match rule {
            None => aw,
            Some(prev) => prev.and(aw),
        });
    }
    let assign = b::assign(pat.target.clone(), rhs);
    match rule {
        None => recv_body.push(assign),
        Some(rule) => recv_body.push(b::guarded(rule, vec![assign])),
    }
    body.push(b::guarded(b::iown(pat.target.clone()), recv_body));
    Ok(b::do_loop(&pat.var, pat.lo.clone(), pat.hi.clone(), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_owner_computes;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn lowered(b_dist: DimDist) -> Program {
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
            vec![b_dist],
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
    fn aligned_arrays_lose_all_communication() {
        let p = lowered(DimDist::Block); // same dist => same owner everywhere
        let r = ElideSameOwnerComm.run(&p);
        assert!(r.changed);
        let c = r.program.stmt_census();
        assert_eq!(c.sends, 0, "{}", xdp_ir::pretty::program(&r.program));
        assert_eq!(c.recvs, 0);
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn misaligned_arrays_keep_communication() {
        let p = lowered(DimDist::Cyclic);
        let r = ElideSameOwnerComm.run(&p);
        assert!(!r.changed);
        assert_eq!(r.program.stmt_census().sends, 1);
    }
}
