//! Message vectorization (§2.2: "the compiler may be able to move them out
//! of the computation loop and combine or *vectorize* the messages").
//!
//! A recognized naive communication loop moving one element per iteration
//! is rewritten into:
//!
//! 1. a **communication phase** — for every (sender, receiver) processor
//!    pair, the whole set of elements flowing between them is combined into
//!    one section transfer per maximal constant-stride run, received into a
//!    *ghost array* `_G` aligned (HPF `ALIGN`) with the assignment target so
//!    the receiver is the consumer;
//! 2. local copies for the same-owner elements;
//! 3. a **computation phase** — the original loop, computing on the ghost
//!    under a per-iteration `await` (so computation overlaps any transfers
//!    still in flight).
//!
//! Message count drops from `O(n)` to `O(pairs x runs)`; the paper's
//! motivating claim for representing transfers explicitly in the IL.

use crate::passes::pattern::{recognize, NaiveCommLoop};
use crate::passes::{declined, rewrite_body, Pass, PassResult};
use xdp_ir::analysis::{compress_triplets, intersect_lists, Dists, Owners};
use xdp_ir::build as b;
use xdp_ir::{Decl, Distribution, Ownership, Program, SectionRef, Stmt, Triplet};

/// The vectorization pass.
pub struct VectorizeMessages;

impl Pass for VectorizeMessages {
    fn name(&self) -> &'static str {
        "vectorize-messages"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut program = p.clone();
        let mut changed = false;
        let dists = Dists::of(p);
        let mut owners = Owners::new(&dists);
        // Rewrite `p`'s body; new ghost decls appended to `program` as we go.
        let body = rewrite_body(p, &mut |k, _, s| {
            let Some(pat) = recognize(&s) else {
                return vec![s];
            };
            match try_vectorize(&dists, &mut owners, k, &mut program, &pat, &mut notes) {
                Ok(stmts) => {
                    changed = true;
                    stmts
                }
                Err(why) => {
                    notes.push(declined(self, format_args!("loop {}", pat.var), why));
                    vec![s]
                }
            }
        });
        program.body = body;
        PassResult {
            program,
            changed,
            notes,
        }
    }
}

fn try_vectorize(
    dists: &Dists,
    owners: &mut Owners,
    k: usize,
    program: &mut Program,
    pat: &NaiveCommLoop,
    notes: &mut Vec<String>,
) -> Result<Vec<Stmt>, String> {
    let p = dists.p;
    let window = pat.window()?;
    if window.is_empty() {
        return Err("it never runs".to_string());
    }
    // Target and operands each carry the loop variable in exactly one
    // point subscript with unit coefficient, all other subscripts
    // loop-invariant (any rank), wholly owned on every iteration.
    let tmap = owners.map(k, &pat.target, &pat.var, window)?;
    let tdecl = p.decl(pat.target.var);
    let mut omaps = Vec::with_capacity(pat.slots.len());
    for slot in &pat.slots {
        omaps.push(owners.map(k, &slot.operand, &pat.var, window)?);
        for var in [pat.target.var, slot.operand.var] {
            if dists.at(var, k)?.alignment().is_some() {
                return Err(format!("{} is aligned to another array", p.decl(var).name));
            }
        }
    }
    // The ghost follows the target through the loop dimension alone.
    let tdist = dists.at(pat.target.var, k)?.clone();
    if (0..tdecl.rank()).any(|d| d != tmap.dim && tdist.dims()[d].is_distributed()) {
        return Err(format!(
            "{} is distributed in a dimension the loop does not sweep",
            tdecl.name
        ));
    }

    let mut comm_phase: Vec<Stmt> = Vec::new();
    let mut compute_rhs = pat.rhs_with_temps.clone();
    let mut awaits: Vec<SectionRef> = Vec::new();
    let mut total_runs = 0usize;
    let mut remote_elems = 0usize;

    for (slot, omap) in pat.slots.iter().zip(&omaps) {
        let odecl = p.decl(slot.operand.var);
        let (od, c_o) = (omap.dim, omap.offset);
        // Ghost array shaped like the operand's touched region (strided
        // fixed dims widened to their hull; subscripts still address the
        // strided subset); ownership of its loop dim follows the *target*:
        // element with loop-dim index j is consumed by the owner of the
        // target at iteration i = j - c_o, i.e. target index
        // j - c_o + c_t in the target's loop dim. Other ghost dims are
        // unconstrained.
        let gbounds: Vec<Triplet> = (omap.section.dims().iter())
            .map(|t| Triplet::range(t.lb, t.ub))
            .collect();
        let mut map: Vec<Option<(usize, i64)>> = vec![None; odecl.rank()];
        map[od] = Some((tmap.dim, c_o - tmap.offset));
        // Loop-dim-granular segments: receives of disjoint runs touch
        // disjoint segments, so their initiations do not serialize.
        let seg_shape: Vec<i64> = gbounds
            .iter()
            .enumerate()
            .map(|(d, t)| if d == od { 1 } else { t.count() })
            .collect();
        let ghost = program.declare(Decl {
            name: format!("_G{}", program.decls.len()),
            elem: odecl.elem,
            bounds: gbounds,
            ownership: Ownership::Exclusive,
            dist: Some(Distribution::aligned_map(
                tdist.clone(),
                tdecl.bounds.clone(),
                map,
            )),
            segment_shape: Some(seg_shape),
        });

        // One transfer per (sender p, receiver q) and maximal
        // constant-stride run of the operand indices flowing between them;
        // the other dims carry the operand's fixed subscripts.
        for (pid_p, from_p) in omap.runs.iter().enumerate() {
            for (pid_q, to_q) in tmap.runs.iter().enumerate() {
                let js: Vec<Triplet> = intersect_lists(from_p, to_q)
                    .iter()
                    .map(|t| t.shift(c_o))
                    .collect();
                for run in compress_triplets(&js) {
                    let mut subs = slot.operand.subs.clone();
                    subs[od] = b::span_st(b::c(run.lb), b::c(run.ub), b::c(run.st));
                    let osec_run = SectionRef::new(slot.operand.var, subs.clone());
                    let gsec_run = SectionRef::new(ghost, subs);
                    if pid_p == pid_q {
                        // Same-owner: local copy into the ghost.
                        comm_phase.push(b::guarded(
                            b::iown(gsec_run.clone()),
                            vec![b::assign(gsec_run, b::val(osec_run))],
                        ));
                    } else {
                        total_runs += 1;
                        remote_elems += run.count() as usize;
                        comm_phase.push(b::guarded(
                            b::iown(osec_run.clone()),
                            vec![b::send(osec_run.clone())],
                        ));
                        comm_phase.push(b::guarded(
                            b::iown(gsec_run.clone()),
                            vec![b::recv_val(gsec_run, osec_run)],
                        ));
                    }
                }
            }
        }

        // Compute phase: substitute the temp with the ghost at the
        // operand's subscripts (same shape, ghost storage).
        let gref = SectionRef::new(ghost, slot.operand.subs.clone());
        compute_rhs = compute_rhs.replace_ref(&slot.temp, &gref);
        awaits.push(gref);
    }

    // Rebuild: comm phase, then the guarded compute loop with per-element
    // awaits (finer-grain overlap; LocalizeBounds can contract the loop).
    let mut rule = b::iown(pat.target.clone());
    for g in &awaits {
        rule = rule.and(b::await_(g.clone()));
    }
    let compute_loop = b::do_loop(
        &pat.var,
        pat.lo.clone(),
        pat.hi.clone(),
        vec![b::guarded(
            rule,
            vec![b::assign(pat.target.clone(), compute_rhs)],
        )],
    );
    notes.push(format!(
        "vectorized {} per-element transfers into {} section messages ({} remote elements) through aligned ghosts",
        window.count() as usize * pat.slots.len(),
        total_runs,
        remote_elems,
    ));
    let mut out = comm_phase;
    out.push(compute_loop);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_owner_computes;
    use xdp_ir::{DimDist, ElemType, ProcGrid, Subscript};

    fn lowered(n: i64, nprocs: usize, b_dist: DimDist, shift: i64) -> Program {
        let grid = ProcGrid::linear(nprocs);
        let mut s = Program::new();
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
            vec![b_dist],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i").add(b::c(shift)))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(n - shift.max(0)),
            vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
        )];
        lower_owner_computes(&s).unwrap()
    }

    #[test]
    fn vectorizes_cyclic_to_block() {
        let p = lowered(16, 4, DimDist::Cyclic, 0);
        let before = p.stmt_census();
        assert_eq!(before.sends, 1); // inside the loop: 16 dynamic sends
        let r = VectorizeMessages.run(&p);
        assert!(r.changed, "{}", xdp_ir::pretty::program(&r.program));
        let text = xdp_ir::pretty::program(&r.program);
        // A ghost was declared and aligned.
        assert!(r.program.lookup("_G3").is_some(), "{text}");
        // Sends are now outside any loop: static census counts them all.
        let after = r.program.stmt_census();
        assert!(after.sends > 1, "section sends emitted: {text}");
        // Every send section is a range, not a point.
        let mut saw_range_send = false;
        r.program.visit(&mut |s| {
            if let Stmt::Send { sec, .. } = s {
                if matches!(sec.subs[0], Subscript::Range(_)) {
                    saw_range_send = true;
                }
            }
        });
        assert!(saw_range_send, "{text}");
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn shifted_stencil_vectorizes_to_boundary_messages() {
        // A[i] = A[i] + B[i+1] for i in 1..15, both BLOCK over 4: only one
        // boundary element per adjacent processor pair moves.
        let p = lowered(16, 4, DimDist::Block, 1);
        let r = VectorizeMessages.run(&p);
        assert!(r.changed);
        // 3 pair boundaries x 1 element = 3 sends + 3 recvs.
        let mut sends = 0;
        r.program.visit(&mut |s| {
            if matches!(s, Stmt::Send { .. }) {
                sends += 1;
            }
        });
        assert_eq!(sends, 3, "{}", xdp_ir::pretty::program(&r.program));
    }

    #[test]
    fn leaves_symbolic_loops_alone() {
        let mut p = lowered(16, 4, DimDist::Cyclic, 0);
        // Make the loop bound symbolic.
        if let Stmt::DoLoop { hi, .. } = &mut p.body[0] {
            *hi = b::iv("n");
        }
        let r = VectorizeMessages.run(&p);
        assert!(!r.changed);
    }
}
