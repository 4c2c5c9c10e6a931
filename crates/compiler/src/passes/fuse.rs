//! Loop fusion with ownership-transfer legality checking (§4).
//!
//! The paper fuses the FFT's compute loop (Loop2) with the ownership-send
//! loop (Loop3a) so the redistribute latency is covered by computation,
//! noting that "the analysis for validity of fusion must also check to make
//! sure that between any `-=>` and its corresponding `<=-` operation, no
//! ownership queries are performed on the associated data, and that these
//! data are not accessed by computation in the interim."
//!
//! Fusion of `do i {B1}` ; `do i {B2}` into `do i {B1; B2}` moves `B2(i)`
//! before `B1(j)` for every `j > i`. We therefore reject fusion whenever
//! some access of `B2(i)` *conflicts* with some access of `B1(j)`, `j > i`
//! — where a conflict is any overlap on the same variable unless both
//! sides are plain reads. Ownership events (`OwnOut`/`OwnIn`/`OwnQuery`)
//! conflict with everything, which is exactly the paper's interim-access
//! rule. The question is asked on sets, per processor and access pair: in
//! each dimension the two sections meet at one iteration distance
//! (`A[i + c]` against `A[j + d]`), over an interval of distances (moving
//! ranges), on a range of iterations of one loop (a moving against a
//! fixed subscript), or always or never (both fixed); a conflict is a
//! distance ≥ 1 that every dimension and the trip count admit. Anything
//! else — a subscript not `i + c`, a bound not known at compile time —
//! rejects fusion, with a note saying so (guards are assumed transparent,
//! an over-approximation that can only reject, never wrongly accept).

use crate::passes::{declined, Pass, PassResult};
use xdp_ir::analysis::{
    block_accesses, dim_form, eval_static, loop_window, Access, AccessKind, Bindings, DimForm,
    Dists, OnProc,
};
use xdp_ir::walk::{self, NodeMut};
use xdp_ir::{IntExpr, Program, Stmt, Triplet};

/// The fusion pass: fuses every legal adjacent pair, innermost-first.
pub struct FuseLoops;

impl Pass for FuseLoops {
    fn name(&self) -> &'static str {
        "fuse-loops"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let dists = Dists::of(p);
        let mut program = p.clone();
        // Innermost blocks first, each asked at its top-level statement;
        // then the body, each pair at its first loop's statement.
        for (k, s) in program.body.iter_mut().enumerate() {
            let Some(body) = s.body_mut() else { continue };
            walk::map(NodeMut::Block(body), &mut |n| {
                if let NodeMut::Block(block) = n {
                    let mut at = vec![k; block.len()];
                    fuse_adjacent(&dists, block, &mut at, &mut notes, &mut changed);
                }
            });
        }
        let mut at: Vec<usize> = (0..program.body.len()).collect();
        fuse_adjacent(&dists, &mut program.body, &mut at, &mut notes, &mut changed);
        PassResult {
            program,
            changed,
            notes,
        }
    }
}

/// Fuse the adjacent pairs of one block, greedily; its nested blocks are
/// already done. `at[k]` is the top-level statement `stmts[k]` stands at.
fn fuse_adjacent(
    dists: &Dists,
    stmts: &mut Vec<Stmt>,
    at: &mut Vec<usize>,
    notes: &mut Vec<String>,
    changed: &mut bool,
) {
    let mut k = 0;
    while k + 1 < stmts.len() {
        let fused = match (&stmts[k], &stmts[k + 1]) {
            (
                Stmt::DoLoop {
                    var: v1,
                    lo,
                    hi,
                    step,
                    body: b1,
                },
                Stmt::DoLoop {
                    var: v2,
                    lo: l2,
                    hi: h2,
                    step: s2,
                    body: b2,
                },
            ) if lo == l2 && hi == h2 && step == s2 => Some(
                fuse_pair(dists, at[k], v1, v2, [lo, hi, step], b1, b2).map(|body| Stmt::DoLoop {
                    var: v1.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: step.clone(),
                    body,
                }),
            ),
            _ => None,
        };
        match fused {
            Some(Ok(f)) => {
                notes.push(format!(
                    "fused adjacent loops at positions {k},{} (ownership-interference check passed)",
                    k + 1
                ));
                *changed = true;
                stmts[k] = f;
                stmts.remove(k + 1);
                at.remove(k + 1);
                // Try fusing the result with the next statement too.
            }
            Some(Err(why)) => {
                let what = format_args!("loops at {k},{}", k + 1);
                notes.push(declined(&FuseLoops, what, why));
                k += 1;
            }
            None => k += 1,
        }
    }
}

/// `do v1 {b1}; do v2 {b2}` over `[lo, hi, step]` as one body, or the
/// reason the second loop may not run interleaved with the first; asked at
/// top-level statement `stmt`.
fn fuse_pair(
    dists: &Dists,
    stmt: usize,
    v1: &str,
    v2: &str,
    range: [&IntExpr; 3],
    b1: &[Stmt],
    b2: &[Stmt],
) -> Result<Vec<Stmt>, String> {
    let env = Bindings::new();
    let [lo, hi, step] = range.map(|e| eval_static(e, &env));
    let [Some(lo), Some(hi), Some(step)] = [lo, hi, step] else {
        return Err("their bounds are not compile-time constants".to_string());
    };
    let values = loop_window(lo, hi, step).ok_or("their step is zero")?;
    // Rename loop2's variable to loop1's.
    let rename = IntExpr::Var(v1.to_string());
    let b2r: Vec<Stmt> = b2.iter().map(|s| s.subst(v2, &rename)).collect();

    let acc1 = block_accesses(b1);
    let acc2 = block_accesses(&b2r);
    let p = dists.p;
    let nprocs = p.machine_size().ok_or("no array is distributed")?;
    let l = Loop {
        var: v1,
        step,
        values,
    };

    // B2(i) must not conflict with B1(j) for j > i (B2 moves earlier).
    let unordered = |a: &Access, b: &Access| {
        a.var == b.var && !(a.kind == AccessKind::Read && b.kind == AccessKind::Read)
    };
    // (With fewer than two iterations nothing moves past anything.)
    for pid in (0..nprocs).filter(|_| l.values.count() >= 2) {
        for a2 in &acc2 {
            for a1 in acc1.iter().filter(|a1| unordered(a2, a1)) {
                let name = |r: &xdp_ir::SectionRef| xdp_ir::pretty::section_ref(p, r);
                // A query made from a subscript says whose.
                let by = |a: &Access| match &a.by {
                    Some(host) => format!(" (by {})", name(host)),
                    None => String::new(),
                };
                let on = OnProc { dists, stmt, pid };
                match meets(on, &l, a2, a1) {
                    None => {
                        let (r2, r1) = (name(&a2.r), name(&a1.r));
                        return Err(format!("cannot tell on sets when {r2} meets {r1}"));
                    }
                    Some(Some(delta)) => {
                        return Err(format!(
                            "{} {} in the second{} is {} in the first{} {delta} iteration{} later",
                            name(&a2.r),
                            verb(a2.kind),
                            by(a2),
                            verb(a1.kind),
                            by(a1),
                            if delta == 1 { "" } else { "s" },
                        ))
                    }
                    Some(None) => {}
                }
            }
        }
    }
    let mut out = b1.to_vec();
    out.extend(b2r);
    Ok(out)
}

fn verb(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "read",
        AccessKind::Write => "written",
        AccessKind::OwnOut => "sent away",
        AccessKind::OwnIn => "received",
        AccessKind::OwnQuery => "queried",
    }
}

/// The fused loops' iteration space: iteration `k` binds `var` to
/// `first() + k·step`; `values` holds them all in increasing order.
struct Loop<'a> {
    var: &'a str,
    step: i64,
    values: Triplet,
}

impl Loop<'_> {
    fn first(&self) -> i64 {
        if self.step > 0 {
            self.values.lb
        } else {
            self.values.ub
        }
    }

    /// The iterations whose value lies in `want`, as an inclusive range of
    /// iteration numbers — `None` when they are not consecutive.
    fn iters_in(&self, want: Triplet) -> Option<(i64, i64)> {
        let hit = self.values.intersect(&want);
        if hit.is_empty() {
            return Some((0, -1));
        }
        let at = |v: i64| (v - self.first()) / self.step;
        (hit.count() == 1 || hit.st == self.values.st)
            .then(|| (at(hit.lb).min(at(hit.ub)), at(hit.lb).max(at(hit.ub))))
    }
}

/// On processor `on`, the least `δ ≥ 1` such that what `a` touches at
/// some iteration meets what `b` touches `δ` iterations later; `Some(None)`
/// when there is none, `None` when the closed forms cannot tell.
fn meets(on: OnProc, l: &Loop, a: &Access, b: &Access) -> Option<Option<i64>> {
    let (decl, env, on) = (on.dists.p.decl(a.var), Bindings::new(), Some(on));
    let (last, st) = (l.values.count() - 1, l.values.st);
    // Iterations of `a` and of `b` still open, and how far `b`'s value may
    // lie past `a`'s in the loop's direction: one to `last` steps.
    let (mut ka, mut kb, mut ahead) = ((0, last), (0, last), Triplet::new(st, last * st, st));
    let clip = |k: &mut (i64, i64), by: (i64, i64)| *k = (k.0.max(by.0), k.1.min(by.1));
    for d in 0..decl.rank() {
        // A whole-variable access (`redistribute`) names no subscripts.
        let form = |r: &xdp_ir::SectionRef| match r.subs.len() {
            0 => Some(DimForm::Fixed(decl.bounds[d])),
            n if n == decl.rank() => dim_form(decl, r, d, Some(l.var), &env, on),
            _ => None,
        };
        match (form(&a.r)?, form(&b.r)?) {
            (DimForm::Fixed(t), _) | (_, DimForm::Fixed(t)) if t.is_empty() => return Some(None),
            (DimForm::Fixed(ta), DimForm::Fixed(tb)) => {
                if ta.intersect(&tb).is_empty() {
                    return Some(None);
                }
            }
            // i + la : i + ha meets j + lb : j + hb iff
            // la - hb <= j - i <= ha - lb.
            (
                DimForm::Moving {
                    a: 1,
                    lo: la,
                    hi: ha,
                },
                DimForm::Moving { a: 1, lo, hi },
            ) => {
                let (lo, hi) = (la - hi, ha - lo);
                let (lo, hi) = if l.step > 0 { (lo, hi) } else { (-hi, -lo) };
                ahead = ahead.intersect(&Triplet::range(lo, hi));
            }
            (DimForm::Moving { a: 1, lo, hi }, DimForm::Fixed(t)) if lo == hi || t.st == 1 => {
                clip(
                    &mut ka,
                    l.iters_in(Triplet::new(t.lb - hi, t.ub - lo, t.st))?,
                );
            }
            (DimForm::Fixed(t), DimForm::Moving { a: 1, lo, hi }) if lo == hi || t.st == 1 => {
                clip(
                    &mut kb,
                    l.iters_in(Triplet::new(t.lb - hi, t.ub - lo, t.st))?,
                );
            }
            _ => return None,
        }
    }
    if ka.0 > ka.1 || kb.0 > kb.1 {
        return Some(None);
    }
    let ahead = ahead.intersect(&Triplet::range((kb.0 - ka.1) * st, (kb.1 - ka.0) * st));
    Some((!ahead.is_empty()).then_some(ahead.lb / st))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    /// The FFT shape after localization: compute loop then ownership-send
    /// loop over the same bounds, touching disjoint per-iteration columns.
    fn fft_like() -> Program {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let col_j = b::sref(
            a,
            vec![b::all(), b::at(b::iv("j")), b::at(b::mypid().add(b::c(1)))],
        );
        let col_n = b::sref(
            a,
            vec![b::all(), b::at(b::iv("n")), b::at(b::mypid().add(b::c(1)))],
        );
        p.body = vec![
            b::do_loop("j", b::c(1), b::c(4), vec![b::kernel("fft1d", vec![col_j])]),
            b::do_loop("n", b::c(1), b::c(4), vec![b::send_own_val(col_n)]),
        ];
        p
    }

    #[test]
    fn fuses_fft_compute_and_send_loops() {
        let p = fft_like();
        let r = FuseLoops.run(&p);
        assert!(r.changed, "{}", xdp_ir::pretty::program(&r.program));
        assert_eq!(r.program.stmt_census().loops, 1);
        let text = xdp_ir::pretty::program(&r.program);
        assert!(text.contains("fft1d"), "{text}");
        assert!(text.contains("-=>"), "{text}");
    }

    #[test]
    fn rejects_fusion_when_send_covers_later_compute() {
        // Second loop sends the WHOLE plane each iteration: overlaps the
        // first loop's later iterations -> illegal.
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let col_j = b::sref(a, vec![b::all(), b::at(b::iv("j"))]);
        let whole = b::sref(a, vec![b::all(), b::all()]);
        p.body = vec![
            b::do_loop("j", b::c(1), b::c(4), vec![b::kernel("fft1d", vec![col_j])]),
            b::do_loop("n", b::c(1), b::c(4), vec![b::send_own_val(whole)]),
        ];
        let r = FuseLoops.run(&p);
        assert!(!r.changed);
    }

    #[test]
    fn rejects_mismatched_bounds() {
        let mut p = fft_like();
        if let Stmt::DoLoop { hi, .. } = &mut p.body[1] {
            *hi = b::c(3);
        }
        let r = FuseLoops.run(&p);
        assert!(!r.changed);
    }

    #[test]
    fn fuses_disjoint_reads() {
        // Two loops reading the same sections: reads never conflict.
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let u = p.declare(b::universal_array("U", ElemType::F64, vec![(1, 8)]));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let ui = b::sref(u, vec![b::at(b::iv("i"))]);
        let u2 = b::sref(u, vec![b::at(b::iv("k"))]);
        p.body = vec![
            b::do_loop(
                "i",
                b::c(1),
                b::c(8),
                vec![b::assign(ui, b::val(ai.clone()))],
            ),
            b::do_loop(
                "k",
                b::c(1),
                b::c(8),
                vec![b::assign(u2.clone(), b::val(u2))],
            ),
        ];
        // Second loop writes U[k] and first writes U[i]: overlap at k < i
        // positions? B2(i) writes U[i]; B1(j) writes U[j], j > i: disjoint
        // elements -> legal.
        let r = FuseLoops.run(&p);
        assert!(r.changed, "{}", xdp_ir::pretty::program(&r.program));
    }

    /// The oracle `meets` is held to: the walk it replaced. Every pair of
    /// iterations, the earlier one's section of `a` against the later
    /// one's of `b`; the least distance at which they overlap.
    fn walk(on: OnProc, l: &Loop, a: &Access, b: &Access) -> Option<i64> {
        let at = |r: &xdp_ir::SectionRef, k: i64| {
            let env = Bindings::from([(l.var.to_string(), l.first() + k * l.step)]);
            xdp_ir::analysis::section_on(r, &env, on).expect("static subscripts")
        };
        let trips = l.values.count();
        (1..trips)
            .find(|delta| (0..trips - delta).any(|k| at(&a.r, k).overlaps(&at(&b.r, k + delta))))
    }

    /// A subscript of the swept dimension, by number; is it one the closed
    /// forms are expected to decide against any other?
    fn swept_sub(form: u8, c: i64, w: i64) -> (xdp_ir::Subscript, bool) {
        let i = || b::iv("i");
        match form {
            0 | 1 => (b::at(i().add(b::c(c))), true),
            2 => (b::span(i().add(b::c(c)), i().add(b::c(c + w))), true),
            3 => (b::at(b::c(20 + c)), true),
            4 => (b::span(b::c(20 + c), b::c(20 + c + 3 * w)), true),
            5 => (b::all(), true),
            6 => (b::span_st(b::c(10 + c), b::c(40 + c), b::c(2 + w)), false),
            _ => (b::at(i().mul(b::c(2))), false),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn meets_is_the_pairwise_walk(
            forms in (0u8..8, 0u8..8, 0u8..8, 0u8..8),
            offsets in (-3i64..4, -3i64..4, -3i64..4, -3i64..4),
            widths in (0i64..3, 0i64..3, 0i64..3, 0i64..3),
            other in (0u8..3, 0u8..3),
            lo in 1i64..30,
            trips in 0i64..18,
            step in 0usize..5,
        ) {
            let step = [1, 2, 3, -1, -2][step];
            let mut p = Program::new();
            let var = p.declare(b::array(
                "A",
                ElemType::F64,
                vec![(-20, 90), (-20, 90), (0, 3)],
                vec![DimDist::Block, DimDist::Star, DimDist::Star],
                ProcGrid::linear(4),
            ));
            let other_sub = |k: u8| match k {
                0 => b::at(b::mypid()),
                1 => b::all(),
                _ => b::at(b::c(2)),
            };
            let (a0, easy_a0) = swept_sub(forms.0, offsets.0, widths.0);
            let (a1, easy_a1) = swept_sub(forms.1, offsets.1, widths.1);
            let (b0, easy_b0) = swept_sub(forms.2, offsets.2, widths.2);
            let (b1, easy_b1) = swept_sub(forms.3, offsets.3, widths.3);
            let easy = easy_a0 && easy_a1 && easy_b0 && easy_b1;
            let access = |subs: [xdp_ir::Subscript; 2], k| {
                let [s0, s1] = subs;
                Access {
                    var,
                    r: b::sref(var, vec![s0, s1, other_sub(k)]),
                    kind: AccessKind::Write,
                    by: None,
                }
            };
            let (a, b2) = (access([a0, a1], other.0), access([b0, b1], other.1));
            let first = if step > 0 { lo } else { lo + 40 };
            let values = loop_window(first, first + step * (trips - 1), step).unwrap();
            let l = Loop { var: "i", step, values };
            proptest::prop_assume!(l.values.count() >= 2);
            let dists = Dists::of(&p);
            for pid in 0..4 {
                let on = OnProc { dists: &dists, stmt: 0, pid };
                match meets(on, &l, &a, &b2) {
                    Some(ahead) => proptest::prop_assert_eq!(ahead, walk(on, &l, &a, &b2)),
                    None => proptest::prop_assert!(!easy, "undecided"),
                }
            }
        }
    }
}
