//! Await sinking (§4, the final FFT transformation).
//!
//! "Moving the await statement *into* Loop 4 ... can allow the FFT
//! operations to proceed while other data is still being transferred."
//!
//! Pattern: `await(X) : { do j { ... } }` where the (possibly nested) loop
//! body references `X`'s variable through one reference `r`. The awaited
//! section is *restricted* to the outer iteration: every dimension whose
//! subscript in `r` depends only on the outer loop variable replaces the
//! corresponding dimension of `X`, and the whole-section synchronization
//! becomes per-iteration synchronization —
//! `do j { await(X|j) : { ... } }` — trading extra run-time checks for
//! overlap of computation with the transfers still in flight.
//!
//! Soundness is decided on sets, per processor: the restricted pieces
//! `X|j` — one subscript affine in `j`, so their union over the loop's
//! values is a triplet — must tile the awaited section exactly, and what
//! every other subscript of `r` sweeps over its loop must lie inside `X`.
//! Loop bounds may use `mylb`/`myub` of arrays whose ownership is never
//! transferred (e.g. the localized bounds produced by compute-rule
//! elimination); they are resolved against the initial distribution.

use crate::analysis::{
    block_accesses, dim_form, section_on, window_of, Access, Bindings, DimForm, OnProc,
};
use crate::passes::{declined, Pass, PassResult};
use xdp_ir::build as b;
use xdp_ir::walk::rewrite_block;
use xdp_ir::{BoolExpr, IntExpr, Program, SectionRef, Stmt, Subscript, Triplet};

/// The await-sinking pass.
pub struct SinkAwait;

impl Pass for SinkAwait {
    fn name(&self) -> &'static str {
        "sink-await"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let body = rewrite_block(&p.body, &mut |s| {
            let Stmt::Guarded {
                rule: BoolExpr::Await(x),
                body,
            } = &s
            else {
                return vec![s];
            };
            let Some(nest) = collect_nest(body) else {
                return vec![s];
            };
            match try_sink(p, x, &nest) {
                Ok(st) => {
                    changed = true;
                    notes.push(format!(
                        "sank await({}) into loop `{}` as per-iteration await",
                        p.decl(x.var).name,
                        nest.loops[0].0
                    ));
                    vec![st]
                }
                Err(why) => {
                    let what = format_args!("await({})", xdp_ir::pretty::section_ref(p, x));
                    notes.push(declined(self, what, why));
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

/// The loop nest under an awaited guard: variables and (unevaluated)
/// bounds, outermost first, plus the outer loop's body and the innermost.
struct Nest<'a> {
    loops: Vec<(&'a str, &'a IntExpr, &'a IntExpr, &'a IntExpr)>,
    outer_body: &'a [Stmt],
    innermost: &'a [Stmt],
}

fn collect_nest(body: &[Stmt]) -> Option<Nest<'_>> {
    let mut loops = Vec::new();
    let (mut cur, mut outer_body) = (body, body);
    while let [Stmt::DoLoop {
        var,
        lo,
        hi,
        step,
        body,
    }] = cur
    {
        if loops.is_empty() {
            outer_body = body;
        }
        loops.push((var.as_str(), lo, hi, step));
        cur = body;
    }
    (!loops.is_empty()).then_some(Nest {
        loops,
        outer_body,
        innermost: cur,
    })
}

/// Where a subscript `a·v + lo : a·v + hi` goes as `v` runs over `over`:
/// exactly, for a point; its hull, for a range.
fn swept(a: i64, lo: i64, hi: i64, over: Triplet) -> Triplet {
    let ends = [a.saturating_mul(over.lb), a.saturating_mul(over.ub)];
    let (min, max) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
    let st = if lo == hi {
        a.saturating_mul(over.st).saturating_abs()
    } else {
        1
    };
    Triplet::new(min.saturating_add(lo), max.saturating_add(hi), st.max(1))
}

fn try_sink(p: &Program, x: &SectionRef, nest: &Nest) -> Result<Stmt, String> {
    let (outer_var, outer_lo, outer_hi, outer_step) = nest.loops[0];
    let xdecl = p.decl(x.var);

    // The single distinct reference to X's variable in the nest — counting
    // the ownership queries made from inside subscripts.
    let mut refs: Vec<Access> = Vec::new();
    for a in block_accesses(nest.innermost) {
        if a.var == x.var && !refs.iter().any(|seen| seen.r == a.r) {
            refs.push(a);
        }
    }
    let [Access { r, .. }] = refs.as_slice() else {
        let name = |r: &SectionRef| xdp_ir::pretty::section_ref(p, r);
        let said = refs.iter().map(|a| match &a.by {
            Some(host) => format!("and {} queried by {}", name(&a.r), name(host)),
            None => name(&a.r),
        });
        return Err(format!(
            "the nest names {} different sections of {}: {}",
            refs.len(),
            xdecl.name,
            said.collect::<Vec<_>>().join(", ")
        ));
    };
    let rname = xdp_ir::pretty::section_ref(p, r);
    // The original awaited section must not itself depend on loop
    // variables (it is evaluated once, before the nest).
    if r.subs.len() != x.subs.len() || nest.loops.iter().any(|(v, ..)| x.uses_var(v)) {
        return Err(format!("it and {rname} do not line up"));
    }

    // Restrict X: the dimension whose subscript in `r` depends on the
    // outer variable only (not on inner loop variables).
    let follows_outer = |sub: &Subscript| {
        sub.uses_var(outer_var) && !nest.loops[1..].iter().any(|(v, ..)| sub.uses_var(v))
    };
    let mut restricted = (0..r.subs.len()).filter(|&d| follows_outer(&r.subs[d]));
    let (Some(rd), None) = (restricted.next(), restricted.next()) else {
        return Err(format!(
            "not exactly one subscript of {rname} follows {outer_var} alone"
        ));
    };
    let mut x_restricted = x.clone();
    x_restricted.subs[rd] = r.subs[rd].clone();

    let nprocs = p.machine_size().ok_or("no array is distributed")?;
    let env = Bindings::new();
    for pid in 0..nprocs {
        let on = OnProc { p, pid };
        let unknown = || format!("a bound is not known at compile time on p{pid}");
        let x_orig = section_on(p, x, &env, on).ok_or_else(unknown)?;
        // What each loop variable runs over; the inner loops only matter
        // where the outer one runs.
        let mut over = Vec::with_capacity(nest.loops.len());
        for &(_, lo, hi, step) in &nest.loops {
            let window = window_of([lo, hi, step], &env, Some(on));
            over.push(window.ok_or_else(unknown)?);
            if over[0].is_empty() {
                break;
            }
        }
        if over[0].is_empty() && x_orig.is_empty() {
            continue;
        }
        // The pieces X|j tile X: their union over j is X's triplet in the
        // restricted dimension, and they are X elsewhere.
        let tiles = match dim_form(xdecl, r, rd, Some(outer_var), &env, Some(on)) {
            Some(DimForm::Moving { a, lo, hi }) if lo == hi && !over[0].is_empty() => {
                let pieces = swept(a, lo, hi, over[0]);
                pieces.covers(&x_orig.dim(rd)) && x_orig.dim(rd).covers(&pieces)
            }
            _ => false,
        };
        if !tiles || x_orig.is_empty() {
            return Err(format!(
                "the pieces of {rname} over {outer_var} do not tile it on p{pid}"
            ));
        }
        // Every touched section r lies inside its iteration's piece: in
        // each other dimension, what r's subscript sweeps lies inside X.
        if over.iter().any(|w| w.is_empty()) {
            continue;
        }
        for d in (0..r.subs.len()).filter(|&d| d != rd) {
            let mut vars =
                (nest.loops.iter().zip(&over)).filter(|((v, ..), _)| r.subs[d].uses_var(v));
            let (first, second) = (vars.next(), vars.next());
            let var = first.map(|((v, ..), _)| *v);
            let form = dim_form(xdecl, r, d, var, &env, Some(on)).filter(|_| second.is_none());
            let touched = match form {
                Some(DimForm::Fixed(t)) => Some(t),
                Some(DimForm::Moving { a, lo, hi }) => first.map(|(_, &w)| swept(a, lo, hi, w)),
                None => None,
            };
            if !touched.is_some_and(|t| x_orig.dim(d).covers(&t)) {
                return Err(format!("{rname} is not seen to stay inside it on p{pid}"));
            }
        }
    }

    // Rebuild: the outer loop wraps the restricted guard around its body.
    Ok(Stmt::DoLoop {
        var: outer_var.to_string(),
        lo: outer_lo.clone(),
        hi: outer_hi.clone(),
        step: outer_step.clone(),
        body: vec![b::guarded(
            BoolExpr::Await(x_restricted),
            nest.outer_body.to_vec(),
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pass;
    use xdp_ir::{pretty, DimDist, ElemType, ProcGrid};

    /// §4's Loop4: await(A[*,mypid,*]) : { do i { fft1d(A[i,mypid,*]) } }.
    fn fft_loop4() -> Program {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Block, DimDist::Star],
            ProcGrid::linear(4),
        ));
        let whole = b::sref(a, vec![b::all(), b::at(b::mypid().add(b::c(1))), b::all()]);
        let line = b::sref(
            a,
            vec![b::at(b::iv("i")), b::at(b::mypid().add(b::c(1))), b::all()],
        );
        p.body = vec![b::guarded(
            b::await_(whole),
            vec![b::do_loop(
                "i",
                b::c(1),
                b::c(4),
                vec![b::kernel("fft1d", vec![line])],
            )],
        )];
        p
    }

    #[test]
    fn sinks_fft_await() {
        let p = fft_loop4();
        let r = SinkAwait.run(&p);
        assert!(r.changed, "{}", pretty::program(&r.program));
        let text = pretty::program(&r.program);
        assert!(
            matches!(r.program.body[0], Stmt::DoLoop { .. }),
            "loop should be outermost: {text}"
        );
        assert!(text.contains("await(A[i,(mypid + 1),*]) : {"), "{text}");
    }

    #[test]
    fn sinks_nested_loop_to_outer_granularity() {
        // The generalized (n > P) FFT Loop4: await over the whole incoming
        // slab range, with a j-loop over mylb/myub bounds and an i-loop
        // inside. The await sinks to per-j granularity.
        let n = 8i64;
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, n), (1, n), (1, n)],
            vec![DimDist::Star, DimDist::Block, DimDist::Star],
            ProcGrid::linear(4),
        ));
        let own = p.declare(b::array(
            "OWN",
            ElemType::I64,
            vec![(1, n)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        let own_all = b::sref(own, vec![b::all()]);
        let jlo = b::mylb(own_all.clone(), 1);
        let jhi = b::myub(own_all, 1);
        let slab_range = b::sref(
            a,
            vec![b::all(), b::span(jlo.clone(), jhi.clone()), b::all()],
        );
        let line = b::sref(a, vec![b::at(b::iv("i")), b::at(b::iv("j")), b::all()]);
        p.body = vec![b::guarded(
            b::await_(slab_range),
            vec![b::do_loop_step(
                "j",
                jlo,
                jhi,
                b::c(1),
                vec![b::do_loop(
                    "i",
                    b::c(1),
                    b::c(n),
                    vec![b::kernel("fft1d", vec![line])],
                )],
            )],
        )];
        let r = SinkAwait.run(&p);
        assert!(r.changed, "{}", pretty::program(&p));
        let text = pretty::program(&r.program);
        assert!(text.contains("await(A[*,j,*]) : {"), "{text}");
        // The inner i-loop is now inside the per-j await.
        assert!(matches!(r.program.body[0], Stmt::DoLoop { .. }), "{text}");
    }

    #[test]
    fn refuses_when_ref_exceeds_awaited_section() {
        let mut p = fft_loop4();
        // Change the awaited section to a single plane slice that does NOT
        // cover the per-iteration lines.
        let a = p.lookup("A").unwrap();
        let narrow = b::sref(
            a,
            vec![b::at(b::c(1)), b::at(b::mypid().add(b::c(1))), b::all()],
        );
        if let Stmt::Guarded { rule, .. } = &mut p.body[0] {
            *rule = b::await_(narrow);
        }
        let r = SinkAwait.run(&p);
        assert!(!r.changed);
    }

    #[test]
    fn refuses_multiple_distinct_refs() {
        let mut p = fft_loop4();
        let a = p.lookup("A").unwrap();
        let extra = b::sref(a, vec![b::at(b::c(1)), b::at(b::c(1)), b::all()]);
        if let Stmt::Guarded { body, .. } = &mut p.body[0] {
            if let Stmt::DoLoop { body: inner, .. } = &mut body[0] {
                inner.push(b::kernel("fft1d", vec![extra]));
            }
        }
        let r = SinkAwait.run(&p);
        assert!(!r.changed);
    }

    #[test]
    fn refuses_mylb_bounds_of_transferred_arrays() {
        // If the bounds depend on an array whose ownership moves, the
        // initial-distribution resolution is unsound and the pass bails.
        let n = 8i64;
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, n), (1, n)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let a_all = b::sref(a, vec![b::all(), b::all()]);
        let jlo = b::mylb(a_all.clone(), 2);
        let jhi = b::myub(a_all, 2);
        let slab = b::sref(a, vec![b::all(), b::span(jlo.clone(), jhi.clone())]);
        let col = b::sref(a, vec![b::all(), b::at(b::iv("j"))]);
        p.body = vec![
            // Ownership of A moves somewhere in the program...
            b::recv_own_val(b::sref(a, vec![b::all(), b::at(b::c(1))])),
            // ...so bounds from mylb(A) cannot be resolved statically.
            b::guarded(
                b::await_(slab),
                vec![b::do_loop_step(
                    "j",
                    jlo,
                    jhi,
                    b::c(1),
                    vec![b::kernel("fft1d", vec![col])],
                )],
            ),
        ];
        let r = SinkAwait.run(&p);
        assert!(!r.changed);
    }

    /// The walk the closed forms replaced, as a check of what the pass
    /// emits: on every processor, every per-iteration piece lies inside
    /// the awaited section, the pieces jointly cover it, and everything
    /// the nest touches lies inside its iteration's piece.
    fn sound_by_enumeration(p: &Program, sunk: &Program) -> bool {
        use crate::analysis::{eval, loop_window, section_on, Bindings, OnProc};
        let Stmt::Guarded {
            rule: BoolExpr::Await(x),
            ..
        } = &p.body[0]
        else {
            panic!("an awaited nest");
        };
        let Stmt::DoLoop {
            var: j,
            lo,
            hi,
            step,
            body,
        } = &sunk.body[0]
        else {
            panic!("a sunk loop");
        };
        let [Stmt::Guarded {
            rule: BoolExpr::Await(piece),
            body,
        }] = body.as_slice()
        else {
            panic!("a per-iteration await");
        };
        let [Stmt::DoLoop {
            var: i,
            lo: ilo,
            hi: ihi,
            step: ist,
            body,
        }] = body.as_slice()
        else {
            panic!("an inner loop");
        };
        let [Stmt::Kernel { args, .. }] = body.as_slice() else {
            panic!("a kernel");
        };
        (0..4).all(|pid| {
            let on = OnProc { p, pid };
            let mut env = Bindings::new();
            let values = |env: &Bindings, lo, hi, st| {
                let [lo, hi, st] = [lo, hi, st].map(|e| eval(e, env, Some(on)).unwrap());
                loop_window(lo, hi, st).unwrap()
            };
            let whole = section_on(p, x, &env, on).unwrap();
            let mut pieces = Vec::new();
            for jv in values(&env, lo, hi, step).iter() {
                env.insert(j.clone(), jv);
                let piece = section_on(p, piece, &env, on).unwrap();
                if !whole.covers(&piece) {
                    return false;
                }
                for iv in values(&env, ilo, ihi, ist).iter() {
                    env.insert(i.clone(), iv);
                    if !piece.covers(&section_on(p, &args[0], &env, on).unwrap()) {
                        return false;
                    }
                }
                env.remove(i);
                pieces.push(piece);
            }
            whole.covered_by(&pieces)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(600))]

        #[test]
        fn whatever_is_sunk_is_sound_by_enumeration(
            follows in 0usize..2,
            awaited in (0u8..6, 0u8..4),
            touched in (0u8..5, 0u8..6),
            offsets in (-1i64..2, -1i64..2),
            outer in (1i64..4, 6i64..13, 0u8..4),
            inner in (1i64..3, 10i64..13),
            star_first in 0u8..2,
        ) {
            let mut p = Program::new();
            let dims = if star_first == 0 {
                vec![DimDist::Star, DimDist::Block]
            } else {
                vec![DimDist::Block, DimDist::Star]
            };
            let a = p.declare(b::array(
                "A",
                ElemType::C64,
                vec![(1, 12), (1, 12)],
                dims,
                ProcGrid::linear(4),
            ));
            let own = p.declare(b::array(
                "OWN",
                ElemType::I64,
                vec![(1, 12)],
                vec![DimDist::Block],
                ProcGrid::linear(4),
            ));
            let mine = || b::sref(own, vec![b::all()]);
            // The outer loop, and the awaited subscript that matches it —
            // most of the time.
            let (jlo, jhi, jst) = match outer.2 {
                0 | 1 => (b::c(outer.0), b::c(outer.1), b::c(1)),
                2 => (b::c(outer.0), b::c(outer.1), b::c(2)),
                _ => (b::mylb(mine(), 1), b::myub(mine(), 1), b::c(1)),
            };
            let along = match awaited.0 {
                0..=2 => b::span_st(jlo.clone(), jhi.clone(), jst.clone()),
                3 => b::span(b::c(outer.0), b::c(outer.1 - 1)),
                4 => b::span(b::c(outer.0 + 1), b::c(outer.1)),
                _ => b::all(),
            };
            let across = match awaited.1 {
                0 | 1 => b::all(),
                2 => b::span(b::c(inner.0), b::c(inner.1)),
                _ => b::span(b::c(2), b::c(11)),
            };
            let at_j = match touched.0 {
                0..=2 => b::at(b::iv("j").add(b::c(if touched.0 == 2 { offsets.0 } else { 0 }))),
                3 => b::at(b::iv("j").mul(b::c(2))),
                _ => b::at(b::iv("i").add(b::iv("j"))),
            };
            let at_i = match touched.1 {
                0 | 1 => b::at(b::iv("i").add(b::c(offsets.1))),
                2 => b::all(),
                3 => b::span(b::iv("i"), b::iv("i").add(b::c(1))),
                4 => b::at(b::c(3)),
                _ => b::at(b::iv("j")),
            };
            let (x, r) = if follows == 0 {
                (b::sref(a, vec![along, across]), b::sref(a, vec![at_j, at_i]))
            } else {
                (b::sref(a, vec![across, along]), b::sref(a, vec![at_i, at_j]))
            };
            p.body = vec![b::guarded(
                b::await_(x),
                vec![b::do_loop_step(
                    "j",
                    jlo,
                    jhi,
                    jst,
                    vec![b::do_loop(
                        "i",
                        b::c(inner.0),
                        b::c(inner.1),
                        vec![b::kernel("fft1d", vec![r])],
                    )],
                )],
            )];
            let sunk = SinkAwait.run(&p);
            if sunk.changed {
                proptest::prop_assert!(
                    sound_by_enumeration(&p, &sunk.program),
                    "{}",
                    pretty::program(&sunk.program)
                );
            }
        }
    }
}
