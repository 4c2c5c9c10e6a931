//! Compute-rule elimination by loop-bounds localization (§2.2, §4).
//!
//! "Compute rule elimination ... is achieved by adjusting the outer loop
//! bounds so that each processor only does those iterations for which it
//! owns the data."
//!
//! Two transformations, both read off the guard reference's
//! [`OwnerMap`](crate::analysis::OwnerMap) — the iterations each processor
//! owns the guarded section on:
//!
//! 1. **Range contraction** — a loop whose body is one `iown(X)`-guarded
//!    block, where `X`'s subscript in one distributed dimension is
//!    `i + c` and every processor's iterations are one constant-stride
//!    run: rewrite the bounds to
//!    `mylb(V[lo+c : hi+c], d) - c  ..  myub(V[lo+c : hi+c], d) - c`
//!    (with the owning stride as the step for `CYCLIC`), and drop the
//!    guard.
//! 2. **Single-iteration elimination** — when every processor owns exactly
//!    one iteration and that iteration is affine in the pid (the 3-D FFT's
//!    `do p = 1,4 { iown(A[*,*,p]) : ... }`), the loop disappears: the
//!    guard is dropped and `p := a*mypid + b` is substituted into the body
//!    ("replacing all references to the loop's induction variable ... by
//!    mypid").

use crate::analysis::Owners;
use crate::passes::pattern::static_window;
use crate::passes::{declined, Pass, PassResult};
use xdp_ir::build as b;
use xdp_ir::walk::rewrite_block;
use xdp_ir::{BoolExpr, IntExpr, Program, SectionRef, Stmt, Triplet};

/// The localization pass.
pub struct LocalizeBounds;

impl Pass for LocalizeBounds {
    fn name(&self) -> &'static str {
        "localize-bounds"
    }

    fn run(&self, p: &Program) -> PassResult {
        let mut notes = Vec::new();
        let mut changed = false;
        let mut owners = Owners::new(p);
        let body = rewrite_block(&p.body, &mut |s| {
            let Some(guarded) = recognize(&s) else {
                return vec![s];
            };
            match localize(p, &mut owners, &guarded, &mut notes) {
                Ok(stmts) => {
                    changed = true;
                    stmts
                }
                Err(why) => {
                    notes.push(declined(self, format_args!("loop {}", guarded.var), why));
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

/// `do var = lo, hi { iown(X(var)) [&& rest] : inner }`, unit step.
struct GuardedLoop<'a> {
    var: &'a str,
    lo: &'a IntExpr,
    hi: &'a IntExpr,
    guard_ref: &'a SectionRef,
    /// The guarded block, under whatever else the rule asked for.
    inner: Vec<Stmt>,
}

fn recognize(s: &Stmt) -> Option<GuardedLoop<'_>> {
    let Stmt::DoLoop {
        var,
        lo,
        hi,
        step,
        body,
    } = s
    else {
        return None;
    };
    if step.as_const() != Some(1) {
        return None;
    }
    let [Stmt::Guarded { rule, body: inner }] = body.as_slice() else {
        return None;
    };
    // The rule must contain exactly one iown(X) conjunct whose subscripts
    // use the loop variable; the remaining conjuncts (e.g. the vectorizer's
    // per-iteration awaits) stay as a residual inner guard.
    let mut conjuncts = Vec::new();
    split_conjuncts(rule, &mut conjuncts);
    let mut guard_ref = None;
    let mut residual: Vec<BoolExpr> = Vec::new();
    for c in conjuncts {
        match c {
            BoolExpr::Iown(r) if r.uses_var(var) && guard_ref.is_none() => guard_ref = Some(r),
            other => residual.push(other.clone()),
        }
    }
    let inner = match residual.into_iter().reduce(BoolExpr::and) {
        None => inner.clone(),
        Some(rule) => vec![Stmt::Guarded {
            rule,
            body: inner.clone(),
        }],
    };
    Some(GuardedLoop {
        var,
        lo,
        hi,
        guard_ref: guard_ref?,
        inner,
    })
}

fn localize(
    p: &Program,
    owners: &mut Owners,
    l: &GuardedLoop,
    notes: &mut Vec<String>,
) -> Result<Vec<Stmt>, String> {
    let (var, guard_ref) = (l.var, l.guard_ref);
    let window = static_window(l.lo, l.hi)?;
    if window.is_empty() {
        return Err("it never runs".to_string());
    }
    let map = owners.map(guard_ref, var, window)?;
    let name = &p.decl(guard_ref.var).name;

    // Attempt 2 first: single iteration per pid, affine in pid.
    let only = |runs: &Vec<Triplet>| match runs.as_slice() {
        [run] if run.count() == 1 => Some(run.lb),
        _ => None,
    };
    if let Some(iters) = map.runs.iter().map(only).collect::<Option<Vec<i64>>>() {
        let a = iters.get(1).map_or(0, |second| second - iters[0]);
        let b0 = iters[0];
        if (0..).zip(&iters).all(|(pid, &it)| it == a * pid + b0) {
            let rep = match (a, b0) {
                (1, 0) => IntExpr::MyPid,
                (1, _) => IntExpr::MyPid.add(IntExpr::Const(b0)),
                _ => IntExpr::Const(a)
                    .mul(IntExpr::MyPid)
                    .add(IntExpr::Const(b0)),
            };
            notes.push(format!(
                "eliminated loop `{var}` and guard iown({name}): one owned iteration per processor, {var} := {}",
                pretty_rep(a, b0),
            ));
            return Ok(l.inner.iter().map(|st| st.subst(var, &rep)).collect());
        }
    }

    // Attempt 1: range contraction. Every processor's iterations must be
    // one run, all longer runs of one stride — 1 for contiguous owners
    // (Block/Star), the grid extent for Cyclic — and exactly what it owns
    // of the loop dimension, which is what `mylb`/`myub` will re-derive.
    let mut strides = (map.runs.iter().flatten())
        .filter(|run| run.count() >= 2)
        .map(|run| run.st);
    let stride = strides.next().unwrap_or(1);
    if map.runs.iter().any(|runs| runs.len() > 1) || strides.any(|st| st != stride) {
        return Err(format!(
            "the iterations a processor owns {name} on are not one constant-stride run"
        ));
    }
    if !map.dim_decides {
        return Err(format!(
            "{name} is owned through more than its dimension {}",
            map.dim + 1
        ));
    }

    // Build the query section: guard_ref with dim d replaced by the loop
    // window.
    let (d, c) = (map.dim, map.offset);
    let mut qsubs = guard_ref.subs.clone();
    qsubs[d] = b::span(add_c(l.lo, c), add_c(l.hi, c));
    let query = SectionRef::new(guard_ref.var, qsubs);
    let dim1 = (d + 1) as u32; // mylb/myub take 1-based dims
    let new_lo = sub_c(&b::mylb(query.clone(), dim1), c);
    let new_hi = sub_c(&b::myub(query, dim1), c);
    notes.push(format!(
        "contracted loop `{var}` to owned range of {name} (dim {dim1}, offset {c}, stride {stride}); guard eliminated",
    ));
    Ok(vec![b::do_loop_step(
        var,
        new_lo,
        new_hi,
        IntExpr::Const(stride),
        l.inner.clone(),
    )])
}

/// Flatten an `And` tree into its conjuncts.
fn split_conjuncts<'a>(rule: &'a BoolExpr, out: &mut Vec<&'a BoolExpr>) {
    match rule {
        BoolExpr::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// `e + c`, folding the `c == 0` case away.
fn add_c(e: &IntExpr, c: i64) -> IntExpr {
    if c == 0 {
        e.clone()
    } else {
        e.clone().add(IntExpr::Const(c))
    }
}

/// `e - c`, folding the `c == 0` case away.
fn sub_c(e: &IntExpr, c: i64) -> IntExpr {
    if c == 0 {
        e.clone()
    } else {
        e.clone().sub(IntExpr::Const(c))
    }
}

fn pretty_rep(a: i64, b0: i64) -> String {
    match (a, b0) {
        (1, 0) => "mypid".to_string(),
        (1, _) => format!("mypid + {b0}"),
        _ => format!("{a}*mypid + {b0}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::pretty;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn block_prog(n: i64, nprocs: usize) -> (Program, xdp_ir::VarId) {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Block],
            ProcGrid::linear(nprocs),
        ));
        (p, a)
    }

    #[test]
    fn contracts_block_loop() {
        let (mut p, a) = block_prog(16, 4);
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(16),
            vec![b::guarded(
                b::iown(ai.clone()),
                vec![b::assign(
                    ai.clone(),
                    b::val(ai.clone()).add(xdp_ir::ElemExpr::LitF(1.0)),
                )],
            )],
        )];
        let r = LocalizeBounds.run(&p);
        assert!(r.changed, "{}", pretty::program(&r.program));
        let text = pretty::program(&r.program);
        assert!(text.contains("mylb(A[1:16], 1)"), "{text}");
        assert!(!text.contains("iown"), "guard should be gone: {text}");
        assert_eq!(r.program.stmt_census().guards, 0);
    }

    #[test]
    fn contracts_cyclic_loop_with_stride() {
        let (mut p, a) = block_prog(16, 4);
        // Re-declare as cyclic.
        p.decls[0].dist = Some(xdp_ir::Distribution::new(
            vec![DimDist::Cyclic],
            ProcGrid::linear(4),
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(16),
            vec![b::guarded(
                b::iown(ai.clone()),
                vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitF(1.0))],
            )],
        )];
        let r = LocalizeBounds.run(&p);
        assert!(r.changed);
        let text = pretty::program(&r.program);
        assert!(text.contains(", 4 {"), "stride-4 loop expected: {text}");
    }

    #[test]
    fn contracts_shifted_subscript() {
        let (mut p, a) = block_prog(16, 4);
        // A[i+1] for i in 1..15.
        let ai1 = b::sref(a, vec![b::at(b::iv("i").add(b::c(1)))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(15),
            vec![b::guarded(
                b::iown(ai1.clone()),
                vec![b::assign(ai1.clone(), xdp_ir::ElemExpr::LitF(2.0))],
            )],
        )];
        let r = LocalizeBounds.run(&p);
        assert!(r.changed);
        let text = pretty::program(&r.program);
        assert!(text.contains("- 1"), "offset applied: {text}");
    }

    #[test]
    fn fft_style_single_iteration_elimination() {
        // do k = 1,4 { iown(A[*,*,k]) : { fft1d(A[*,1,k]) } } on
        // (*,*,BLOCK) over 4 procs: k := mypid + 1.
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let plane = b::sref(a, vec![b::all(), b::all(), b::at(b::iv("k"))]);
        let line = b::sref(a, vec![b::all(), b::at(b::c(1)), b::at(b::iv("k"))]);
        p.body = vec![b::do_loop(
            "k",
            b::c(1),
            b::c(4),
            vec![b::guarded(
                b::iown(plane),
                vec![b::kernel("fft1d", vec![line])],
            )],
        )];
        let r = LocalizeBounds.run(&p);
        assert!(r.changed);
        let text = pretty::program(&r.program);
        assert!(text.contains("fft1d(A[*,1,(mypid + 1)])"), "{text}");
        assert_eq!(r.program.stmt_census().loops, 0);
        assert_eq!(r.program.stmt_census().guards, 0);
    }

    #[test]
    fn leaves_unanalyzable_loops_alone() {
        let (mut p, a) = block_prog(16, 4);
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        // Symbolic bound: cannot enumerate.
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::iv("n"),
            vec![b::guarded(
                b::iown(ai.clone()),
                vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitF(0.0))],
            )],
        )];
        let r = LocalizeBounds.run(&p);
        assert!(!r.changed);
    }
}
