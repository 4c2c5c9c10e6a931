//! Greedy structural shrinking.
//!
//! Given a failing [`TestProgram`] and a predicate that re-checks the
//! failure, [`shrink`] repeatedly applies reductions and keeps every one
//! the predicate survives, until a fixpoint (or the evaluation budget)
//! is reached:
//!
//! * **delete** a statement subtree (largest first);
//! * **splice** a `Guarded` block or a single-iteration `DoLoop` inline
//!   (loop variables are substituted with the lower bound);
//! * **reduce** a constant loop bound `hi` toward `lo` (jump straight to
//!   one iteration, else halve);
//! * **prune** trailing declarations no surviving statement references
//!   (earlier unused declarations are kept — `VarId`s are ordinals, so
//!   removing one would renumber every later reference).
//!
//! The predicate should pin the failure *kind* (e.g. the
//! [`crate::diff::Divergence::key`]) so shrinking cannot wander onto a
//! different bug: deleting a send but not its receive typically turns a
//! pass miscompile into a deadlock, which must count as "fixed".

use crate::gen::TestProgram;
use xdp_ir::walk::{self, Node};
use xdp_ir::{Block, IntExpr, Stmt};

/// Default evaluation budget: each evaluation re-executes the program on
/// at least one backend, so keep this in the hundreds.
pub const DEFAULT_MAX_EVALS: usize = 400;

/// What [`shrink`] did.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The smallest still-failing program found.
    pub program: TestProgram,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Statement count (preorder, all nesting levels) of the result.
    pub stmts: usize,
}

/// Total statement count of a block, all nesting levels.
pub fn stmt_count(body: &Block) -> usize {
    body.iter().map(|s| s.subtree_size()).sum()
}

/// Greedily minimize `tp` while `still_fails` holds. `still_fails` is
/// never called on `tp` itself — the caller asserts it is failing.
pub fn shrink(
    tp: &TestProgram,
    max_evals: usize,
    still_fails: &dyn Fn(&TestProgram) -> bool,
) -> ShrinkResult {
    let mut best = tp.clone();
    let mut evals = 0usize;

    // One reduction kind per round-robin sweep; repeat until a full
    // cycle of sweeps makes no progress.
    loop {
        let mut progress = false;
        progress |= sweep_delete(&mut best, max_evals, &mut evals, still_fails);
        progress |= sweep_loops(&mut best, max_evals, &mut evals, still_fails);
        progress |= sweep_splice(&mut best, max_evals, &mut evals, still_fails);
        if !progress || evals >= max_evals {
            break;
        }
    }
    prune_trailing_decls(&mut best.program);
    let stmts = stmt_count(&best.program.body);
    ShrinkResult {
        program: best,
        evals,
        stmts,
    }
}

/// A path into the nested statement tree: successive child indices,
/// descending through `Guarded`/`DoLoop` bodies.
type Path = Vec<usize>;

fn collect_paths(block: &[Stmt], prefix: &mut Path, out: &mut Vec<(Path, usize)>) {
    for (i, s) in block.iter().enumerate() {
        prefix.push(i);
        out.push((prefix.clone(), s.subtree_size()));
        collect_paths(s.body(), prefix, out);
        prefix.pop();
    }
}

/// The statement at `path`.
fn stmt_at<'a>(mut block: &'a [Stmt], path: &[usize]) -> Option<&'a Stmt> {
    let (&last, outer) = path.split_last()?;
    for &i in outer {
        block = block.get(i)?.body();
    }
    block.get(last)
}

/// The block holding the statement at `path`, and its index there.
fn holder<'a>(mut block: &'a mut Block, path: &[usize]) -> Option<(&'a mut Block, usize)> {
    let (&last, outer) = path.split_last()?;
    for &i in outer {
        block = block.get_mut(i)?.body_mut()?;
    }
    (last < block.len()).then_some((block, last))
}

/// All paths, largest subtree first (so whole templates go in one step).
fn paths_by_size(block: &Block) -> Vec<Path> {
    let mut out = Vec::new();
    collect_paths(block, &mut Vec::new(), &mut out);
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.into_iter().map(|(p, _)| p).collect()
}

fn accept(
    best: &mut TestProgram,
    candidate: TestProgram,
    evals: &mut usize,
    still_fails: &dyn Fn(&TestProgram) -> bool,
) -> bool {
    *evals += 1;
    if still_fails(&candidate) {
        *best = candidate;
        true
    } else {
        false
    }
}

/// Try deleting each statement subtree, restarting after every success.
fn sweep_delete(
    best: &mut TestProgram,
    max_evals: usize,
    evals: &mut usize,
    still_fails: &dyn Fn(&TestProgram) -> bool,
) -> bool {
    let mut progress = false;
    'restart: loop {
        if *evals >= max_evals {
            return progress;
        }
        for path in paths_by_size(&best.program.body) {
            if *evals >= max_evals {
                return progress;
            }
            let mut cand = best.clone();
            if !remove_at(&mut cand.program.body, &path) {
                continue;
            }
            if accept(best, cand, evals, still_fails) {
                progress = true;
                continue 'restart;
            }
        }
        return progress;
    }
}

/// Try reducing every constant-bound loop: first to one iteration, then
/// by halving the trip count.
fn sweep_loops(
    best: &mut TestProgram,
    max_evals: usize,
    evals: &mut usize,
    still_fails: &dyn Fn(&TestProgram) -> bool,
) -> bool {
    let mut progress = false;
    'restart: loop {
        if *evals >= max_evals {
            return progress;
        }
        for path in paths_by_size(&best.program.body) {
            let Some((lo, hi)) = const_loop_bounds(&best.program.body, &path) else {
                continue;
            };
            if hi <= lo {
                continue;
            }
            for new_hi in [lo, lo + (hi - lo) / 2] {
                if new_hi >= hi || *evals >= max_evals {
                    continue;
                }
                let mut cand = best.clone();
                set_loop_hi(&mut cand.program.body, &path, new_hi);
                if accept(best, cand, evals, still_fails) {
                    progress = true;
                    continue 'restart;
                }
            }
        }
        return progress;
    }
}

/// Try replacing compounds with their bodies: any `Guarded`, and any
/// `DoLoop` whose bounds pin a single iteration.
fn sweep_splice(
    best: &mut TestProgram,
    max_evals: usize,
    evals: &mut usize,
    still_fails: &dyn Fn(&TestProgram) -> bool,
) -> bool {
    let mut progress = false;
    'restart: loop {
        if *evals >= max_evals {
            return progress;
        }
        for path in paths_by_size(&best.program.body) {
            if *evals >= max_evals {
                return progress;
            }
            let mut cand = best.clone();
            if !splice_at(&mut cand.program.body, &path) {
                continue;
            }
            if accept(best, cand, evals, still_fails) {
                progress = true;
                continue 'restart;
            }
        }
        return progress;
    }
}

fn remove_at(block: &mut Block, path: &[usize]) -> bool {
    holder(block, path).map(|(b, i)| b.remove(i)).is_some()
}

fn const_loop_bounds(block: &Block, path: &[usize]) -> Option<(i64, i64)> {
    match stmt_at(block, path)? {
        Stmt::DoLoop {
            lo: IntExpr::Const(l),
            hi: IntExpr::Const(h),
            ..
        } => Some((*l, *h)),
        _ => None,
    }
}

fn set_loop_hi(block: &mut Block, path: &[usize], new_hi: i64) {
    if let Some((b, i)) = holder(block, path) {
        if let Stmt::DoLoop { hi, .. } = &mut b[i] {
            *hi = IntExpr::Const(new_hi);
        }
    }
}

fn splice_at(block: &mut Block, path: &[usize]) -> bool {
    let Some((block, i)) = holder(block, path) else {
        return false;
    };
    let inner: Block = match &block[i] {
        Stmt::Guarded { body, .. } => body.clone(),
        Stmt::DoLoop {
            var,
            lo: IntExpr::Const(l),
            hi: IntExpr::Const(h),
            step: IntExpr::Const(1),
            body,
        } if l == h => {
            let lo = IntExpr::Const(*l);
            body.iter().map(|s| s.subst(var, &lo)).collect()
        }
        _ => return false,
    };
    block.splice(i..i + 1, inner);
    true
}

/// Drop declarations from the end of the declaration list that nothing in
/// the program names — in a statement, a subscript, a bound, a salt or a
/// destination. Only trailing ones: `VarId`s are ordinals.
pub fn prune_trailing_decls(p: &mut xdp_ir::Program) {
    let mut named = 0;
    for s in &p.body {
        walk::visit(Node::Stmt(s), &mut |n| match n {
            Node::Ref(r, _) => named = named.max(r.var.index() + 1),
            Node::Stmt(Stmt::Redistribute { var, .. }) => named = named.max(var.index() + 1),
            _ => {}
        });
    }
    p.decls.truncate(named);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::executable_program;
    use xdp_ir::build as b;
    use xdp_ir::VarId;

    /// Shrinking with a syntactic predicate ("contains a send with salt
    /// 777") must strip everything else away.
    #[test]
    fn shrinks_to_the_marked_statement() {
        let mut tp = executable_program(3);
        let marker = b::send_salted(b::sref(VarId(0), vec![b::at(b::c(1))]), b::c(777));
        tp.program.body.insert(2, marker);
        let has_marker = |t: &TestProgram| {
            let mut found = false;
            t.program.visit(&mut |s| {
                if let Stmt::Send {
                    salt: Some(IntExpr::Const(777)),
                    ..
                } = s
                {
                    found = true;
                }
            });
            found
        };
        assert!(has_marker(&tp));
        let out = shrink(&tp, DEFAULT_MAX_EVALS, &has_marker);
        assert!(has_marker(&out.program));
        assert_eq!(
            out.stmts,
            1,
            "got:\n{}",
            xdp_ir::pretty::program(&out.program.program)
        );
        assert_eq!(out.program.program.decls.len(), 1);
    }

    #[test]
    fn splice_substitutes_single_iteration_loops() {
        let xi = b::sref(VarId(0), vec![b::at(b::iv("i"))]);
        let mut block = vec![b::do_loop(
            "i",
            b::c(3),
            b::c(3),
            vec![b::assign(xi.clone(), b::val(xi))],
        )];
        assert!(splice_at(&mut block, &[0]));
        assert_eq!(block.len(), 1);
        match &block[0] {
            Stmt::Assign { target, .. } => {
                assert_eq!(target.subs.len(), 1);
                let txt = format!("{target:?}");
                assert!(txt.contains("Const(3)"), "{txt}");
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn prune_drops_only_trailing_unused_decls() {
        let tp = executable_program(9);
        let mut p = tp.program.clone();
        let before = p.decls.len();
        p.body.clear();
        prune_trailing_decls(&mut p);
        assert!(p.decls.is_empty(), "{} of {before} left", p.decls.len());
    }

    #[test]
    fn prune_keeps_a_declaration_named_only_inside_an_expression() {
        use xdp_ir::{DimDist, ElemType, ProcGrid, Program};
        let (a, w) = (VarId(0), VarId(1));
        let a1 = || b::sref(a, vec![b::at(b::c(1))]);
        let lb = || b::mylb(b::sref(w, vec![b::all()]), 1);
        let ub = || b::myub(b::sref(w, vec![b::all()]), 1);
        let one = || xdp_ir::ElemExpr::LitF(1.0);
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        // `W` named only by: loop bounds, a kernel's integer parameter, a
        // salt, a destination pid, a `mylb` inside a subscript.
        let bodies = [
            b::do_loop("i", lb(), ub(), vec![b::assign(ai, one())]),
            b::kernel_with("touch", vec![a1()], vec![lb()]),
            b::send_salted(a1(), lb()),
            b::send_to(a1(), vec![lb().sub(b::c(1))]),
            b::assign(b::sref(a, vec![b::at(lb())]), one()),
        ];
        for stmt in bodies {
            let mut p = Program::new();
            for name in ["A", "W"] {
                let dist = vec![DimDist::Block];
                let grid = ProcGrid::linear(2);
                p.declare(b::array(name, ElemType::F64, vec![(1, 8)], dist, grid));
            }
            p.body = vec![stmt];
            let text = xdp_ir::pretty::program(&p);
            prune_trailing_decls(&mut p);
            assert_eq!(p.decls.len(), 2, "pruned W from\n{text}");
            assert_eq!(xdp_ir::validate(&p), Vec::<String>::new(), "{text}");
        }
    }

    proptest::proptest! {
        /// Whatever is left of a program after its tail is cut off, pruning
        /// its declarations leaves every name the walk reaches declared.
        #[test]
        fn pruned_programs_still_validate(
            p in crate::gen::program(),
            seed in 0u64..500,
            keep in 0usize..4,
        ) {
            for mut p in [p, executable_program(seed).program] {
                p.body.truncate(keep);
                proptest::prop_assert_eq!(xdp_ir::validate(&p), Vec::<String>::new());
                prune_trailing_decls(&mut p);
                proptest::prop_assert_eq!(xdp_ir::validate(&p), Vec::<String>::new());
                for s in &p.body {
                    walk::visit(Node::Stmt(s), &mut |n| {
                        if let Node::Ref(r, _) = n {
                            assert!(r.var.index() < p.decls.len(), "{} is gone", r.var);
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn stmt_count_counts_nested() {
        let xi = b::sref(VarId(0), vec![b::at(b::iv("i"))]);
        let body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(2),
            vec![b::guarded(
                b::iown(xi.clone()),
                vec![b::assign(xi.clone(), b::val(xi))],
            )],
        )];
        assert_eq!(stmt_count(&body), 3);
    }
}
