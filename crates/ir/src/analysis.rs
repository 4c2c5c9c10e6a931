//! Compile-time analysis utilities.
//!
//! The paper's implementation assumes "a fixed, known processor grid and
//! partitioning as allowed in HPF" (§3) — loop bounds and array shapes are
//! compile-time constants. The passes therefore reason *exactly*, and on
//! sets: a question like "does the owner of `B[i]` equal the owner of
//! `A[i]` for all i in 1..n" is decided by intersecting each processor's
//! owned triplets with the loop's window ([`OwnerMap`]), never by visiting
//! the iterations, so what a pass costs depends on the machine size and
//! the distribution, not on n. What the closed forms do not cover — a
//! subscript that is not `i + c`, a section split between processors — is
//! declined with a reason the pass reports.
//!
//! There is one evaluator, [`affine_in`]: every compile-time integer goes
//! through it and so through [`crate::IntBinOp::apply`], where a zero
//! divisor has no value.
//!
//! There is one answer to "where does this array live here?", [`Dists`]:
//! every question about ownership names the top-level statement it is
//! asked at, and is answered from the distribution the array has there.

use crate::walk::{self, Node, NodeMut, Role};
use crate::{
    Decl, Distribution, IntBinOp, IntExpr, Ownership, Program, Section, SectionRef, Stmt,
    Subscript, Triplet, VarId,
};
use std::collections::HashMap;

/// A compile-time binding environment for loop variables.
pub type Bindings = HashMap<String, i64>;

/// Why the program text fixes where an array lives ([`Dists::pinned`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clause {
    /// A subscript of it is computed from `mypid`.
    PidSubscript,
    /// An ownership transfer, or a `redistribute` nested in a loop or
    /// guard, moves it.
    Moved,
    /// Its `mylb`/`myub` are taken outside a loop header.
    BoundsTaken,
    /// A send or receive names it.
    Communicated,
    /// A statement referencing it names `mypid` in a guard or a value,
    /// other than as a subscript.
    PidDependent,
}

impl std::fmt::Display for Clause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Clause::PidSubscript => "is subscripted by mypid",
            Clause::Moved => "is moved by an ownership transfer",
            Clause::BoundsTaken => "has its mylb/myub taken outside a loop header",
            Clause::Communicated => "is named by a send or receive",
            Clause::PidDependent => "is referenced where a guard or value names mypid",
        })
    }
}

/// One reason an array is pinned: the clause, and the top-level statement
/// where the program text says so first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub clause: Clause,
    pub stmt: usize,
}

/// Where every array lives at every top-level statement, in program order,
/// and which arrays the program text pins.
///
/// An array starts as its declaration. After a top-level `redistribute` it
/// is the target, known at compile time. From a statement that transfers
/// its ownership, or nests a `redistribute` of it in a loop or guard, on it
/// is unknown: every question about it there or later is declined, and the
/// note names that statement.
pub struct Dists<'p> {
    pub p: &'p Program,
    /// Per array: the distribution it enters statement `k` with, from each
    /// listed `k` on — or why nobody knows.
    eras: Vec<Vec<(usize, Result<Distribution, String>)>>,
    /// Per array: the top-level statements that move it.
    moves: Vec<Vec<usize>>,
    /// Per array: each clause that pins it, at its first statement.
    pins: Vec<Vec<Pin>>,
}

impl<'p> Dists<'p> {
    pub fn of(p: &'p Program) -> Dists<'p> {
        let declared = |d: &Decl| match &d.dist {
            Some(dist) if d.ownership == Ownership::Exclusive => Ok(dist.clone()),
            _ => Err(format!("{} is not an exclusive distributed array", d.name)),
        };
        let mut dists = Dists {
            p,
            eras: p.decls.iter().map(|d| vec![(0, declared(d))]).collect(),
            moves: vec![Vec::new(); p.decls.len()],
            pins: vec![Vec::new(); p.decls.len()],
        };
        for (k, s) in p.body.iter().enumerate() {
            let mut moved: Vec<VarId> = (block_accesses(std::slice::from_ref(s)).into_iter())
                .filter(|a| matches!(a.kind, AccessKind::OwnOut | AccessKind::OwnIn))
                .map(|a| a.var)
                .collect();
            moved.sort_unstable();
            moved.dedup();
            for v in moved {
                dists.moves[v.index()].push(k);
                let next = match s {
                    Stmt::Redistribute { var, dist } if *var == v => Ok(dist.clone()),
                    _ => {
                        dists.pin(v, Clause::Moved, k);
                        Err(format!(
                            "{} moves in {}",
                            p.decl(v).name,
                            dists.stmt_note(k)
                        ))
                    }
                };
                let eras = &mut dists.eras[v.index()];
                if eras.last().is_some_and(|(_, era)| era.is_ok()) {
                    eras.push((k + 1, next));
                }
            }
            for (v, clause) in pins_of(s) {
                dists.pin(v, clause, k);
            }
        }
        dists
    }

    fn pin(&mut self, var: VarId, clause: Clause, stmt: usize) {
        let pins = &mut self.pins[var.index()];
        if !pins.iter().any(|pin| pin.clause == clause) {
            pins.push(Pin { clause, stmt });
        }
    }

    /// `statement N (`summary`)`, 1-based.
    fn stmt_note(&self, k: usize) -> String {
        let summary = crate::pretty::stmt_summary(self.p, &self.p.body[k]);
        let summary = summary.trim_end_matches(" {").trim_end_matches(" :");
        format!("statement {} (`{summary}`)", k + 1)
    }

    /// The era `var` enters top-level statement `stmt` in: where it starts,
    /// and the distribution.
    fn era(&self, var: VarId, stmt: usize) -> Result<(usize, &Distribution), String> {
        let eras = &self.eras[var.index()];
        let (from, era) = eras
            .iter()
            .rev()
            .find(|(from, _)| *from <= stmt)
            .expect("declared");
        era.as_ref().map(|d| (*from, d)).map_err(Clone::clone)
    }

    /// The distribution `var` enters top-level statement `stmt` with.
    pub fn before(&self, var: VarId, stmt: usize) -> Result<&Distribution, String> {
        self.era(var, stmt).map(|(_, d)| d)
    }

    /// The distribution `var` has all through top-level statement `stmt`;
    /// declined if the statement moves it.
    pub fn at(&self, var: VarId, stmt: usize) -> Result<&Distribution, String> {
        self.live(var, stmt).map(|(_, d)| d)
    }

    fn live(&self, var: VarId, stmt: usize) -> Result<(usize, &Distribution), String> {
        let era = self.era(var, stmt)?;
        if self.moves[var.index()].contains(&stmt) {
            let name = &self.p.decl(var).name;
            return Err(format!("{name} moves in {}", self.stmt_note(stmt)));
        }
        Ok(era)
    }

    /// Every clause that pins `var`, each at the first statement it holds.
    pub fn pins(&self, var: VarId) -> &[Pin] {
        &self.pins[var.index()]
    }

    /// Why the program text fixes where `var` lives, naming the array, the
    /// first clause and its statement; `None` when nothing does.
    pub fn pinned(&self, var: VarId) -> Option<String> {
        let pin = self.pins(var).iter().min_by_key(|pin| pin.stmt)?;
        let name = &self.p.decl(var).name;
        Some(format!(
            "{name} {} in {}",
            pin.clause,
            self.stmt_note(pin.stmt)
        ))
    }
}

/// The clauses a top-level statement pins arrays by, the move apart.
fn pins_of(s: &Stmt) -> Vec<(VarId, Clause)> {
    let is_pid = |n| matches!(n, Node::Int(IntExpr::MyPid));
    let mut out = Vec::new();
    walk::visit(Node::Stmt(s), &mut |n| match n {
        Node::Ref(r, _) if r.subs.iter().any(|sub| walk::any(Node::Sub(sub), is_pid)) => {
            out.push((r.var, Clause::PidSubscript))
        }
        Node::Stmt(t) => {
            let heads = heads(t);
            if !matches!(t, Stmt::DoLoop { .. }) {
                for &h in &heads {
                    walk::visit(h, &mut |n| {
                        if let Node::Int(IntExpr::MyLb(r, _) | IntExpr::MyUb(r, _)) = n {
                            out.push((r.var, Clause::BoundsTaken));
                        }
                    });
                }
            }
            let clause = match t {
                Stmt::Send { .. } | Stmt::Recv { .. } => Some(Clause::Communicated),
                _ if heads.iter().any(|&h| names_pid(h)) => Some(Clause::PidDependent),
                _ => None,
            };
            if let Some(clause) = clause {
                walk::visit(Node::Stmt(t), &mut |n| {
                    if let Node::Ref(r, _) = n {
                        out.push((r.var, clause));
                    }
                });
            }
        }
        _ => {}
    });
    out
}

/// What a statement holds itself, its body apart: a loop's header, a
/// guard's rule, all of any other statement.
fn heads(s: &Stmt) -> Vec<Node<'_>> {
    match s {
        Stmt::DoLoop { lo, hi, step, .. } => vec![Node::Int(lo), Node::Int(hi), Node::Int(step)],
        Stmt::Guarded { rule, .. } => vec![Node::Rule(rule)],
        Stmt::Barrier | Stmt::Redistribute { .. } => Vec::new(),
        leaf => vec![Node::Stmt(leaf)],
    }
}

/// Does `n` name `mypid` other than inside a subscript?
fn names_pid(n: Node<'_>) -> bool {
    let is_pid = |n| matches!(n, Node::Int(IntExpr::MyPid));
    if !walk::any(n, is_pid) {
        return false;
    }
    let unsubscript = &mut |n: NodeMut<'_>| {
        if let NodeMut::Sub(s) = n {
            *s = Subscript::All;
        }
    };
    match n {
        Node::Int(e) => {
            let mut e = e.clone();
            walk::map(NodeMut::Int(&mut e), unsubscript);
            walk::any(Node::Int(&e), is_pid)
        }
        Node::Rule(r) => {
            let mut r = r.clone();
            walk::map(NodeMut::Rule(&mut r), unsubscript);
            walk::any(Node::Rule(&r), is_pid)
        }
        Node::Stmt(s) => {
            let mut block = vec![s.clone()];
            walk::map(NodeMut::Block(&mut block), unsubscript);
            walk::any(Node::Stmt(&block[0]), is_pid)
        }
        _ => true,
    }
}

/// The processor a compile-time question is asked about, at a top-level
/// statement. It gives `mypid` a value, and `mylb`/`myub` theirs for
/// arrays whose distribution is known there ([`Dists::at`]).
#[derive(Clone, Copy)]
pub struct OnProc<'a> {
    pub dists: &'a Dists<'a>,
    pub stmt: usize,
    pub pid: usize,
}

/// The one compile-time evaluator: `e` as `a·var + k`, with every other
/// variable bound by `env`. `None` when `e` is not affine in `var`, names
/// an unbound variable, divides by zero, or needs a processor `on` does
/// not supply. With `var` absent the result is a constant (`a == 0`).
pub fn affine_in(
    e: &IntExpr,
    var: Option<&str>,
    env: &Bindings,
    on: Option<OnProc>,
) -> Option<(i64, i64)> {
    let go = |e| affine_in(e, var, env, on);
    Some(match e {
        IntExpr::Const(c) => (0, *c),
        IntExpr::Var(v) if var == Some(v) => (1, 0),
        IntExpr::Var(v) => (0, *env.get(v)?),
        IntExpr::MyPid => (0, on?.pid as i64),
        IntExpr::MyLb(r, d) => (0, owned_bound(on?, r, *d, env, true)?),
        IntExpr::MyUb(r, d) => (0, owned_bound(on?, r, *d, env, false)?),
        IntExpr::Neg(a) => {
            let (a, k) = go(a)?;
            (a.saturating_neg(), k.saturating_neg())
        }
        IntExpr::Bin(op, x, y) => {
            let ((xa, xk), (ya, yk)) = (go(x)?, go(y)?);
            match op {
                _ if xa == 0 && ya == 0 => (0, op.apply(xk, yk)?),
                IntBinOp::Add | IntBinOp::Sub => (op.apply(xa, ya)?, op.apply(xk, yk)?),
                IntBinOp::Mul if ya == 0 => (op.apply(xa, yk)?, op.apply(xk, yk)?),
                IntBinOp::Mul if xa == 0 => (op.apply(xk, ya)?, op.apply(xk, yk)?),
                _ => return None,
            }
        }
    })
}

/// Evaluate an integer expression with every variable bound; `mypid`,
/// `mylb` and `myub` have a value only on a processor.
pub fn eval(e: &IntExpr, env: &Bindings, on: Option<OnProc>) -> Option<i64> {
    affine_in(e, None, env, on).map(|(_, k)| k)
}

/// [`eval`] on no processor: the run-time intrinsics make the result
/// `None`.
pub fn eval_static(e: &IntExpr, env: &Bindings) -> Option<i64> {
    eval(e, env, None)
}

/// `mylb(r, d)` / `myub(r, d)` on processor `on`, from the distribution
/// `r`'s array has at `on`'s statement: the paper's `MAXINT` / `MININT`
/// when nothing is owned.
fn owned_bound(on: OnProc, r: &SectionRef, d: u32, env: &Bindings, lower: bool) -> Option<i64> {
    let decl = on.dists.p.decl(r.var);
    let dim = (d as usize)
        .checked_sub(1)
        .filter(|&dim| dim < decl.rank())?;
    let dist = on.dists.at(r.var, on.stmt).ok()?;
    let query = section_on(r, env, on)?.dim(dim);
    let owned = dist.owned_triplets(&decl.bounds, on.pid, dim);
    let owned = owned.iter().map(|t| t.intersect(&query));
    let owned = owned.filter(|t| !t.is_empty());
    Some(if lower {
        owned.map(|t| t.lb).min().unwrap_or(i64::MAX)
    } else {
        owned.map(|t| t.ub).max().unwrap_or(i64::MIN)
    })
}

/// One dimension of a reference, as a function of a loop variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimForm {
    /// The same triplet on every iteration.
    Fixed(Triplet),
    /// `a·i + lo : a·i + hi`, stride 1 — a window of constant width that
    /// moves with the variable; a point subscript has `lo == hi`.
    Moving { a: i64, lo: i64, hi: i64 },
}

/// The form of dimension `d` of `r` in `var`. `None` when a bound is not
/// affine (see [`affine_in`]), the stride is not positive, or a strided
/// or variable-width range moves.
pub fn dim_form(
    decl: &Decl,
    r: &SectionRef,
    d: usize,
    var: Option<&str>,
    env: &Bindings,
    on: Option<OnProc>,
) -> Option<DimForm> {
    let (lb, ub, st) = match &r.subs[d] {
        Subscript::All => return Some(DimForm::Fixed(decl.bounds[d])),
        Subscript::Point(e) => {
            let at = affine_in(e, var, env, on)?;
            (at, at, 1)
        }
        Subscript::Range(t) => (
            affine_in(&t.lb, var, env, on)?,
            affine_in(&t.ub, var, env, on)?,
            affine_in(&t.st, None, env, on)?.1,
        ),
    };
    match (lb.0, ub.0) {
        _ if st <= 0 => None,
        (0, 0) => Some(DimForm::Fixed(Triplet::new(lb.1, ub.1, st))),
        (a, b) if a == b && st == 1 && lb.1 <= ub.1 => Some(DimForm::Moving {
            a,
            lo: lb.1,
            hi: ub.1,
        }),
        _ => None,
    }
}

/// Resolve a section reference to concrete bounds under `env`. `None` if
/// any subscript is not compile-time constant, if the reference's rank
/// does not match the declaration, or if the section reaches outside the
/// declared bounds — an out-of-bounds reference has no meaningful
/// compile-time placement, so analyses must bail rather than reason from
/// a nonsensical owner.
pub fn concrete_section(p: &Program, r: &SectionRef, env: &Bindings) -> Option<Section> {
    resolve_section(p, r, env, None, true)
}

/// Like [`concrete_section`] but without the containment requirement:
/// the section may reach outside the declared bounds. For shape probes
/// (e.g. the frontend's loop-invariance check) where only the extents
/// matter and the binding values are synthetic.
pub fn concrete_section_unbounded(p: &Program, r: &SectionRef, env: &Bindings) -> Option<Section> {
    resolve_section(p, r, env, None, false)
}

/// [`concrete_section_unbounded`] as processor `on` sees it.
pub fn section_on(r: &SectionRef, env: &Bindings, on: OnProc) -> Option<Section> {
    resolve_section(on.dists.p, r, env, Some(on), false)
}

fn resolve_section(
    p: &Program,
    r: &SectionRef,
    env: &Bindings,
    on: Option<OnProc>,
    check_bounds: bool,
) -> Option<Section> {
    let decl = p.decl(r.var);
    if r.subs.len() != decl.bounds.len() {
        return None;
    }
    let mut dims = Vec::with_capacity(r.subs.len());
    for (d, bound) in decl.bounds.iter().enumerate() {
        let DimForm::Fixed(t) = dim_form(decl, r, d, None, env, on)? else {
            return None;
        };
        if check_bounds && !t.is_empty() && (t.lb < bound.lb || t.ub > bound.ub) {
            return None;
        }
        dims.push(t);
    }
    Some(Section::new(dims))
}

/// The values a loop's variable takes, as a triplet (a descending loop's
/// values in increasing order). `None` for a zero step, or a span no
/// `i64` holds.
pub fn loop_window(lo: i64, hi: i64, step: i64) -> Option<Triplet> {
    let st = step.checked_abs().filter(|&st| st > 0)?;
    let span = if step > 0 {
        hi.checked_sub(lo)
    } else {
        lo.checked_sub(hi)
    }?;
    let reach = span / st * st;
    Some(match step {
        _ if span < 0 => Triplet::EMPTY,
        1.. => Triplet::new(lo, lo + reach, st),
        _ => Triplet::new(lo - reach, lo, st),
    })
}

/// [`loop_window`] of `do v = lo, hi, step`, when all three have a value
/// under `env` (on processor `on`, if one is given).
pub fn window_of(range: [&IntExpr; 3], env: &Bindings, on: Option<OnProc>) -> Option<Triplet> {
    let [lo, hi, step] = range.map(|e| eval(e, env, on));
    loop_window(lo?, hi?, step?)
}

/// Intersection of two lists of triplets, each sorted with every triplet
/// ending before the next begins — a merge, linear in their lengths, whose
/// result is such a list again.
pub fn intersect_lists(a: &[Triplet], b: &[Triplet]) -> Vec<Triplet> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        let t = a[i].intersect(&b[j]);
        if !t.is_empty() {
            out.push(t);
        }
        if a[i].ub <= b[j].ub {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Does the union of the disjoint triplets of `list` contain all of `t`?
fn covers(list: &[Triplet], t: &Triplet) -> bool {
    list.iter().map(|l| l.intersect(t).count()).sum::<i64>() == t.count()
}

/// Compress the members of a sorted list of triplets, each ending before
/// the next begins, into maximal constant-stride runs, greedy left to
/// right — computed from the triplets, never their members, so the cost is
/// the list's length. The result is a function of the member *set*: two
/// lists with the same members compress to the same runs.
pub fn compress_triplets(list: &[Triplet]) -> Vec<Triplet> {
    let mut out = Vec::new();
    let mut rest = list.iter().copied().filter(|t| !t.is_empty());
    // `head` is what is left of the triplet the current run stands in.
    let mut head = rest.next();
    while let Some(first) = head {
        let (start, mut last) = (first.lb, first.lb);
        head = drop_first(first).or_else(|| rest.next());
        let Some(st) = head.map(|t| t.lb - start) else {
            out.push(Triplet::point(start));
            break;
        };
        // Take members while each is `st` past the last.
        while let Some(t) = head.filter(|t| t.lb - last == st) {
            if t.count() == 1 || t.st == st {
                last = t.ub;
                head = rest.next();
            } else {
                last = t.lb;
                head = drop_first(t);
                break;
            }
        }
        out.push(Triplet::new(start, last, st));
    }
    out
}

/// `t` without its first member, if any are left.
fn drop_first(t: Triplet) -> Option<Triplet> {
    (t.count() > 1).then(|| Triplet::new(t.lb + t.st, t.ub, t.st))
}

/// Who owns what a loop touches. For a loop `do var = window`, a reference
/// whose subscript in one dimension is `var + c` with every other
/// dimension loop-invariant, and the declared distribution of its array:
/// the iterations on which each processor owns the *whole* referenced
/// section, as maximal constant-stride runs in increasing order — a
/// canonical form, so two references are owned alike on every iteration
/// exactly when their `runs` are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerMap {
    /// The dimension the loop variable subscripts, and its offset `c`.
    pub dim: usize,
    pub offset: i64,
    /// Everything the loop touches through the reference: the window
    /// shifted by `offset` in `dim`, the fixed triplets elsewhere.
    pub section: Section,
    /// Runs of iterations, per processor.
    pub runs: Vec<Vec<Triplet>>,
    /// Are each processor's iterations exactly the indices it owns in
    /// `dim` inside the window, so that `mylb`/`myub` in that dimension
    /// re-derive them? False when some processor owns part of the window
    /// in `dim` but not the fixed dimensions.
    pub dim_decides: bool,
}

/// The ownership oracle of one pass run: each array's owned triplets per
/// processor and dimension under the distribution it has at the statement
/// asked about ([`Dists::at`]), built the first time that distribution is.
pub struct Owners<'a> {
    dists: &'a Dists<'a>,
    /// By array and the first statement of its distribution's era.
    lists: HashMap<(VarId, usize), Vec<Vec<Vec<Triplet>>>>,
}

impl<'a> Owners<'a> {
    pub fn new(dists: &'a Dists<'a>) -> Owners<'a> {
        Owners {
            dists,
            lists: HashMap::new(),
        }
    }

    /// `lists[pid][dim]` of `var` at top-level statement `stmt` — as it
    /// enters the statement, if `entering` — or why nobody knows them.
    fn lists(
        &mut self,
        stmt: usize,
        var: VarId,
        entering: bool,
    ) -> Result<&[Vec<Vec<Triplet>>], String> {
        let dists = self.dists;
        let (from, dist) = if entering {
            dists.era(var, stmt)?
        } else {
            dists.live(var, stmt)?
        };
        let bounds = &dists.p.decl(var).bounds;
        let owned = |pid| (0..bounds.len()).map(move |d| dist.owned_triplets(bounds, pid, d));
        let lists = (self.lists.entry((var, from)))
            .or_insert_with(|| (0..dist.nprocs()).map(|pid| owned(pid).collect()).collect());
        Ok(lists)
    }

    /// The single compile-time owner of a reference under `env` at
    /// top-level statement `stmt`, if every element has the same owner.
    pub fn sole_owner(&mut self, stmt: usize, r: &SectionRef, env: &Bindings) -> Option<usize> {
        let sec = concrete_section(self.dists.p, r, env).filter(|sec| !sec.is_empty())?;
        (self.lists(stmt, r.var, false).ok()?.iter())
            .position(|owned| sec.dims().iter().zip(owned).all(|(t, l)| covers(l, t)))
    }

    /// The [`OwnerMap`] of `r` over `do var = window` at top-level
    /// statement `stmt`, or why it has none.
    pub fn map(
        &mut self,
        stmt: usize,
        r: &SectionRef,
        var: &str,
        window: Triplet,
    ) -> Result<OwnerMap, String> {
        self.map_in(stmt, r, var, window, false)
    }

    /// [`Owners::map`] under the distribution `r`'s array enters top-level
    /// statement `stmt` with, though the statement moves it: what the
    /// statement's own loop guard sees on every iteration when no iteration
    /// moves what a later guard asks about, the caller's to show.
    pub fn map_entering(
        &mut self,
        stmt: usize,
        r: &SectionRef,
        var: &str,
        window: Triplet,
    ) -> Result<OwnerMap, String> {
        self.map_in(stmt, r, var, window, true)
    }

    fn map_in(
        &mut self,
        stmt: usize,
        r: &SectionRef,
        var: &str,
        window: Triplet,
        entering: bool,
    ) -> Result<OwnerMap, String> {
        let (p, decl) = (self.dists.p, self.dists.p.decl(r.var));
        let name = || crate::pretty::section_ref(p, r);
        let fails = |why: &str| Err(format!("{} {why}", name()));
        let not_affine = || Err(format!("subscript {} is not {var} + c", name()));
        if r.subs.len() != decl.rank() {
            return fails("has the wrong rank");
        }
        let env = Bindings::new();
        let (mut at, mut dims) = (None, Vec::with_capacity(decl.rank()));
        for d in 0..decl.rank() {
            dims.push(match dim_form(decl, r, d, Some(var), &env, None) {
                Some(DimForm::Fixed(t)) => t,
                Some(DimForm::Moving { a: 1, lo, hi }) if lo == hi && at.is_none() => {
                    at = Some((d, lo));
                    match window.lb.checked_add(lo).and(window.ub.checked_add(lo)) {
                        Some(_) => window.shift(lo),
                        None => return fails("leaves the declared bounds"),
                    }
                }
                _ => return not_affine(),
            });
        }
        let Some((dim, offset)) = at else {
            return not_affine();
        };
        let lists = self.lists(stmt, r.var, entering)?;
        let mut map = OwnerMap {
            dim,
            offset,
            runs: vec![Vec::new(); lists.len()],
            section: Section::new(dims),
            dim_decides: true,
        };
        if window.is_empty() {
            return Ok(map);
        }
        let dims = map.section.dims();
        if dims.iter().any(|t| t.is_empty()) {
            return fails("is an empty section");
        }
        if (dims.iter().zip(&decl.bounds)).any(|(t, b)| t.lb < b.lb || t.ub > b.ub) {
            return fails("leaves the declared bounds");
        }
        let mut owned = 0;
        for (owned_by, runs) in lists.iter().zip(&mut map.runs) {
            let mine = intersect_lists(&owned_by[dim], &[dims[dim]]);
            if (0..dims.len()).all(|d| d == dim || covers(&owned_by[d], &dims[d])) {
                let iters: Vec<Triplet> = mine.iter().map(|t| t.shift(-offset)).collect();
                *runs = compress_triplets(&iters);
                owned += runs.iter().map(Triplet::count).sum::<i64>();
            } else {
                map.dim_decides &= mine.is_empty();
            }
        }
        if owned != window.count() {
            return fails("is split between processors on some iteration");
        }
        Ok(map)
    }
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
    /// For a query made from inside a subscript: the reference it indexes.
    pub by: Option<SectionRef>,
}

/// All accesses performed (transitively) by a statement: every reference
/// [`walk::visit`] reaches — inside subscripts, bounds, salts and
/// destinations too — classified by the role it plays.
pub fn accesses(stmt: &Stmt, out: &mut Vec<Access>) {
    use AccessKind::*;
    let mut push = |r: &SectionRef, by: Option<&SectionRef>, kinds: &[AccessKind]| {
        out.extend(kinds.iter().map(|&kind| Access {
            var: r.var,
            r: r.clone(),
            kind,
            by: by.cloned(),
        }))
    };
    walk::visit(Node::Stmt(stmt), &mut |n| match n {
        // A collective rewrite of the variable's entire placement: reads
        // and rewrites everything, moves ownership both ways.
        Node::Stmt(Stmt::Redistribute { var, .. }) => {
            let whole = SectionRef::scalar(*var);
            push(&whole, None, &[Read, Write, OwnOut, OwnIn]);
        }
        Node::Ref(r, role) => match role {
            Role::Written => push(r, None, &[Write]),
            Role::Read => push(r, None, &[Read]),
            // Kernels may read and write any argument.
            Role::Updated => push(r, None, &[Read, Write]),
            Role::Sent(kind) if kind.moves_ownership() => push(r, None, &[Read, OwnOut]),
            Role::Sent(_) => push(r, None, &[Read]),
            Role::Received(kind) if kind.moves_ownership() => push(r, None, &[Write, OwnIn]),
            Role::Received(_) => push(r, None, &[Write]),
            Role::Queried { by } => push(r, by, &[OwnQuery]),
            // The name is only a tag, not an access.
            Role::Tag => {}
        },
        _ => {}
    });
}

/// All accesses in a block.
pub fn block_accesses(block: &[Stmt]) -> Vec<Access> {
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
        let dists = Dists::of(&p);
        let mut owners = Owners::new(&dists);
        assert_eq!(owners.sole_owner(0, &ai, &env), Some(1));
        let ci = b::sref(c, vec![b::at(b::iv("i"))]);
        assert_eq!(owners.sole_owner(0, &ci, &env), Some(0));
        // Spanning section has no single owner.
        let span = b::sref(a, vec![b::span(b::c(1), b::c(16))]);
        assert_eq!(owners.sole_owner(0, &span, &env), None);
        // All-subscript resolves to full bounds.
        let all = concrete_section(&p, &b::sref(a, vec![b::all()]), &env).unwrap();
        assert_eq!(all.volume(), 16);
    }

    /// The oracle the closed forms are held to: the greedy compression of
    /// a sorted, deduplicated index list into maximal constant-stride
    /// triplets, member by member.
    fn compress_runs(sorted: &[i64]) -> Vec<Triplet> {
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

    fn members(list: &[Triplet]) -> Vec<i64> {
        list.iter().flat_map(|t| t.iter()).collect()
    }

    /// The oracle for [`OwnerMap`]: walk the iterations, resolve the
    /// section each touches, ask `owner_of` about every element. `None`
    /// when an iteration leaves the bounds or is split between owners.
    fn owner_walk(
        p: &Program,
        r: &SectionRef,
        var: &str,
        window: Triplet,
    ) -> Option<Vec<Vec<i64>>> {
        let decl = p.decl(r.var);
        let dist = decl.dist.as_ref()?;
        let mut per_pid = vec![Vec::new(); dist.nprocs()];
        for i in window.iter() {
            let sec = concrete_section(p, r, &Bindings::from([(var.to_string(), i)]))?;
            let mut owners = sec.iter().map(|idx| dist.owner_of(&decl.bounds, &idx));
            let owner = owners.next()?;
            if owners.any(|o| o != owner) {
                return None;
            }
            per_pid[owner].push(i);
        }
        Some(per_pid)
    }

    fn assert_map_is_the_walk(p: &Program, r: &SectionRef, window: Triplet) {
        let what = || format!("{} over {window}", crate::pretty::program(p));
        let got = Owners::new(&Dists::of(p)).map(0, r, "i", window);
        match owner_walk(p, r, "i", window) {
            None => assert!(got.is_err(), "{got:?} for {}", what()),
            Some(walked) => {
                let map = got.unwrap_or_else(|e| panic!("{e} for {}", what()));
                let runs: Vec<_> = walked.iter().map(|v| compress_runs(v)).collect();
                assert_eq!(map.runs, runs, "{}", what());
            }
        }
    }

    const DISTS: [DimDist; 7] = [
        DimDist::Star,
        DimDist::Block,
        DimDist::Cyclic,
        DimDist::BlockCyclic(1),
        DimDist::BlockCyclic(2),
        DimDist::BlockCyclic(3),
        DimDist::BlockCyclic(4),
    ];

    fn one_dim(dd: DimDist, nprocs: usize, lb: i64, n: i64) -> (Program, VarId) {
        let mut p = Program::new();
        let bounds = vec![(lb, lb + n - 1)];
        let grid = ProcGrid::linear(nprocs);
        let a = p.declare(b::array("A", ElemType::F64, bounds, vec![dd], grid));
        (p, a)
    }

    #[test]
    fn owner_map_is_the_point_walk_on_every_small_case() {
        for dd in DISTS {
            for nprocs in 1..=6 {
                for n in [1, 2, 5, 12, 17] {
                    let (p, a) = one_dim(dd, nprocs, 0, n);
                    for c in [-2, 0, 1, 3] {
                        let r = b::sref(a, vec![b::at(b::iv("i").add(b::c(c)))]);
                        // Inside, leaving either end, empty, strided.
                        for (lo, hi, st) in [
                            (-c, n - 1 - c, 1),
                            (1 - c, n - 2 - c, 1),
                            (-c - 1, n - 1 - c, 1),
                            (-c, n - c, 1),
                            (3, 2, 1),
                            (-c, n - 1 - c, 2),
                        ] {
                            assert_map_is_the_walk(&p, &r, Triplet::new(lo, hi, st));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn owner_map_decides_the_fixed_dimensions_on_triplets() {
        // A 2-D grid: the loop sweeps one dimension, the other is a fixed
        // point, a fixed range inside one block, one across two, a stride.
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 12), (1, 8)],
            vec![DimDist::BlockCyclic(2), DimDist::Block],
            ProcGrid::grid2(3, 2),
        ));
        let i = || b::at(b::iv("i").add(b::c(1)));
        let fixed = [
            b::at(b::c(3)),
            b::span(b::c(1), b::c(4)),
            b::span(b::c(4), b::c(5)),
            b::span_st(b::c(1), b::c(3), b::c(2)),
            b::all(),
        ];
        for f in fixed {
            for window in [Triplet::range(0, 11), Triplet::range(2, 6)] {
                assert_map_is_the_walk(&p, &b::sref(a, vec![i(), f.clone()]), window);
            }
            let window = Triplet::range(0, 7);
            assert_map_is_the_walk(&p, &b::sref(a, vec![f.clone(), i()]), window);
        }
        // Fixed in a dimension other processors share: each processor's
        // iterations are no longer all it owns of the swept dimension.
        let row = b::sref(a, vec![i(), b::at(b::c(3))]);
        let dists = Dists::of(&p);
        let map = Owners::new(&dists)
            .map(0, &row, "i", Triplet::range(0, 11))
            .unwrap();
        assert!(!map.dim_decides);
        assert_eq!((map.dim, map.offset), (0, 1));
        // Not `i + c`, or not a distributed array: declined, with a reason.
        let mut owners = Owners::new(&dists);
        for sub in [b::iv("i").mul(b::iv("i")), b::iv("i").mul(b::c(2)), b::c(3)] {
            let r = b::sref(a, vec![b::at(sub), b::at(b::c(1))]);
            let why = owners.map(0, &r, "i", Triplet::range(1, 3)).unwrap_err();
            assert!(why.ends_with("is not i + c"), "{why}");
        }
        let both = b::sref(a, vec![b::at(b::iv("i")), b::at(b::iv("i"))]);
        assert!(owners.map(0, &both, "i", Triplet::range(1, 3)).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn owner_map_is_the_point_walk(
            dd in 0usize..7,
            nprocs in 1usize..7,
            n in 1i64..4097,
            lb in -3i64..4,
            c in -9i64..10,
            lo in -8i64..4100,
            len in 0i64..4200,
        ) {
            let (p, a) = one_dim(DISTS[dd], nprocs, lb, n);
            let r = b::sref(a, vec![b::at(b::iv("i").add(b::c(c)))]);
            // Half the windows are clipped into the bounds, so that both
            // the answers and the refusals are exercised.
            let (lo, hi) = if len % 2 == 0 {
                (lo.max(lb - c), (lo + len).min(lb + n - 1 - c))
            } else {
                (lo, lo + len)
            };
            assert_map_is_the_walk(&p, &r, Triplet::range(lo, hi));
        }

        #[test]
        fn triplet_lists_compress_as_their_members_do(
            shape in proptest::prop::collection::vec((1i64..5, 1i64..4, 1i64..6), 0..9),
        ) {
            // (gap before, stride, count) per triplet: sorted, each ending
            // before the next begins.
            let mut list = Vec::new();
            let mut at = 0;
            for (gap, st, count) in shape {
                let t = Triplet::new(at + gap, at + gap + st * (count - 1), st);
                at = t.ub;
                list.push(t);
            }
            proptest::prop_assert_eq!(compress_triplets(&list), compress_runs(&members(&list)));
        }

        #[test]
        fn lists_intersect_as_their_members_do(
            a in proptest::prop::collection::vec((1i64..5, 1i64..4, 1i64..6), 0..7),
            b2 in proptest::prop::collection::vec((1i64..5, 1i64..4, 1i64..6), 0..7),
        ) {
            let build = |shape: Vec<(i64, i64, i64)>| {
                let mut at = 0;
                shape.into_iter().map(|(gap, st, count)| {
                    let t = Triplet::new(at + gap, at + gap + st * (count - 1), st);
                    at = t.ub;
                    t
                }).collect::<Vec<_>>()
            };
            let (a, b2) = (build(a), build(b2));
            let both: Vec<i64> = members(&a).into_iter().filter(|x| members(&b2).contains(x)).collect();
            proptest::prop_assert_eq!(members(&intersect_lists(&a, &b2)), both);
        }
    }

    #[test]
    fn owner_expr_is_owner_of_on_every_index() {
        for dd in DISTS {
            for nprocs in 1..=6 {
                for (lb, n) in [(1, 1), (0, 7), (1, 16), (-2, 61), (1, 4096)] {
                    let (p, a) = one_dim(dd, nprocs, lb, n);
                    let decl = p.decl(a);
                    let dist = decl.dist.as_ref().unwrap();
                    let Some(owner) = dist.owner_expr(&decl.bounds, 0, b::iv("i")) else {
                        assert_eq!(dd, DimDist::Star);
                        continue;
                    };
                    for i in lb..lb + n {
                        let env = Bindings::from([("i".to_string(), i)]);
                        let want = dist.owner_of(&decl.bounds, &[i]) as i64;
                        assert_eq!(eval_static(&owner, &env), Some(want), "{dist} at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_evaluator_is_affine_and_declines_a_zero_divisor() {
        let env = Bindings::from([("n".to_string(), 10)]);
        let i = || b::iv("i");
        let form = |e: &IntExpr| affine_in(e, Some("i"), &env, None);
        assert_eq!(form(&i().add(b::c(2))), Some((1, 2)));
        assert_eq!(form(&b::c(3).mul(i()).sub(b::iv("n"))), Some((3, -10)));
        assert_eq!(
            form(&IntExpr::Neg(Box::new(i().sub(b::c(1))))),
            Some((-1, 1))
        );
        assert_eq!(form(&b::iv("n").mul(b::c(2))), Some((0, 20)));
        // Not affine: a product of the variable with itself, a quotient.
        assert_eq!(form(&i().mul(i())), None);
        let over = |a: IntExpr, b2: IntExpr| IntExpr::Bin(IntBinOp::Div, Box::new(a), Box::new(b2));
        assert_eq!(form(&over(i().mul(b::c(3)), b::c(2))), None);
        // A zero divisor has no value, wherever it stands.
        assert_eq!(form(&i().add(over(b::c(8), b::c(0)))), None);
        assert_eq!(eval_static(&over(b::iv("n"), b::c(0)), &env), None);
        assert_eq!(eval_static(&over(b::iv("n"), b::c(3)), &env), Some(3));
    }

    #[test]
    fn a_processor_resolves_mypid_and_the_bounds_of_arrays_that_stay_put() {
        let (mut p, a, c) = prog();
        let env = Bindings::new();
        let dists = Dists::of(&p);
        let on = |pid| {
            Some(OnProc {
                dists: &dists,
                stmt: 0,
                pid,
            })
        };
        let all = |v| b::sref(v, vec![b::all()]);
        assert_eq!(eval(&b::mypid().add(b::c(1)), &env, on(2)), Some(3));
        assert_eq!(eval(&b::mylb(all(a), 1), &env, on(2)), Some(9));
        assert_eq!(eval(&b::myub(all(a), 1), &env, on(2)), Some(12));
        assert_eq!(eval(&b::myub(all(c), 1), &env, on(1)), Some(14));
        // Nothing owned inside the query: the paper's sentinels.
        let low = b::sref(a, vec![b::span(b::c(1), b::c(4))]);
        assert_eq!(eval(&b::mylb(low.clone(), 1), &env, on(2)), Some(i64::MAX));
        assert_eq!(eval(&b::myub(low, 1), &env, on(2)), Some(i64::MIN));
        // No such dimension, or no processor: no value.
        assert_eq!(eval(&b::mylb(all(a), 0), &env, on(0)), None);
        assert_eq!(eval(&b::mylb(all(a), 2), &env, on(0)), None);
        assert_eq!(eval(&b::mylb(all(a), 1), &env, None), None);
        // From the statement that moves A's ownership on, nobody knows what
        // a processor owns of it.
        p.body = vec![b::recv_own_val(b::sref(a, vec![b::at(b::c(1))]))];
        let dists = Dists::of(&p);
        let on = |pid| {
            Some(OnProc {
                dists: &dists,
                stmt: 0,
                pid,
            })
        };
        assert_eq!(eval(&b::mylb(all(a), 1), &env, on(2)), None);
        assert_eq!(eval(&b::mylb(all(c), 1), &env, on(2)), Some(3));
    }

    #[test]
    fn an_array_lives_where_its_last_redistribute_put_it_until_ownership_moves() {
        let (mut p, a, c) = prog();
        let cyclic = || Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(4));
        let all = |v| b::sref(v, vec![b::all()]);
        let ci = b::sref(c, vec![b::at(b::iv("i"))]);
        p.body = vec![
            b::kernel("touch", vec![all(a)]),
            b::redistribute(a, cyclic()),
            b::kernel("touch", vec![all(a)]),
            b::do_loop("i", b::c(1), b::c(16), vec![b::send_own_val(ci)]),
            b::redistribute(c, cyclic()),
        ];
        let dists = Dists::of(&p);
        let block = p.decl(a).dist.clone().unwrap();
        assert_eq!(dists.at(a, 0), Ok(&block));
        assert_eq!(dists.before(a, 1), Ok(&block));
        assert_eq!(dists.at(a, 2), Ok(&cyclic()));
        assert!(dists
            .at(a, 1)
            .unwrap_err()
            .starts_with("A moves in statement 2"));
        // mylb follows: p2 owns A[9:12] as declared, A[3:15:4] after.
        let mylb = |stmt| {
            let on = OnProc {
                dists: &dists,
                stmt,
                pid: 2,
            };
            eval(&b::mylb(all(a), 1), &Bindings::new(), Some(on))
        };
        assert_eq!((mylb(0), mylb(2)), (Some(9), Some(3)));
        // A move nested in a loop: unknown there and from then on, even
        // after a redistribute to a known target.
        let why = "C moves in statement 4 (`do i = 1, 16`)";
        for stmt in [3, 4, 5] {
            assert_eq!(dists.at(c, stmt).unwrap_err(), why, "statement {stmt}");
        }
        assert_eq!(
            dists.pinned(c).unwrap(),
            format!("C {} in statement 4 (`do i = 1, 16`)", Clause::Moved)
        );
        assert_eq!(dists.pinned(a), None);
    }

    #[test]
    fn the_program_text_pins_what_it_places_by_hand() {
        let src = [
            ("U", vec![1, 1]),
            ("V", vec![1, 1]),
            ("G", vec![0, 3]),
            ("W", vec![1, 1]),
        ];
        let mut p = Program::new();
        let vars: Vec<VarId> = (src.iter())
            .map(|(name, b)| {
                p.declare(b::array(
                    name,
                    ElemType::F64,
                    vec![(b[0], b[1] + 7)],
                    vec![DimDist::Block],
                    ProcGrid::linear(4),
                ))
            })
            .collect();
        let [u, v, g, w] = [vars[0], vars[1], vars[2], vars[3]];
        let at = |x, i| b::sref(x, vec![b::at(i)]);
        let all = |x| b::sref(x, vec![b::all()]);
        let first = || b::mylb(all(u), 1);
        p.body = vec![
            // mylb/myub in a loop header pin nothing; a receive into a
            // pid-subscripted scratch pins it and the array it names.
            b::do_loop(
                "r",
                first(),
                b::myub(all(u), 1),
                vec![b::kernel("touch", vec![at(w, b::iv("r"))])],
            ),
            b::recv_val(at(g, b::mypid()), at(v, b::c(1))),
            // mypid in a guard pins what the guarded statement references;
            // U's bound is taken outside a loop header.
            b::guarded(
                b::cmp(crate::CmpOp::Gt, b::mypid(), b::c(0)),
                vec![b::assign(at(u, first()), crate::ElemExpr::LitF(1.0))],
            ),
        ];
        let dists = Dists::of(&p);
        let clauses = |x| {
            dists
                .pins(x)
                .iter()
                .map(|pin| (pin.clause, pin.stmt))
                .collect::<Vec<_>>()
        };
        assert_eq!(clauses(w), []);
        assert_eq!(clauses(v), [(Clause::Communicated, 1)]);
        assert_eq!(
            clauses(g),
            [(Clause::Communicated, 1), (Clause::PidSubscript, 1)]
        );
        assert_eq!(
            clauses(u),
            [(Clause::PidDependent, 2), (Clause::BoundsTaken, 2)]
        );
        let note = dists.pinned(u).unwrap();
        assert_eq!(
            note,
            format!("U {} in statement 3 (`mypid > 0`)", Clause::PidDependent)
        );
    }

    #[test]
    fn loop_windows_hold_the_loop_s_values() {
        assert_eq!(loop_window(1, 7, 2), Some(Triplet::new(1, 7, 2)));
        assert_eq!(loop_window(1, 8, 2), Some(Triplet::new(1, 7, 2)));
        assert_eq!(loop_window(3, 1, -1), Some(Triplet::range(1, 3)));
        assert_eq!(loop_window(10, 1, -4), Some(Triplet::new(2, 10, 4)));
        assert_eq!(loop_window(3, 1, 1), Some(Triplet::EMPTY));
        assert_eq!(loop_window(1, 3, -1), Some(Triplet::EMPTY));
        assert_eq!(loop_window(1, 3, 0), None);
        assert_eq!(loop_window(i64::MIN, i64::MAX, 1), None);
        assert_eq!(loop_window(1, 1 << 40, 1).map(|t| t.count()), Some(1 << 40));
    }

    #[test]
    fn compress_runs_finds_triplets() {
        let points = |xs: &[i64]| xs.iter().map(|&x| Triplet::point(x)).collect::<Vec<_>>();
        for (xs, want) in [
            (&[1, 2, 3, 4][..], vec![Triplet::range(1, 4)]),
            (&[2, 4, 6], vec![Triplet::new(2, 6, 2)]),
            (
                &[1, 2, 3, 7, 9, 11],
                vec![Triplet::range(1, 3), Triplet::new(7, 11, 2)],
            ),
            (&[5], vec![Triplet::point(5)]),
            (&[], vec![]),
        ] {
            assert_eq!(compress_runs(xs), want);
            assert_eq!(compress_triplets(&points(xs)), want);
        }
        // Blocks of a block-cyclic owner stay blocks; a run may end inside
        // a triplet of another stride.
        let blocks = [Triplet::range(1, 2), Triplet::range(7, 8)];
        assert_eq!(compress_triplets(&blocks), blocks);
        assert_eq!(
            compress_triplets(&[Triplet::new(1, 7, 2), Triplet::range(9, 10)]),
            vec![Triplet::new(1, 9, 2), Triplet::point(10)]
        );
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
    fn accesses_see_the_queries_inside_subscripts_bounds_salts_and_destinations() {
        let (_, a, c) = prog();
        let c_all = || b::sref(c, vec![b::all()]);
        let at_ub = b::sref(a, vec![b::at(b::myub(c_all(), 1))]);
        let queries = |s: &Stmt| -> Vec<(VarId, Option<VarId>)> {
            block_accesses(std::slice::from_ref(s))
                .iter()
                .filter(|x| x.kind == AccessKind::OwnQuery)
                .map(|x| (x.var, x.by.as_ref().map(|host| host.var)))
                .collect()
        };
        // `A[myub(C[*], 1)] = 1.0` queries C, from inside A's subscript.
        let write = b::assign(at_ub.clone(), crate::ElemExpr::LitF(1.0));
        assert_eq!(queries(&write), [(c, Some(a))]);
        // So do a loop bound, a kernel parameter, a salt and a destination.
        let ai = b::sref(a, vec![b::at(b::c(1))]);
        for s in [
            b::do_loop("i", b::c(1), b::myub(c_all(), 1), vec![]),
            b::kernel_with("touch", vec![ai.clone()], vec![b::mylb(c_all(), 1)]),
            b::send_salted(ai.clone(), b::mylb(c_all(), 1)),
            b::send_to(ai.clone(), vec![b::mylb(c_all(), 1)]),
        ] {
            assert_eq!(queries(&s), [(c, None)], "{s:?}");
        }
        // The name a value receive matches on is a tag; its subscripts are
        // still evaluated.
        let recv = b::recv_val(ai, at_ub);
        let touched: Vec<_> = (block_accesses(&[recv]).iter())
            .map(|x| (x.var, x.kind))
            .collect();
        assert_eq!(touched, [(a, AccessKind::Write), (c, AccessKind::OwnQuery)]);
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
