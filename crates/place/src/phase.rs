//! Phase-graph extraction.
//!
//! A *phase* is a maximal run of top-level statements whose locality
//! requirements on the anchor array are jointly satisfiable by one
//! distribution. The FFT of §4 is the canonical example: the first two
//! 1-D FFT sweeps want dims 1–2 local (so dim 3 may be distributed), the
//! third sweep wants dim 3 local — no single distribution serves both, so
//! the program has two phases with a redistribution between them.
//!
//! Extraction walks the program once, classifying every reference to the
//! anchor (and to arrays grouped with it) per dimension:
//!
//! * a statically-known multi-element span (`A[*, j, k]`,
//!   `A[2:n-1, j]`) means a single statement instance touches the whole
//!   span, so the dimension must stay **collapsed** for the phase to run
//!   communication-free;
//! * a `mylb`/`myub`-bounded range or a point subscript adapts to
//!   whatever the executing processor owns, so the dimension is **free**
//!   to be distributed any way;
//! * a point read at a constant offset from the written index
//!   (`U[i-1, j]` feeding `V[i, j]`) is a **shift**: legal under any
//!   distribution, but it charges nearest-neighbour communication when
//!   the offset dimension is cut.

use std::collections::{BTreeMap, BTreeSet};
use xdp_ir::analysis::{self, window_of, AccessKind, Bindings};
use xdp_ir::walk::{self, Node};
use xdp_ir::{IntExpr, Ownership, Program, SectionRef, Stmt, Subscript, Triplet, VarId};

/// A nearest-neighbour read at a constant offset from the written index
/// in one dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct Shift {
    /// Anchor array dimension the offset applies to.
    pub dim: usize,
    /// Constant offset (non-zero).
    pub offset: i64,
    /// Elements per full cross-section of the offset dimension: the
    /// product of the reference's per-dimension extents over the *other*
    /// dimensions.
    pub plane: f64,
    /// How many times the statement repeats: the product of static trip
    /// counts of enclosing loops whose variable the reference never
    /// mentions (e.g. a sweep loop).
    pub repeat: f64,
}

/// What a phase requires of one anchor dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimNeed {
    /// Must stay collapsed (`*`): some statement instance spans it.
    Local,
    /// Any per-dimension distribution works.
    Free,
}

/// One phase of the program.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Index in program order.
    pub index: usize,
    /// Top-level `body` index range `[start, end)` this phase covers
    /// (dropped redistribute statements belong to no phase).
    pub stmts: (usize, usize),
    /// Human-readable summary: the distinct kernel/statement names seen.
    pub label: String,
    /// Total element-touches on group arrays (work estimate).
    pub work: f64,
    /// Per anchor dimension requirement.
    pub needs: Vec<DimNeed>,
    /// Constant-offset neighbour reads against group arrays.
    pub shifts: Vec<Shift>,
}

impl Phase {
    /// The set of dimensions that must stay collapsed.
    pub fn local_dims(&self) -> BTreeSet<usize> {
        self.needs
            .iter()
            .enumerate()
            .filter(|(_, n)| **n == DimNeed::Local)
            .map(|(d, _)| d)
            .collect()
    }
}

/// The phase graph of a program with respect to a chosen anchor array.
#[derive(Clone, Debug)]
pub struct PhaseGraph {
    /// The array whose placement the search decides.
    pub anchor: VarId,
    /// Anchor plus every exclusive array with identical bounds — these
    /// are co-placed (aligned to the anchor).
    pub group: Vec<VarId>,
    /// The anchor's global bounds.
    pub bounds: Vec<Triplet>,
    /// Largest element size in the group (movement costing).
    pub elem_bytes: u64,
    /// Machine size ([`Program::machine_size`]).
    pub nprocs: usize,
    /// The phases, in program order. Never empty.
    pub phases: Vec<Phase>,
    /// Top-level `body` indices of `Stmt::Redistribute` on group arrays
    /// that extraction removed (the search re-decides them).
    pub dropped_redistributes: Vec<usize>,
    /// The program moves ownership by hand (`=>` / `-=>` / `<=` / `<=-`
    /// on a group array), so rewriting the declared distribution would
    /// race with the explicit migration: placement is report-only.
    pub hand_migration: bool,
}

/// Why no placement could be computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// No exclusive, distributed array of rank >= 1 to anchor on.
    NoAnchor,
    /// The program performs no compute on the anchor group.
    NoCompute,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NoAnchor => write!(f, "no exclusive distributed array to place"),
            PlaceError::NoCompute => write!(f, "no compute statements reference the anchor"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A loop enclosing a reference, with its static trip count if the
/// bounds are compile-time constants.
#[derive(Clone, Debug)]
struct LoopInfo {
    var: String,
    trips: Option<f64>,
}

/// Is any subscript computed from `mypid`, at whatever depth? Such a
/// reference pins the dimension to the processor id — the mark of a
/// per-processor replica or scratch array (broadcast targets, ghost
/// stores), whose placement is fixed by construction rather than free for
/// the search.
fn pid_indexed(r: &SectionRef) -> bool {
    let mypid = |n| matches!(n, Node::Int(IntExpr::MyPid));
    r.subs.iter().any(|s| walk::any(Node::Sub(s), mypid))
}

/// How many times a statement touching `r` repeats: the trip counts of the
/// enclosing loops whose variable `r` never mentions.
fn repeat_of(r: &SectionRef, loops: &[LoopInfo]) -> f64 {
    (loops.iter().filter(|l| !r.uses_var(&l.var)))
        .map(|l| l.trips.unwrap_or(1.0))
        .product()
}

/// Normalize `e` into `(base, constant)` with `e == base + constant`.
///
/// (Kept beside `affine_in`, which cannot say this: the base is compared
/// as text, so `mylb(U[*,*], 1) + 1` is one past `mylb(U[*,*], 1)` on
/// every processor without asking any of them what it owns.)
fn split_const(e: &IntExpr) -> (&IntExpr, i64) {
    if let IntExpr::Bin(op, a, b) = e {
        match (op, a.as_const(), b.as_const()) {
            (xdp_ir::IntBinOp::Add, _, Some(c)) => return (a, c),
            (xdp_ir::IntBinOp::Sub, _, Some(c)) => return (a, -c),
            (xdp_ir::IntBinOp::Add, Some(c), _) => return (b, c),
            _ => {}
        }
    }
    (e, 0)
}

/// The constant offset `c` with `read == target + c`, if the two
/// expressions differ only by a constant.
fn expr_offset(read: &IntExpr, target: &IntExpr) -> Option<i64> {
    let (rb, rc) = split_const(read);
    let (tb, tc) = split_const(target);
    (rb == tb).then_some(rc - tc)
}

/// Per-dimension classification of one reference.
struct RefShape {
    /// Element-touch count per dimension (see module docs).
    counts: Vec<f64>,
    /// Dimensions spanned by a statically-known multi-element range.
    local: Vec<bool>,
}

fn classify_ref(r: &SectionRef, bounds: &[Triplet]) -> RefShape {
    let rank = bounds.len();
    let mut counts = vec![1.0; rank];
    let mut local = vec![false; rank];
    for (d, s) in r.subs.iter().enumerate().take(rank) {
        let extent = bounds[d].count() as f64;
        match s {
            Subscript::All => {
                counts[d] = extent;
                local[d] = extent > 1.0;
            }
            Subscript::Range(t) => {
                match (t.lb.as_const(), t.ub.as_const(), t.st.as_const()) {
                    (Some(lb), Some(ub), Some(st)) if st != 0 => {
                        let n = Triplet::new(lb, ub, st).count() as f64;
                        counts[d] = n;
                        local[d] = n > 1.0;
                    }
                    // mylb/myub-bounded: the processors jointly cover the
                    // dimension; each adapts to its own share.
                    _ => counts[d] = extent,
                }
            }
            Subscript::Point(e) => {
                if e.as_const().is_none() {
                    // Loop-variable subscript: the enclosing loop walks
                    // the dimension (or each pid walks its share).
                    counts[d] = extent;
                }
            }
        }
    }
    RefShape { counts, local }
}

/// Everything a statement-subtree walk learns that matters to placement.
#[derive(Default, Clone, Debug)]
struct StmtSummary {
    /// Element-touches per variable.
    work: BTreeMap<VarId, f64>,
    /// Dimensions that must stay collapsed, per variable.
    local: BTreeMap<VarId, BTreeSet<usize>>,
    /// Constant-offset neighbour reads, per variable pair's shared dims.
    shifts: Vec<(VarId, Shift)>,
    /// Kernel / statement names encountered.
    names: BTreeSet<String>,
    /// Variables ever subscripted by `mypid` (see [`pid_indexed`]).
    pid_bound: BTreeSet<VarId>,
}

fn note_ref(p: &Program, r: &SectionRef, loops: &[LoopInfo], sum: &mut StmtSummary) {
    let decl = p.decl(r.var);
    if decl.ownership != Ownership::Exclusive || decl.rank() == 0 {
        return;
    }
    if pid_indexed(r) {
        sum.pid_bound.insert(r.var);
    }
    let shape = classify_ref(r, &decl.bounds);
    let touches: f64 = shape.counts.iter().product::<f64>() * repeat_of(r, loops);
    *sum.work.entry(r.var).or_insert(0.0) += touches;
    let locals = sum.local.entry(r.var).or_default();
    for (d, is_local) in shape.local.iter().enumerate() {
        if *is_local {
            locals.insert(d);
        }
    }
}

fn note_shift(
    p: &Program,
    read: &SectionRef,
    target: &SectionRef,
    loops: &[LoopInfo],
    sum: &mut StmtSummary,
) {
    // Shifts only make sense between same-rank references (stencils).
    if read.subs.len() != target.subs.len() {
        return;
    }
    let decl = p.decl(read.var);
    if decl.ownership != Ownership::Exclusive || decl.rank() == 0 {
        return;
    }
    let shape = classify_ref(read, &decl.bounds);
    let repeat = repeat_of(read, loops);
    for (d, (sr, st)) in read.subs.iter().zip(&target.subs).enumerate() {
        let (Subscript::Point(er), Subscript::Point(et)) = (sr, st) else {
            continue;
        };
        let Some(off) = expr_offset(er, et) else {
            continue;
        };
        if off == 0 {
            continue;
        }
        let plane: f64 = shape
            .counts
            .iter()
            .enumerate()
            .filter(|(dd, _)| *dd != d)
            .map(|(_, c)| *c)
            .product();
        sum.shifts.push((
            read.var,
            Shift {
                dim: d,
                offset: off,
                plane,
                repeat,
            },
        ));
    }
}

fn note_stmt(p: &Program, stmt: &Stmt, loops: &mut Vec<LoopInfo>, sum: &mut StmtSummary) {
    match stmt {
        Stmt::Assign { target, rhs } => {
            sum.names.insert("assign".into());
            note_ref(p, target, loops, sum);
            for r in rhs.refs() {
                note_ref(p, r, loops, sum);
                note_shift(p, r, target, loops, sum);
            }
        }
        Stmt::Kernel { name, args, .. } => {
            sum.names.insert(name.clone());
            for a in args {
                note_ref(p, a, loops, sum);
            }
        }
        Stmt::DoLoop {
            var, lo, hi, step, ..
        } => {
            let window = window_of([lo, hi, step], &Bindings::new(), None);
            loops.push(LoopInfo {
                var: var.clone(),
                trips: window.map(|w| w.count() as f64),
            });
        }
        // A guard (`iown`/`accessible`) adapts to ownership: only its body
        // constrains placement. Sends/receives/barriers/scalar assignments
        // neither constrain the placement nor count as compute.
        _ => {}
    }
    for s in stmt.body() {
        note_stmt(p, s, loops, sum);
    }
    if matches!(stmt, Stmt::DoLoop { .. }) {
        loops.pop();
    }
}

fn summarize(p: &Program, stmt: &Stmt) -> StmtSummary {
    let mut sum = StmtSummary::default();
    let mut loops = Vec::new();
    note_stmt(p, stmt, &mut loops, &mut sum);
    sum
}

/// Choose the anchor: the exclusive, distributed, rank >= 1 array with
/// the most element-touches across the whole program. Arrays ever
/// subscripted by `mypid` are per-processor replicas or scratch space —
/// their placement is pinned by construction, so they never anchor the
/// search (a broadcast replica read once per row would otherwise
/// out-touch the matrix it replicates).
fn choose_anchor(p: &Program, per_stmt: &[StmtSummary]) -> Result<VarId, PlaceError> {
    let mut best: Option<(f64, VarId)> = None;
    for (i, d) in p.decls.iter().enumerate() {
        let v = VarId(i as u32);
        if d.ownership != Ownership::Exclusive || d.rank() == 0 || d.dist.is_none() {
            continue;
        }
        if per_stmt.iter().any(|s| s.pid_bound.contains(&v)) {
            continue;
        }
        let w: f64 = per_stmt.iter().filter_map(|s| s.work.get(&v)).sum();
        match best {
            Some((bw, _)) if bw >= w => {}
            _ => best = Some((w, v)),
        }
    }
    let (w, v) = best.ok_or(PlaceError::NoAnchor)?;
    if w == 0.0 {
        return Err(PlaceError::NoCompute);
    }
    Ok(v)
}

/// Extract the phase graph of a program.
pub fn extract(p: &Program) -> Result<PhaseGraph, PlaceError> {
    let per_stmt: Vec<StmtSummary> = p.body.iter().map(|s| summarize(p, s)).collect();
    let anchor = choose_anchor(p, &per_stmt)?;
    let adecl = p.decl(anchor);
    let bounds = adecl.bounds.clone();
    let rank = bounds.len();
    let pid_bound: BTreeSet<VarId> = per_stmt
        .iter()
        .flat_map(|s| s.pid_bound.iter().copied())
        .collect();
    let group: Vec<VarId> = p
        .decls
        .iter()
        .enumerate()
        .filter(|(i, d)| {
            d.ownership == Ownership::Exclusive
                && d.bounds == bounds
                && !pid_bound.contains(&VarId(*i as u32))
        })
        .map(|(i, _)| VarId(i as u32))
        .collect();
    let in_group = |v: VarId| group.contains(&v);
    let elem_bytes = group
        .iter()
        .map(|v| p.decl(*v).elem.size_bytes())
        .max()
        .unwrap_or(8);
    let nprocs = p.machine_size().unwrap_or(1);

    // Group-array locality requirements transfer to the anchor dims 1:1
    // (identical bounds => aligned placement).
    let stmt_needs = |sum: &StmtSummary| -> BTreeSet<usize> {
        let mut dims = BTreeSet::new();
        for v in &group {
            if let Some(ds) = sum.local.get(v) {
                dims.extend(ds.iter().copied());
            }
        }
        dims
    };

    let mut hand_migration = false;
    for s in &p.body {
        if matches!(s, Stmt::Redistribute { var, .. } if in_group(*var)) {
            continue;
        }
        let mut acc = Vec::new();
        analysis::accesses(s, &mut acc);
        if acc
            .iter()
            .any(|a| in_group(a.var) && matches!(a.kind, AccessKind::OwnOut | AccessKind::OwnIn))
        {
            hand_migration = true;
        }
    }

    let all_dims: BTreeSet<usize> = (0..rank).collect();
    let mut phases: Vec<Phase> = Vec::new();
    let mut dropped = Vec::new();
    let mut cur_start = 0usize;
    let mut cur_needs: BTreeSet<usize> = BTreeSet::new();
    let mut cur_work = 0.0f64;
    let mut cur_shifts: Vec<Shift> = Vec::new();
    let mut cur_names: BTreeSet<String> = BTreeSet::new();
    let mut cur_has_compute = false;

    let close = |end: usize,
                 start: &mut usize,
                 needs: &mut BTreeSet<usize>,
                 work: &mut f64,
                 shifts: &mut Vec<Shift>,
                 names: &mut BTreeSet<String>,
                 has: &mut bool,
                 phases: &mut Vec<Phase>| {
        if *has {
            let needs_vec = (0..rank)
                .map(|d| {
                    if needs.contains(&d) {
                        DimNeed::Local
                    } else {
                        DimNeed::Free
                    }
                })
                .collect();
            phases.push(Phase {
                index: phases.len(),
                stmts: (*start, end),
                label: names.iter().cloned().collect::<Vec<_>>().join("+"),
                work: *work,
                needs: needs_vec,
                shifts: std::mem::take(shifts),
            });
        }
        *start = end;
        needs.clear();
        *work = 0.0;
        names.clear();
        *has = false;
    };

    for (i, s) in p.body.iter().enumerate() {
        if matches!(s, Stmt::Redistribute { var, .. } if in_group(*var)) {
            close(
                i,
                &mut cur_start,
                &mut cur_needs,
                &mut cur_work,
                &mut cur_shifts,
                &mut cur_names,
                &mut cur_has_compute,
                &mut phases,
            );
            dropped.push(i);
            cur_start = i + 1;
            continue;
        }
        let sum = &per_stmt[i];
        let needs = stmt_needs(sum);
        let group_work: f64 = group.iter().filter_map(|v| sum.work.get(v)).sum();
        let is_compute = group_work > 0.0;
        if is_compute {
            let union: BTreeSet<usize> = cur_needs.union(&needs).copied().collect();
            if cur_has_compute && union == all_dims && cur_needs != union {
                close(
                    i,
                    &mut cur_start,
                    &mut cur_needs,
                    &mut cur_work,
                    &mut cur_shifts,
                    &mut cur_names,
                    &mut cur_has_compute,
                    &mut phases,
                );
            }
            cur_needs.extend(needs);
            cur_work += group_work;
            cur_shifts.extend(
                sum.shifts
                    .iter()
                    .filter(|(v, _)| in_group(*v))
                    .map(|(_, sh)| sh.clone()),
            );
            cur_names.extend(sum.names.iter().cloned());
            cur_has_compute = true;
        }
    }
    close(
        p.body.len(),
        &mut cur_start,
        &mut cur_needs,
        &mut cur_work,
        &mut cur_shifts,
        &mut cur_names,
        &mut cur_has_compute,
        &mut phases,
    );

    if phases.is_empty() {
        return Err(PlaceError::NoCompute);
    }
    // Stretch phase ranges to partition the body: leading/interleaved
    // non-compute statements ride with the following phase, trailing ones
    // with the last.
    let mut prev_end = 0usize;
    let n = phases.len();
    for ph in phases.iter_mut() {
        ph.stmts.0 = prev_end;
        // Skip dropped redistributes directly after this phase.
        prev_end = ph.stmts.1;
        while dropped.contains(&prev_end) {
            prev_end += 1;
        }
    }
    phases[n - 1].stmts.1 = p.body.len();

    Ok(PhaseGraph {
        anchor,
        group,
        bounds,
        elem_bytes,
        nprocs,
        phases,
        dropped_redistributes: dropped,
        hand_migration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, Distribution, ElemType, ProcGrid};

    /// A two-phase FFT-shaped program: sweep dim 0 locally, then dim 1.
    fn two_phase() -> Program {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8), (1, 8)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
        ));
        let jloop = |sub_all_dim: usize| {
            let subs = if sub_all_dim == 0 {
                vec![b::all(), b::at(b::iv("j"))]
            } else {
                vec![b::at(b::iv("j")), b::all()]
            };
            b::do_loop(
                "j",
                b::c(1),
                b::c(8),
                vec![b::kernel("fft1d", vec![b::sref(a, subs)])],
            )
        };
        p.body = vec![
            jloop(0),
            b::redistribute(
                a,
                Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4)),
            ),
            jloop(1),
        ];
        p
    }

    #[test]
    fn explicit_redistribute_splits_phases() {
        let p = two_phase();
        let g = extract(&p).unwrap();
        assert_eq!(g.phases.len(), 2);
        assert_eq!(g.phases[0].local_dims(), BTreeSet::from([0]));
        assert_eq!(g.phases[1].local_dims(), BTreeSet::from([1]));
        assert_eq!(g.dropped_redistributes, vec![1]);
        assert!(!g.hand_migration);
        // Work: 8x8 element-touches per sweep.
        assert_eq!(g.phases[0].work, 64.0);
    }

    #[test]
    fn conflicting_locality_splits_without_redistribute() {
        let mut p = two_phase();
        p.body.remove(1); // drop the explicit redistribute
        let g = extract(&p).unwrap();
        assert_eq!(g.phases.len(), 2, "dims 0+1 local covers all dims");
        assert_eq!(g.phases[0].stmts, (0, 1));
        assert_eq!(g.phases[1].stmts, (1, 2));
    }

    #[test]
    fn stencil_records_shifts() {
        let mut p = Program::new();
        let g4 = ProcGrid::linear(4);
        let u = p.declare(b::array(
            "U",
            ElemType::F64,
            vec![(1, 8), (1, 8)],
            vec![DimDist::Block, DimDist::Star],
            g4.clone(),
        ));
        let v = p.declare(b::array(
            "V",
            ElemType::F64,
            vec![(1, 8), (1, 8)],
            vec![DimDist::Block, DimDist::Star],
            g4,
        ));
        let at2 = |di: i64, dj: i64| {
            let ie = if di == 0 {
                b::iv("i")
            } else {
                b::iv("i").add(b::c(di))
            };
            let je = if dj == 0 {
                b::iv("j")
            } else {
                b::iv("j").add(b::c(dj))
            };
            b::sref(u, vec![b::at(ie), b::at(je)])
        };
        let body = b::assign(
            b::sref(v, vec![b::at(b::iv("i")), b::at(b::iv("j"))]),
            b::val(at2(-1, 0))
                .add(b::val(at2(1, 0)))
                .add(b::val(at2(0, 0))),
        );
        p.body = vec![b::do_loop(
            "s",
            b::c(1),
            b::c(10),
            vec![b::do_loop(
                "i",
                b::c(2),
                b::c(7),
                vec![b::do_loop("j", b::c(1), b::c(8), vec![body])],
            )],
        )];
        let g = extract(&p).unwrap();
        assert_eq!(g.phases.len(), 1);
        assert_eq!(g.group.len(), 2, "U and V share bounds -> co-placed");
        let ph = &g.phases[0];
        assert_eq!(ph.local_dims(), BTreeSet::new());
        let offsets: BTreeSet<(usize, i64)> = ph.shifts.iter().map(|s| (s.dim, s.offset)).collect();
        assert_eq!(offsets, BTreeSet::from([(0, -1), (0, 1)]));
        // Sweep loop (10 trips) is unmentioned by the refs -> repeat.
        assert!(ph.shifts.iter().all(|s| s.repeat == 10.0));
        assert!(ph.shifts.iter().all(|s| s.plane == 8.0));
    }

    #[test]
    fn ownership_sends_flag_hand_migration() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![
                b::kernel("touch", vec![b::sref(a, vec![b::at(b::iv("i"))])]),
                b::guarded(b::iown(ai.clone()), vec![b::send_own_val(ai.clone())]),
                b::guarded(
                    b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(0)),
                    vec![b::recv_own_val(ai)],
                ),
            ],
        )];
        let g = extract(&p).unwrap();
        assert!(g.hand_migration);
    }

    #[test]
    fn pid_indexed_replica_never_anchors() {
        // Broadcast-replica shape: XL[mypid, *] is read once per row of M,
        // so its raw touch count dwarfs M's — but it must not anchor.
        let mut p = Program::new();
        let g4 = ProcGrid::linear(4);
        let m = p.declare(b::array(
            "M",
            ElemType::F64,
            vec![(1, 32), (1, 32)],
            vec![DimDist::Block, DimDist::Star],
            g4.clone(),
        ));
        let xl = p.declare(b::array(
            "XL",
            ElemType::F64,
            vec![(0, 3), (1, 32)],
            vec![DimDist::Block, DimDist::Star],
            g4,
        ));
        p.body = vec![b::do_loop(
            "r",
            b::c(1),
            b::c(32),
            vec![b::kernel(
                "matvec",
                vec![
                    b::sref(m, vec![b::at(b::iv("r")), b::all()]),
                    b::sref(xl, vec![b::at(b::mypid()), b::all()]),
                ],
            )],
        )];
        let g = extract(&p).unwrap();
        assert_eq!(g.anchor, m);
        assert!(!g.group.contains(&xl));
    }

    #[test]
    fn no_anchor_and_no_compute_errors() {
        let mut p = Program::new();
        assert_eq!(extract(&p).unwrap_err(), PlaceError::NoAnchor);
        let _a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        p.body = vec![Stmt::Barrier];
        assert_eq!(extract(&p).unwrap_err(), PlaceError::NoCompute);
    }
}
