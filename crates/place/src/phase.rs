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
//!   the offset dimension is cut. The offset is the difference of the two
//!   subscripts as [`affine_in`] evaluates it, in a loop variable or, for
//!   `mylb`/`myub`, on each processor that owns part of the array; it
//!   counts when it is one constant on all of them.
//!
//! Where the arrays live, and which of them the program text pins, is
//! asked of [`Dists`].

use std::collections::{BTreeMap, BTreeSet};
use xdp_ir::analysis::{affine_in, window_of, Bindings, Clause, Dists, OnProc};
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

/// How many times a statement touching `r` repeats: the trip counts of the
/// enclosing loops whose variable `r` never mentions.
fn repeat_of(r: &SectionRef, loops: &[LoopInfo]) -> f64 {
    (loops.iter().filter(|l| !r.uses_var(&l.var)))
        .map(|l| l.trips.unwrap_or(1.0))
        .product()
}

/// The constant `c` with `read == target + c` in a subscript of `var` at
/// top-level statement `stmt`: `read - target` in the innermost enclosing
/// loop variable it mentions, the same on every processor that owns part
/// of `var` there.
fn offset(
    dists: &Dists,
    stmt: usize,
    var: VarId,
    (read, target): (&IntExpr, &IntExpr),
    loops: &[LoopInfo],
) -> Option<i64> {
    let diff = read.clone().sub(target.clone());
    let bounds = &dists.p.decl(var).bounds;
    let dist = dists.at(var, stmt).ok()?;
    let owners = (0..dist.nprocs()).filter(|&pid| dist.owned_volume(bounds, pid) > 0);
    let vars = loops
        .iter()
        .rev()
        .map(|l| Some(l.var.as_str()))
        .chain([None]);
    let on = |pid| Some(OnProc { dists, stmt, pid });
    let mut per_pid = owners.map(|pid| {
        let form = vars
            .clone()
            .find_map(|v| affine_in(&diff, v, &Bindings::new(), on(pid)));
        form.filter(|&(a, _)| a == 0).map(|(_, c)| c)
    });
    let first = per_pid.next()??;
    per_pid.all(|c| c == Some(first)).then_some(first)
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
}

fn note_ref(p: &Program, r: &SectionRef, loops: &[LoopInfo], sum: &mut StmtSummary) {
    let decl = p.decl(r.var);
    if decl.ownership != Ownership::Exclusive || decl.rank() == 0 {
        return;
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
    (dists, stmt): (&Dists, usize),
    read: &SectionRef,
    target: &SectionRef,
    loops: &[LoopInfo],
    sum: &mut StmtSummary,
) {
    // Shifts only make sense between same-rank references (stencils).
    if read.subs.len() != target.subs.len() {
        return;
    }
    let decl = dists.p.decl(read.var);
    if decl.ownership != Ownership::Exclusive || decl.rank() == 0 {
        return;
    }
    let shape = classify_ref(read, &decl.bounds);
    let repeat = repeat_of(read, loops);
    for (d, (sr, st)) in read.subs.iter().zip(&target.subs).enumerate() {
        let (Subscript::Point(er), Subscript::Point(et)) = (sr, st) else {
            continue;
        };
        let Some(off) = offset(dists, stmt, read.var, (er, et), loops) else {
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

/// What `stmt`, inside top-level statement `at.1`, asks of placement.
fn note_stmt(at: (&Dists, usize), stmt: &Stmt, loops: &mut Vec<LoopInfo>, sum: &mut StmtSummary) {
    let p = at.0.p;
    match stmt {
        Stmt::Assign { target, rhs } => {
            sum.names.insert("assign".into());
            note_ref(p, target, loops, sum);
            for r in rhs.refs() {
                note_ref(p, r, loops, sum);
                note_shift(at, r, target, loops, sum);
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
        note_stmt(at, s, loops, sum);
    }
    if matches!(stmt, Stmt::DoLoop { .. }) {
        loops.pop();
    }
}

/// Is `v` ever subscripted by `mypid`? That marks a per-processor replica
/// or scratch array (broadcast targets, ghost stores), whose placement is
/// fixed by construction: it never anchors the search nor joins its group.
fn per_processor(dists: &Dists, v: VarId) -> bool {
    (dists.pins(v).iter()).any(|pin| pin.clause == Clause::PidSubscript)
}

/// Choose the anchor: the exclusive, distributed, rank >= 1 array with
/// the most element-touches across the whole program, not
/// [`per_processor`] (a broadcast replica read once per row would
/// otherwise out-touch the matrix it replicates).
fn choose_anchor(dists: &Dists, per_stmt: &[StmtSummary]) -> Result<VarId, PlaceError> {
    let mut best: Option<(f64, VarId)> = None;
    for (i, d) in dists.p.decls.iter().enumerate() {
        let v = VarId(i as u32);
        if d.ownership != Ownership::Exclusive || d.rank() == 0 || d.dist.is_none() {
            continue;
        }
        if per_processor(dists, v) {
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

/// The phase [`extract`] is accumulating: where it starts, and what its
/// compute statements so far ask for.
#[derive(Default)]
struct OpenPhase {
    start: usize,
    needs: BTreeSet<usize>,
    work: f64,
    shifts: Vec<Shift>,
    names: BTreeSet<String>,
    has_compute: bool,
}

impl OpenPhase {
    /// End the open phase at top-level statement `end`, recording it in
    /// `phases` if it holds compute, and open an empty one there.
    fn close(&mut self, end: usize, rank: usize, phases: &mut Vec<Phase>) {
        let done = std::mem::replace(
            self,
            OpenPhase {
                start: end,
                ..OpenPhase::default()
            },
        );
        if !done.has_compute {
            return;
        }
        let need = |d| {
            if done.needs.contains(&d) {
                DimNeed::Local
            } else {
                DimNeed::Free
            }
        };
        phases.push(Phase {
            index: phases.len(),
            stmts: (done.start, end),
            label: done.names.into_iter().collect::<Vec<_>>().join("+"),
            work: done.work,
            needs: (0..rank).map(need).collect(),
            shifts: done.shifts,
        });
    }
}

/// Extract the phase graph of the program `dists` describes.
pub fn extract(dists: &Dists) -> Result<PhaseGraph, PlaceError> {
    let p = dists.p;
    let summarize = |(k, s)| {
        let (mut sum, mut loops) = (StmtSummary::default(), Vec::new());
        note_stmt((dists, k), s, &mut loops, &mut sum);
        sum
    };
    let per_stmt: Vec<StmtSummary> = p.body.iter().enumerate().map(summarize).collect();
    let anchor = choose_anchor(dists, &per_stmt)?;
    let adecl = p.decl(anchor);
    let bounds = adecl.bounds.clone();
    let rank = bounds.len();
    let group: Vec<VarId> = (0..p.decls.len() as u32)
        .map(VarId)
        .filter(|&v| {
            let d = p.decl(v);
            d.ownership == Ownership::Exclusive && d.bounds == bounds && !per_processor(dists, v)
        })
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

    let all_dims: BTreeSet<usize> = (0..rank).collect();
    let mut phases: Vec<Phase> = Vec::new();
    let mut dropped = Vec::new();
    let mut open = OpenPhase::default();
    for (i, s) in p.body.iter().enumerate() {
        if matches!(s, Stmt::Redistribute { var, .. } if in_group(*var)) {
            open.close(i, rank, &mut phases);
            dropped.push(i);
            open.start = i + 1;
            continue;
        }
        let sum = &per_stmt[i];
        let needs = stmt_needs(sum);
        let group_work: f64 = group.iter().filter_map(|v| sum.work.get(v)).sum();
        if group_work > 0.0 {
            let union: BTreeSet<usize> = open.needs.union(&needs).copied().collect();
            if open.has_compute && union == all_dims && open.needs != union {
                open.close(i, rank, &mut phases);
            }
            open.needs.extend(needs);
            open.work += group_work;
            open.shifts.extend(
                sum.shifts
                    .iter()
                    .filter(|(v, _)| in_group(*v))
                    .map(|(_, sh)| sh.clone()),
            );
            open.names.extend(sum.names.iter().cloned());
            open.has_compute = true;
        }
    }
    open.close(p.body.len(), rank, &mut phases);

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
        let g = extract(&Dists::of(&p)).unwrap();
        assert_eq!(g.phases.len(), 2);
        assert_eq!(g.phases[0].local_dims(), BTreeSet::from([0]));
        assert_eq!(g.phases[1].local_dims(), BTreeSet::from([1]));
        assert_eq!(g.dropped_redistributes, vec![1]);
        // Work: 8x8 element-touches per sweep.
        assert_eq!(g.phases[0].work, 64.0);
    }

    #[test]
    fn conflicting_locality_splits_without_redistribute() {
        let mut p = two_phase();
        p.body.remove(1); // drop the explicit redistribute
        let g = extract(&Dists::of(&p)).unwrap();
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
        let g = extract(&Dists::of(&p)).unwrap();
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
        let g = extract(&Dists::of(&p)).unwrap();
        assert_eq!(g.anchor, m);
        assert!(!g.group.contains(&xl));
    }

    #[test]
    fn no_anchor_and_no_compute_errors() {
        let mut p = Program::new();
        assert_eq!(extract(&Dists::of(&p)).unwrap_err(), PlaceError::NoAnchor);
        let _a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        p.body = vec![Stmt::Barrier];
        assert_eq!(extract(&Dists::of(&p)).unwrap_err(), PlaceError::NoCompute);
    }
}
