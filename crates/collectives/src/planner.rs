//! The redistribution planner.
//!
//! Given an array's bounds, its current distribution, and a target
//! distribution, the planner uses the section algebra to compute the exact
//! per-processor-pair transfer sets (each a rectangular — possibly strided —
//! section, one *message* where a naive translation sends one message per
//! element), lays them out as a round-structured [`CommSchedule`] under one
//! of two strategies, and picks the cheaper by predicted cost:
//!
//! * [`Strategy::DirectPairwise`] — every piece travels straight from its
//!   source to its destination; round `r` carries all pairs at ring
//!   distance `r`, so no processor sends twice in a round. `P-1` rounds,
//!   minimal bytes.
//! * [`Strategy::StagedBruck`] — pieces are routed through intermediate
//!   processors, Bruck-style: in round `k` every processor forwards all
//!   pieces whose remaining ring distance has bit `k` set to its neighbour
//!   `2^k` positions ahead. `ceil(log2 P)` rounds and at most that many
//!   messages per processor — fewer, larger, shorter-range messages, at
//!   the price of forwarded bytes. Wins at high per-message cost (large
//!   `alpha`, distance-sensitive topologies).
//!
//! The planner also computes the *segment shape* an array needs so that
//! every planned transfer moves whole ownership segments
//! ([`compatible_segment_shape`], [`prepare`]), and can lower a plan to
//! per-processor IL+XDP statements ([`lower_redistribute_for_pid`]) for the
//! interpreter's `redistribute` implementation.

use crate::schedule::{CommSchedule, Round, Transfer};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use xdp_ir::{
    BoolExpr, Decl, DestSet, Distribution, IntExpr, Program, Section, SectionRef, Stmt, Subscript,
    TransferKind, Triplet, TripletExpr, VarId,
};
use xdp_machine::{CostModel, Topology};

/// One atomic unit of a redistribution: a section owned by `src` under the
/// old distribution and by `dst` under the new one.
#[derive(Clone, Debug, PartialEq)]
pub struct Piece {
    pub src: usize,
    pub dst: usize,
    pub sec: Section,
}

/// How a plan routes its pieces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    DirectPairwise,
    StagedBruck,
    /// Single-shot all-to-all: every piece in one round. Fastest, and the
    /// memory-hungriest — every processor stages all its traffic at once.
    AllToAll,
    /// Allgather-then-slice: every source replicates its whole moving set
    /// to every other processor, which slices out what it owns. Priced for
    /// the frontier only (it sends data to non-owners, so it cannot be
    /// lowered to ownership-transferring IL+XDP statements).
    AllGatherSlice,
    /// K-round dynamic-slice chain: each piece is cut into `K` slices
    /// along its longest axis and round `k` carries slice `k` directly to
    /// its destination — `K` rounds trade per-message overhead for a
    /// roughly `K`-fold smaller per-round staging footprint.
    DynamicSlice(usize),
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::DirectPairwise => write!(f, "direct-pairwise"),
            Strategy::StagedBruck => write!(f, "staged-bruck"),
            Strategy::AllToAll => write!(f, "all-to-all"),
            Strategy::AllGatherSlice => write!(f, "allgather-slice"),
            Strategy::DynamicSlice(k) => write!(f, "dynamic-slice-{k}"),
        }
    }
}

/// One point of the time/memory trade-off the planner enumerated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierPoint {
    pub strategy: Strategy,
    /// Predicted completion time under the planning model.
    pub predicted: f64,
    /// Per-processor peak live-buffer bytes of this decomposition under
    /// its execution discipline (stepped for budgeted plans, flat
    /// otherwise).
    pub peak_bytes: u64,
    /// Is this the plan [`plan`] selected?
    pub chosen: bool,
}

/// Why budgeted planning failed.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// No enumerated decomposition's peak fits the caller's budget; the
    /// error names the smallest budget that would have been feasible.
    NoPlanFits {
        var: VarId,
        budget: u64,
        smallest_feasible: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoPlanFits {
                var,
                budget,
                smallest_feasible,
            } => write!(
                f,
                "no redistribution plan for {var:?} fits mem budget {budget} B \
                 (smallest feasible budget: {smallest_feasible} B)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A chosen redistribution plan, with the costs of the rejected
/// alternatives for reporting.
#[derive(Clone, Debug)]
pub struct RedistPlan {
    pub var: VarId,
    pub strategy: Strategy,
    pub schedule: CommSchedule,
    /// Predicted completion time of `schedule` under the planning model.
    pub predicted: f64,
    /// Every candidate considered, with its predicted cost.
    pub alternatives: Vec<(Strategy, f64)>,
    /// Elements that change owners (elements staying put move no bytes).
    pub moved_elems: i64,
    /// Per-processor peak live-buffer bytes the chosen schedule needs:
    /// the stepped (round-synchronized) peak when the plan was budgeted,
    /// the flat (all-rounds-live) bound otherwise.
    pub peak_bytes: u64,
    /// Budgeted plans lower round-synchronized (per-round awaits bound
    /// the footprint); unbudgeted plans keep the historical pre-post-
    /// everything lowering.
    pub synchronized: bool,
    /// The dominated-free time/memory Pareto frontier of every
    /// decomposition enumerated, sorted by predicted time.
    pub frontier: Vec<FrontierPoint>,
}

/// Intersect the two ownership maps: every (src-owner, dst-owner) pair of
/// rectangles, including the stationary `src == dst` pieces.
pub fn redistribution_pieces(
    bounds: &[Triplet],
    src: &Distribution,
    dst: &Distribution,
) -> Vec<Piece> {
    assert_eq!(
        src.nprocs(),
        dst.nprocs(),
        "redistribution must stay on one machine"
    );
    let nprocs = src.nprocs();
    let mut out = Vec::new();
    for p in 0..nprocs {
        let srcs = src.owned_rects(bounds, p);
        for q in 0..nprocs {
            for d_rect in dst.owned_rects(bounds, q) {
                for s_rect in &srcs {
                    let inter = s_rect.intersect(&d_rect);
                    if !inter.is_empty() {
                        out.push(Piece {
                            src: p,
                            dst: q,
                            sec: inter,
                        });
                    }
                }
            }
        }
    }
    out
}

fn ceil_log2(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

/// Direct-pairwise schedule: round `r` carries every piece whose ring
/// distance `(dst - src) mod P` is `r`. One single-section transfer per
/// piece.
fn direct_schedule(var: VarId, nprocs: usize, pieces: &[Piece], elem_bytes: u64) -> CommSchedule {
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    for r in 1..nprocs {
        let mut round = Round::default();
        for pc in pieces {
            if (pc.dst + nprocs - pc.src) % nprocs == r {
                salt += 1;
                round.transfers.push(Transfer::new(
                    pc.src,
                    pc.dst,
                    var,
                    vec![pc.sec.clone()],
                    salt,
                    elem_bytes,
                ));
            }
        }
        s.push_round(round);
    }
    s
}

/// Bruck-staged schedule: pieces hop forwards through the ring by powers of
/// two, consuming one bit of their remaining ring distance per round (bit
/// `k` of the distance is unaffected by the earlier, smaller hops, so the
/// decomposition is exact for any `P`). Because every piece is a distinct
/// section of one global index space, in-transit pieces parked on an
/// intermediate processor can never collide.
fn staged_schedule(var: VarId, nprocs: usize, pieces: &[Piece], elem_bytes: u64) -> CommSchedule {
    let mut s = CommSchedule::new(nprocs);
    let mut cur: Vec<usize> = pieces.iter().map(|p| p.src).collect();
    let mut salt = 0;
    for k in 0..ceil_log2(nprocs.max(2)) {
        let gap = 1usize << k;
        if gap >= nprocs {
            break;
        }
        let mut by_holder: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, pc) in pieces.iter().enumerate() {
            let rem = (pc.dst + nprocs - cur[i]) % nprocs;
            if rem & gap != 0 {
                by_holder.entry(cur[i]).or_default().push(i);
            }
        }
        let mut round = Round::default();
        for (holder, idxs) in by_holder {
            let to = (holder + gap) % nprocs;
            let secs: Vec<Section> = idxs.iter().map(|&i| pieces[i].sec.clone()).collect();
            salt += 1;
            round
                .transfers
                .push(Transfer::new(holder, to, var, secs, salt, elem_bytes));
            for &i in &idxs {
                cur[i] = to;
            }
        }
        s.push_round(round);
    }
    debug_assert!(
        pieces.iter().zip(&cur).all(|(p, &c)| c == p.dst),
        "every piece must land on its destination"
    );
    s
}

/// Single-shot all-to-all: every piece travels in one round. Minimal
/// rounds and per-message overhead serialization, maximal footprint —
/// every processor stages its entire send and receive traffic at once.
fn alltoall_schedule(var: VarId, nprocs: usize, pieces: &[Piece], elem_bytes: u64) -> CommSchedule {
    let mut s = CommSchedule::new(nprocs);
    let mut round = Round::default();
    for (salt, pc) in pieces.iter().enumerate() {
        round.transfers.push(Transfer::new(
            pc.src,
            pc.dst,
            var,
            vec![pc.sec.clone()],
            salt as i64 + 1,
            elem_bytes,
        ));
    }
    s.push_round(round);
    s
}

/// Allgather-then-slice: every source replicates its whole moving set to
/// every other processor in one round; receivers slice locally. Priced
/// for the frontier only — it ships data to processors that will never
/// own it, so it has no ownership-transferring IL+XDP lowering.
fn allgather_schedule(
    var: VarId,
    nprocs: usize,
    pieces: &[Piece],
    elem_bytes: u64,
) -> CommSchedule {
    let mut by_src: BTreeMap<usize, Vec<Section>> = BTreeMap::new();
    for pc in pieces {
        by_src.entry(pc.src).or_default().push(pc.sec.clone());
    }
    let mut s = CommSchedule::new(nprocs);
    let mut round = Round::default();
    let mut salt = 0;
    for (src, secs) in by_src {
        for dst in 0..nprocs {
            if dst == src {
                continue;
            }
            salt += 1;
            round
                .transfers
                .push(Transfer::new(src, dst, var, secs.clone(), salt, elem_bytes));
        }
    }
    s.push_round(round);
    s
}

/// How many segment-aligned cut units axis `d` of `sec` offers, and the
/// element step of one unit. Stride-1 axes may only be cut on segment
/// tile edges (the runtime rejects ownership transfers that split a
/// segment); strided axes come from strided ownership, which forces
/// per-element segments, so any cut is aligned there.
fn axis_units(sec: &Section, tiles: &[i64], d: usize) -> (i64, i64) {
    let t = sec.dim(d);
    let n = t.count();
    if t.st != 1 {
        return (n, 1);
    }
    let tile = tiles.get(d).copied().unwrap_or(1).max(1);
    if n % tile == 0 {
        (n / tile, tile)
    } else {
        // Piece boundaries always fall on tile edges by construction;
        // if not, refuse to cut this axis rather than split a segment.
        (1, n)
    }
}

/// Cut `sec` into `k` even segment-aligned slices along its most
/// divisible axis and return slice `chunk` (`None` when the cut units
/// ran out before `chunk`).
fn slice_section(sec: &Section, tiles: &[i64], k: usize, chunk: usize) -> Option<Section> {
    let axis = (0..sec.rank()).max_by_key(|&d| axis_units(sec, tiles, d).0)?;
    let t = sec.dim(axis);
    let (units, step) = axis_units(sec, tiles, axis);
    let start = (units * chunk as i64) / k as i64;
    let end = (units * (chunk as i64 + 1)) / k as i64;
    if start >= end {
        return None;
    }
    let lb = t.lb + start * step * t.st;
    let ub = t.lb + (end * step - 1) * t.st;
    let dims = (0..sec.rank())
        .map(|d| {
            if d == axis {
                Triplet::new(lb, ub, t.st)
            } else {
                sec.dim(d)
            }
        })
        .collect();
    Some(Section::new(dims))
}

/// K-round dynamic-slice chain: round `j` carries slice `j` of every
/// piece straight from source to destination. Every transfer is a single
/// section, so the chain lowers to IL+XDP like the direct plan.
fn dynamic_slice_schedule(
    var: VarId,
    nprocs: usize,
    pieces: &[Piece],
    elem_bytes: u64,
    tiles: &[i64],
    k: usize,
) -> CommSchedule {
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    for chunk in 0..k {
        let mut round = Round::default();
        for pc in pieces {
            if let Some(sec) = slice_section(&pc.sec, tiles, k, chunk) {
                salt += 1;
                round.transfers.push(Transfer::new(
                    pc.src,
                    pc.dst,
                    var,
                    vec![sec],
                    salt,
                    elem_bytes,
                ));
            }
        }
        // Unsliceable pieces (single-segment) land whole in their last
        // chunk; dropping the empty rounds makes "did the chain actually
        // cut anything" visible as rounds.len() > 1.
        if !round.transfers.is_empty() {
            s.push_round(round);
        }
    }
    s
}

/// One enumerated decomposition, priced on both axes.
struct Candidate {
    strategy: Strategy,
    schedule: CommSchedule,
    predicted: f64,
    /// Peak under the discipline the candidate would execute with.
    peak: u64,
    /// May this candidate be *chosen* (lowerable under the caller's
    /// constraints), as opposed to only priced for the frontier?
    selectable: bool,
}

/// The slice counts the dynamic-slice chain enumeration tries.
const DYNAMIC_SLICE_KS: [usize; 3] = [2, 4, 8];

/// Skip the allgather-slice frontier point past this `pieces x procs`
/// product: its schedule materializes O(pieces x P) sections, which at
/// large machine sizes costs gigabytes to price a candidate that can
/// never be selected (it is frontier-only).
const ALLGATHER_ENUM_CAP: usize = 1 << 18;

/// Enumerate the decomposition catalog. `full` adds the memory-sensitive
/// decompositions (all-to-all, allgather-slice, dynamic-slice chains) to
/// the two historical candidates; `synced` prices peaks for
/// round-synchronized execution (budgeted lowering), otherwise for the
/// historical pre-post-everything lowering.
#[allow(clippy::too_many_arguments)]
fn catalog(
    var: VarId,
    nprocs: usize,
    moving: &[Piece],
    elem_bytes: u64,
    model: &CostModel,
    topo: &Topology,
    tiles: &[i64],
    require_single_sections: bool,
    full: bool,
    synced: bool,
) -> Vec<Candidate> {
    let peak_of = |sch: &CommSchedule| {
        if synced {
            sch.synced_peak_bytes()
        } else {
            sch.flat_peak_bytes()
        }
    };
    let mut out = Vec::new();
    let mut push = |strategy: Strategy, schedule: CommSchedule, selectable: bool| {
        let predicted = schedule.predicted_cost(model, topo);
        let peak = peak_of(&schedule);
        out.push(Candidate {
            strategy,
            schedule,
            predicted,
            peak,
            selectable,
        });
    };
    push(
        Strategy::DirectPairwise,
        direct_schedule(var, nprocs, moving, elem_bytes),
        true,
    );
    if nprocs > 2 && !moving.is_empty() {
        let staged = staged_schedule(var, nprocs, moving, elem_bytes);
        if !require_single_sections || staged.transfers().all(|t| t.secs.len() == 1) {
            push(Strategy::StagedBruck, staged, true);
        }
    }
    if full && !moving.is_empty() {
        push(
            Strategy::AllToAll,
            alltoall_schedule(var, nprocs, moving, elem_bytes),
            true,
        );
        for k in DYNAMIC_SLICE_KS {
            let sch = dynamic_slice_schedule(var, nprocs, moving, elem_bytes, tiles, k);
            if sch.rounds.len() > 1 {
                push(Strategy::DynamicSlice(k), sch, true);
            }
        }
        if moving.len().saturating_mul(nprocs) <= ALLGATHER_ENUM_CAP {
            push(
                Strategy::AllGatherSlice,
                allgather_schedule(var, nprocs, moving, elem_bytes),
                false,
            );
        }
    }
    out
}

/// The dominated-free time/memory frontier of a candidate set, sorted by
/// predicted time (a point survives unless another point is at least as
/// good on both axes and strictly better on one).
fn pareto_frontier(cands: &[Candidate], chosen: Option<Strategy>) -> Vec<FrontierPoint> {
    let mut pts: Vec<FrontierPoint> = cands
        .iter()
        .filter(|c| {
            !cands.iter().any(|o| {
                (o.predicted <= c.predicted && o.peak < c.peak)
                    || (o.predicted < c.predicted && o.peak <= c.peak)
            })
        })
        .map(|c| FrontierPoint {
            strategy: c.strategy,
            predicted: c.predicted,
            peak_bytes: c.peak,
            chosen: chosen == Some(c.strategy),
        })
        .collect();
    pts.sort_by(|a, b| a.predicted.partial_cmp(&b.predicted).unwrap());
    pts.dedup_by_key(|p| p.strategy);
    pts
}

fn assemble(
    var: VarId,
    moved_elems: i64,
    mut cands: Vec<Candidate>,
    best: usize,
    synchronized: bool,
) -> RedistPlan {
    let alternatives: Vec<(Strategy, f64)> =
        cands.iter().map(|c| (c.strategy, c.predicted)).collect();
    let frontier = pareto_frontier(&cands, Some(cands[best].strategy));
    let c = cands.swap_remove(best);
    RedistPlan {
        var,
        strategy: c.strategy,
        predicted: c.predicted,
        schedule: c.schedule,
        alternatives,
        moved_elems,
        peak_bytes: c.peak,
        synchronized,
        frontier,
    }
}

/// Plan the redistribution of `var[bounds]` from `src` to `dst`.
///
/// `require_single_sections` restricts the choice to plans whose every
/// message carries one contiguous-or-strided section — required when the
/// plan will be lowered to IL+XDP transfer statements (one section per
/// send), not when it is executed as a packed schedule.
///
/// With `model.mem_budget == None` this reproduces the historical
/// time-optimal choice between the direct and staged schedules exactly.
/// With a budget set it enumerates the full decomposition catalog and
/// picks the fastest plan whose round-synchronized peak fits; when
/// nothing fits it falls back to the smallest-peak plan (executors must
/// stay total — use [`try_plan`] to surface the failure instead).
#[allow(clippy::too_many_arguments)]
pub fn plan(
    var: VarId,
    bounds: &[Triplet],
    elem_bytes: u64,
    src: &Distribution,
    dst: &Distribution,
    model: &CostModel,
    topo: &Topology,
    require_single_sections: bool,
) -> RedistPlan {
    match try_plan(
        var,
        bounds,
        elem_bytes,
        src,
        dst,
        model,
        topo,
        require_single_sections,
    ) {
        Ok(p) => p,
        Err(PlanError::NoPlanFits {
            smallest_feasible, ..
        }) => {
            // Nothing fits: degrade to the smallest-peak plan rather than
            // fail the run.
            let relaxed = CostModel {
                mem_budget: Some(smallest_feasible),
                ..*model
            };
            try_plan(
                var,
                bounds,
                elem_bytes,
                src,
                dst,
                &relaxed,
                topo,
                require_single_sections,
            )
            .expect("smallest feasible budget must fit")
        }
    }
}

/// [`plan`], but a budget that no enumerated decomposition fits is an
/// error naming the smallest feasible budget.
#[allow(clippy::too_many_arguments)]
pub fn try_plan(
    var: VarId,
    bounds: &[Triplet],
    elem_bytes: u64,
    src: &Distribution,
    dst: &Distribution,
    model: &CostModel,
    topo: &Topology,
    require_single_sections: bool,
) -> Result<RedistPlan, PlanError> {
    let nprocs = src.nprocs();
    let moving: Vec<Piece> = redistribution_pieces(bounds, src, dst)
        .into_iter()
        .filter(|p| p.src != p.dst)
        .collect();
    let moved_elems: i64 = moving.iter().map(|p| p.sec.volume()).sum();

    let tiles = compatible_segment_shape(bounds, &[src, dst]);

    match model.mem_budget {
        None => {
            let cands = catalog(
                var,
                nprocs,
                &moving,
                elem_bytes,
                model,
                topo,
                &tiles,
                require_single_sections,
                false,
                false,
            );
            let best = cands
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.predicted.partial_cmp(&b.predicted).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            Ok(assemble(var, moved_elems, cands, best, false))
        }
        Some(budget) => {
            let cands = catalog(
                var,
                nprocs,
                &moving,
                elem_bytes,
                model,
                topo,
                &tiles,
                require_single_sections,
                true,
                true,
            );
            let best = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| c.selectable && c.peak <= budget)
                .min_by(|(_, a), (_, b)| a.predicted.partial_cmp(&b.predicted).unwrap())
                .map(|(i, _)| i);
            match best {
                Some(i) => Ok(assemble(var, moved_elems, cands, i, true)),
                None => Err(PlanError::NoPlanFits {
                    var,
                    budget,
                    smallest_feasible: cands
                        .iter()
                        .filter(|c| c.selectable)
                        .map(|c| c.peak)
                        .min()
                        .unwrap_or(0),
                }),
            }
        }
    }
}

/// What one machine's processors share when they plan redistributions:
/// the cost model and topology schedules are priced with, and the plans
/// already computed. A plan is a pure function of the array, its two
/// distributions and the machine, so the first processor to reach a
/// `redistribute` computes it and the other P-1 reuse it. One context per
/// machine instance: a driver builds it from its configuration and hands
/// the same `Arc` to every processor.
#[derive(Debug)]
pub struct PlanCtx {
    cost: CostModel,
    topo: Topology,
    /// Keyed by (variable, source distribution, target distribution); a
    /// program has a handful of distinct redistributions, so a scan beats
    /// hashing two distributions.
    memo: Mutex<Vec<PlanMemo>>,
}

type PlanMemo = (VarId, Distribution, Distribution, Arc<RedistPlan>);

impl PlanCtx {
    /// A context for a machine priced by `cost` over `topo`, with nothing
    /// planned yet.
    pub fn new(cost: CostModel, topo: Topology) -> Arc<PlanCtx> {
        Arc::new(PlanCtx {
            cost,
            topo,
            memo: Mutex::new(Vec::new()),
        })
    }

    /// The 1993 machine on a uniform interconnect: what a processor plans
    /// with until a driver hands it the machine's own context.
    pub fn default_1993() -> Arc<PlanCtx> {
        PlanCtx::new(CostModel::default_1993(), Topology::Uniform)
    }

    /// The plan (lowerable: one section per message) that takes `decl`'s
    /// array, variable `var`, from `src` to `dst` on this machine. The
    /// memo lock is held while planning, so concurrent processors wait for
    /// the one plan instead of racing to compute P copies of it.
    pub fn plan(
        &self,
        var: VarId,
        decl: &Decl,
        src: &Distribution,
        dst: &Distribution,
    ) -> Arc<RedistPlan> {
        let mut memo = self.memo.lock().expect("a planner panicked");
        if let Some((.., plan)) = memo
            .iter()
            .find(|(v, s, d, _)| *v == var && s == src && d == dst)
        {
            return plan.clone();
        }
        let planned = Arc::new(plan(
            var,
            &decl.bounds,
            decl.elem.size_bytes(),
            src,
            dst,
            &self.cost,
            &self.topo,
            true, // lowering emits one section per transfer statement
        ));
        memo.push((var, src.clone(), dst.clone(), planned.clone()));
        planned
    }

    /// How many times the planner body has run on this machine (one per
    /// distinct redistribution). For tests of the sharing itself.
    pub fn plans_computed(&self) -> usize {
        self.memo.lock().expect("a planner panicked").len()
    }
}

fn const_sref(var: VarId, sec: &Section) -> SectionRef {
    let subs = (0..sec.rank())
        .map(|d| {
            let t = sec.dim(d);
            Subscript::Range(TripletExpr {
                lb: IntExpr::Const(t.lb),
                ub: IntExpr::Const(t.ub),
                st: IntExpr::Const(t.st),
            })
        })
        .collect();
    SectionRef::new(var, subs)
}

/// Lower a (single-section) plan to processor `pid`'s IL+XDP statements:
/// pre-posted ownership-and-value receives for every incoming piece, the
/// processor's sends in round order with bound destinations, and trailing
/// `await` guards so the statement completes only when all pieces have
/// landed. Tags are salted `salt_base + transfer-ordinal`, so concurrent
/// redistributions of one variable cannot cross-match.
pub fn lower_redistribute_for_pid(plan: &RedistPlan, pid: usize, salt_base: i64) -> Vec<Stmt> {
    if plan.synchronized {
        return lower_rounds_for_pid(plan, pid, salt_base);
    }
    let var = plan.var;
    let mut out = Vec::new();
    let mut awaits = Vec::new();
    for t in plan.schedule.transfers() {
        if t.dst == pid && !t.is_local() {
            assert_eq!(t.secs.len(), 1, "IR lowering requires single-section plans");
            let target = const_sref(var, &t.recv_secs[0]);
            out.push(Stmt::Recv {
                target: target.clone(),
                kind: TransferKind::OwnershipValue,
                name: None,
                salt: Some(IntExpr::Const(salt_base + t.salt)),
            });
            awaits.push(Stmt::Guarded {
                rule: BoolExpr::Await(target),
                body: vec![],
            });
        }
    }
    for round in &plan.schedule.rounds {
        for t in &round.transfers {
            if t.src == pid && !t.is_local() {
                out.push(Stmt::Send {
                    sec: const_sref(var, &t.secs[0]),
                    kind: TransferKind::OwnershipValue,
                    dest: DestSet::Pids(vec![IntExpr::Const(t.dst as i64)]),
                    salt: Some(IntExpr::Const(salt_base + t.salt)),
                });
            }
        }
    }
    out.extend(awaits);
    out
}

/// Round-synchronized lowering for budgeted plans: each round posts its
/// receives, issues its sends, then awaits its arrivals before the next
/// round begins, so at most one round of staging (plus early next-round
/// arrivals, which the planner's stepped peak already charges) is live
/// per processor — the footprint bound the budget was checked against.
fn lower_rounds_for_pid(plan: &RedistPlan, pid: usize, salt_base: i64) -> Vec<Stmt> {
    let var = plan.var;
    let mut out = Vec::new();
    for round in &plan.schedule.rounds {
        let mut awaits = Vec::new();
        for t in &round.transfers {
            if t.dst == pid && !t.is_local() {
                assert_eq!(t.secs.len(), 1, "IR lowering requires single-section plans");
                let target = const_sref(var, &t.recv_secs[0]);
                out.push(Stmt::Recv {
                    target: target.clone(),
                    kind: TransferKind::OwnershipValue,
                    name: None,
                    salt: Some(IntExpr::Const(salt_base + t.salt)),
                });
                awaits.push(Stmt::Guarded {
                    rule: BoolExpr::Await(target),
                    body: vec![],
                });
            }
        }
        for t in &round.transfers {
            if t.src == pid && !t.is_local() {
                assert_eq!(t.secs.len(), 1, "IR lowering requires single-section plans");
                out.push(Stmt::Send {
                    sec: const_sref(var, &t.secs[0]),
                    kind: TransferKind::OwnershipValue,
                    dest: DestSet::Pids(vec![IntExpr::Const(t.dst as i64)]),
                    salt: Some(IntExpr::Const(salt_base + t.salt)),
                });
            }
        }
        out.extend(awaits);
    }
    out
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The finest segment tiling under which every ownership boundary of every
/// given distribution falls on a tile edge. Per dimension: the gcd of all
/// owned-triplet cut points (strided ownership forces per-element tiles).
pub fn compatible_segment_shape(bounds: &[Triplet], dists: &[&Distribution]) -> Vec<i64> {
    let rank = bounds.len();
    let mut tile = vec![0i64; rank];
    let mut force_one = vec![false; rank];
    for dist in dists {
        for pid in 0..dist.nprocs() {
            for d in 0..rank {
                for t in dist.owned_triplets(bounds, pid, d) {
                    if t.is_empty() {
                        continue;
                    }
                    if t.st != 1 {
                        force_one[d] = true;
                        continue;
                    }
                    for cut in [t.lb - bounds[d].lb, t.ub + 1 - bounds[d].lb] {
                        if cut > 0 {
                            tile[d] = gcd(tile[d], cut);
                        }
                    }
                }
            }
        }
    }
    (0..rank)
        .map(|d| {
            if force_one[d] {
                1
            } else if tile[d] == 0 {
                bounds[d].count()
            } else {
                tile[d]
            }
        })
        .collect()
}

/// If the program redistributes any arrays, return a copy whose declarations
/// carry segment shapes fine enough that every planned transfer moves whole
/// segments (combined by gcd with any explicit shape). `None` if the
/// program has no `redistribute` statements.
pub fn prepare(p: &Program) -> Option<Program> {
    let mut targets: BTreeMap<VarId, Vec<Distribution>> = BTreeMap::new();
    p.visit(&mut |s| {
        if let Stmt::Redistribute { var, dist } = s {
            targets.entry(*var).or_default().push(dist.clone());
        }
    });
    if targets.is_empty() {
        return None;
    }
    let mut q = p.clone();
    for (var, mut dists) in targets {
        let d = &mut q.decls[var.index()];
        if let Some(base) = &d.dist {
            dists.push(base.clone());
        }
        let refs: Vec<&Distribution> = dists.iter().collect();
        let mut shape = compatible_segment_shape(&d.bounds, &refs);
        if let Some(old) = &d.segment_shape {
            shape = shape
                .iter()
                .zip(old)
                .map(|(&a, &b)| gcd(a, b).max(1))
                .collect();
        }
        d.segment_shape = Some(shape);
    }
    Some(q)
}

/// [`prepare`] for the shared-program executors: returns the input `Arc`
/// unchanged when no redistribution occurs.
pub fn prepare_arc(p: Arc<Program>) -> Arc<Program> {
    match prepare(&p) {
        Some(q) => Arc::new(q),
        None => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_lockstep;
    use xdp_ir::{DimDist, ProcGrid};

    const V: VarId = VarId(0);

    fn block(n: usize) -> Distribution {
        Distribution::new(vec![DimDist::Block], ProcGrid::linear(n))
    }

    fn cyclic(n: usize) -> Distribution {
        Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(n))
    }

    #[test]
    fn block_to_cyclic_pieces_are_strided_rects() {
        let bounds = [Triplet::range(1, 16)];
        let pieces = redistribution_pieces(&bounds, &block(4), &cyclic(4));
        // Every (src, dst) pair meets in exactly one strided rect.
        assert_eq!(pieces.len(), 16);
        let total: i64 = pieces.iter().map(|p| p.sec.volume()).sum();
        assert_eq!(total, 16, "pieces partition the array");
        for p in &pieces {
            assert_eq!(p.sec.volume(), 1, "block 4 x cyclic 4 over 16: singletons");
        }
    }

    #[test]
    fn block_remap_pieces_vectorize() {
        // (BLOCK) over 4 -> (BLOCK) over 4 with reversed pid mapping is not
        // expressible; use rank-2 transpose-style remap instead.
        let bounds = [Triplet::range(1, 8), Triplet::range(1, 8)];
        let src = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
        let dst = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let pieces = redistribution_pieces(&bounds, &src, &dst);
        assert_eq!(pieces.len(), 16, "one rect per processor pair");
        assert_eq!(pieces.iter().map(|p| p.sec.volume()).sum::<i64>(), 64);
    }

    #[test]
    fn plans_execute_identically_and_match_dst_ownership() {
        let bounds = [Triplet::range(1, 8), Triplet::range(1, 8)];
        let bsec = Section::new(bounds.to_vec());
        let src = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
        let dst = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let model = CostModel::default_1993();

        // Global value at (i,j) = its row-major ordinal; each pid starts
        // with values only on its src-owned cells.
        let init: Vec<Vec<f64>> = (0..4)
            .map(|p| {
                let mut v = vec![f64::NAN; 64];
                for rect in src.owned_rects(&bounds, p) {
                    for pt in rect.iter() {
                        let o = bsec.ordinal_of(&pt).unwrap() as usize;
                        v[o] = o as f64;
                    }
                }
                v
            })
            .collect();

        let mut results = Vec::new();
        for (require_single, topo) in [(true, Topology::Uniform), (false, Topology::Linear)] {
            let pl = plan(V, &bounds, 8, &src, &dst, &model, &topo, require_single);
            let mut data = init.clone();
            run_lockstep(&pl.schedule, &bsec, &mut data).unwrap();
            // Every dst-owned cell holds the right global value.
            for (p, local) in data.iter().enumerate() {
                for rect in dst.owned_rects(&bounds, p) {
                    for pt in rect.iter() {
                        let o = bsec.ordinal_of(&pt).unwrap() as usize;
                        assert_eq!(local[o], o as f64, "pid {p} cell {pt:?}");
                    }
                }
            }
            results.push(data);
        }
        // Strategies agree on dst-owned data (checked above for both).
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn high_alpha_linear_machine_prefers_staging() {
        let bounds = [Triplet::range(1, 64)];
        let (src, dst) = (block(8), cyclic(8));
        // Bandwidth-bound machine: per-message costs negligible, so the
        // extra forwarded bytes of staging can never pay off.
        let cheap_msgs = CostModel {
            alpha: 0.1,
            cpu_overhead: 0.1,
            ..CostModel::default_1993()
        };
        let dear_msgs = CostModel {
            alpha: 10_000.0,
            ..CostModel::default_1993()
        };
        let direct = plan(
            V,
            &bounds,
            8,
            &src,
            &dst,
            &cheap_msgs,
            &Topology::Uniform,
            false,
        );
        assert_eq!(direct.strategy, Strategy::DirectPairwise);
        let staged = plan(
            V,
            &bounds,
            8,
            &src,
            &dst,
            &dear_msgs,
            &Topology::Linear,
            false,
        );
        assert_eq!(staged.strategy, Strategy::StagedBruck);
        assert_eq!(direct.alternatives.len(), 2);
        assert!(staged.predicted < staged.alternatives[0].1);
        assert_eq!(direct.moved_elems, staged.moved_elems);
    }

    #[test]
    fn budgeted_plan_fits_and_infeasible_names_smallest() {
        let bounds = [Triplet::range(1, 32), Triplet::range(1, 32)];
        let src = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
        let dst = Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(4));
        let model = CostModel::default_1993();
        let topo = Topology::Uniform;
        let free = plan(V, &bounds, 8, &src, &dst, &model, &topo, true);
        assert!(!free.synchronized);
        assert!(free.peak_bytes > 0);
        assert!(!free.frontier.is_empty());

        // A budget at half the unbounded footprint forces a slimmer plan
        // that still fits it.
        let tight = model.with_mem_budget(free.peak_bytes / 2);
        let p = try_plan(V, &bounds, 8, &src, &dst, &tight, &topo, true).unwrap();
        assert!(p.synchronized);
        assert!(
            p.peak_bytes <= free.peak_bytes / 2,
            "{} > {}",
            p.peak_bytes,
            free.peak_bytes / 2
        );
        assert!(p.frontier.iter().any(|f| f.chosen));

        // An impossible budget errors, naming the smallest feasible one —
        // which then succeeds.
        let e = try_plan(
            V,
            &bounds,
            8,
            &src,
            &dst,
            &model.with_mem_budget(1),
            &topo,
            true,
        )
        .unwrap_err();
        let PlanError::NoPlanFits {
            smallest_feasible, ..
        } = e;
        assert!(smallest_feasible > 1);
        let relaxed = model.with_mem_budget(smallest_feasible);
        let fallback = try_plan(V, &bounds, 8, &src, &dst, &relaxed, &topo, true).unwrap();
        assert!(fallback.peak_bytes <= smallest_feasible);
        // The infallible entry point degrades to that same smallest-peak
        // plan instead of failing.
        let degraded = plan(
            V,
            &bounds,
            8,
            &src,
            &dst,
            &model.with_mem_budget(1),
            &topo,
            true,
        );
        assert_eq!(degraded.peak_bytes, fallback.peak_bytes);
    }

    #[test]
    fn frontier_is_dominated_free_and_budget_none_is_unchanged() {
        let bounds = [Triplet::range(1, 64)];
        let model = CostModel::default_1993();
        let free = plan(
            V,
            &bounds,
            8,
            &block(8),
            &cyclic(8),
            &model,
            &Topology::Uniform,
            false,
        );
        // Unbudgeted planning still only weighs the two historical
        // candidates.
        assert_eq!(free.alternatives.len(), 2);
        let budgeted = plan(
            V,
            &bounds,
            8,
            &block(8),
            &cyclic(8),
            &model.with_mem_budget(u64::MAX),
            &Topology::Uniform,
            false,
        );
        assert!(budgeted.alternatives.len() > 2, "full catalog enumerated");
        for a in &budgeted.frontier {
            for b in &budgeted.frontier {
                let dominates = (a.predicted <= b.predicted && a.peak_bytes < b.peak_bytes)
                    || (a.predicted < b.predicted && a.peak_bytes <= b.peak_bytes);
                assert!(!dominates, "{:?} dominates {:?}", a.strategy, b.strategy);
            }
        }
    }

    #[test]
    fn same_distribution_plans_to_nothing() {
        let bounds = [Triplet::range(1, 16)];
        let pl = plan(
            V,
            &bounds,
            8,
            &block(4),
            &block(4),
            &CostModel::default_1993(),
            &Topology::Uniform,
            true,
        );
        assert_eq!(pl.schedule.message_count(), 0);
        assert_eq!(pl.predicted, 0.0);
        assert_eq!(pl.moved_elems, 0);
    }

    #[test]
    fn segment_shapes_cover_all_boundaries() {
        let bounds = [Triplet::range(1, 16)];
        // block over 4 alone: tile 4.
        assert_eq!(compatible_segment_shape(&bounds, &[&block(4)]), vec![4]);
        // block over 4 and over 8 together: gcd(4, 2) = 2.
        assert_eq!(
            compatible_segment_shape(&bounds, &[&block(4), &block(8)]),
            vec![2]
        );
        // cyclic forces per-element tiles.
        assert_eq!(
            compatible_segment_shape(&bounds, &[&block(4), &cyclic(4)]),
            vec![1]
        );
    }

    #[test]
    fn lowering_emits_sends_recvs_awaits() {
        let bounds = [Triplet::range(1, 16)];
        let pl = plan(
            V,
            &bounds,
            8,
            &block(4),
            &cyclic(4),
            &CostModel::default_1993(),
            &Topology::Uniform,
            true,
        );
        for pid in 0..4 {
            let stmts = lower_redistribute_for_pid(&pl, pid, 1_000_000);
            let sends = stmts
                .iter()
                .filter(|s| matches!(s, Stmt::Send { .. }))
                .count();
            let recvs = stmts
                .iter()
                .filter(|s| matches!(s, Stmt::Recv { .. }))
                .count();
            let awaits = stmts
                .iter()
                .filter(|s| matches!(s, Stmt::Guarded { .. }))
                .count();
            assert_eq!(
                sends,
                pl.schedule.transfers().filter(|t| t.src == pid).count()
            );
            assert_eq!(
                recvs,
                pl.schedule.transfers().filter(|t| t.dst == pid).count()
            );
            assert_eq!(awaits, recvs);
            // Receives come first (pre-posted), awaits last.
            let first_send = stmts.iter().position(|s| matches!(s, Stmt::Send { .. }));
            let last_recv = stmts.iter().rposition(|s| matches!(s, Stmt::Recv { .. }));
            if let (Some(fs), Some(lr)) = (first_send, last_recv) {
                assert!(lr < fs);
            }
        }
    }
}
