//! The §4 example: a distributed 3-D FFT with ownership redistribution.
//!
//! The array `A[1:n,1:n,1:n]` (complex) starts `(*,*,BLOCK)` over a linear
//! array of `P` processors, so the 1-D FFTs along dimensions 2 and 1 are
//! local; the array is then *redistributed* to `(*,BLOCK,*)` purely by XDP
//! ownership transfer (`-=>` / `<=-`), after which the dimension-3 FFTs are
//! local again. Local storage is segmented into single columns
//! (`(n,1,1)`), the granularity of the redistribution — exactly the
//! paper's "4 consecutive array elements" for its `4x4x4` example.
//!
//! Five derivation stages are provided, mirroring §4 plus the §3.2
//! receive-preposting refinement:
//!
//! * [`Stage::V0Naive`] — every loop fully guarded by `iown` compute rules.
//! * [`Stage::V1Localized`] — compute rules eliminated, loop bounds
//!   contracted to `mylb`/`myub` (the paper's second listing).
//! * [`Stage::V2Fused`] — the dimension-1 FFT loop fused with the
//!   ownership-send loop, pipelining the redistribution behind compute.
//! * [`Stage::V3AwaitSunk`] — the pre-FFT `await` pushed to per-row-slab
//!   granularity so dimension-3 FFTs start as soon as *their* slab has
//!   arrived.
//! * [`Stage::V4PrePosted`] — remote ownership receives posted before any
//!   computation, so transfers complete while the dimension-1/2 FFTs run.
//! * [`Stage::V5Planned`] — the per-column migration loops replaced by a
//!   single `redistribute` statement: the `xdp-collectives` planner turns
//!   the `(*,*,BLOCK) -> (*,BLOCK,*)` remap into a vectorized,
//!   destination-bound schedule of `P(P-1)` plane-exchange messages.
//!
//! Generalization note: the paper's `4x4x4`-on-4 example owns one plane per
//! processor, letting its Loop3 guard the receives with `iown(A[*,*,p])`
//! evaluated before the sends of the same iteration. With several planes
//! per processor that guard would race its own earlier sends, so the
//! receive loop here is guarded by an *alignment witness* — an untouched
//! integer array `OWN[1:n]` block-distributed like the redistribution
//! target — which is standard compiler practice and pure IL+XDP. For
//! `n == P` the verbatim paper listing is also provided
//! ([`paper_listing_v0`]) and tested.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use xdp_compiler::passes::SinkAwait;
use xdp_compiler::Pass;
use xdp_core::{AsyncExec, ExecReport, Machine, MachineConfig, RtError, SimExec};
use xdp_ir::build as b;
use xdp_ir::{
    BoolExpr, CmpOp, DimDist, Distribution, ElemType, IntExpr, ProcGrid, Program, SectionRef, Stmt,
    VarId,
};
use xdp_runtime::{Complex, Value};

/// Problem size.
#[derive(Clone, Copy, Debug)]
pub struct Fft3dConfig {
    /// Cube edge; a power of two.
    pub n: i64,
    /// Processors; must divide `n`.
    pub nprocs: usize,
}

impl Fft3dConfig {
    /// Validated constructor.
    pub fn new(n: i64, nprocs: usize) -> Fft3dConfig {
        assert!((n as u64).is_power_of_two(), "n={n} must be a power of two");
        assert!(n % nprocs as i64 == 0, "P={nprocs} must divide n={n}");
        Fft3dConfig { n, nprocs }
    }
}

/// The §4 derivation stages, plus the §3.2 receive-preposting refinement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    V0Naive,
    V1Localized,
    V2Fused,
    V3AwaitSunk,
    /// §3.2: "it is generally desirable to move the XDP receive statements
    /// as early in the program as possible" — the remote ownership
    /// receives are posted before any computation, so transfers complete
    /// during the dimension-1/2 FFTs.
    V4PrePosted,
    /// The migration loops replaced by one planned `redistribute`
    /// statement (the `xdp-collectives` planner emits the message
    /// schedule).
    V5Planned,
    /// No hand-chosen placements at all: the `xdp-place` search picks
    /// the per-phase distributions from the cost model and the program
    /// is emitted for whatever it chose (see [`build_auto`]).
    V6Auto,
}

impl Stage {
    /// All stages in derivation order.
    pub fn all() -> [Stage; 7] {
        [
            Stage::V0Naive,
            Stage::V1Localized,
            Stage::V2Fused,
            Stage::V3AwaitSunk,
            Stage::V4PrePosted,
            Stage::V5Planned,
            Stage::V6Auto,
        ]
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::V0Naive => "v0-naive",
            Stage::V1Localized => "v1-localized",
            Stage::V2Fused => "v2-fused",
            Stage::V3AwaitSunk => "v3-await-sunk",
            Stage::V4PrePosted => "v4-preposted",
            Stage::V5Planned => "v5-planned",
            Stage::V6Auto => "v6-auto",
        }
    }
}

/// Ids of the arrays declared by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct Fft3dVars {
    /// The data cube.
    pub a: VarId,
    /// The alignment witness for the redistribution target.
    pub own: VarId,
}

/// Declare the cube `(*,*,BLOCK)` in `(seg_rows,1,1)` segments, and the
/// witness.
fn declare(cfg: Fft3dConfig, p: &mut Program, seg_rows: i64) -> Fft3dVars {
    let n = cfg.n;
    let grid = ProcGrid::linear(cfg.nprocs);
    let a = p.declare(b::array_seg(
        "A",
        ElemType::C64,
        vec![(1, n), (1, n), (1, n)],
        vec![DimDist::Star, DimDist::Star, DimDist::Block],
        grid,
        vec![seg_rows, 1, 1],
    ));
    Fft3dVars {
        a,
        own: declare_witness(cfg, p),
    }
}

fn declare_witness(cfg: Fft3dConfig, p: &mut Program) -> VarId {
    p.declare(b::array(
        "OWN",
        ElemType::I64,
        vec![(1, cfg.n)],
        vec![DimDist::Block],
        ProcGrid::linear(cfg.nprocs),
    ))
}

/// The inclusive bounds of a unit-step loop.
type Range = (IntExpr, IntExpr);

/// `do var = lo, hi { body }`, every iteration under `rule` when given.
fn sweep(var: &str, (lo, hi): Range, rule: Option<BoolExpr>, body: Vec<Stmt>) -> Stmt {
    let body = match rule {
        Some(rule) => vec![b::guarded(rule, body)],
        None => body,
    };
    b::do_loop(var, lo, hi, body)
}

/// §4's five loop nests over the cube `a`, each written once. A stage is a
/// choice of range and compute rule for each: `1:n` under an `iown` guard
/// (v0), the owned `mylb:myub` range (v1 on), or the witness's range.
struct Nests {
    a: VarId,
    n: i64,
}

impl Nests {
    /// The whole extent of a dimension, `1:n`.
    fn full(&self) -> Range {
        (b::c(1), b::c(self.n))
    }

    /// The range of dimension `d` this processor owns of `x`.
    fn owned(x: &SectionRef, d: u32) -> Range {
        (b::mylb(x.clone(), d), b::myub(x.clone(), d))
    }

    /// `A[s1,s2,s3]` where `Some(v)` is the point `v` and `None` is `*`.
    fn at(&self, subs: [Option<&str>; 3]) -> SectionRef {
        let sub = |s: Option<&str>| s.map_or(b::all(), |v| b::at(b::iv(v)));
        b::sref(self.a, subs.map(sub).to_vec())
    }

    /// `A[*,lo:hi,*]`: the row-slabs `slabs`, as one section.
    fn slabs(&self, (lo, hi): Range) -> SectionRef {
        b::sref(self.a, vec![b::all(), b::span(lo, hi), b::all()])
    }

    /// Dimension-2 FFTs: the rows `rows` of each plane `k` in `planes`.
    fn fft_dim2(&self, planes: Range, rule: Option<BoolExpr>, rows: Range) -> Stmt {
        let row = self.at([Some("i"), None, Some("k")]);
        let ffts = sweep("i", rows, None, vec![b::kernel("fft1d", vec![row])]);
        sweep("k", planes, rule, vec![ffts])
    }

    /// Dimension-1 FFTs: the columns `cols` of each plane `k` in `planes`,
    /// each followed by `then` (the fused stages send it straight away).
    fn fft_dim1(
        &self,
        planes: Range,
        rule: Option<BoolExpr>,
        cols: Range,
        then: Option<Stmt>,
    ) -> Stmt {
        let col = self.at([None, Some("j"), Some("k")]);
        let mut body = vec![b::kernel("fft1d", vec![col])];
        body.extend(then);
        sweep("k", planes, rule, vec![sweep("j", cols, None, body)])
    }

    /// Send away, value and ownership, every column of plane `plane`.
    fn send_columns(&self, plane: &str) -> Stmt {
        let col = self.at([None, Some("nn"), Some(plane)]);
        sweep("nn", self.full(), None, vec![b::send_own_val(col)])
    }

    /// Receive the columns `cols` of row-slab `slab`, each under `rule`.
    fn recv_columns(&self, slab: &str, cols: Range, rule: Option<BoolExpr>) -> Stmt {
        let col = self.at([None, Some(slab), Some("nn")]);
        sweep("nn", cols, rule, vec![b::recv_own_val(col)])
    }

    /// Dimension-3 FFTs: the lines `rows` of each row-slab `j` in `slabs`.
    fn fft_dim3(&self, slabs: Range, rule: Option<BoolExpr>, rows: Range) -> Stmt {
        let line = self.at([Some("i"), Some("j"), None]);
        let ffts = sweep("i", rows, None, vec![b::kernel("fft1d", vec![line])]);
        sweep("j", slabs, rule, vec![ffts])
    }

    /// The per-slab compute rule of the dimension-3 FFTs: `await(A[*,j,*])`.
    fn slab_arrived(&self) -> Option<BoolExpr> {
        Some(b::await_(self.at([None, Some("j"), None])))
    }
}

/// Build the IL+XDP program for one derivation stage.
pub fn build(cfg: Fft3dConfig, stage: Stage) -> (Program, Fft3dVars) {
    match stage {
        Stage::V6Auto => return build_auto(cfg),
        // §4's last step is the one the compiler already derives bit for
        // bit: v3 is v2 with the pre-FFT `await` sunk to per-row-slab
        // granularity, so FFTs start as soon as slab j is in. (v1 and v2
        // are not yet `LocalizeBounds(v0)` and `FuseLoops(v1)`: DESIGN
        // §2.7 records the gap.)
        Stage::V3AwaitSunk => {
            let (v2, vars) = build(cfg, Stage::V2Fused);
            return (SinkAwait.run(&v2).program, vars);
        }
        _ => {}
    }
    let mut p = Program::new();
    let vars = declare(cfg, &mut p, cfg.n);
    let nests = Nests {
        a: vars.a,
        n: cfg.n,
    };
    let full = || nests.full();
    // Localized k bounds: the owned plane range. Localized j bounds: the
    // owned row-slab range (via the witness).
    let k = || Nests::owned(&nests.at([None, None, None]), 3);
    let own_all = b::sref(vars.own, vec![b::all()]);
    let j = || Nests::owned(&own_all, 1);
    let send_column = || Some(b::send_own_val(nests.at([None, Some("j"), Some("k")])));
    let recv_slabs = |slabs, rule, cols, col_rule| {
        sweep(
            "j",
            slabs,
            rule,
            vec![nests.recv_columns("j", cols, col_rule)],
        )
    };
    // One await over the whole incoming slab range, then every FFT.
    let fft_dim3_after_all = || {
        b::guarded(
            b::await_(nests.slabs(j())),
            vec![nests.fft_dim3(j(), None, full())],
        )
    };

    p.body = match stage {
        Stage::V6Auto | Stage::V3AwaitSunk => unreachable!("built above"),
        Stage::V0Naive => {
            let my_plane = || Some(b::iown(nests.at([None, None, Some("k")])));
            let my_slab = Some(b::iown(b::sref(vars.own, vec![b::at(b::iv("j"))])));
            vec![
                nests.fft_dim2(full(), my_plane(), full()),
                nests.fft_dim1(full(), my_plane(), full(), None),
                // Redistribute: send every owned column, then receive the
                // target row-slab (witness-guarded).
                sweep("k", full(), my_plane(), vec![nests.send_columns("k")]),
                recv_slabs(full(), my_slab, full(), None),
                nests.fft_dim3(full(), nests.slab_arrived(), full()),
            ]
        }
        Stage::V1Localized => vec![
            nests.fft_dim2(k(), None, full()),
            nests.fft_dim1(k(), None, full(), None),
            sweep("k", k(), None, vec![nests.send_columns("k")]),
            recv_slabs(j(), None, full(), None),
            fft_dim3_after_all(),
        ],
        Stage::V2Fused => vec![
            nests.fft_dim2(k(), None, full()),
            // Fused: FFT a column, immediately send it away.
            nests.fft_dim1(k(), None, full(), send_column()),
            recv_slabs(j(), None, full(), None),
            fft_dim3_after_all(),
        ],
        Stage::V4PrePosted => {
            // Remote receives first (§3.2), then compute with fused sends,
            // then the self-column receives, then per-slab awaited FFTs.
            // The witness gives the k-block range without consulting A,
            // whose symbol table now holds preposted placeholders.
            let (wklo, wkhi) = j();
            let remote = BoolExpr::Or(
                Box::new(b::cmp(CmpOp::Lt, b::iv("nn"), wklo)),
                Box::new(b::cmp(CmpOp::Gt, b::iv("nn"), wkhi)),
            );
            vec![
                recv_slabs(j(), None, full(), Some(remote)),
                nests.fft_dim2(j(), None, full()),
                nests.fft_dim1(j(), None, full(), send_column()),
                // Self columns: receivable only after the sends above.
                recv_slabs(j(), None, j(), None),
                nests.fft_dim3(j(), nests.slab_arrived(), full()),
            ]
        }
        Stage::V5Planned => vec![
            // Dimension-2 then dimension-1 FFTs, local under (*,*,BLOCK).
            nests.fft_dim2(k(), None, full()),
            nests.fft_dim1(k(), None, full(), None),
            // The whole migration, as one planned statement.
            b::redistribute(
                vars.a,
                Distribution::new(
                    vec![DimDist::Star, DimDist::Block, DimDist::Star],
                    ProcGrid::linear(cfg.nprocs),
                ),
            ),
            // Dimension-3 FFTs, local under (*,BLOCK,*). The witness gives
            // the owned row-slab range.
            nests.fft_dim3(j(), None, full()),
        ],
    };
    (p, vars)
}

/// The §4 FFT with *arbitrary* per-phase placements: dimension-2/-1 FFT
/// sweeps under `d1`, one `redistribute` to `d2` (omitted when the
/// placements agree), dimension-3 FFT sweeps under `d2`. Every loop is
/// bounded by `mylb`/`myub` on its own dimension, which adapts uniformly
/// to the placement: a `BLOCK` dimension contracts to the owned range, a
/// `*` dimension spans `1:n`, and under a collapsed placement every
/// non-owner sees an empty range and idles. `d1` must keep dimensions 1
/// and 2 local and `d2` dimension 3, or the FFT rows would straddle
/// processors; `CYCLIC` is rejected because an owned range is then not
/// contiguous.
pub fn build_planned(cfg: Fft3dConfig, d1: Distribution, d2: Distribution) -> (Program, Fft3dVars) {
    let n = cfg.n;
    for d in [&d1, &d2] {
        assert!(
            d.dims()
                .iter()
                .all(|x| matches!(x, DimDist::Star | DimDist::Block)),
            "build_planned needs contiguous owned ranges, got {d}"
        );
    }
    assert!(!d1.dims()[0].is_distributed() && !d1.dims()[1].is_distributed());
    assert!(!d2.dims()[2].is_distributed());
    let mut p = Program::new();
    let a = p.declare(xdp_ir::Decl {
        name: "A".into(),
        elem: ElemType::C64,
        bounds: vec![xdp_ir::Triplet::range(1, n); 3],
        ownership: xdp_ir::Ownership::Exclusive,
        dist: Some(d1.clone()),
        segment_shape: None,
    });
    let own = declare_witness(cfg, &mut p);
    let nests = Nests { a, n };
    let mine = |d| Nests::owned(&nests.at([None, None, None]), d);

    p.body = vec![
        nests.fft_dim2(mine(3), None, mine(1)),
        nests.fft_dim1(mine(3), None, mine(2), None),
    ];
    if d2 != d1 {
        p.body.push(b::redistribute(a, d2));
    }
    p.body.push(nests.fft_dim3(mine(2), None, mine(1)));
    (p, Fft3dVars { a, own })
}

/// [`Stage::V6Auto`]: run the `xdp-place` search over the v5 program's
/// phase graph and emit the FFT for whatever placements it chose. At
/// small sizes the 1993 model's message latency dominates and the search
/// legitimately serializes (collapsed placement, zero messages); from
/// `n = 16` on it picks orthogonal block placements like the paper.
pub fn build_auto(cfg: Fft3dConfig) -> (Program, Fft3dVars) {
    let (placed, _) = plan_auto(cfg);
    let ch = &placed.placement.choices;
    build_planned(cfg, ch[0].dist.clone(), ch[1].dist.clone())
}

/// The raw `xdp-place` decision for the §4 FFT: the placement report and
/// the v5 program it was derived from.
pub fn plan_auto(cfg: Fft3dConfig) -> (xdp_place::Placed, Program) {
    let (v5, _) = build(cfg, Stage::V5Planned);
    let placed = xdp_place::optimize(&v5, &xdp_place::PlaceOptions::default())
        .expect("fft3d has a distributed anchor with compute");
    assert_eq!(
        placed.placement.choices.len(),
        2,
        "the FFT splits into two phases"
    );
    (placed, v5)
}

/// A v2-style program whose redistribution moves *sub-column chunks* of
/// `chunk` elements — the §3.1 segment-granularity trade-off. Small chunks
/// pipeline finer (more overlap) but pay per-message costs; large chunks
/// amortize the latency but serialize. Segment shape is `(chunk,1,1)`.
pub fn build_chunked(cfg: Fft3dConfig, chunk: i64) -> (Program, Fft3dVars) {
    assert!(cfg.n % chunk == 0, "chunk must divide n");
    let mut p = Program::new();
    let vars = declare(cfg, &mut p, chunk);
    let nests = Nests {
        a: vars.a,
        n: cfg.n,
    };
    let full = || nests.full();
    let k = || Nests::owned(&nests.at([None, None, None]), 3);
    let j = || Nests::owned(&b::sref(vars.own, vec![b::all()]), 1);
    // Chunk `c` of a column: rows (c-1)*chunk+1 .. c*chunk of dimension 1,
    // sent from plane `k` and received into plane `nn`.
    let chunks = |plane: &str, transfer: fn(SectionRef) -> Stmt| {
        let c0 = b::iv("c").sub(b::c(1)).mul(b::c(chunk)).add(b::c(1));
        let c1 = b::iv("c").mul(b::c(chunk));
        let sub = b::sref(
            vars.a,
            vec![b::span(c0, c1), b::at(b::iv("j")), b::at(b::iv(plane))],
        );
        b::do_loop("c", b::c(1), b::c(cfg.n / chunk), vec![transfer(sub)])
    };
    let recv_chunks = sweep("nn", full(), None, vec![chunks("nn", b::recv_own_val)]);
    p.body = vec![
        nests.fft_dim2(k(), None, full()),
        // Fused compute + chunked ownership sends.
        nests.fft_dim1(k(), None, full(), Some(chunks("k", b::send_own_val))),
        sweep("j", j(), None, vec![recv_chunks]),
        nests.fft_dim3(j(), nests.slab_arrived(), full()),
    ];
    (p, vars)
}

/// The verbatim §4 first listing (valid only for one plane per processor,
/// i.e. `n == P`): Loop3 guards the receives with the pre-send
/// `iown(A[*,*,p])` exactly as printed.
pub fn paper_listing_v0(cfg: Fft3dConfig) -> (Program, Fft3dVars) {
    assert_eq!(cfg.n, cfg.nprocs as i64, "paper listing requires n == P");
    let mut p = Program::new();
    let vars = declare(cfg, &mut p, cfg.n);
    let nests = Nests {
        a: vars.a,
        n: cfg.n,
    };
    let full = || nests.full();
    let my_plane = |v| Some(b::iown(nests.at([None, None, Some(v)])));
    p.body = vec![
        nests.fft_dim2(full(), my_plane("k"), full()),
        nests.fft_dim1(full(), my_plane("k"), full(), None),
        sweep(
            "p",
            full(),
            my_plane("p"),
            vec![
                nests.send_columns("p"),
                nests.recv_columns("p", full(), None),
            ],
        ),
        nests.fft_dim3(full(), nests.slab_arrived(), full()),
    ];
    (p, vars)
}

/// Seeded random input cube, row-major `(i, j, k)` over `1..=n` each.
pub fn input_cube(n: i64, seed: u64) -> Vec<Complex> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Row-major offset of global index `(i, j, k)` (1-based).
pub fn cube_ordinal(n: i64, idx: &[i64]) -> usize {
    (((idx[0] - 1) * n + (idx[1] - 1)) * n + (idx[2] - 1)) as usize
}

/// Execute one stage on the simulator; verifies against the sequential
/// 3-D FFT and returns the execution report.
pub fn run_stage(
    cfg: Fft3dConfig,
    stage: Stage,
    sim: MachineConfig,
    seed: u64,
) -> Result<ExecReport, RtError> {
    let (program, vars) = build(cfg, stage);
    run_program(cfg, program, vars, sim, seed)
}

/// Execute a 3-D FFT program (from [`build`] or [`paper_listing_v0`]) and
/// verify the result.
pub fn run_program(
    cfg: Fft3dConfig,
    program: Program,
    vars: Fft3dVars,
    sim: MachineConfig,
    seed: u64,
) -> Result<ExecReport, RtError> {
    let exec = SimExec::new(Arc::new(program), crate::fft::app_kernels(), sim);
    run_verified(cfg, vars, exec, seed)
}

/// Load the seeded input cube onto `exec`, run it, and verify the result
/// against the sequential 3-D FFT.
fn run_verified<M: Machine>(
    cfg: Fft3dConfig,
    vars: Fft3dVars,
    mut exec: M,
    seed: u64,
) -> Result<ExecReport, RtError> {
    let n = cfg.n;
    let input = input_cube(n, seed);
    let mut expect = input.clone();
    crate::fft::fft3d_seq(&mut expect, n as usize);

    exec.init_exclusive(vars.a, &|idx| Value::C64(input[cube_ordinal(n, idx)]));
    let report = exec.run_report()?;
    let g = exec.gather(vars.a);
    for i in 1..=n {
        for j in 1..=n {
            for k in 1..=n {
                let got = g
                    .get(&[i, j, k])
                    .unwrap_or_else(|| panic!("A[{i},{j},{k}] unowned"))
                    .as_c64();
                let want = expect[cube_ordinal(n, &[i, j, k])];
                assert!(
                    (got - want).abs() < 1e-6,
                    "fft3d: A[{i},{j},{k}] = {got}, want {want}"
                );
            }
        }
    }
    Ok(report)
}

/// Execute a 3-D FFT stage on the wall-clock task machine and verify
/// against the sequential reference — ownership redistribution under real
/// concurrency.
pub fn run_stage_tasks(cfg: Fft3dConfig, stage: Stage, seed: u64) -> Result<(), RtError> {
    let (program, vars) = build(cfg, stage);
    let exec = AsyncExec::new(
        Arc::new(program),
        crate::fft::app_kernels(),
        MachineConfig::new(cfg.nprocs),
    );
    run_verified(cfg, vars, exec, seed).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_machine::CostModel;

    #[test]
    fn all_stages_compute_the_same_fft() {
        let cfg = Fft3dConfig::new(4, 4);
        let mut times = Vec::new();
        for stage in Stage::all() {
            let r = run_stage(cfg, stage, MachineConfig::new(4), 7).expect("run");
            times.push((stage.label(), r.virtual_time, r.net.messages));
        }
        // The migration stages move the off-diagonal columns one message
        // each: n*n columns transferred. The planner vectorizes each
        // processor pair's columns into one plane message: P*(P-1). At
        // this tiny size message latency dominates the model, so the
        // automatic search legitimately serializes: zero messages.
        for (label, _, msgs) in &times {
            let want = if *label == Stage::V5Planned.label() {
                12
            } else if *label == Stage::V6Auto.label() {
                0
            } else {
                16
            };
            assert_eq!(*msgs, want, "{times:?}");
        }
        // The derivation stages v1-v3 are no slower than naive. v4
        // (receive preposting) pays its posting overhead up front and only
        // wins when communication is slow — checked separately below.
        let t0 = times[0].1;
        for (label, t, _) in &times[1..4] {
            assert!(*t <= t0 * 1.01, "{label}: {t} vs naive {t0}");
        }
    }

    // The critical-path analyzer must attribute 100% of the end-to-end
    // virtual time of the fully derived FFT (the ISSUE acceptance bar),
    // and the planned transpose must be the top-ranked movement cost.
    #[test]
    fn v5_planned_critical_path_attributes_all_time() {
        use xdp_core::TraceConfig;
        let cfg = Fft3dConfig::new(8, 4);
        let (program, vars) = build(cfg, Stage::V5Planned);
        let labels: std::collections::HashMap<u32, String> =
            xdp_ir::pretty::stmt_table(&program).into_iter().collect();
        let sim = MachineConfig::new(4).with_trace(TraceConfig::full());
        let r = run_program(cfg, program, vars, sim, 42).expect("run");
        let cp = r.trace.critical_path(&labels);
        assert!(r.virtual_time > 0.0);
        assert!(
            (cp.attributed() - r.virtual_time).abs() <= 1e-6 * r.virtual_time,
            "attributed {:.3} of {:.3}",
            cp.attributed(),
            r.virtual_time
        );
        // Some wire time must land on the path (the transpose is remote),
        // and the ranking must name the redistribute statement.
        assert!(cp.wire > 0.0);
        let top = &cp.by_stmt[0];
        assert!(top.key.contains("redistribute"), "{}", top.key);
        assert!(cp.by_var.iter().any(|v| v.key == "A"));
    }

    // From n = 16 the compute and transfer volumes outweigh the latency
    // and the automatic search rediscovers the paper's derivation:
    // planes distributed along one FFT-free dimension per phase, with a
    // single planned redistribution between — the same message count as
    // the hand-written v5.
    #[test]
    fn auto_placement_matches_hand_derivation_at_scale() {
        let cfg = Fft3dConfig::new(16, 4);
        let (placed, _) = plan_auto(cfg);
        let ch = &placed.placement.choices;
        assert_eq!(placed.advisory, None, "nothing in v5 pins A");
        assert_eq!(ch[0].dist.dims()[2], DimDist::Block, "{}", ch[0].dist);
        assert!(!ch[0].dist.dims()[0].is_distributed());
        assert!(!ch[0].dist.dims()[1].is_distributed());
        assert!(!ch[1].dist.dims()[2].is_distributed(), "{}", ch[1].dist);
        assert!(
            ch[1].dist.dims()[..2].contains(&DimDist::Block),
            "{}",
            ch[1].dist
        );
        assert!(ch[1].transition > 0.0);
        let r = run_stage(cfg, Stage::V6Auto, MachineConfig::new(4), 9).expect("run");
        assert_eq!(r.net.messages, 12);
    }

    #[test]
    fn multi_plane_per_processor() {
        let cfg = Fft3dConfig::new(8, 2);
        for stage in [
            Stage::V1Localized,
            Stage::V3AwaitSunk,
            Stage::V4PrePosted,
            Stage::V5Planned,
        ] {
            run_stage(cfg, stage, MachineConfig::new(2), 11).expect("run");
        }
    }

    #[test]
    fn paper_listing_matches_generalized_v0() {
        let cfg = Fft3dConfig::new(4, 4);
        let (prog, vars) = paper_listing_v0(cfg);
        let r = run_program(cfg, prog, vars, MachineConfig::new(4), 3).expect("run");
        assert_eq!(r.net.messages, 16);
    }

    #[test]
    fn pipelined_stage_overlaps_communication() {
        // With slow communication, the fused/sunk stages must beat v1.
        let cfg = Fft3dConfig::new(8, 4);
        let slow = CostModel {
            alpha: 2000.0,
            ..CostModel::default_1993()
        };
        let t = |stage| {
            run_stage(cfg, stage, MachineConfig::new(4).with_cost(slow), 5)
                .unwrap()
                .virtual_time
        };
        let (t1, t2, t3) = (
            t(Stage::V1Localized),
            t(Stage::V2Fused),
            t(Stage::V3AwaitSunk),
        );
        assert!(t2 < t1, "fused {t2} < localized {t1}");
        assert!(t3 <= t2 * 1.001, "sunk {t3} <= fused {t2}");
    }

    #[test]
    fn preposting_wins_under_eager_protocol_costs() {
        // §3.2: moving receives early pays when messages would otherwise
        // arrive *unexpected* (fast network, expensive buffering copies).
        let cfg = Fft3dConfig::new(8, 4);
        let eager = CostModel {
            alpha: 50.0,
            unexpected_overhead: 100.0,
            beta: 0.2,
            ..CostModel::default_1993()
        };
        let t = |stage| {
            run_stage(cfg, stage, MachineConfig::new(4).with_cost(eager), 5)
                .unwrap()
                .virtual_time
        };
        let (t3, t4) = (t(Stage::V3AwaitSunk), t(Stage::V4PrePosted));
        assert!(t4 < t3, "preposted {t4} < sunk {t3}");
    }

    #[test]
    fn chunked_redistribution_is_correct() {
        let cfg = Fft3dConfig::new(8, 2);
        for chunk in [1, 2, 4, 8] {
            let (prog, vars) = build_chunked(cfg, chunk);
            let r = run_program(cfg, prog, vars, MachineConfig::new(2), 13)
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
            // 8x8 columns split into 8/chunk pieces each.
            assert_eq!(r.net.messages, (64 * (8 / chunk)) as u64, "chunk {chunk}");
        }
    }

    #[test]
    fn threaded_backend_runs_the_redistribution() {
        // Real threads + rendezvous matching + ownership transfer: the
        // strongest concurrency test in the suite.
        for stage in [Stage::V1Localized, Stage::V3AwaitSunk, Stage::V5Planned] {
            run_stage_tasks(Fft3dConfig::new(8, 4), stage, 21)
                .unwrap_or_else(|e| panic!("{}: {e}", stage.label()));
        }
    }

    #[test]
    #[should_panic]
    fn bad_config_rejected() {
        Fft3dConfig::new(6, 2);
    }
}

#[cfg(test)]
mod stress {
    use super::*;

    /// Large-scale run: a 32^3 cube on 8 processors through the fully
    /// optimized stage, verified against the sequential FFT. Run with
    /// `cargo test --release -p xdp-apps -- --ignored stress`.
    #[test]
    #[ignore = "large; run in release mode"]
    fn fft3d_32cubed_on_8() {
        let cfg = Fft3dConfig::new(32, 8);
        let r = run_stage(cfg, Stage::V3AwaitSunk, MachineConfig::new(8), 1).expect("run");
        assert_eq!(r.net.messages, (32 * 32) as u64);
    }
}
