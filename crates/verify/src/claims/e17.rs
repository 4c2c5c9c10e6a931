//! E17 — memory-bounded redistribution: the planner's peak-bytes
//! dimension at scale, and measured high-water marks under `mem_budget`.
//!
//! Part one sweeps the transpose repartition `(*,BLOCK) -> (BLOCK,*)` —
//! the worst case for redistribution staging memory — at P = 64, 256,
//! and 1024. At every size the budget-aware catalog must produce a
//! non-empty dominated-free time/memory Pareto frontier whose extremes
//! are at least 2x apart in peak bytes; every frontier point, used as a
//! budget, must select a plan that fits it; an impossible budget must
//! fail naming the smallest feasible budget, which must then actually
//! work; and budget-free planning must remain the historical two-entry
//! candidate set with unsynchronized lowering.
//!
//! Part two runs programs and *measures*: the network layer's
//! redistribution high-water mark (live staged bytes under the salted
//! redistribution tags) on the interpreter and the compiled VM must be
//! positive, never exceed the planner's predicted peak, and show the
//! unbounded-vs-bounded gap end to end — an unbudgeted P=64 transpose
//! stages at least 2x the bytes of the same transpose under the
//! smallest feasible budget. The `membound.xdp` corpus program then
//! runs under a budget chosen to make its incommensurate reblock take a
//! K-round dynamic-slice chain, the decomposition that trades rounds
//! for a smaller footprint.
//!
//! The P = 1024 planner leg takes over a minute in a debug build:
//! `tests/paper_claims.rs` ignores it unless asked.

use crate::machine;
use std::sync::Arc;
use xdp_bench::table::{j, Table};
use xdp_collectives::{plan, try_plan, FrontierPoint, PlanError, RedistPlan, Strategy};
use xdp_compiler::{compile, Backend, CompileOptions, SeqMode};
use xdp_core::{KernelRegistry, MachineConfig, MachineKind};
use xdp_ir::build as b;
use xdp_ir::{DimDist, Distribution, ElemType, ProcGrid, Program, Section, Stmt, Triplet, VarId};
use xdp_machine::{CostModel, Topology};
use xdp_runtime::Value;

/// Planner sweep sizes (square N=P transposes).
const SWEEP: &[usize] = &[64, 256, 1024];
/// The measured legs' machine size.
const MEASURED_P: usize = 64;

/// The transpose instance at P processors: `T[1:P,1:P]` from
/// column-blocked to row-blocked, f64 elements.
fn transpose(p: usize) -> (Vec<Triplet>, Distribution, Distribution) {
    let n = p as i64;
    let bounds = vec![Triplet::range(1, n), Triplet::range(1, n)];
    let grid = ProcGrid::linear(p);
    let src = Distribution::new(vec![DimDist::Star, DimDist::Block], grid.clone());
    let dst = Distribution::new(vec![DimDist::Block, DimDist::Star], grid);
    (bounds, src, dst)
}

fn dominated_free(frontier: &[FrontierPoint]) -> bool {
    frontier.iter().all(|a| {
        frontier.iter().all(|b| {
            !((a.predicted <= b.predicted && a.peak_bytes < b.peak_bytes)
                || (a.predicted < b.predicted && a.peak_bytes <= b.peak_bytes))
        })
    })
}

/// An executable transpose program: one array, one redistribute.
fn transpose_program(p: usize) -> Program {
    let n = p as i64;
    let grid = ProcGrid::linear(p);
    let mut prog = Program::new();
    let t = prog.declare(b::array(
        "T",
        ElemType::F64,
        vec![(1, n), (1, n)],
        vec![DimDist::Star, DimDist::Block],
        grid.clone(),
    ));
    prog.body = vec![b::redistribute(
        t,
        Distribution::new(vec![DimDist::Block, DimDist::Star], grid),
    )];
    prog
}

/// The planner's peak bound for a whole program: re-derive each
/// redistribute's plan as the runtime does (tracking the current
/// distribution per array) and sum the peaks.
fn predicted_peak(p: &Program, cost: &CostModel, topo: &Topology) -> u64 {
    let mut cur: std::collections::HashMap<VarId, Distribution> = std::collections::HashMap::new();
    let mut total = 0u64;
    p.visit(&mut |s| {
        let Stmt::Redistribute { var, dist } = s else {
            return;
        };
        let decl = p.decl(*var);
        let src = cur
            .get(var)
            .or(decl.dist.as_ref())
            .cloned()
            .expect("redistributed array is distributed");
        cur.insert(*var, dist.clone());
        total += plan(
            *var,
            &decl.bounds,
            decl.elem.size_bytes(),
            &src,
            dist,
            cost,
            topo,
            true,
        )
        .peak_bytes;
    });
    total
}

/// Run `prog` on the simulator `cfg` describes (deterministic per-element
/// init, as the conformance suites use) and return the measured
/// redistribution high-water mark (bytes).
fn measure(label: &str, backend: Backend, prog: &Arc<Program>, cfg: MachineConfig) -> u64 {
    let kernels = KernelRegistry::standard();
    let mut exec = machine(MachineKind::Sim, backend, prog.clone(), kernels, cfg);
    for (i, d) in prog.decls.iter().enumerate() {
        if d.is_exclusive() {
            let full = Section::new(d.bounds.clone());
            exec.init_exclusive(VarId(i as u32), &move |idx| {
                Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
            });
        }
    }
    let report = exec.run_report().unwrap_or_else(|e| panic!("{label}: {e}"));
    report.net.redist_peak_bytes
}

/// At P = 64, 256 and 1024 budget-free planning keeps its two-entry
/// candidate set; the full catalog's frontier is dominated-free with one
/// chosen point and extremes ≥ 2× apart in peak bytes; every frontier
/// peak used as a budget selects a plan that fits it, slower as it
/// shrinks; a 1-byte budget fails naming the slimmest peak, which fits.
/// Measured high-water marks on both backends are positive and within
/// the predicted peak, unbudgeted ≥ 2× the smallest feasible budget's;
/// `membound.xdp` under its dynamic-slice point's budget runs a slice
/// chain within its predicted peak.
pub fn e17() -> Vec<Table> {
    // Part one: the planner sweep. Budget probes re-enumerate the whole
    // catalog, so the per-point replay runs at the small sizes and the
    // P=1024 leg keeps to three catalog builds.
    let mut t1 = Table::new(
        "E17: transpose (*,BLOCK)->(BLOCK,*) Pareto frontier at scale",
        &[
            "nprocs",
            "frontier",
            "fastest",
            "peak_B",
            "slimmest",
            "peak_B",
            "smallest_feasible_B",
        ],
    );
    for &p in SWEEP {
        // Budget-free planning stays the historical candidate set.
        let (bounds, src, dst) = transpose(p);
        let free = plan(
            VarId(0),
            &bounds,
            8,
            &src,
            &dst,
            &CostModel::default_1993(),
            &Topology::Uniform,
            true,
        );
        assert!(
            !free.synchronized
                && free.alternatives.len() <= 2
                && matches!(
                    free.strategy,
                    Strategy::DirectPairwise | Strategy::StagedBruck
                ),
            "E17: P={p}: budget-free planning changed shape"
        );
        // The full catalog under an unlimited budget.
        let full = plan_transpose(p, u64::MAX).expect("unlimited budget always fits");
        let fr = &full.frontier;
        assert!(
            !fr.is_empty() && fr.iter().filter(|f| f.chosen).count() == 1 && dominated_free(fr),
            "E17: P={p}: frontier empty, multi-chosen, or dominated"
        );
        let fastest = fr.iter().max_by_key(|f| f.peak_bytes).expect("non-empty");
        let slimmest = fr.iter().min_by_key(|f| f.peak_bytes).expect("non-empty");
        assert!(
            fastest.peak_bytes >= 2 * slimmest.peak_bytes,
            "E17: P={p}: frontier extremes too close: {} vs {} B",
            fastest.peak_bytes,
            slimmest.peak_bytes
        );
        // Every frontier point, used as a budget, selects a plan that
        // fits it, and time rises monotonically as the budget shrinks.
        if p < 1024 {
            let mut last_time = 0.0f64;
            for pt in fr {
                let got = plan_transpose(p, pt.peak_bytes).unwrap_or_else(|e| {
                    panic!(
                        "E17: P={p}: frontier peak {} infeasible: {e}",
                        pt.peak_bytes
                    )
                });
                assert!(
                    got.peak_bytes <= pt.peak_bytes && got.predicted + 1e-9 >= last_time,
                    "E17: P={p}: budget {} B chose peak {} B / time {:.1}",
                    pt.peak_bytes,
                    got.peak_bytes,
                    got.predicted
                );
                last_time = got.predicted;
            }
        }
        // An impossible budget names the smallest feasible one, which
        // must then actually fit.
        let smallest = smallest_feasible(p);
        assert_eq!(
            smallest, slimmest.peak_bytes,
            "E17: P={p}: smallest feasible budget is not the slimmest frontier peak"
        );
        assert!(
            plan_transpose(p, smallest).is_ok_and(|got| got.peak_bytes <= smallest),
            "E17: P={p}: named smallest feasible budget does not fit"
        );
        t1.row(&[
            j::u(p as u64),
            j::u(fr.len() as u64),
            j::s(&fastest.strategy.to_string()),
            j::u(fastest.peak_bytes),
            j::s(&slimmest.strategy.to_string()),
            j::u(slimmest.peak_bytes),
            j::u(smallest),
        ]);
    }

    // Part two: measured high-water marks. The unbudgeted transpose
    // stages the fastest (memory-hungriest) decomposition; the smallest
    // feasible budget forces the slimmest; both must stay under their
    // predicted peaks on the interpreter and the VM, and the gap between
    // them must be at least 2x.
    let prog = Arc::new(transpose_program(MEASURED_P));
    let slim = smallest_feasible(MEASURED_P);
    let mut t2 = Table::new(
        &format!("E17: measured redistribution high-water at P={MEASURED_P} (bytes)"),
        &["leg", "budget_B", "predicted_B", "interp", "vm", "within"],
    );
    let mut measured: Vec<u64> = Vec::new(); // interp high-water per leg
    for (leg, budget) in [("unbounded", u64::MAX), ("smallest-feasible", slim)] {
        let mut cfg = MachineConfig::new(MEASURED_P);
        cfg.cost.mem_budget = Some(budget);
        let predicted = predicted_peak(&prog, &cfg.cost, &cfg.topo);
        let mi = measure(leg, Backend::Interp, &prog, cfg.clone());
        let mv = measure(leg, Backend::Vm, &prog, cfg);
        assert!(
            mi > 0 && mv > 0 && mi <= predicted && mv <= predicted,
            "E17: {leg}: measured {mi}/{mv} B vs predicted {predicted} B"
        );
        t2.row(&[
            j::s(leg),
            if budget == u64::MAX {
                j::s("-")
            } else {
                j::u(budget)
            },
            j::u(predicted),
            j::u(mi),
            j::u(mv),
            j::s("yes"),
        ]);
        measured.push(mi);
    }
    assert!(
        measured[0] >= 2 * measured[1],
        "E17: unbounded-vs-bounded measured gap under 2x: {} vs {} B",
        measured[0],
        measured[1]
    );

    // The membound.xdp corpus program under a budget that makes its
    // incommensurate reblock take a K-round dynamic-slice chain.
    let src_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../xdp-programs/membound.xdp"
    );
    let source = std::fs::read_to_string(src_path).expect("membound.xdp is in the corpus");
    let compiled = compile(&source, &CompileOptions::default().with_seq(SeqMode::Auto))
        .expect("membound.xdp compiles");
    // B's reblock: the last redistribute in the program.
    let mut last: Option<(VarId, Distribution)> = None;
    compiled.program.visit(&mut |s| {
        if let Stmt::Redistribute { var, dist } = s {
            last = Some((*var, dist.clone()));
        }
    });
    let (bvar, bdst) = last.expect("membound.xdp redistributes");
    let decl = compiled.program.decl(bvar);
    let bsrc = decl.dist.clone().expect("B is distributed");
    let under = |budget: u64| {
        let cost = CostModel::default_1993().with_mem_budget(budget);
        let elem = decl.elem.size_bytes();
        let uniform = Topology::Uniform;
        try_plan(
            bvar,
            &decl.bounds,
            elem,
            &bsrc,
            &bdst,
            &cost,
            &uniform,
            true,
        )
    };
    let full = under(u64::MAX).expect("unlimited budget always fits");
    let slice = full
        .frontier
        .iter()
        .find(|f| matches!(f.strategy, Strategy::DynamicSlice(_)))
        .expect("E17: membound.xdp reblock frontier has no dynamic-slice point");
    let chain_budget = slice.peak_bytes;
    let chosen = under(chain_budget).map(|pl| pl.strategy);
    assert!(
        matches!(chosen, Ok(Strategy::DynamicSlice(_))),
        "E17: budget {chain_budget} B did not select a slice chain: {chosen:?}"
    );
    let cprog = compiled.program.clone();
    let mut cfg = MachineConfig::new(compiled.nprocs);
    cfg.cost.mem_budget = Some(chain_budget);
    let predicted = predicted_peak(&cprog, &cfg.cost, &cfg.topo);
    let mi = measure("membound chain", Backend::Interp, &cprog, cfg.clone());
    let mv = measure("membound chain", Backend::Vm, &cprog, cfg);
    assert!(
        mi > 0 && mv > 0 && mi <= predicted && mv <= predicted,
        "E17: membound chain leg: measured {mi}/{mv} B vs predicted {predicted} B"
    );
    let mut t3 = Table::new(
        "E17: membound.xdp under a chain-selecting budget",
        &["budget_B", "predicted_B", "interp", "vm", "within"],
    );
    t3.row(&[
        j::u(chain_budget),
        j::u(predicted),
        j::u(mi),
        j::u(mv),
        j::s("yes"),
    ]);
    t3.note("e17: ok\n");
    vec![t1, t2, t3]
}

/// The transpose at P processors planned under a `budget` of bytes.
fn plan_transpose(p: usize, budget: u64) -> Result<RedistPlan, PlanError> {
    let (bounds, src, dst) = transpose(p);
    let cost = CostModel::default_1993().with_mem_budget(budget);
    try_plan(
        VarId(0),
        &bounds,
        8,
        &src,
        &dst,
        &cost,
        &Topology::Uniform,
        true,
    )
}

/// The smallest feasible budget a 1-byte budget's refusal names.
fn smallest_feasible(p: usize) -> u64 {
    match plan_transpose(p, 1) {
        Err(PlanError::NoPlanFits {
            budget: 1,
            smallest_feasible,
            ..
        }) => smallest_feasible,
        other => panic!("E17: P={p}: a 1-byte budget did not fail as NoPlanFits: {other:?}"),
    }
}
