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
//! The frontier sweep is written to `membound-pareto.json`
//! (`--pareto-out`).

use serde_json::{Map, Value as Json};
use std::process::ExitCode;
use std::sync::Arc;
use xdp_bench::table::{j, Table};
use xdp_collectives::{plan, try_plan, FrontierPoint, PlanError, Strategy};
use xdp_compiler::cli::{self, Args};
use xdp_compiler::{compile, Backend, CompileOptions, SeqMode};
use xdp_core::{KernelRegistry, MachineConfig, MachineKind};
use xdp_ir::build as b;
use xdp_ir::{DimDist, Distribution, ElemType, ProcGrid, Program, Section, Stmt, Triplet, VarId};
use xdp_machine::{CostModel, Topology};
use xdp_runtime::Value;
use xdp_verify::machine;

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

/// A frontier as a JSON array of (strategy, predicted, peak, chosen).
fn frontier_json(frontier: &[FrontierPoint]) -> Json {
    Json::Array(
        frontier
            .iter()
            .map(|f| {
                let mut m = Map::new();
                m.insert("strategy".into(), Json::from(f.strategy.to_string()));
                m.insert("predicted".into(), Json::from(f.predicted));
                m.insert("peak_bytes".into(), Json::from(f.peak_bytes));
                m.insert("chosen".into(), Json::from(f.chosen));
                Json::Object(m)
            })
            .collect(),
    )
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse("e17_membound", &cli::E17_MEMBOUND, &argv) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let mut failures = 0usize;
    let v = VarId(0);
    let base = CostModel::default_1993();
    let topo = Topology::Uniform;

    // Part one: the planner sweep. Budget probes re-enumerate the whole
    // catalog, so the per-point replay runs at the small sizes and the
    // P=1024 leg keeps to three catalog builds.
    let mut sweep_rows: Vec<Json> = Vec::new();
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
        let (bounds, src, dst) = transpose(p);
        // Budget-free planning stays the historical candidate set.
        let free = plan(v, &bounds, 8, &src, &dst, &base, &topo, true);
        if free.synchronized
            || free.alternatives.len() > 2
            || !matches!(
                free.strategy,
                Strategy::DirectPairwise | Strategy::StagedBruck
            )
        {
            eprintln!("e17: P={p}: budget-free planning changed shape");
            failures += 1;
        }
        // The full catalog under an unlimited budget.
        let full = try_plan(
            v,
            &bounds,
            8,
            &src,
            &dst,
            &base.with_mem_budget(u64::MAX),
            &topo,
            true,
        )
        .expect("unlimited budget always fits");
        let fr = &full.frontier;
        if fr.is_empty() || fr.iter().filter(|f| f.chosen).count() != 1 || !dominated_free(fr) {
            eprintln!("e17: P={p}: frontier empty, multi-chosen, or dominated");
            failures += 1;
        }
        let fastest = fr.iter().max_by_key(|f| f.peak_bytes).expect("non-empty");
        let slimmest = fr.iter().min_by_key(|f| f.peak_bytes).expect("non-empty");
        if fastest.peak_bytes < 2 * slimmest.peak_bytes {
            eprintln!(
                "e17: P={p}: frontier extremes too close: {} vs {} B",
                fastest.peak_bytes, slimmest.peak_bytes
            );
            failures += 1;
        }
        // Every frontier point, used as a budget, selects a plan that
        // fits it, and time rises monotonically as the budget shrinks.
        if p < 1024 {
            let mut last_time = 0.0f64;
            for pt in fr {
                match try_plan(
                    v,
                    &bounds,
                    8,
                    &src,
                    &dst,
                    &base.with_mem_budget(pt.peak_bytes),
                    &topo,
                    true,
                ) {
                    Ok(got) => {
                        if got.peak_bytes > pt.peak_bytes || got.predicted + 1e-9 < last_time {
                            eprintln!(
                                "e17: P={p}: budget {} B chose peak {} B / time {:.1}",
                                pt.peak_bytes, got.peak_bytes, got.predicted
                            );
                            failures += 1;
                        }
                        last_time = got.predicted;
                    }
                    Err(e) => {
                        eprintln!(
                            "e17: P={p}: frontier peak {} infeasible: {e}",
                            pt.peak_bytes
                        );
                        failures += 1;
                    }
                }
            }
        }
        // An impossible budget names the smallest feasible one, which
        // must then actually fit.
        let smallest = match try_plan(
            v,
            &bounds,
            8,
            &src,
            &dst,
            &base.with_mem_budget(1),
            &topo,
            true,
        ) {
            Err(PlanError::NoPlanFits {
                budget: 1,
                smallest_feasible,
                ..
            }) => {
                if smallest_feasible != slimmest.peak_bytes {
                    eprintln!(
                        "e17: P={p}: smallest feasible {} != slimmest frontier peak {}",
                        smallest_feasible, slimmest.peak_bytes
                    );
                    failures += 1;
                }
                match try_plan(
                    v,
                    &bounds,
                    8,
                    &src,
                    &dst,
                    &base.with_mem_budget(smallest_feasible),
                    &topo,
                    true,
                ) {
                    Ok(got) if got.peak_bytes <= smallest_feasible => {}
                    _ => {
                        eprintln!("e17: P={p}: named smallest feasible budget does not fit");
                        failures += 1;
                    }
                }
                smallest_feasible
            }
            other => {
                eprintln!("e17: P={p}: 1-byte budget did not fail as NoPlanFits: {other:?}");
                failures += 1;
                0
            }
        };
        t1.row(&[
            j::u(p as u64),
            j::u(fr.len() as u64),
            j::s(&fastest.strategy.to_string()),
            j::u(fastest.peak_bytes),
            j::s(&slimmest.strategy.to_string()),
            j::u(slimmest.peak_bytes),
            j::u(smallest),
        ]);
        let mut row = Map::new();
        row.insert("nprocs".into(), Json::from(p));
        row.insert("smallest_feasible_bytes".into(), Json::from(smallest));
        row.insert("frontier".into(), frontier_json(fr));
        sweep_rows.push(Json::Object(row));
    }
    t1.print();

    // Part two: measured high-water marks. The unbudgeted transpose
    // stages the fastest (memory-hungriest) decomposition; the smallest
    // feasible budget forces the slimmest; both must stay under their
    // predicted peaks on the interpreter and the VM, and the gap between
    // them must be at least 2x.
    let prog = Arc::new(transpose_program(MEASURED_P));
    let (bounds, src, dst) = transpose(MEASURED_P);
    let slim = match try_plan(
        v,
        &bounds,
        8,
        &src,
        &dst,
        &base.with_mem_budget(1),
        &topo,
        true,
    ) {
        Err(PlanError::NoPlanFits {
            smallest_feasible, ..
        }) => smallest_feasible,
        other => {
            eprintln!("e17: measured leg: expected NoPlanFits at 1 B, got {other:?}");
            failures += 1;
            1
        }
    };
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
        let ok = mi > 0 && mv > 0 && mi <= predicted && mv <= predicted;
        if !ok {
            eprintln!("e17: {leg}: measured {mi}/{mv} B vs predicted {predicted} B");
            failures += 1;
        }
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
            j::s(if ok { "yes" } else { "NO" }),
        ]);
        measured.push(mi);
    }
    if measured[0] < 2 * measured[1] {
        eprintln!(
            "e17: unbounded-vs-bounded measured gap under 2x: {} vs {} B",
            measured[0], measured[1]
        );
        failures += 1;
    }
    t2.print();

    // The membound.xdp corpus program under a budget that makes its
    // incommensurate reblock take a K-round dynamic-slice chain.
    let src_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../xdp-programs/membound.xdp"
    );
    let source = std::fs::read_to_string(src_path).expect("membound.xdp is in the corpus");
    let compiled = compile(&source, &CompileOptions::default().with_seq(SeqMode::Auto))
        .expect("membound.xdp compiles");
    let mut chain_budget = 0u64;
    let chain_frontier;
    {
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
        let full = try_plan(
            bvar,
            &decl.bounds,
            decl.elem.size_bytes(),
            &bsrc,
            &bdst,
            &base.with_mem_budget(u64::MAX),
            &topo,
            true,
        )
        .expect("unlimited budget always fits");
        chain_frontier = frontier_json(&full.frontier);
        match full
            .frontier
            .iter()
            .find(|f| matches!(f.strategy, Strategy::DynamicSlice(_)))
        {
            Some(ds) => {
                chain_budget = ds.peak_bytes;
                let got = try_plan(
                    bvar,
                    &decl.bounds,
                    decl.elem.size_bytes(),
                    &bsrc,
                    &bdst,
                    &base.with_mem_budget(chain_budget),
                    &topo,
                    true,
                );
                match got {
                    Ok(pl) if matches!(pl.strategy, Strategy::DynamicSlice(_)) => {}
                    other => {
                        eprintln!(
                            "e17: budget {chain_budget} B did not select a slice chain: {:?}",
                            other.map(|pl| pl.strategy)
                        );
                        failures += 1;
                    }
                }
            }
            None => {
                eprintln!("e17: membound.xdp reblock frontier has no dynamic-slice point");
                failures += 1;
            }
        }
    }
    let cprog = compiled.program.clone();
    let mut cfg = MachineConfig::new(compiled.nprocs);
    cfg.cost.mem_budget = Some(chain_budget.max(1));
    let predicted = predicted_peak(&cprog, &cfg.cost, &cfg.topo);
    let mi = measure("membound chain", Backend::Interp, &cprog, cfg.clone());
    let mv = measure("membound chain", Backend::Vm, &cprog, cfg);
    let chain_ok = mi > 0 && mv > 0 && mi <= predicted && mv <= predicted;
    if !chain_ok {
        eprintln!("e17: membound chain leg: measured {mi}/{mv} B vs predicted {predicted} B");
        failures += 1;
    }
    let mut t3 = Table::new(
        "E17: membound.xdp under a chain-selecting budget",
        &["budget_B", "predicted_B", "interp", "vm", "within"],
    );
    t3.row(&[
        j::u(chain_budget),
        j::u(predicted),
        j::u(mi),
        j::u(mv),
        j::s(if chain_ok { "yes" } else { "NO" }),
    ]);
    t3.print();

    // The frontier artifact.
    let pareto_path = args.path(cli::PARETO_OUT);
    let mut reblock = Map::new();
    reblock.insert("chain_budget_bytes".into(), Json::from(chain_budget));
    reblock.insert("frontier".into(), chain_frontier);
    let mut artifact = Map::new();
    artifact.insert("experiment".into(), Json::from("e17-membound"));
    artifact.insert("elem_bytes".into(), Json::from(8u64));
    artifact.insert("transpose_sweep".into(), Json::Array(sweep_rows));
    artifact.insert("membound_reblock".into(), Json::Object(reblock));
    match std::fs::write(pareto_path, Json::Object(artifact).to_string()) {
        Ok(()) => println!("wrote Pareto frontiers to {pareto_path}"),
        Err(e) => {
            eprintln!("e17: cannot write {pareto_path}: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("e17: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("e17: ok");
    ExitCode::SUCCESS
}
