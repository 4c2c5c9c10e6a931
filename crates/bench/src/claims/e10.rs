//! E10 — automatic placement vs. hand-written variants.
//!
//! The `xdp-place` search claims to pick per-phase distributions from the
//! cost model alone. This experiment checks the claim end-to-end on three
//! communication shapes:
//!
//! * **fft3d** (two phases + transpose): hand variants are the paper's
//!   `(*,*,B) -> (*,B,*)`, the symmetric `(*,*,B) -> (B,*,*)`, and the
//!   fully serial placement; auto must land within 15% of the best.
//! * **jacobi2d** (one phase, shifts in both dimensions on a `32x96`
//!   grid): row slabs cut the long dimension, column slabs the short one;
//!   the phase graph's shift planes are what tells them apart.
//! * **matvec** (one phase, row-parallel): `BLOCK`, `CYCLIC` and
//!   collapsed rows, with `y` aligned to `M` under every variant.
//!
//! For each app the auto choice is *executed* (SimExec virtual time, and
//! AsyncExec for real-concurrency correctness) and asserted to be no
//! worse than the worst hand variant and within 15% of the best. For the
//! FFT the per-phase predicted costs are compared against a traced
//! critical-path decomposition of the simulated run.

use crate::table::{j, Table};
use std::collections::HashMap;
use std::sync::Arc;
use xdp_apps::{fft3d, halo2d, matvec, workloads};
use xdp_core::{AsyncExec, KernelRegistry, Machine, MachineConfig, SimExec, TraceConfig};
use xdp_ir::{DimDist, Distribution, ProcGrid, Program};
use xdp_place::{candidates, search, Costs, DimNeed, Phase, PhaseGraph, Shift};
use xdp_runtime::Value;

const P: usize = 4;
const SEED: u64 = 42;
/// Auto must be within this factor of the best hand-written variant.
const SLACK: f64 = 1.15;

struct Run {
    label: &'static str,
    auto: bool,
    predicted: Option<f64>,
    time: f64,
    messages: u64,
}

fn check(app: &str, runs: &[Run], t: &mut Table) {
    let auto = runs.iter().find(|r| r.auto).expect("one auto run");
    let hand: Vec<&Run> = runs.iter().filter(|r| !r.auto).collect();
    let best = hand.iter().map(|r| r.time).fold(f64::INFINITY, f64::min);
    let worst = hand.iter().map(|r| r.time).fold(0.0, f64::max);
    assert!(
        auto.time <= worst * 1.0001,
        "E10: {app}: auto {:.1} worse than worst hand variant {worst:.1}",
        auto.time
    );
    assert!(
        auto.time <= best * SLACK,
        "E10: {app}: auto {:.1} not within {SLACK}x of best {best:.1}",
        auto.time
    );
    for r in runs {
        t.row(&[
            j::s(app),
            j::s(r.label),
            j::s(if r.auto { "auto" } else { "hand" }),
            r.predicted.map(j::f).unwrap_or_else(|| j::s("-")),
            j::f(r.time),
            j::u(r.messages),
        ]);
    }
}

// --- fft3d -----------------------------------------------------------------

/// Map every statement id inside each top-level range to one label, so the
/// critical path aggregates per phase.
fn phase_labels(p: &Program, ranges: &[(std::ops::Range<usize>, &str)]) -> HashMap<u32, String> {
    let ids = xdp_ir::block_stmt_ids(0, &p.body);
    let mut out = HashMap::new();
    for (range, label) in ranges {
        for i in range.clone() {
            let lo = ids[i];
            let hi = lo + p.body[i].subtree_size() as u32;
            for sid in lo..hi {
                out.insert(sid, label.to_string());
            }
        }
    }
    out
}

fn run_fft(cfg: fft3d::Fft3dConfig, program: Program, vars: fft3d::Fft3dVars) -> (f64, u64) {
    let sim = MachineConfig::new(cfg.nprocs);
    let r = fft3d::run_program(cfg, program, vars, sim, SEED).expect("fft run");
    (r.virtual_time, r.net.messages)
}

/// The fft3d rows of `t`, and the per-phase predicted-vs-simulated table.
fn fft_section(t: &mut Table) -> Table {
    let n = 16;
    let cfg = fft3d::Fft3dConfig::new(n, P);
    let lin = ProcGrid::linear(P);
    let d = |dims: Vec<DimDist>| Distribution::new(dims, lin.clone());
    use DimDist::{Block as B, Star as S};

    let (placed, _) = fft3d::plan_auto(cfg);
    let choices = &placed.placement.choices;
    let mut runs = Vec::new();
    for (label, d1, d2) in [
        ("paper (*,*,B)->(*,B,*)", d(vec![S, S, B]), d(vec![S, B, S])),
        ("alt (*,*,B)->(B,*,*)", d(vec![S, S, B]), d(vec![B, S, S])),
        (
            "serial",
            Distribution::collapsed(3, P),
            Distribution::collapsed(3, P),
        ),
    ] {
        let (p, vars) = fft3d::build_planned(cfg, d1, d2);
        let (time, messages) = run_fft(cfg, p, vars);
        runs.push(Run {
            label,
            auto: false,
            predicted: None,
            time,
            messages,
        });
    }
    let (p, vars) = fft3d::build_auto(cfg);
    let (time, messages) = run_fft(cfg, p, vars);
    runs.push(Run {
        label: "auto",
        auto: true,
        predicted: Some(placed.placement.total_predicted),
        time,
        messages,
    });
    check("fft3d n=16", &runs, t);

    // Per-phase predicted vs. simulated: trace the auto program and
    // aggregate the critical path by phase. The auto program's body is
    // [phase-0 sweeps.., redistribute, phase-1 sweep].
    let (p, vars) = fft3d::build_auto(cfg);
    let nb = p.body.len();
    let labels = phase_labels(
        &p,
        &[
            (0..nb - 2, "phase-0"),
            (nb - 2..nb - 1, "move"),
            (nb - 1..nb, "phase-1"),
        ],
    );
    let sim = MachineConfig::new(P).with_trace(TraceConfig::full());
    let r = fft3d::run_program(cfg, p, vars, sim, SEED).expect("traced run");
    let cp = r.trace.critical_path(&labels);
    // Row keys are "sN: <label>"; sum every statement under a label.
    let simulated = |key: &str| {
        cp.by_stmt
            .iter()
            .filter(|row| row.key.ends_with(key))
            .map(|row| row.compute + row.wire + row.wait)
            .sum::<f64>()
    };
    let mut pt = Table::new(
        "E10: fft3d per-phase predicted vs simulated (virtual us)",
        &["phase", "dist", "predicted", "simulated"],
    );
    for (i, ch) in choices.iter().enumerate() {
        let sim_t = simulated(&format!("phase-{i}")) + if i > 0 { simulated("move") } else { 0.0 };
        // The model is a ranking device, not a clock: demand the right
        // order of magnitude, not agreement.
        assert!(sim_t > 0.0, "E10: phase {i} never on the critical path");
        let ratio = ch.total() / sim_t;
        assert!(
            (0.05..=20.0).contains(&ratio),
            "E10: phase {i}: predicted {:.1} vs simulated {sim_t:.1}",
            ch.total()
        );
        pt.row(&[
            j::s(&format!("phase-{i}")),
            j::s(&ch.dist.to_string()),
            j::f(ch.total()),
            j::f(sim_t),
        ]);
    }

    // Real concurrency: the auto stage must also be correct on the task
    // machine.
    fft3d::run_stage_tasks(cfg, fft3d::Stage::V6Auto, SEED).expect("task-machine auto fft");
    pt
}

// --- jacobi2d --------------------------------------------------------------

const JN: i64 = 32;
const JM: i64 = 96;
const SWEEPS: i64 = 4;

/// The Jacobi phase graph, built directly: the program text pins one
/// orientation (its spans are written for a chosen slab shape), but the
/// *stencil* is placement-neutral — one phase, both dimensions free, four
/// unit shifts whose planes are the grid cross-sections.
fn jacobi_graph(p: &Program, u: xdp_ir::VarId, v: xdp_ir::VarId) -> PhaseGraph {
    let shift = |dim: usize, offset: i64| Shift {
        dim,
        offset,
        plane: if dim == 0 { JM as f64 } else { JN as f64 },
        repeat: SWEEPS as f64,
    };
    PhaseGraph {
        anchor: u,
        group: vec![u, v],
        bounds: p.decl(u).bounds.clone(),
        elem_bytes: 8,
        nprocs: P,
        phases: vec![Phase {
            index: 0,
            stmts: (0, p.body.len()),
            label: "jacobi".into(),
            work: (JN * JM * SWEEPS) as f64,
            needs: vec![DimNeed::Free, DimNeed::Free],
            shifts: vec![shift(0, -1), shift(0, 1), shift(1, -1), shift(1, 1)],
        }],
        dropped_redistributes: vec![],
        hand_migration: false,
    }
}

type JacobiBuild = fn(i64, i64, usize, i64) -> (Program, halo2d::Halo2dVars);

/// Run the built sweep on the machine `load` puts it on, check it against
/// the sequential reference, and return (time, messages).
fn run_jacobi<M: Machine>(build: JacobiBuild, load: impl FnOnce(Arc<Program>) -> M) -> (f64, u64) {
    let (p, vars) = build(JN, JM, P, SWEEPS);
    let u0 = workloads::uniform_f64((JN * JM) as usize, 5, 0.0, 10.0);
    let mut exec = load(Arc::new(p));
    exec.init_exclusive(vars.u, &|idx| {
        Value::F64(u0[((idx[0] - 1) * JM + idx[1] - 1) as usize])
    });
    let r = exec.run_report().expect("jacobi");
    let want = halo2d::jacobi2d_reference(&u0, JN as usize, JM as usize, SWEEPS as usize);
    let g = exec.gather(vars.u);
    for i in 1..=JN {
        for jj in 1..=JM {
            let got = g.get(&[i, jj]).expect("owned").as_f64();
            assert!((got - want[((i - 1) * JM + jj - 1) as usize]).abs() < 1e-9);
        }
    }
    (r.virtual_time, r.net.messages)
}

fn jacobi_sim(p: Arc<Program>) -> SimExec {
    SimExec::new(p, KernelRegistry::standard(), MachineConfig::new(P))
}

/// The jacobi2d rows of `t`; returns what the search chose.
fn jacobi_section(t: &mut Table) -> String {
    // Score the placement-neutral phase graph; realize the winner with
    // the matching hand emitter (slab distributions only — the two
    // builders are the realizable placements).
    let (rowp, rvars) = halo2d::build_jacobi2d(JN, JM, P, SWEEPS);
    let graph = jacobi_graph(&rowp, rvars.u, rvars.v);
    let all = candidates::enumerate(2, P, 1, true);
    let legal = candidates::per_phase(&all, &graph.phases);
    let costs = Costs::new(
        xdp_machine::CostModel::default_1993(),
        xdp_machine::Topology::Uniform,
    );
    let out = search::search(&graph, &rowp, &all, &legal, &costs);
    let chosen = &out.choices[0].dist;
    let said = format!(
        "jacobi2d {JN}x{JM}: auto chose {chosen} (predicted {:.1}, {} candidates)\n\n",
        out.total_predicted, out.candidates_considered
    );
    let auto_build: JacobiBuild = if chosen.dims()[0] == DimDist::Block {
        halo2d::build_jacobi2d
    } else {
        assert_eq!(
            chosen.dims()[1],
            DimDist::Block,
            "E10: slab placement expected"
        );
        halo2d::build_jacobi2d_cols
    };

    let mut runs = Vec::new();
    for (label, b) in [
        ("rows (B,*)", halo2d::build_jacobi2d as JacobiBuild),
        ("cols (*,B)", halo2d::build_jacobi2d_cols),
    ] {
        let (time, messages) = run_jacobi(b, jacobi_sim);
        runs.push(Run {
            label,
            auto: false,
            predicted: None,
            time,
            messages,
        });
    }
    let (time, messages) = run_jacobi(auto_build, jacobi_sim);
    runs.push(Run {
        label: "auto",
        auto: true,
        predicted: Some(out.total_predicted),
        time,
        messages,
    });
    check("jacobi2d 32x96", &runs, t);
    run_jacobi(auto_build, |p| {
        AsyncExec::new(p, KernelRegistry::standard(), MachineConfig::new(P))
    });
    said
}

// --- matvec ----------------------------------------------------------------

/// Run the placed product on the machine `load` puts it on, check it
/// against the sequential reference, and return (time, messages).
fn run_matvec<M: Machine>(
    n: i64,
    dist: Distribution,
    load: impl FnOnce(Arc<Program>, KernelRegistry) -> M,
) -> (f64, u64) {
    let (p, vars) = matvec::build_matvec_placed(n, P, dist);
    let mdata = workloads::uniform_f64((n * n) as usize, 3, -1.0, 1.0);
    let xdata = workloads::uniform_f64(n as usize, 4, -1.0, 1.0);
    let mut exec = load(Arc::new(p), matvec::matvec_kernels());
    exec.init_exclusive(vars.m, &|idx| {
        Value::F64(mdata[((idx[0] - 1) * n + idx[1] - 1) as usize])
    });
    exec.init_exclusive(vars.x, &|idx| Value::F64(xdata[(idx[0] - 1) as usize]));
    let r = exec.run_report().expect("matvec");
    let want = matvec::matvec_reference(&mdata, &xdata, n as usize);
    let g = exec.gather(vars.y);
    for i in 1..=n {
        let got = g.get(&[i]).expect("owned").as_f64();
        assert!((got - want[(i - 1) as usize]).abs() < 1e-9);
    }
    (r.virtual_time, r.net.messages)
}

fn matvec_sim(p: Arc<Program>, kernels: KernelRegistry) -> SimExec {
    SimExec::new(p, kernels, MachineConfig::new(P))
}

fn matvec_section(t: &mut Table) {
    let n = 32i64;
    let lin = ProcGrid::linear(P);
    // The auto decision comes from the real extractor: the placed program
    // itself (any seed placement) is the input.
    let (seedp, _) = matvec::build_matvec_placed(
        n,
        P,
        Distribution::new(vec![DimDist::Block, DimDist::Star], lin.clone()),
    );
    let placed = xdp_place::optimize(&seedp, &xdp_place::PlaceOptions::default()).expect("matvec");
    let choice = &placed.placement.choices[0];
    assert_eq!(placed.placement.anchor_name, "M");
    assert!(!choice.dist.dims()[1].is_distributed(), "{}", choice.dist);

    let mut runs = Vec::new();
    for (label, d) in [
        (
            "rows BLOCK",
            Distribution::new(vec![DimDist::Block, DimDist::Star], lin.clone()),
        ),
        (
            "rows CYCLIC",
            Distribution::new(vec![DimDist::Cyclic, DimDist::Star], lin.clone()),
        ),
        ("serial", Distribution::collapsed(2, P)),
    ] {
        let (time, messages) = run_matvec(n, d, matvec_sim);
        runs.push(Run {
            label,
            auto: false,
            predicted: None,
            time,
            messages,
        });
    }
    let (time, messages) = run_matvec(n, choice.dist.clone(), matvec_sim);
    runs.push(Run {
        label: "auto",
        auto: true,
        predicted: Some(placed.placement.total_predicted),
        time,
        messages,
    });
    check("matvec n=32", &runs, t);
    run_matvec(n, choice.dist.clone(), |p, kernels| {
        AsyncExec::new(p, kernels, MachineConfig::new(P))
    });
}

/// On every app the executed auto placement is no worse than the worst
/// hand variant and within 1.15× of the best, and the FFT's per-phase
/// prediction is within 20× of the simulated phase either way.
pub fn e10() -> Vec<Table> {
    let mut t = Table::new(
        "E10: automatic placement vs hand variants (SimExec virtual us)",
        &["app", "variant", "kind", "predicted", "time", "msgs"],
    );
    let mut phases = fft_section(&mut t);
    phases.note(&jacobi_section(&mut t));
    matvec_section(&mut t);
    t.note(&format!(
        "E10 OK: auto within {SLACK}x of best hand variant on all apps\n"
    ));
    vec![phases, t]
}
