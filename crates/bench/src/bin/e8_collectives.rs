//! E8 — planned redistribution vs naive point-to-point migration.
//!
//! Two levels:
//!
//! 1. **IR level.** A `BLOCK -> CYCLIC` remap written as the §2.2
//!    per-element ownership-migration loop (one unbound message per moving
//!    element, name headers, matcher probes) against the same remap as one
//!    `redistribute` statement, whose planner-emitted schedule vectorizes
//!    each processor pair's elements into one strided-section message with
//!    a bound destination. Final contents must be bit-identical; the
//!    planned form must use strictly fewer messages and finish strictly
//!    earlier at every latency. The `LowerRedistribute` pass is also run on
//!    the naive program to confirm the compiler performs this rewrite
//!    itself.
//!
//! 2. **Schedule level.** The planner's two candidate strategies
//!    (direct-pairwise vs staged-bruck piece routing) across a latency
//!    sweep and three interconnects. Staging forwards bytes through
//!    intermediaries to cut per-processor message count from `P-1` to
//!    `log2 P` and shorten hop distances, so it wins exactly where
//!    per-message cost dominates: high `alpha`, distance-sensitive
//!    topologies. Beside the planner's prices the table puts the plan the
//!    engine can execute (one section per message) and what `SimExec`
//!    measures running it: the distance between the round-synchronous
//!    price and the unsynchronized lowering is recorded, not asserted
//!    away. The crossover table below is reproduced in EXPERIMENTS.md.

use std::sync::Arc;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_collectives::{plan, redistribution_pieces, Strategy};
use xdp_compiler::passes::{LowerRedistribute, Pass};
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{BoolExpr, DimDist, Distribution, ElemType, ProcGrid, Program, Stmt, Triplet, VarId};
use xdp_machine::{CostModel, Topology};
use xdp_runtime::Value;

const N: i64 = 256;
const P: usize = 8;

fn dists() -> (Distribution, Distribution) {
    (
        Distribution::new(vec![DimDist::Block], ProcGrid::linear(P)),
        Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(P)),
    )
}

/// The remap as a per-element ownership-migration loop over a witness
/// array carrying the target distribution.
fn naive_program() -> (Program, VarId) {
    let (src, dst) = dists();
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, N)],
        src.dims().to_vec(),
        src.grid().clone(),
        vec![1],
    ));
    let w = p.declare(b::array(
        "W",
        ElemType::I64,
        vec![(1, N)],
        dst.dims().to_vec(),
        dst.grid().clone(),
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let wi = b::sref(w, vec![b::at(b::iv("i"))]);
    p.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(N),
        vec![
            b::guarded(
                b::iown(ai.clone()).and(BoolExpr::Not(Box::new(b::iown(wi.clone())))),
                vec![b::send_own_val(ai.clone())],
            ),
            b::guarded(
                b::iown(wi).and(BoolExpr::Not(Box::new(b::iown(ai.clone())))),
                vec![b::recv_own_val(ai)],
            ),
        ],
    )];
    (p, a)
}

/// The same remap as one planned statement.
fn planned_program() -> (Program, VarId) {
    let (src, dst) = dists();
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, N)],
        src.dims().to_vec(),
        src.grid().clone(),
    ));
    p.body = vec![b::redistribute(a, dst)];
    (p, a)
}

fn run(p: &Program, a: VarId, cost: CostModel, topo: Topology) -> (Vec<f64>, f64, u64) {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(P).with_cost(cost).with_topo(topo),
    );
    exec.init_exclusive(a, |idx| Value::F64((3 * idx[0]) as f64));
    let r = exec.run().expect("run");
    let g = exec.gather(a);
    let vals: Vec<f64> = (1..=N)
        .map(|i| g.get(&[i]).expect("covered").as_f64())
        .collect();
    (vals, r.virtual_time, r.net.messages)
}

fn main() {
    let (naive, na) = naive_program();
    let (planned, pa) = planned_program();

    // The compiler's LowerRedistribute pass performs the same rewrite.
    let lowered = LowerRedistribute.run(&naive);
    assert!(lowered.changed, "pass must recognize the migration nest");
    assert!(
        matches!(lowered.program.body[..], [Stmt::Redistribute { .. }]),
        "nest collapses to one statement"
    );

    let mut t1 = Table::new(
        &format!("E8a: BLOCK->CYCLIC remap, n={N}, P={P}"),
        &["alpha", "topology", "form", "messages", "time", "speedup"],
    );
    let cells: [(f64, &str, Topology); 5] = [
        (10.0, "uniform", Topology::Uniform),
        (100.0, "uniform", Topology::Uniform),
        (1000.0, "uniform", Topology::Uniform),
        (1000.0, "mesh 2x4", Topology::Mesh2D { rows: 2, cols: 4 }),
        (1000.0, "linear", Topology::Linear),
    ];
    for (alpha, tname, topo) in cells {
        let cost = CostModel {
            alpha,
            ..CostModel::default_1993()
        };
        let (v_naive, t_naive, m_naive) = run(&naive, na, cost, topo.clone());
        let (v_plan, t_plan, m_plan) = run(&planned, pa, cost, topo);
        assert_eq!(v_naive, v_plan, "final contents must be bit-identical");
        assert!(
            m_plan < m_naive,
            "planned must vectorize: {m_plan} vs {m_naive}"
        );
        assert!(
            t_plan < t_naive,
            "planned must be faster on {tname}: {t_plan} vs {t_naive}"
        );
        t1.row(&[
            j::f(alpha),
            j::s(tname),
            j::s("naive p2p"),
            j::u(m_naive),
            j::f(t_naive),
            j::s("1.00x"),
        ]);
        t1.row(&[
            j::f(alpha),
            j::s(tname),
            j::s("redistribute"),
            j::u(m_plan),
            j::f(t_plan),
            j::s(&format!("{:.2}x", t_naive / t_plan)),
        ]);
    }
    t1.print();
    println!();

    // ---- schedule level: direct vs staged crossover ----------------------
    let bounds = [Triplet::range(1, N)];
    let (src, dst) = dists();
    let pieces = redistribution_pieces(&bounds, &src, &dst);
    println!(
        "pieces: {} ({} moving), {} elements\n",
        pieces.len(),
        pieces.iter().filter(|pc| pc.src != pc.dst).count(),
        pieces.iter().map(|pc| pc.sec.volume()).sum::<i64>()
    );

    let topos: [(&str, Topology); 3] = [
        ("uniform", Topology::Uniform),
        ("mesh 2x4", Topology::Mesh2D { rows: 2, cols: 4 }),
        ("linear", Topology::Linear),
    ];
    let mut t2 = Table::new(
        &format!("E8b: strategy crossover, n={N}, P={P}, hop_factor=1"),
        &[
            "alpha",
            "topology",
            "direct",
            "staged",
            "chosen",
            "lowerable",
            "predicted",
            "engine",
            "msgs",
        ],
    );
    for alpha in [1.0, 30.0, 300.0, 3000.0] {
        let cost = CostModel {
            alpha,
            cpu_overhead: 1.0, // latency-dominated regime: alpha carries the sweep
            hop_factor: 1.0,
            ..CostModel::default_1993()
        };
        for (name, topo) in &topos {
            let pl = plan(VarId(0), &bounds, 8, &src, &dst, &cost, topo, false);
            let cost_of = |s: Strategy| {
                pl.alternatives
                    .iter()
                    .find(|(st, _)| *st == s)
                    .map(|(_, c)| *c)
                    .unwrap_or(f64::NAN)
            };
            // What the machine can run is the single-section plan its
            // `redistribute` lowers; price that one and run it on the
            // engine. The two numbers are recorded side by side, the
            // message count must agree.
            let low = plan(VarId(0), &bounds, 8, &src, &dst, &cost, topo, true);
            let (_, engine, msgs) = run(&planned, pa, cost, topo.clone());
            assert_eq!(msgs, low.schedule.message_count() as u64);
            t2.row(&[
                j::f(alpha),
                j::s(name),
                j::f(cost_of(Strategy::DirectPairwise)),
                j::f(cost_of(Strategy::StagedBruck)),
                j::s(&pl.strategy.to_string()),
                j::s(&low.strategy.to_string()),
                j::f(low.predicted),
                j::f(engine),
                j::u(msgs),
            ]);
        }
    }
    t2.print();

    // The acceptance shape: distance-sensitive nets at high alpha stage.
    for topo in [Topology::Mesh2D { rows: 2, cols: 4 }, Topology::Linear] {
        let cost = CostModel {
            alpha: 3000.0,
            cpu_overhead: 1.0,
            hop_factor: 1.0,
            ..CostModel::default_1993()
        };
        let pl = plan(VarId(0), &bounds, 8, &src, &dst, &cost, &topo, false);
        assert_eq!(pl.strategy, Strategy::StagedBruck, "{topo:?} at alpha=3000");
    }
    let low = CostModel {
        alpha: 1.0,
        cpu_overhead: 1.0,
        hop_factor: 1.0,
        ..CostModel::default_1993()
    };
    let pl = plan(
        VarId(0),
        &bounds,
        8,
        &src,
        &dst,
        &low,
        &Topology::Uniform,
        false,
    );
    assert_eq!(pl.strategy, Strategy::DirectPairwise, "uniform at alpha=1");

    // ---- trace level: where the end-to-end time actually goes ------------
    // The message counts above say the planned form moves less; the
    // critical path says what that buys: the naive nest's serialized
    // per-element rendezvous shows up as wait/compute on the path, the
    // planned schedule as a single wire hop.
    let mut t3 = Table::new(
        &format!("E8c: critical-path decomposition, alpha=100, n={N}, P={P}"),
        &["form", "total", "compute", "wire", "wait", "hops"],
    );
    for (name, prog, var) in [("naive p2p", &naive, na), ("redistribute", &planned, pa)] {
        let cp = critical_path_of(prog, var);
        t3.row(&[
            j::s(name),
            j::f(cp.total),
            j::f(cp.compute),
            j::f(cp.wire),
            j::f(cp.wait),
            j::u(cp.hops as u64),
        ]);
    }
    t3.print();

    println!("\nall E8 assertions passed");
}

/// Run with full tracing and return the critical-path report; the
/// analyzer must attribute the entire virtual time.
fn critical_path_of(p: &Program, a: VarId) -> xdp_core::CriticalPathReport {
    let labels: std::collections::HashMap<u32, String> =
        xdp_ir::pretty::stmt_table(p).into_iter().collect();
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(P)
            .with_cost(CostModel::default_1993())
            .with_trace(xdp_core::TraceConfig::full()),
    );
    exec.init_exclusive(a, |idx| Value::F64((3 * idx[0]) as f64));
    let r = exec.run().expect("run");
    let cp = r.trace.critical_path(&labels);
    assert!(
        (cp.attributed() - r.virtual_time).abs() <= 1e-6 * r.virtual_time,
        "analyzer attributed {:.3} of {:.3}",
        cp.attributed(),
        r.virtual_time
    );
    cp
}
