//! E16 — scale: the async executor at thousands of processors, and
//! hierarchical (tiered) topologies moving the collectives crossover.
//!
//! Part one is the scale claim: the async task-per-processor machine
//! runs a neighbour ring exchange at **P=4096** — four thousand
//! simulated processors multiplexed over a fixed worker pool, far past
//! thread-per-processor territory — and its timing-free fingerprint
//! (memory image, movement multiset, message count) must equal the
//! virtual-time simulator's exactly, on both the interpreter and the
//! compiled VM. A sweep of generated corpus programs then runs through
//! the `xdp_verify::diff` oracles (`run_async` vs `run_sim`) for the
//! same equality at corpus sizes.
//!
//! Part two is the topology claim: on a tiered node/rack/cluster
//! machine, making cross-rack links 100x dearer must *move* the
//! staged-Bruck vs direct-pairwise crossover of the collectives planner
//! (direct pairwise pays more cluster messages than the log-round
//! staged schedule, so staging pays off at a lower per-message cost) —
//! asserted both as a crossover-point shift and as one operating point
//! where only the tier costs differ and the chosen strategy flips.

use std::sync::Arc;
use std::time::Instant;
use xdp_bench::table::{j, Table};
use xdp_collectives::planner::{plan, Strategy};
use xdp_compiler::Backend;
use xdp_core::{
    ExecReport, Gathered, KernelRegistry, Machine, MachineConfig, MachineKind, RtError,
};
use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, Distribution, ElemType, ProcGrid, Program, Triplet, VarId};
use xdp_machine::{CostModel, Tier, Topology};
use xdp_runtime::Value;
use xdp_trace::TraceConfig;
use xdp_verify::diff::{run_async, run_sim};
use xdp_verify::gen::executable_program;
use xdp_verify::{machine, Fingerprint};

/// The scale leg's machine size.
const NPROCS: usize = 4096;
/// Generated corpus programs in the oracle sweep.
const CORPUS_COUNT: u64 = 8;

/// A neighbour ring exchange with O(1) statements per processor: pid p
/// (except the last) sends its element of T; pid p (except the first)
/// receives its left neighbour's value into U. The canonical
/// constant-work-per-pid program, so total work is O(P) and the
/// simulator baseline stays cheap even at P=4096.
fn ring_exchange(nprocs: usize) -> Arc<Program> {
    let n = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let t = p.declare(b::array(
        "T",
        ElemType::F64,
        vec![(0, n - 1)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let u = p.declare(b::array(
        "U",
        ElemType::F64,
        vec![(0, n - 1)],
        vec![DimDist::Block],
        grid,
    ));
    let tm = b::sref(t, vec![b::at(b::mypid())]);
    let tprev = b::sref(t, vec![b::at(b::mypid().sub(b::c(1)))]);
    let um = b::sref(u, vec![b::at(b::mypid())]);
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Lt, b::mypid(), b::c(n - 1)),
            vec![b::send(tm)],
        ),
        b::guarded(
            b::cmp(CmpOp::Gt, b::mypid(), b::c(0)),
            vec![
                b::recv_val(um.clone(), tprev),
                b::guarded(b::await_(um), vec![]),
            ],
        ),
    ];
    Arc::new(p)
}

/// A machine that clocks its own run, so the wall column times the run
/// alone and not the init, gather and fingerprint around it.
struct Timed {
    inner: Box<dyn Machine>,
    run_secs: f64,
}

impl Machine for Timed {
    fn init_exclusive(&mut self, var: VarId, f: &dyn Fn(&[i64]) -> Value) {
        self.inner.init_exclusive(var, f)
    }

    fn run_report(&mut self) -> Result<ExecReport, RtError> {
        let t0 = Instant::now();
        let report = self.inner.run_report();
        self.run_secs = t0.elapsed().as_secs_f64();
        report
    }

    fn gather(&self, var: VarId) -> Gathered {
        self.inner.gather(var)
    }
}

/// Fingerprint `prog` on the fully traced `kind` machine of `backend`
/// processors by the one run protocol. Returns (fingerprint, wall seconds
/// of the run, messages).
fn fingerprint(
    kind: MachineKind,
    backend: Backend,
    prog: &Arc<Program>,
) -> (Fingerprint, f64, u64) {
    let cfg = MachineConfig::new(NPROCS).with_trace(TraceConfig::full());
    let mut exec = Timed {
        inner: machine(kind, backend, prog.clone(), KernelRegistry::standard(), cfg),
        run_secs: 0.0,
    };
    let (fp, report) = Fingerprint::of_run(&mut exec, &prog.decls).expect("run");
    (fp, exec.run_secs, report.net.messages)
}

/// Timing-free equality: memory image, movement multiset, messages.
fn conformant(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.memory == b.memory && a.movement == b.movement && a.messages == b.messages
}

/// Plan block(8) -> cyclic(8) on a 2x2x2 tiered machine with per-message
/// cost `alpha` and the cluster tier's alpha/beta scaled by `scale`.
fn plan_at(alpha: f64, scale: f64) -> xdp_collectives::planner::RedistPlan {
    let bounds = [Triplet::range(1, 64)];
    let src = Distribution::new(vec![DimDist::Block], ProcGrid::linear(8));
    let dst = Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(8));
    let model = CostModel {
        alpha,
        cpu_overhead: 0.0,
        ..CostModel::default_1993()
    }
    .with_tier_scale(Tier::Cluster, scale, scale);
    plan(
        VarId(0),
        &bounds,
        8,
        &src,
        &dst,
        &model,
        &Topology::tiered(2, 2, 2),
        false,
    )
}

/// Smallest alpha (on a geometric grid) at which the planner first
/// prefers the staged schedule.
fn crossover_alpha(scale: f64) -> f64 {
    for k in 0..400 {
        let alpha = 1e-6 * 1.05f64.powi(k);
        if plan_at(alpha, scale).strategy == Strategy::StagedBruck {
            return alpha;
        }
    }
    f64::INFINITY
}

fn main() {
    let mut failures = 0usize;

    // Part one: P=4096 on the async machine, interpreter and VM, against
    // the simulator baseline.
    let prog = ring_exchange(NPROCS);
    let (base, sim_wall, sim_msgs) = fingerprint(MachineKind::Sim, Backend::Interp, &prog);
    let (afp, async_wall, _) = fingerprint(MachineKind::Tasks, Backend::Interp, &prog);
    let (vfp, vm_wall, _) = fingerprint(MachineKind::Tasks, Backend::Vm, &prog);
    let mut t = Table::new(
        &format!("E16: ring exchange at P={NPROCS} (timing-free fingerprint vs simulator)"),
        &["machine", "wall_ms", "messages", "conformant"],
    );
    t.row(&[
        j::s("sim (baseline)"),
        j::f(sim_wall * 1e3),
        j::u(sim_msgs),
        j::s("-"),
    ]);
    for (label, fp, wall) in [
        ("async interp", &afp, async_wall),
        ("async vm", &vfp, vm_wall),
    ] {
        let ok = conformant(&base, fp);
        if !ok {
            eprintln!("e16: {label} diverged from the simulator at P={NPROCS}");
            failures += 1;
        }
        t.row(&[
            j::s(label),
            j::f(wall * 1e3),
            j::u(fp.messages),
            j::s(if ok { "yes" } else { "NO" }),
        ]);
    }
    if sim_msgs != NPROCS as u64 - 1 {
        eprintln!("e16: expected one message per ring edge, saw {sim_msgs}");
        failures += 1;
    }
    t.print();

    // Corpus sweep: generated message-passing programs through the
    // differential oracles.
    let mut corpus_fail = 0usize;
    for k in 0..CORPUS_COUNT {
        let tp = executable_program(500 + k);
        let p = Arc::new(tp.program.clone());
        let base = run_sim(&p, tp.nprocs, None);
        let got = run_async(&p, tp.nprocs);
        let same = match (&base, &got) {
            (Ok(a), Ok(g)) => conformant(a, g),
            (Err(a), Err(g)) => a == g,
            _ => false,
        };
        if !same {
            eprintln!("e16: corpus seed {}: async diverged from sim", tp.seed);
            corpus_fail += 1;
        }
    }
    let mut t2 = Table::new(
        "E16: corpus conformance (async vs sim oracles)",
        &["oracle", "programs", "failures"],
    );
    t2.row(&[
        j::s("async timing-free"),
        j::u(CORPUS_COUNT),
        j::u(corpus_fail as u64),
    ]);
    failures += corpus_fail;
    t2.print();

    // Part two: the tiered-topology crossover table. Cross-rack links at
    // 100x must move the staged-vs-direct break-even down.
    let flat = crossover_alpha(1.0);
    let skewed = crossover_alpha(100.0);
    let mut t3 = Table::new(
        "E16: staged-Bruck crossover, block(8)->cyclic(8) on tiered 2x2x2",
        &["cluster_scale", "crossover_alpha", "strategy_at_0.65"],
    );
    for (scale, cross) in [(1.0, flat), (100.0, skewed)] {
        t3.row(&[
            j::f(scale),
            j::f(cross),
            j::s(&plan_at(0.65, scale).strategy.to_string()),
        ]);
    }
    t3.print();
    if skewed >= flat * 0.9 {
        eprintln!("e16: crossover did not move: flat {flat:.3}, 100x {skewed:.3}");
        failures += 1;
    }
    if plan_at(0.65, 1.0).strategy != Strategy::DirectPairwise
        || plan_at(0.65, 100.0).strategy != Strategy::StagedBruck
    {
        eprintln!("e16: operating point 0.65 did not flip strategies with tier scale");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("e16: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("e16: ok");
}
