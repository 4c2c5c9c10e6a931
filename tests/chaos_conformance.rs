//! Chaos conformance: every XDP program must produce bit-identical results
//! under injected transport faults (drops, duplicates, reordering, delays)
//! to its fault-free execution, on the virtual-time simulator and the
//! async task-per-processor machine — retries and duplicate suppression
//! make faults invisible to program semantics — and both machines settle
//! the same fate for each message. Permanently lost messages must be
//! *diagnosed* as lost, never reported as a deadlock or silent timeout.
//! The async machine additionally runs the suite at P=1024, far past
//! thread-per-processor territory.

mod programs;

use std::sync::Arc;
use xdp::prelude::*;
use xdp_apps::fft3d::{Fft3dConfig, Stage};
use xdp_ir::CmpOp;

/// The standard chaos plan for these tests: every fault class enabled,
/// drop rate at the acceptance bar (10%).
fn chaos(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(
        seed,
        LinkFault {
            drop: 0.10,
            dup: 0.10,
            reorder: 0.25,
            delay_p: 0.20,
            delay: 120.0,
        },
    );
    plan.rto = 500.0;
    plan
}

/// Indices of the exclusive arrays among `decls`.
fn exclusive(decls: &[Decl]) -> impl Iterator<Item = usize> + '_ {
    (0..decls.len()).filter(|&i| decls[i].is_exclusive())
}

/// Deterministic init of every exclusive array, on any machine.
fn init(exec: &mut (impl Machine + ?Sized), decls: &[Decl]) {
    for i in exclusive(decls) {
        exec.init_exclusive(VarId(i as u32), &move |idx| xdp_verify::init_value(i, idx));
    }
}

/// The final global state of every exclusive array, as one map per array.
type State = Vec<Gathered>;

/// Init, run, and gather on any machine.
fn state(mut exec: impl Machine, decls: &[Decl]) -> (State, ExecReport) {
    init(&mut exec, decls);
    let report = exec.run_report().expect("run");
    let state = exclusive(decls)
        .map(|i| exec.gather(VarId(i as u32)))
        .collect();
    (state, report)
}

fn sim_state(
    program: &Program,
    kernels: KernelRegistry,
    nprocs: usize,
    faults: FaultPlan,
    trace: bool,
) -> (State, ExecReport) {
    let mut cfg = MachineConfig::new(nprocs).with_faults(faults);
    if trace {
        cfg = cfg.with_trace(TraceConfig::full());
    }
    let exec = SimExec::new(Arc::new(program.clone()), kernels, cfg);
    state(exec, &program.decls)
}

fn tasks_state(
    program: &Program,
    kernels: KernelRegistry,
    nprocs: usize,
    faults: FaultPlan,
) -> State {
    let cfg = MachineConfig::new(nprocs).with_faults(faults);
    let exec = AsyncExec::new(Arc::new(program.clone()), kernels, cfg);
    state(exec, &program.decls).0
}

/// One conformance workload: (label, program, kernel registry, machine size).
type App = (&'static str, Program, fn() -> KernelRegistry, usize);

fn apps() -> Vec<App> {
    let (fft_v5, _) = xdp_apps::fft3d::build(Fft3dConfig::new(4, 4), Stage::V5Planned);
    let (fft_v6, _) = xdp_apps::fft3d::build(Fft3dConfig::new(4, 4), Stage::V6Auto);
    let (jacobi, _) = xdp_apps::halo2d::build_jacobi2d(8, 10, 4, 2);
    let (matvec, _) = xdp_apps::matvec::build_matvec(8, 4);
    vec![
        ("fft3d-v5", fft_v5, xdp_apps::app_kernels, 4),
        ("fft3d-v6", fft_v6, xdp_apps::app_kernels, 4),
        ("jacobi2d", jacobi, KernelRegistry::standard, 4),
        ("matvec", matvec, xdp_apps::matvec::matvec_kernels, 4),
    ]
}

#[test]
fn sim_chaos_is_bit_identical_and_fully_attributed() {
    for (label, program, kernels, nprocs) in apps() {
        let (clean, clean_report) =
            sim_state(&program, kernels(), nprocs, FaultPlan::none(), false);
        let (faulty, report) = sim_state(&program, kernels(), nprocs, chaos(11), true);
        assert_eq!(clean, faulty, "{label}: chaos changed the result");
        assert_eq!(
            clean_report.net.messages, report.net.messages,
            "{label}: dedup must keep the delivered-message count"
        );
        // Retry latency must be visible to — and fully attributed by —
        // the critical-path analyzer.
        let labels = std::collections::HashMap::new();
        let cp = report.trace.critical_path(&labels);
        assert!(report.virtual_time > 0.0, "{label}");
        assert!(
            (cp.attributed() - report.virtual_time).abs() <= 1e-6 * report.virtual_time,
            "{label}: attributed {:.3} of {:.3} under faults",
            cp.attributed(),
            report.virtual_time
        );
    }
}

#[test]
fn sim_chaos_injects_faults_on_every_app() {
    // A conformance pass that never injected anything proves nothing:
    // check the chaos plan actually bites on each communicating app's
    // traffic. (fft3d-v6 at this size auto-places to zero messages — a
    // program that sends nothing has nothing to fault.)
    let mut injected_somewhere = false;
    for (label, program, kernels, nprocs) in apps() {
        let (_, report) = sim_state(&program, kernels(), nprocs, chaos(11), false);
        if report.net.messages > 0 {
            assert!(
                report.faults.any_injected(),
                "{label}: no faults injected despite {} messages",
                report.net.messages
            );
            injected_somewhere = true;
        }
    }
    assert!(injected_somewhere, "every app serialized; suite is vacuous");
}

#[test]
fn tasks_chaos_is_bit_identical() {
    for (label, program, kernels, nprocs) in apps() {
        let clean = tasks_state(&program, kernels(), nprocs, FaultPlan::none());
        let faulty = tasks_state(&program, kernels(), nprocs, chaos(31));
        assert_eq!(clean, faulty, "{label}: chaos changed the result");
        // And the async machine agrees with the simulator on every app.
        let (sim, _) = sim_state(&program, kernels(), nprocs, FaultPlan::none(), false);
        assert_eq!(sim, clean, "{label}: async diverged from the simulator");
    }
}

/// A neighbour ring exchange with O(1) statements per processor: pid p
/// (except the last) sends its element of T; pid p (except the first)
/// receives the value of its left neighbour's element into U. Scales to
/// thousands of processors on the async machine.
fn ring_exchange(nprocs: usize) -> Program {
    let n = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let t = p.declare(build::array(
        "T",
        ElemType::F64,
        vec![(0, n - 1)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let u = p.declare(build::array(
        "U",
        ElemType::F64,
        vec![(0, n - 1)],
        vec![DimDist::Block],
        grid,
    ));
    let tm = build::sref(t, vec![build::at(build::mypid())]);
    let tprev = build::sref(t, vec![build::at(build::mypid().sub(build::c(1)))]);
    let um = build::sref(u, vec![build::at(build::mypid())]);
    p.body = vec![
        build::guarded(
            build::cmp(CmpOp::Lt, build::mypid(), build::c(n - 1)),
            vec![build::send(tm)],
        ),
        build::guarded(
            build::cmp(CmpOp::Gt, build::mypid(), build::c(0)),
            vec![
                build::recv_val(um.clone(), tprev),
                build::guarded(build::await_(um), vec![]),
            ],
        ),
    ];
    p
}

#[test]
fn tasks_chaos_at_p1024_matches_the_simulator() {
    let nprocs = 1024;
    let program = ring_exchange(nprocs);
    let (sim, report) = sim_state(
        &program,
        KernelRegistry::standard(),
        nprocs,
        FaultPlan::none(),
        false,
    );
    assert_eq!(
        report.net.messages,
        nprocs as u64 - 1,
        "one message per ring edge"
    );
    let clean = tasks_state(
        &program,
        KernelRegistry::standard(),
        nprocs,
        FaultPlan::none(),
    );
    assert_eq!(sim, clean, "async P=1024 diverged from the simulator");
    let faulty = tasks_state(&program, KernelRegistry::standard(), nprocs, chaos(47));
    assert_eq!(clean, faulty, "chaos changed the result at P=1024");
}

#[test]
fn sim_permanent_loss_is_diagnosed() {
    let (program, _) = xdp_apps::matvec::build_matvec(8, 4);
    let mut plan = FaultPlan::none();
    plan.kill.push((0, 1));
    plan.rto = 200.0;
    plan.max_retries = 2;
    let decls = program.decls.clone();
    let mut exec = SimExec::new(
        Arc::new(program),
        xdp_apps::matvec::matvec_kernels(),
        MachineConfig::new(4).with_faults(plan),
    );
    init(&mut exec, &decls);
    match exec.run() {
        Err(RtError::MessageLost(d)) => {
            assert!(d.contains("permanently lost"), "{d}");
        }
        other => panic!("want MessageLost, got {other:?}"),
    }
}

#[test]
fn tasks_permanent_loss_is_diagnosed() {
    let (program, _) = xdp_apps::matvec::build_matvec(8, 4);
    let mut plan = FaultPlan::none();
    plan.kill.push((0, 1));
    plan.max_retries = 2;
    let decls = program.decls.clone();
    let mut exec = AsyncExec::new(
        Arc::new(program),
        xdp_apps::matvec::matvec_kernels(),
        MachineConfig::new(4).with_faults(plan),
    );
    init(&mut exec, &decls);
    match exec.run() {
        Err(RtError::MessageLost(d)) => {
            assert!(d.contains("permanently lost"), "{d}");
        }
        other => panic!("want MessageLost, got {other:?}"),
    }
}

/// Run `program` under `plan` on `kind`, every exclusive array seeded: its
/// fault counters, or the message a loss diagnosis names — without the
/// receiving pid, which for an unbound message (the farm's) is whichever
/// receiver the schedule left waiting.
fn fates(
    program: &Program,
    nprocs: usize,
    kind: MachineKind,
    plan: &FaultPlan,
) -> Result<FaultStats, String> {
    let cfg = MachineConfig {
        workers: 2,
        ..MachineConfig::new(nprocs)
    }
    .with_faults(plan.clone());
    let kernels = xdp_apps::matvec::matvec_kernels();
    let mut exec = xdp_verify::machine(
        kind,
        xdp_compiler::Backend::Interp,
        Arc::new(program.clone()),
        kernels,
        cfg,
    );
    init(exec.as_mut(), &program.decls);
    exec.run_report().map(|r| r.faults).map_err(|e| match e {
        RtError::MessageLost(d) => d[d.find(": ").unwrap()..].to_string(),
        e => panic!("{kind:?}: {e}"),
    })
}

/// A message's fate is a function of `(src, seq)` under the plan, settled
/// at its send on both machines: for one plan and seed the task machine's
/// fault counters equal the simulator's on every corpus program, FFT
/// stage and application, and under a plan that loses messages both
/// machines answer with the same loss. (`delivery_props` compares the two
/// nets' dead letters one by one.)
#[test]
fn tasks_fault_fates_equal_the_simulators() {
    let mut lossy = chaos(5);
    (lossy.default.drop, lossy.max_retries) = (0.3, 1);
    let (mut finished, mut lost) = (0, 0);
    for (label, program, nprocs) in programs::corpus().into_iter().chain(programs::apps()) {
        for plan in [&chaos(5), &lossy] {
            let sim = fates(&program, nprocs, MachineKind::Sim, plan);
            let tasks = fates(&program, nprocs, MachineKind::Tasks, plan);
            assert_eq!(sim, tasks, "{label}: drop {}", plan.default.drop);
            if sim.is_ok() {
                finished += 1;
            } else {
                lost += 1;
            }
        }
    }
    assert!(finished > 0 && lost > 0, "{finished} finished, {lost} lost");
}
