//! E11 — chaos conformance and the cost of reliability.
//!
//! Sweeps the injected drop rate over the paper's communicating workloads
//! on the virtual-time simulator and reports what the ack/retry delivery
//! layer paid to hide each fault mix: retries, suppressed duplicates, and
//! the end-to-end slowdown relative to the fault-free run. Every row is
//! also a conformance check — the final global state under chaos must be
//! bit-identical to the clean run, and the critical-path analyzer must
//! attribute 100% of the virtual time even when retry latency is on the
//! path.
//!
//! A second table runs the wall-clock task machine at the acceptance-bar
//! fault mix (10% drop) and checks real-parallel conformance: the final
//! state is the clean run's, and the fault counters are the simulator's
//! under the same plan, since both machines settle a message's fate from
//! `(src, seq)` at its send. Its wall columns are printed, not asserted.
//!
//! Virtual time rises with drop rate (each retry adds one rto-scaled delay
//! to the affected chain, nothing else changes), and the delivered-message
//! count stays constant across the sweep — dedup makes duplicates and
//! retransmissions invisible.

use crate::table::{j, Table};
use std::collections::HashMap;
use std::sync::Arc;
use xdp_apps::fft3d::{Fft3dConfig, Stage};
use xdp_core::{AsyncExec, ExecReport, Gathered, KernelRegistry, Machine, MachineConfig, SimExec};
use xdp_fault::{FaultPlan, FaultStats, LinkFault};
use xdp_ir::{Program, Section, VarId};
use xdp_runtime::Value;
use xdp_trace::TraceConfig;

const SWEEP: &[f64] = &[0.0, 0.05, 0.10, 0.20];

/// The E11 chaos mix at a given drop rate: every other fault class on.
fn chaos(seed: u64, drop: f64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(
        seed,
        LinkFault {
            drop,
            dup: 0.10,
            reorder: 0.25,
            delay_p: 0.20,
            delay: 120.0,
        },
    );
    plan.rto = 500.0;
    plan
}

/// The final global state of every exclusive array.
type State = Vec<Gathered>;

/// Seed every exclusive array with its element ordinals, run, and gather.
fn run<M: Machine>(mut exec: M, program: &Program) -> (State, ExecReport) {
    let exclusive = || {
        let decls = program.decls.iter().enumerate();
        decls.filter(|(_, d)| d.is_exclusive())
    };
    for (i, d) in exclusive() {
        let full = Section::new(d.bounds.clone());
        exec.init_exclusive(VarId(i as u32), &move |idx| {
            Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
        });
    }
    let report = exec.run_report().expect("run");
    let state = exclusive()
        .map(|(i, _)| exec.gather(VarId(i as u32)))
        .collect();
    (state, report)
}

fn sim_run(
    program: &Program,
    kernels: KernelRegistry,
    nprocs: usize,
    faults: FaultPlan,
) -> (State, ExecReport) {
    let cfg = MachineConfig::new(nprocs)
        .with_faults(faults)
        .with_trace(TraceConfig::full());
    run(
        SimExec::new(Arc::new(program.clone()), kernels, cfg),
        program,
    )
}

/// Final state, wall milliseconds and fault counters on the task machine.
fn tasks_run(
    program: &Program,
    kernels: KernelRegistry,
    nprocs: usize,
    faults: FaultPlan,
) -> (State, f64, FaultStats) {
    let cfg = MachineConfig::new(nprocs).with_faults(faults);
    let exec = AsyncExec::new(Arc::new(program.clone()), kernels, cfg);
    let (state, report) = run(exec, program);
    (state, report.virtual_time / 1e3, report.faults)
}

/// One workload: (label, program, kernel registry, machine size).
type App = (&'static str, Program, fn() -> KernelRegistry, usize);

/// The workload matrix: communicating apps only (a program that sends no
/// messages has nothing to fault).
fn apps() -> Vec<App> {
    let (fft_v5, _) = xdp_apps::fft3d::build(Fft3dConfig::new(4, 4), Stage::V5Planned);
    let (jacobi, _) = xdp_apps::halo2d::build_jacobi2d(8, 10, 4, 2);
    let (matvec, _) = xdp_apps::matvec::build_matvec(8, 4);
    vec![
        ("fft3d-v5", fft_v5, xdp_apps::app_kernels, 4),
        ("jacobi2d", jacobi, KernelRegistry::standard, 4),
        ("matvec", matvec, xdp_apps::matvec::matvec_kernels, 4),
    ]
}

/// Under every fault mix, on both machines, each app's final state is
/// bit-identical to its clean run; on the simulator the delivered-message
/// count is the clean run's and the critical path attributes all of the
/// virtual time.
pub fn e11() -> Vec<Table> {
    let mut t = Table::new(
        "E11: sim chaos sweep (dup .10 reorder .25 delayp .20, rto 500)",
        &[
            "app",
            "drop%",
            "msgs",
            "retries",
            "dupsup",
            "lost",
            "virt-us",
            "slowdown",
            "identical",
        ],
    );
    for (label, program, kernels, nprocs) in apps() {
        let (clean, clean_report) = sim_run(&program, kernels(), nprocs, FaultPlan::none());
        for &drop in SWEEP {
            let (state, report) = sim_run(&program, kernels(), nprocs, chaos(11, drop));
            assert!(
                state == clean,
                "E11: {label} drop={drop}: state differs from clean"
            );
            assert_eq!(
                report.net.messages, clean_report.net.messages,
                "E11: {label} drop={drop}: delivered messages differ from clean"
            );
            // Retry latency must be fully attributed by the analyzer.
            let cp = report.trace.critical_path(&HashMap::new());
            assert!(
                (cp.attributed() - report.virtual_time).abs() <= 1e-6 * report.virtual_time,
                "E11: {label} drop={drop}: attributed {:.3} of {:.3}",
                cp.attributed(),
                report.virtual_time
            );
            t.row(&[
                j::s(label),
                j::u((drop * 100.0).round() as u64),
                j::u(report.net.messages),
                j::u(report.faults.retries),
                j::u(report.faults.dup_suppressed),
                j::u(report.faults.lost),
                j::f(report.virtual_time),
                j::f(report.virtual_time / clean_report.virtual_time),
                j::s("yes"),
            ]);
        }
    }

    let mut t2 = Table::new(
        "E11: task machine at the acceptance mix (drop .10)",
        &["app", "clean-ms", "chaos-ms", "retries", "identical"],
    );
    for (label, program, kernels, nprocs) in apps() {
        let (clean, clean_ms, _) = tasks_run(&program, kernels(), nprocs, FaultPlan::none());
        let (state, chaos_ms, faults) = tasks_run(&program, kernels(), nprocs, chaos(23, 0.10));
        assert!(
            state == clean,
            "E11: {label} on the task machine: state differs from clean"
        );
        let (_, sim) = sim_run(&program, kernels(), nprocs, chaos(23, 0.10));
        assert_eq!(
            faults, sim.faults,
            "E11: {label}: the task machine's fault counters differ from the simulator's"
        );
        t2.row(&[
            j::s(label),
            j::f(clean_ms),
            j::f(chaos_ms),
            j::u(faults.retries),
            j::s("yes"),
        ]);
    }
    vec![t, t2]
}
