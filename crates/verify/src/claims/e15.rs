//! E15 — the bytecode VM vs the tree-walking interpreter.
//!
//! Part one is the performance claim: on communication-free local
//! compute (the regime bytecode compilation targets), the VM must be at
//! least **10x** faster than the interpreter at realistic volumes. Each
//! leg runs `do t = 1, sweeps { mine = mine + mine }` over a
//! block-distributed array on both backends and reports the wall-clock
//! ratio; the floor is asserted on the n >= 4096 legs. The small leg is
//! reported unasserted — at tiny volumes per-element work no longer
//! dominates and the ratio is machine-noise territory.
//!
//! Part two is the conformance claim the speedup is worthless without:
//! over a sweep of generated message-passing programs, the VM's
//! [`Fingerprint`] — memory image, movement multiset,
//! section states, message count — must equal the interpreter's exactly
//! on the simulated machine (clean *and* under a lossy fault plan), and
//! match on everything timing-free on the wall-clock task machine.
//!
//! The ratio is wall clock, so the claim is meaningful in a release
//! build only: `tests/paper_claims.rs` ignores it unless asked.

use crate::diff::{run_sim, run_vm};
use crate::gen::executable_program;
use crate::{machine, Fingerprint};
use std::sync::Arc;
use std::time::Instant;
use xdp_bench::table::{j, Table};
use xdp_compiler::Backend;
use xdp_core::{KernelRegistry, MachineConfig, MachineKind};
use xdp_fault::{FaultPlan, LinkFault};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

const NPROCS: usize = 4;
/// Wall-clock repetitions per leg; the minimum is reported.
const REPS: usize = 5;
/// The asserted floor on the large legs.
const FLOOR: f64 = 10.0;
/// Generated programs in the conformance sweep.
const CONFORMANCE_COUNT: u64 = 12;

/// `do t = 1, sweeps { mine = mine + mine }` over a block-distributed
/// array: every statement is local compute.
fn local_sweeps(n: i64, sweeps: i64) -> (Arc<Program>, VarId) {
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(NPROCS),
    ));
    let all = b::sref(a, vec![b::all()]);
    let mine = b::sref(a, vec![b::span(b::mylb(all.clone(), 1), b::myub(all, 1))]);
    p.body = vec![b::do_loop(
        "t",
        b::c(1),
        b::c(sweeps),
        vec![b::assign(
            mine.clone(),
            b::val(mine.clone()).add(b::val(mine)),
        )],
    )];
    (Arc::new(p), a)
}

/// Minimum wall seconds over `REPS` runs of `f` (after one warmup).
fn min_wall(mut f: impl FnMut()) -> f64 {
    f();
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Wall seconds to build, initialize and run `p` on the simulator with
/// `backend`'s processors.
fn leg(backend: Backend, p: &Arc<Program>, a: VarId) -> f64 {
    min_wall(|| {
        let cfg = MachineConfig::new(NPROCS);
        let mut exec = machine(
            MachineKind::Sim,
            backend,
            p.clone(),
            KernelRegistry::standard(),
            cfg,
        );
        exec.init_exclusive(a, &|idx| Value::F64(idx[0] as f64));
        exec.run_report().unwrap();
    })
}

/// The lossy plan for the faulted conformance sweep: 10% drop plus
/// duplicates, reordering, and delays.
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

/// The VM is at least 10× the interpreter on the n ≥ 4096 legs, and its
/// fingerprint equals the interpreter's on every generated program.
pub fn e15() -> Vec<Table> {
    // Part one: the speedup table, floors asserted on the big legs.
    let legs: &[(i64, i64)] = &[(256, 64), (1024, 64), (4096, 64), (16384, 32)];
    let mut t = Table::new(
        "E15: compiled VM vs interpreter, local compute (4 procs)",
        &[
            "n",
            "sweeps",
            "interp_ms",
            "vm_ms",
            "speedup",
            "floor",
            "ok",
        ],
    );
    for &(n, sweeps) in legs {
        let (p, a) = local_sweeps(n, sweeps);
        let interp_s = leg(Backend::Interp, &p, a);
        let vm_s = leg(Backend::Vm, &p, a);
        let speedup = interp_s / vm_s;
        let floored = n >= 4096;
        assert!(
            !floored || speedup >= FLOOR,
            "E15: n={n}: speedup {speedup:.1}x below the {FLOOR:.0}x floor"
        );
        t.row(&[
            j::i(n),
            j::i(sweeps),
            j::f(interp_s * 1e3),
            j::f(vm_s * 1e3),
            j::f(speedup),
            j::s(if floored { ">=10x" } else { "-" }),
            j::s("yes"),
        ]);
    }

    // Part two: fingerprint conformance over generated message-passing
    // programs — simulated machine clean and faulted (exact, including
    // section states and error text), task machine (timing-free).
    let mut t2 = Table::new(
        "E15: VM conformance (generated programs, 4 procs)",
        &["oracle", "programs", "failures"],
    );
    for k in 0..CONFORMANCE_COUNT {
        let tp = executable_program(100 + k);
        let p = Arc::new(tp.program.clone());
        assert!(
            run_sim(&p, tp.nprocs, None) == run_vm(&p, tp.nprocs, None),
            "E15: seed {}: sim fingerprint diverged",
            tp.seed
        );
        let plan = chaos(300 + k);
        assert!(
            run_sim(&p, tp.nprocs, Some(&plan)) == run_vm(&p, tp.nprocs, Some(&plan)),
            "E15: seed {}: faulted fingerprint diverged",
            tp.seed
        );
        let cfg = MachineConfig::new(tp.nprocs).with_trace(xdp_trace::TraceConfig::full());
        let on_tasks = |backend| {
            let kernels = KernelRegistry::standard();
            let mut exec = machine(MachineKind::Tasks, backend, p.clone(), kernels, cfg.clone());
            Fingerprint::of_run(exec.as_mut(), &p.decls)
        };
        let (ti, tv) = (on_tasks(Backend::Interp), on_tasks(Backend::Vm));
        let same = match (&ti, &tv) {
            (Ok((a, _)), Ok((v, _))) => {
                a.memory == v.memory && a.movement == v.movement && a.messages == v.messages
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        assert!(
            same,
            "E15: seed {}: task-machine fingerprint diverged",
            tp.seed
        );
    }
    for oracle in ["sim exact", "sim + faults exact", "tasks timing-free"] {
        t2.row(&[j::s(oracle), j::u(CONFORMANCE_COUNT), j::u(0)]);
    }
    t2.note("e15: ok\n");
    vec![t, t2]
}
