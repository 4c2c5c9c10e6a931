//! A run no processor can advance is diagnosed, not waited out, and every
//! machine gives it the same answer.
//!
//! XDP writes every send, receive and `await` in the program text, so
//! whether a run can still progress is a fact of the machine's state.
//! A receive still outstanding when every processor has finished is part
//! of that fact: nothing will ever complete it.
//!
//! Each stuck case runs on the simulator and the task machine with both
//! backends, and on the lockstep reference where it takes the
//! configuration, and must fail with one `RtError` variant everywhere.
//! The task machine runs under a watchdog: it decides, it does not wait.
//! And the pin the one answer rests on: no corpus program, FFT stage or
//! application ends with a receive outstanding on the simulator, so
//! calling that stuck moves no run that finishes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdp::prelude::*;
use xdp_apps::farm::FarmConfig;
use xdp_apps::fft3d::{Fft3dConfig, Stage};
use xdp_compiler::{compile, Backend, CompileOptions, SeqMode};
use xdp_core::Processor;
use xdp_verify::lockstep::Lockstep;

/// How long the task machine may take over a stuck run before the test
/// calls it hung.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Each pid receives its own block of `A` under its own name, and awaits
/// it. Nobody sends.
const AWAITED: &str = "real A[1:4] distribute (BLOCK) onto 2
A[mylb(A[*], 1):myub(A[*], 1)] <- A[mylb(A[*], 1):myub(A[*], 1)]
await(A[mylb(A[*], 1):myub(A[*], 1)]) : { A[mylb(A[*], 1)] = 1.0 }
";

/// Each pid posts a receive of `A[1]` and ends without awaiting it.
/// Nobody sends.
const UNMATCHED_AT_END: &str = "real A[1:4] distribute (BLOCK) onto 2
real T[0:1] distribute (BLOCK) onto 2
T[mypid] <- A[1]
";

/// p1 awaits `A[1]`, which p0 sends only after a barrier p1 never
/// reaches.
const BARRIER_FACING_A_RECEIVE: &str = "real A[1:4] distribute (BLOCK) onto 2
real T[0:1] distribute (BLOCK) onto 2
mypid == 1 : {
  T[1] <- A[1]
  await(T[1]) : { T[1] = T[1] + 1.0 }
}
barrier
iown(A[1]) : { A[1] -> }
";

/// p0 sends `A[1]`, and p1 receives and awaits it: a run that finishes,
/// unless its one message is killed.
const ONE_MESSAGE: &str = "real A[1:4] distribute (BLOCK) onto 2
real T[0:1] distribute (BLOCK) onto 2
iown(A[1]) : { A[1] -> }
mypid == 1 : {
  T[1] <- A[1]
  await(T[1]) : { T[1] = T[1] + 1.0 }
}
";

/// The plan that loses p0's first message: every attempt dropped, then
/// dead-lettered after two retries.
fn kill_first() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.kill.push((0, 1));
    plan.rto = 200.0;
    plan.max_retries = 2;
    plan
}

/// Run `source` on `kind` × `backend`, the task machine under the
/// watchdog; the error's variant name, or `"Ok"`.
fn outcome(source: &str, kind: MachineKind, backend: Backend, faults: FaultPlan) -> String {
    let program = Arc::new(xdp_lang::parse_program(source).unwrap());
    let cfg = MachineConfig {
        workers: 2,
        ..MachineConfig::new(2)
    }
    .with_faults(faults);
    let start = Instant::now();
    let run = std::thread::spawn(move || {
        let mut exec = xdp_verify::machine(kind, backend, program, KernelRegistry::standard(), cfg);
        exec.run_report().map(drop)
    });
    while !run.is_finished() {
        let waited = start.elapsed();
        assert!(
            waited < WATCHDOG,
            "{kind:?} {backend}: still running after {waited:?}"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    variant(run.join().unwrap(), start)
}

/// The lockstep reference's outcome, as [`outcome`] names it.
fn reference(source: &str) -> String {
    let program = Arc::new(xdp_lang::parse_program(source).unwrap());
    let mut exec = Lockstep::new(program, KernelRegistry::standard(), MachineConfig::new(2));
    variant(exec.run().map(drop), Instant::now())
}

fn variant(result: Result<(), RtError>, start: Instant) -> String {
    match result {
        Ok(()) => "Ok".into(),
        Err(e) => {
            let name = format!("{e:?}");
            let name = name[..name.find(['(', ' ', '{']).unwrap_or(name.len())].to_string();
            eprintln!("{name} after {:?}: {e}", start.elapsed());
            name
        }
    }
}

/// Every machine `source` runs on answers it with `want`. The lockstep
/// reference refuses a fault plan, so it sits those cases out.
fn assert_one_answer(case: &str, source: &str, faults: FaultPlan, want: &str) {
    for kind in [MachineKind::Sim, MachineKind::Tasks] {
        for backend in [Backend::Interp, Backend::Vm] {
            let got = outcome(source, kind, backend, faults.clone());
            assert_eq!(got, want, "{case} on {kind:?} {backend}");
        }
    }
    if !faults.is_active() {
        assert_eq!(reference(source), want, "{case} on Lockstep");
    }
}

#[test]
fn an_awaited_receive_nobody_sends_is_a_deadlock() {
    assert_one_answer("awaited", AWAITED, FaultPlan::none(), "Deadlock");
}

#[test]
fn a_receive_unmatched_at_program_end_is_a_deadlock() {
    assert_one_answer("unmatched", UNMATCHED_AT_END, FaultPlan::none(), "Deadlock");
}

#[test]
fn a_barrier_facing_a_blocked_receive_is_a_deadlock() {
    let case = "barrier";
    assert_one_answer(
        case,
        BARRIER_FACING_A_RECEIVE,
        FaultPlan::none(),
        "Deadlock",
    );
}

#[test]
fn a_killed_message_is_lost_and_a_delivered_one_is_not_stuck() {
    assert_one_answer("delivered", ONE_MESSAGE, FaultPlan::none(), "Ok");
    assert_one_answer("killed", ONE_MESSAGE, kill_first(), "MessageLost");
}

/// (label, program, machine size) of every corpus file, plain, optimized
/// and auto-placed.
fn corpus() -> Vec<(String, Program, usize)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    let variants = [
        ("plain", auto.clone()),
        ("opt", auto.clone().optimized()),
        ("placed", auto.placed()),
    ];
    let mut out = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        for (variant, opts) in &variants {
            let compiled = compile(&source, opts)
                .unwrap_or_else(|e| panic!("{name}+{variant}: compile failed: {e}"));
            let program = Arc::unwrap_or_clone(compiled.program);
            out.push((format!("{name}+{variant}"), program, compiled.nprocs));
        }
    }
    out
}

/// (label, program, machine size) of every 3-D FFT stage and every other
/// application builder, all on four processors.
fn apps() -> Vec<(String, Program, usize)> {
    use xdp_apps::{farm, fft3d, halo2d, matvec, reduce};
    let cfg = Fft3dConfig::new(4, 4);
    let jobs = FarmConfig {
        tasks: 8,
        nprocs: 4,
        scale: 1,
    };
    let mut out: Vec<(&str, Program)> = Stage::all()
        .into_iter()
        .map(|s| (s.label(), fft3d::build(cfg, s).0))
        .collect();
    out.extend([
        ("fft3d-listing-v0", fft3d::paper_listing_v0(cfg).0),
        ("fft3d-chunked", fft3d::build_chunked(cfg, 2).0),
        ("jacobi2d", halo2d::build_jacobi2d(8, 10, 4, 2).0),
        ("jacobi2d-cols", halo2d::build_jacobi2d_cols(10, 8, 4, 2).0),
        ("matvec", matvec::build_matvec(8, 4).0),
        ("reduce", reduce::build_reduce(16, 4).0),
        ("farm", farm::build_farm(jobs).0),
        ("farm-static", farm::build_static(jobs).0),
    ]);
    out.into_iter()
        .map(|(label, program)| (label.to_string(), program, 4))
        .collect()
}

#[test]
fn no_finished_run_leaves_a_receive_outstanding() {
    for (label, program, nprocs) in corpus().into_iter().chain(apps()) {
        let decls = program.decls.clone();
        let mut exec = SimExec::new(
            Arc::new(program),
            xdp_apps::matvec::matvec_kernels(),
            MachineConfig::new(nprocs),
        );
        for i in (0..decls.len()).filter(|&i| decls[i].is_exclusive()) {
            exec.init_exclusive(VarId(i as u32), |idx| xdp_verify::init_value(i, idx));
        }
        exec.run().unwrap_or_else(|e| panic!("{label}: {e}"));
        for pid in 0..nprocs {
            let left = exec.interp_mut(pid).outstanding();
            assert!(left.is_empty(), "{label}: p{pid} ends with {left:?}");
        }
    }
}
