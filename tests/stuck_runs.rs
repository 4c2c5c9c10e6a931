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

mod programs;

use programs::{apps, corpus};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdp::prelude::*;
use xdp_compiler::Backend;
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
    if let Err(e) = &result {
        eprintln!("{} after {:?}: {e}", name(&result), start.elapsed());
    }
    name(&result)
}

/// `"Ok"`, or the error's variant name.
fn name(result: &Result<(), RtError>) -> String {
    match result {
        Ok(()) => "Ok".into(),
        Err(e) => {
            let name = format!("{e:?}");
            name[..name.find(['(', ' ', '{']).unwrap_or(name.len())].to_string()
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

/// Each pid but the last sends its element of `T` to its right
/// neighbour, which awaits it, three times over, a barrier between.
const RING_WITH_BARRIERS: &str = "real T[0:3] distribute (BLOCK) onto 4
real U[0:3] distribute (BLOCK) onto 4
do t = 1, 3 {
  mypid < 3 : { T[mypid] -> }
  mypid > 0 : {
    U[mypid] <- T[(mypid - 1)]
    await(U[mypid]) : { U[mypid] = U[mypid] + 1.0 }
  }
  barrier
}
";

/// Short runs of the no-hang test: rounds of every case at each worker
/// count.
const ROUNDS: usize = 125;

/// An idle worker waits for work with no timeout, so a wakeup lost
/// between its check and its wait would leave it asleep through the
/// run's end, and the pool's join would hang. Rings, a farm, barriers and
/// the stuck cases above, 2 000 short runs at two and four workers, one
/// after another on one thread: each must end as the simulator's run of
/// it does. This thread is the watchdog; no run starts a thread beyond
/// its pool.
#[test]
fn no_idle_worker_sleeps_through_the_end_of_a_run() {
    use xdp_apps::farm::{build_farm, FarmConfig};
    let parse = |source: &str| xdp_lang::parse_program(source).unwrap();
    let farm = FarmConfig {
        tasks: 8,
        nprocs: 4,
        scale: 1,
    };
    let none = FaultPlan::none;
    let cases: Vec<(&str, Program, usize, FaultPlan)> = vec![
        ("ring", parse(RING_WITH_BARRIERS), 4, none()),
        ("farm", build_farm(farm).0, 4, none()),
        ("awaited", parse(AWAITED), 2, none()),
        ("unmatched", parse(UNMATCHED_AT_END), 2, none()),
        ("barrier", parse(BARRIER_FACING_A_RECEIVE), 2, none()),
        ("delivered", parse(ONE_MESSAGE), 2, none()),
        ("killed", parse(ONE_MESSAGE), 2, kill_first()),
        ("ring-chaos", parse(RING_WITH_BARRIERS), 4, chaos()),
    ];
    let run = |kind, (program, nprocs, faults): (&Program, usize, &FaultPlan), workers| {
        let cfg = MachineConfig {
            workers,
            ..MachineConfig::new(nprocs)
        }
        .with_faults(faults.clone());
        let kernels = xdp_apps::app_kernels();
        let program = Arc::new(program.clone());
        let mut exec = xdp_verify::machine(kind, Backend::Interp, program, kernels, cfg);
        name(&exec.run_report().map(drop))
    };
    // The run in progress: its case, worker count and start, and the
    // runs started so far.
    let current = Arc::new(std::sync::Mutex::new(("", 0, Instant::now(), 0)));
    let started = current.clone();
    let runner = std::thread::spawn(move || {
        let want: Vec<String> = (cases.iter())
            .map(|(_, p, n, faults)| run(MachineKind::Sim, (p, *n, faults), 1))
            .collect();
        for _ in 0..ROUNDS {
            for workers in [2, 4] {
                for ((label, p, n, faults), want) in cases.iter().zip(&want) {
                    {
                        let mut now = started.lock().unwrap();
                        *now = (label, workers, Instant::now(), now.3 + 1);
                    }
                    let got = run(MachineKind::Tasks, (p, *n, faults), workers);
                    assert_eq!(&got, want, "{label} at {workers} workers");
                }
            }
        }
    });
    while !runner.is_finished() {
        let (label, workers, since, _) = *current.lock().unwrap();
        let waited = since.elapsed();
        assert!(
            waited < WATCHDOG,
            "{label} at {workers} workers: still running after {waited:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    runner.join().expect("every run ends as on the simulator");
    let runs = current.lock().unwrap().3;
    assert!(runs >= 2000, "{runs} runs");
}

/// Every fault class on every link, no message lost.
fn chaos() -> FaultPlan {
    FaultPlan::uniform(
        3,
        LinkFault {
            drop: 0.2,
            dup: 0.2,
            reorder: 0.3,
            delay_p: 0.3,
            delay: 100.0,
        },
    )
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
