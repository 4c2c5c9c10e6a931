//! How the task machine's receives pair and land. A task posts each
//! receive in the net, and whichever of a send and its receive is posted
//! second pairs them (DESIGN §2.4): so over the benchmark's `exec-comm`
//! mix each message pairs once and the run ends as the simulator's, and
//! a message lands whether it is sent before its receive is posted or
//! while a program only tests `accessible()` — with and without injected
//! faults.

use xdp::prelude::*;
use xdp_compiler::{compile, Backend, CompileOptions};
use xdp_verify::{machine, Fingerprint};

/// The `exec-comm` mix (`tests/symtab_counts.rs` pins its counts):
/// BLOCK -> CYCLIC and back at N = 1024, a 64 x 64 transpose, `membound.xdp`
/// and sixteen sweeps of a halo exchange, all at P = 16.
const EXEC_COMM: [(&str, &str); 4] = [
    (
        "redist-roundtrip",
        "real A[1:1024] distribute (BLOCK) onto 16\n\
         redistribute A (CYCLIC) onto 16\n\
         redistribute A (BLOCK) onto 16\n",
    ),
    (
        "transpose-64",
        "real A[1:64,1:64] distribute (*,BLOCK) onto 16\n\
         redistribute A (BLOCK,*) onto 16\n",
    ),
    ("membound", include_str!("../xdp-programs/membound.xdp")),
    (
        "halo-16",
        "real U[1:64,1:32] distribute (BLOCK,*) onto 16\n\
         real GUP[0:15,1:32] distribute (BLOCK,*) onto 16\n\
         real GDN[0:15,1:32] distribute (BLOCK,*) onto 16\n\
         do t = 1, 16 {\n\
           mypid > 0 : { U[mylb(U[*,*], 1),*] -> }\n\
           mypid < 15 : { U[myub(U[*,*], 1),*] -> }\n\
           mypid > 0 : { GUP[mypid,*] <- U[(mylb(U[*,*], 1) - 1),*] }\n\
           mypid < 15 : { GDN[mypid,*] <- U[(myub(U[*,*], 1) + 1),*] }\n\
           (mypid > 0 && await(GUP[mypid,*])) : {\n\
             U[mylb(U[*,*], 1),2:31] = (0.5 * (U[mylb(U[*,*], 1),2:31] + GUP[mypid,2:31]))\n\
           }\n\
           (mypid < 15 && await(GDN[mypid,*])) : {\n\
             U[myub(U[*,*], 1),2:31] = (0.5 * (U[myub(U[*,*], 1),2:31] + GDN[mypid,2:31]))\n\
           }\n\
           barrier\n\
         }\n",
    ),
];

/// Each message of the mix pairs once — the pool's count of pairs is the
/// count of receives completed — and the run ends with the simulator's
/// memory, movement and message count, on the task machine
/// with the VM at 1, 2 and 4 workers: the worker count sets the
/// interleaving of sends, posts and takes.
#[test]
fn each_message_pairs_once_and_ends_as_on_the_simulator() {
    let opts = CompileOptions::default().with_backend(Backend::Vm);
    for (name, source) in EXEC_COMM {
        let c = compile(source, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = |kind, workers| {
            let cfg = MachineConfig {
                workers,
                ..MachineConfig::new(c.nprocs)
            };
            let mut exec = machine(
                kind,
                Backend::Vm,
                c.program.clone(),
                xdp_apps::app_kernels(),
                cfg.with_trace(TraceConfig::movement()),
            );
            Fingerprint::of_run(exec.as_mut(), &c.program.decls)
                .unwrap_or_else(|e| panic!("{name} on {kind:?}: {e}"))
        };
        let (sim, _) = run(MachineKind::Sim, 0);
        for workers in [1, 2, 4] {
            let (tasks, report) = run(MachineKind::Tasks, workers);
            let at = format!("{name} at {workers} workers");
            // The pool records a pair at its take; the recorder, a
            // receive at its completion.
            let completed = report.trace.of_kind(TraceKind::WireTransit).count();
            assert_eq!(
                report.net.messages, completed as u64,
                "{at}: a pair is one completed receive"
            );
            assert_eq!(tasks.messages, sim.messages, "{at}");
            assert_eq!(tasks.memory_all(), sim.memory_all(), "{at}");
            assert_eq!(tasks.movement, sim.movement, "{at}");
        }
    }
}

/// p1's receive of `A[1]` and the copy that needs it, in one of two
/// orders around a barrier, and nothing but `accessible()` asking whether
/// it landed: the copy is idempotent, so the final state is the same on
/// every machine however many iterations the message takes.
fn accessible_only(lands_first: bool) -> String {
    let (send, recv) = (
        "mypid == 0 : { A[1] -> }\n",
        "mypid == 1 : { T[1] <- A[1] }\n",
    );
    let (before, after) = if lands_first {
        (send, recv)
    } else {
        (recv, send)
    };
    format!(
        "real A[1:4] distribute (BLOCK) onto 2\n\
         real T[0:1] distribute (BLOCK) onto 2\n\
         {before}barrier\n{after}\
         do i = 1, 2000 {{\n\
           (mypid == 1 && accessible(T[1])) : {{ A[3] = T[1] }}\n\
         }}\n"
    )
}

/// A message lands on the task machine, ending as on the simulator:
/// memory, movement and message count. One worker runs both tasks, so p1
/// loops while p0 is parked or queued behind it.
fn lands_as_on_the_simulator(source: &str, faults: FaultPlan) {
    let c = compile(source, &CompileOptions::default().with_backend(Backend::Vm))
        .unwrap_or_else(|e| panic!("{e}"));
    let run = |kind, cfg: MachineConfig| {
        let cfg = cfg.with_trace(TraceConfig::movement());
        let mut exec = machine(
            kind,
            Backend::Vm,
            c.program.clone(),
            xdp_apps::app_kernels(),
            cfg,
        );
        Fingerprint::of_run(exec.as_mut(), &c.program.decls)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
            .0
    };
    let sim = run(MachineKind::Sim, MachineConfig::new(c.nprocs));
    let tasks = run(
        MachineKind::Tasks,
        MachineConfig {
            workers: 1,
            ..MachineConfig::new(c.nprocs)
        }
        .with_faults(faults),
    );
    // `A[3]` starts at 1003 (`xdp_verify::init_value`) and takes `A[1]`'s.
    assert_eq!(
        sim.memory["A"][2], "A[3] p1 = F64(1001.0)",
        "the simulator copied it"
    );
    assert_eq!(sim.memory_all(), tasks.memory_all());
    assert_eq!(sim.movement, tasks.movement);
    assert_eq!(sim.messages, tasks.messages);
}

/// Drops and delays on every link: the net settles both at the send, so
/// no receive waits for a retransmission or a late arrival.
fn faults() -> FaultPlan {
    FaultPlan::uniform(
        11,
        LinkFault {
            drop: 0.3,
            dup: 0.0,
            reorder: 0.0,
            delay_p: 0.5,
            delay: 200.0,
        },
    )
}

#[test]
fn a_message_that_lands_before_its_receive_is_posted_is_claimed() {
    lands_as_on_the_simulator(&accessible_only(true), FaultPlan::none());
}

#[test]
fn a_program_that_only_asks_accessible_sees_its_message_land() {
    lands_as_on_the_simulator(&accessible_only(false), FaultPlan::none());
}

#[test]
fn under_drops_and_delays_both_messages_still_land() {
    lands_as_on_the_simulator(&accessible_only(true), faults());
    lands_as_on_the_simulator(&accessible_only(false), faults());
}
