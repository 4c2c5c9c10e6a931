//! What the task machine's receive polls cost and guarantee. A task polls
//! its outstanding receives before a step only when a poll could claim
//! something (DESIGN §2.4): a message it may claim was sent since its last
//! poll, or it posted a receive since. So the polls of the benchmark's
//! `exec-comm` mix are bounded per message claimed, and
//! a message is still claimed whether it lands before its receive is
//! posted or while a program only tests `accessible()` — with and without
//! injected faults, ending as the simulator ends.

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

/// Receive polls per claimed message over the mix, on the task machine
/// with the VM and two workers: the worker count sets the interleaving of
/// arrivals and steps, so it is fixed rather than taken from the host.
/// Polled before every step, a task asked about every outstanding receive:
/// 9.1–9.5 polls a message, 13.3–14.3 on the redistributions. Gated on
/// arrivals it asks 3.6–3.8; 3.2 on one worker, at most 4.9 on sixteen
/// (EXPERIMENTS, "A step scans only what it touches").
#[test]
fn task_polls_are_bounded_per_claimed_message() {
    let opts = CompileOptions::default().with_backend(Backend::Vm);
    let (mut attempts, mut claims) = (0, 0);
    for (name, source) in EXEC_COMM {
        let c = compile(source, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut exec = machine(
            MachineKind::Tasks,
            Backend::Vm,
            c.program.clone(),
            xdp_apps::app_kernels(),
            MachineConfig {
                workers: 2,
                ..MachineConfig::new(c.nprocs)
            },
        );
        let (fp, report) = Fingerprint::of_run(exec.as_mut(), &c.program.decls)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let net = report.net;
        assert_eq!(net.recv_claims, fp.messages, "{name}: a claim is a message");
        println!(
            "{name}: {} polls for {} claims",
            net.recv_attempts, net.recv_claims
        );
        attempts += net.recv_attempts;
        claims += net.recv_claims;
    }
    assert!(
        attempts <= 6 * claims,
        "{attempts} receive polls for {claims} claimed messages"
    );
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

/// A message is claimed on the task machine, ending as on the simulator:
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
/// no poll waits for a retransmission or a late delivery.
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
