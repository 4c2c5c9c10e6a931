//! A VM assignment or kernel step allocates nothing: once a processor's
//! scratch holds what its busiest statement takes, another sweep of an
//! element-wise or kernel loop costs the allocator nothing. A counting
//! global allocator tallies this thread's allocations inside
//! `run_report`, and a run of 100 sweeps must make exactly as many as a
//! run of 10 — a guard that needs no wall clock.
//!
//! A message still allocates: its payload, its tag's section and what the
//! nets queue it in. The halo exchange and the redistribution round trip
//! of the benchmark's `exec-comm` mix are each held to a count per
//! message, and recording the halo's movement, as `xdpd` does, to no
//! allocation per message at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::Backend;
use xdp_verify::{machine, Fingerprint};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One element at a time: scalar subscripts, a literal, a product and a
/// sum per element.
fn element_loop(sweeps: u32) -> String {
    format!(
        "real A[1:64] distribute (BLOCK) onto 4
real B[1:64] distribute (BLOCK) onto 4
do t = 1, {sweeps} {{
  do i = mylb(A[*], 1), myub(A[*], 1) {{
    A[i] = ((A[i] * 0.5) + B[i])
  }}
}}
"
    )
}

/// Whole rows: shifted sections, a scalar broadcast and a copy.
fn row_sweep(sweeps: u32) -> String {
    format!(
        "real U[1:16,1:32] distribute (BLOCK,*) onto 4
real V[1:16,1:32] distribute (BLOCK,*) onto 4
do t = 1, {sweeps} {{
  do r = mylb(U[*,*], 1), myub(U[*,*], 1) {{
    V[r,2:31] = (0.25 * (((U[r,1:30] + U[r,3:32]) + U[r,2:31]) + V[r,2:31])) - U[r,1]
  }}
  do r = mylb(U[*,*], 1), myub(U[*,*], 1) {{
    U[r,2:31] = V[r,2:31]
  }}
}}
"
    )
}

/// Kernel calls on computed and on constant sections.
fn kernel_calls(sweeps: u32) -> String {
    format!(
        "real A[1:64] distribute (BLOCK) onto 4
real B[1:64] distribute (BLOCK) onto 4
do t = 1, {sweeps} {{
  add_into(A[mylb(A[*], 1):myub(A[*], 1)], B[mylb(B[*], 1):myub(B[*], 1)])
  iown(A[1:16]) : {{ work(A[1:16], 5) }}
}}
"
    )
}

/// Boundary rows exchanged with both neighbours, then a local update of
/// the boundary rows: 30 messages a sweep at P = 16.
fn halo(sweeps: u32) -> String {
    let (lo, hi) = ("mylb(U[*,*], 1)", "myub(U[*,*], 1)");
    format!(
        "real U[1:64,1:32] distribute (BLOCK,*) onto 16
real GUP[0:15,1:32] distribute (BLOCK,*) onto 16
real GDN[0:15,1:32] distribute (BLOCK,*) onto 16
do t = 1, {sweeps} {{
  mypid > 0 : {{ U[{lo},*] -> }}
  mypid < 15 : {{ U[{hi},*] -> }}
  mypid > 0 : {{ GUP[mypid,*] <- U[({lo} - 1),*] }}
  mypid < 15 : {{ GDN[mypid,*] <- U[({hi} + 1),*] }}
  (mypid > 0 && await(GUP[mypid,*])) : {{
    U[{lo},2:31] = (0.5 * (U[{lo},2:31] + GUP[mypid,2:31]))
  }}
  (mypid < 15 && await(GDN[mypid,*])) : {{
    U[{hi},2:31] = (0.5 * (U[{hi},2:31] + GDN[mypid,2:31]))
  }}
  barrier
}}
"
    )
}

/// The VM on the simulator, loaded with `source` over `nprocs`.
fn vm_on_sim(source: &str, nprocs: usize, trace: TraceConfig) -> Box<dyn Machine> {
    let program = Arc::new(xdp_lang::parse_program(source).unwrap());
    machine(
        MachineKind::Sim,
        Backend::Vm,
        program,
        xdp_apps::app_kernels(),
        MachineConfig::new(nprocs).with_trace(trace),
    )
}

/// This thread's allocations while `f` runs, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// This thread's allocations while the VM on the simulator runs `source`,
/// served as `xdpd` serves it (the movement trace on).
fn allocations_in_run(source: &str) -> u64 {
    let mut exec = vm_on_sim(source, 4, TraceConfig::movement());
    counted(|| exec.run_report().unwrap()).0
}

#[test]
fn a_sweep_of_assignments_or_kernel_calls_allocates_nothing() {
    for (name, source) in [
        ("element loop", element_loop as fn(u32) -> String),
        ("row sweep", row_sweep),
        ("kernel calls", kernel_calls),
    ] {
        let (ten, hundred) = (
            allocations_in_run(&source(10)),
            allocations_in_run(&source(100)),
        );
        assert_eq!(
            ten, hundred,
            "{name}: 10 sweeps allocate {ten} times, 100 sweeps {hundred}"
        );
    }
}

#[test]
fn a_message_allocates_a_bounded_count_and_recording_it_none() {
    let run = |sweeps: u32, trace: TraceConfig| {
        let mut exec = vm_on_sim(&halo(sweeps), 16, trace);
        counted(|| exec.run_report().unwrap())
    };
    let (untraced_10, ten) = run(10, TraceConfig::off());
    let (untraced_100, hundred) = run(100, TraceConfig::off());
    let messages = hundred.net.messages - ten.net.messages;
    assert_eq!(messages, 90 * 30, "30 messages a sweep");
    let untraced = untraced_100 - untraced_10;
    let per_message = untraced as f64 / messages as f64;
    assert!(
        per_message <= 9.1,
        "an untraced message makes {per_message:.2} allocations ({untraced} over {messages})"
    );

    // The movement record copies ids into its event vector, whose growth
    // over the 90 more sweeps is the only allocation it may add.
    let (traced_10, ten) = run(10, TraceConfig::movement());
    let (traced_100, hundred) = run(100, TraceConfig::movement());
    let traced = traced_100 - traced_10;
    assert!(
        traced <= untraced + 8,
        "recording {messages} more messages made {traced} allocations, {untraced} untraced"
    );

    // A fingerprint's movement and state records are data: as many
    // allocations for 10 sweeps as for 100.
    let record = |trace: &Trace| counted(|| Fingerprint::default().record_trace(trace)).0;
    record(&ten.trace); // the first builds the section states' texts, once a process
    let (short, long) = (record(&ten.trace), record(&hundred.trace));
    println!(
        "halo at P = 16, 90 more sweeps ({messages} messages): {untraced} allocations \
         untraced ({per_message:.2} a message), {traced} traced; record_trace {short} at \
         10 sweeps, {long} at 100"
    );
    assert!(
        long.abs_diff(short) <= 2,
        "record_trace: {short} allocations at 10 sweeps, {long} at 100"
    );
}

/// `exec-comm`'s BLOCK -> CYCLIC -> BLOCK round trip: 2 x 16 x 15 = 480
/// messages at P = 16.
const REDIST_ROUNDTRIP: &str = "real A[1:1024] distribute (BLOCK) onto 16
redistribute A (CYCLIC) onto 16
redistribute A (BLOCK) onto 16
";

#[test]
fn a_redistributed_message_allocates_a_bounded_count() {
    // Everything a request's run makes, over the messages it moves, as
    // `xdpd` serves it: both plans, and each processor's share run from
    // its plan.
    let mut exec = vm_on_sim(REDIST_ROUNDTRIP, 16, TraceConfig::movement());
    let (allocations, report) = counted(|| exec.run_report().unwrap());
    let messages = report.net.messages;
    assert_eq!(messages, 480, "2 x 16 x 15 messages");
    let per_message = allocations as f64 / messages as f64;
    println!(
        "BLOCK -> CYCLIC -> BLOCK at P = 16: {allocations} allocations over {messages} \
         messages ({per_message:.2} a message)"
    );
    assert!(
        per_message <= 14.6,
        "a redistributed message makes {per_message:.2} allocations ({allocations} over {messages})"
    );
}
