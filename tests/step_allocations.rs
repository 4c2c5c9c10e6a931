//! A VM assignment or kernel step allocates nothing: once a processor's
//! scratch holds what its busiest statement takes, another sweep of an
//! element-wise or kernel loop costs the allocator nothing. A counting
//! global allocator tallies this thread's allocations inside
//! `run_report`, and a run of 100 sweeps must make exactly as many as a
//! run of 10 — a guard that needs no wall clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::Backend;
use xdp_verify::machine;

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

/// This thread's allocations while the VM on the simulator runs `source`,
/// served as `xdpd` serves it (the movement trace on).
fn allocations_in_run(source: &str) -> u64 {
    let program = Arc::new(xdp_lang::parse_program(source).unwrap());
    let cfg = MachineConfig::new(4).with_trace(TraceConfig::movement());
    let mut exec = machine(
        MachineKind::Sim,
        Backend::Vm,
        program,
        xdp_apps::app_kernels(),
        cfg,
    );
    let before = ALLOCATIONS.with(Cell::get);
    exec.run_report().unwrap();
    ALLOCATIONS.with(Cell::get) - before
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
