//! # xdp-core — executable operational semantics for IL+XDP
//!
//! This crate makes the XDP methodology (Bala, Ferrante & Carter,
//! PPoPP '93) *runnable*: it executes IL+XDP programs, SPMD-style, on the
//! simulated multicomputer from `xdp-machine`, maintaining each processor's
//! run-time symbol table from `xdp-runtime` exactly as §3 prescribes.
//!
//! * [`interp::Interp`] — a step-based interpreter implementing every rule
//!   of Figure 1 (intrinsics, the four send forms, the three receive
//!   forms, the three section states, compute-rule semantics).
//! * [`SimExec`] — the virtual-time machine: a deterministic executor with
//!   per-processor clocks, analytic message completion times, and deadlock
//!   diagnosis.
//! * [`AsyncExec`] — the wall-clock machine: one cooperative task per
//!   processor, M:N over a fixed worker pool, for real-parallel
//!   measurement, cross-validation, and machines of thousands of
//!   processors.
//! * [`MachineConfig`] — the one description every machine is built from.
//! * [`Machine`] — the run protocol both offer (init, run to an
//!   [`ExecReport`], gather), and [`Recorder`] — the one place their
//!   trace events (see `xdp-trace`) are built.
//! * [`kernels`] — the local-computation kernel registry (`fft1D` et al.
//!   are registered by applications).
//!
//! ```
//! use std::sync::Arc;
//! use xdp_core::{KernelRegistry, MachineConfig, SimExec};
//! use xdp_ir::build as b;
//! use xdp_ir::{DimDist, ElemType, ProcGrid, Program};
//! use xdp_runtime::Value;
//!
//! // A[1:8] block-distributed over 2 processors; each processor doubles
//! // the part it owns (bounds already localized, so no guards needed).
//! let mut p = Program::new();
//! let a = p.declare(b::array("A", ElemType::F64, vec![(1, 8)],
//!     vec![DimDist::Block], ProcGrid::linear(2)));
//! let all = b::sref(a, vec![b::all()]);
//! let mine = b::sref(a, vec![b::span(b::mylb(all.clone(), 1), b::myub(all, 1))]);
//! p.body = vec![b::assign(mine.clone(), b::val(mine.clone()).add(b::val(mine)))];
//!
//! let mut exec = SimExec::new(Arc::new(p), KernelRegistry::standard(),
//!     MachineConfig::new(2));
//! exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
//! let report = exec.run().unwrap();
//! assert_eq!(exec.gather(a).get(&[5]).unwrap().as_f64(), 10.0);
//! assert_eq!(report.net.messages, 0); // fully local
//! ```

pub mod async_exec;
pub mod config;
pub mod env;
pub mod interp;
pub mod kernels;
pub mod proc;
pub mod recorder;
pub mod report;
pub mod sim_exec;
pub mod transfer;

pub use async_exec::AsyncExec;
pub use config::{MachineConfig, MachineKind};
pub use env::{OpCounts, ProcEnv, RtError, RuleVal};
pub use interp::{Action, Dest, Interp, StepNote, StepOut};
pub use kernels::{Kernel, KernelRegistry};
pub use proc::{Machine, Processor};
pub use recorder::Recorder;
pub use report::{ExecReport, Gathered, ProcReport, ThreadReport};
pub use sim_exec::SimExec;
pub use xdp_trace as trace;
pub use xdp_trace::{CriticalPathReport, Trace, TraceConfig, TraceEvent, TraceKind, WaitCause};

/// Names `benchmark/`, which a code PR may not edit, still imports: the
/// two config types folded into [`MachineConfig`] and the deleted
/// thread-per-processor machine (DESIGN §2.4, §2.16), whose
/// `core.thread.ring64_us` probe is built from the last two. Nothing in
/// this repository says them (`tests/one_way.rs`); the benchmark PR that
/// re-points its imports deletes all four.
#[doc(hidden)]
pub type SimConfig = MachineConfig;
#[doc(hidden)]
pub type AsyncConfig = MachineConfig;
#[doc(hidden)]
pub type ThreadConfig = MachineConfig;
#[doc(hidden)]
pub type ThreadExec<P = Interp> = AsyncExec<P>;
