//! # xdp-vm — compiled execution backend for IL+XDP
//!
//! The tree-walking [`xdp_core::Interp`] re-resolves everything on every
//! statement execution: scalar variables through a `HashMap<String, i64>`,
//! kernel names through the registry, section bounds by re-walking
//! subscript expression trees, and section payloads element-by-element
//! through a per-index `Vec<i64>` allocation. On the hot path of a loop
//! nest those costs dominate the actual arithmetic.
//!
//! This crate compiles a per-processor program once, ahead of execution:
//!
//! * scalar variables become **slot registers** (a dense `Vec<Option<i64>>`
//!   indexed by interned slot id — no hashing, no string compares);
//! * kernel names are **pre-resolved** to `Arc<dyn Kernel>` at compile
//!   time (lookup failure still surfaces at execution time, exactly where
//!   the interpreter raises it);
//! * section references whose subscripts are compile-time constants fold
//!   to **pre-computed [`xdp_ir::Section`]s** (borrowed, not re-evaluated);
//! * section gather/scatter uses the strided fast paths
//!   (`read_section_into` / `write_section_from`) of the run-time symbol
//!   table, copying whole rows instead of resolving one index vector per
//!   element;
//! * element-wise arithmetic runs in place on typed slices when both
//!   operands have the same element type, instead of boxing every element
//!   in a [`xdp_runtime::Value`];
//! * a statement's triplet vectors and element buffers are **taken from
//!   per-processor scratch** and given back when it ends, so a
//!   steady-state assignment or kernel step allocates nothing.
//!
//! ## Conformance contract
//!
//! [`VmProc`] implements [`xdp_core::Processor`] and must be **observably
//! identical** to the interpreter: one [`xdp_core::StepOut`] per statement,
//! bit-identical [`xdp_core::OpCounts`] per step, identical actions,
//! blocking behavior, errors, trace notes, and request-id sequences. The
//! simulated machine converts op counts into virtual time and breaks
//! rendezvous ties on `(time, seq)`, so *any* divergence — an extra
//! symbol-table query, a batched step, a reordered evaluation — shifts
//! message matching and changes program results under contention or fault
//! injection.
//!
//! Half of that holds by construction: what a send, a receive, a
//! completion, a barrier or a `redistribute` does once its operands are
//! values is `xdp_core::transfer`, which both processors call, as are the
//! §2.3 intrinsics on an evaluated section and the integer arithmetic
//! table. The other half — the order operands are evaluated in and what
//! each evaluation charges, the frame stack, and strided versus
//! per-element section gather/scatter — is this crate's own code, and
//! `xdp-verify` plus `tests/lockstep.rs` diff the two backends step by
//! step to enforce it.
//!
//! Compile once, load one [`VmProc`] per processor, and hand them to a
//! machine's `from_procs` — which is what `xdp_verify::machine`, the one
//! builder of the backend × machine matrix, does for `Backend::Vm`:
//!
//! ```
//! use std::sync::Arc;
//! use xdp_core::{KernelRegistry, MachineConfig, SimExec};
//! use xdp_ir::build as b;
//! use xdp_ir::{DimDist, ElemType, ProcGrid, Program};
//! use xdp_runtime::Value;
//! use xdp_vm::{VmProc, VmProgram};
//!
//! let mut p = Program::new();
//! let a = p.declare(b::array("A", ElemType::F64, vec![(1, 8)],
//!     vec![DimDist::Block], ProcGrid::linear(2)));
//! let all = b::sref(a, vec![b::all()]);
//! let mine = b::sref(a, vec![b::span(b::mylb(all.clone(), 1), b::myub(all, 1))]);
//! p.body = vec![b::assign(mine.clone(), b::val(mine.clone()).add(b::val(mine)))];
//!
//! let prog = VmProgram::compile(Arc::new(p), &KernelRegistry::standard());
//! let procs = (0..2).map(|pid| VmProc::new(prog.clone(), pid, 2, true)).collect();
//! let mut exec = SimExec::from_procs(procs, MachineConfig::new(2));
//! exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
//! exec.run().unwrap();
//! assert_eq!(exec.gather(a).get(&[5]).unwrap().as_f64(), 10.0);
//! ```

pub mod compile;
pub mod proc;

pub use compile::{SlotMap, VmProgram};
pub use proc::VmProc;
