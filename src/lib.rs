//! # xdp — Explicit Data Placement
//!
//! A complete, executable reproduction of **"Explicit Data Placement
//! (XDP): A Methodology for Explicit Compile-Time Representation and
//! Optimization of Data Movement"** (Bala, Ferrante & Carter, PPoPP 1993).
//!
//! XDP extends a compiler intermediate language with explicit data- and
//! ownership-transfer statements, compute rules, and a per-processor
//! run-time symbol table, so that data movement becomes an ordinary
//! optimization target. This workspace implements the whole stack:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ir`] | IL+XDP: sections, HPF distributions, statements, intrinsics |
//! | [`runtime`] | the §3.1 run-time symbol table and segment descriptors |
//! | [`machine`] | a simulated multicomputer (cost model, topology, matcher) and the real concurrent network the task machine runs on |
//! | [`collectives`] | collective algorithms as explicit message schedules; the redistribution planner |
//! | [`core`] | the operational semantics: SPMD interpreter + executors |
//! | [`compiler`] | owner-computes frontend and the paper's optimization passes |
//! | [`lang`] | parser for the paper's concrete notation |
//! | [`apps`] | 3-D FFT, stencils, task farms (the paper's workloads) |
//! | [`trace`] | end-to-end tracing and critical-path analysis |
//! | [`place`] | automatic data-placement search over the cost model |
//!
//! ## Quickstart
//!
//! ```
//! use xdp::prelude::*;
//! use std::sync::Arc;
//!
//! // Sequential source: do i = 1,16 { A[i] = A[i] + B[i] }, with A block-
//! // and B cyclic-distributed over 4 processors (deliberately misaligned).
//! let grid = ProcGrid::linear(4);
//! let mut seq = Program::new();
//! let a = seq.declare(build::array("A", ElemType::F64, vec![(1, 16)],
//!     vec![DimDist::Block], grid.clone()));
//! let b = seq.declare(build::array("B", ElemType::F64, vec![(1, 16)],
//!     vec![DimDist::Cyclic], grid));
//! let ai = build::sref(a, vec![build::at(build::iv("i"))]);
//! let bi = build::sref(b, vec![build::at(build::iv("i"))]);
//! seq.body = vec![build::do_loop("i", build::c(1), build::c(16), vec![
//!     build::assign(ai.clone(), build::val(ai).add(build::val(bi))),
//! ])];
//!
//! // Naive owner-computes translation (§2.2), then the paper's passes.
//! let naive = lower_owner_computes(&seq).unwrap();
//! let (optimized, _log) = PassManager::paper_pipeline().run(&naive);
//!
//! // Execute both on the simulated machine; results agree, messages drop.
//! let run = |p: &Program| {
//!     let mut exec = SimExec::new(Arc::new(p.clone()),
//!         KernelRegistry::standard(), MachineConfig::new(4));
//!     exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
//!     exec.init_exclusive(b, |idx| Value::F64(10.0 * idx[0] as f64));
//!     let report = exec.run().unwrap();
//!     (exec.gather(a), report)
//! };
//! let (g_naive, r_naive) = run(&naive);
//! let (g_opt, r_opt) = run(&optimized);
//! for i in 1..=16 {
//!     assert_eq!(g_naive.get(&[i]), g_opt.get(&[i]));
//! }
//! assert!(r_opt.net.messages < r_naive.net.messages);
//! assert!(r_opt.virtual_time < r_naive.virtual_time);
//! ```

pub use xdp_apps as apps;
pub use xdp_bench as bench;
pub use xdp_collectives as collectives;
pub use xdp_compiler as compiler;
pub use xdp_core as core;
pub use xdp_fault as fault;
pub use xdp_ir as ir;
pub use xdp_lang as lang;
pub use xdp_machine as machine;
pub use xdp_place as place;
pub use xdp_runtime as runtime;
pub use xdp_serve as serve;
pub use xdp_trace as trace;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    // `Strategy` stays out of the prelude: the name collides with
    // proptest's trait under double glob imports. Use
    // `collectives::Strategy` where the plan kind is matched on.
    pub use xdp_collectives::{CommSchedule, RedistPlan};
    pub use xdp_compiler::{lower_owner_computes, Pass, PassManager, PassResult};
    pub use xdp_core::{
        AsyncExec, ExecReport, Gathered, Kernel, KernelRegistry, Machine, MachineConfig,
        MachineKind, RtError, SimExec,
    };
    pub use xdp_fault::{FaultPlan, FaultStats, LinkFault};
    pub use xdp_ir::build;
    pub use xdp_ir::{
        Block, BoolExpr, Decl, DimDist, Distribution, ElemExpr, ElemType, IntExpr, Ownership,
        ProcGrid, Program, Section, SectionRef, Stmt, TransferKind, Triplet, VarId,
    };
    pub use xdp_machine::{
        CostModel, Link, NetStats, SimNet, ThreadNet, Tier, Topology, TopologyError,
    };
    pub use xdp_place::{PlaceOptions, Placed, Placement};
    pub use xdp_runtime::{Buffer, Complex, RtSymbolTable, SegStatus, Value};
    pub use xdp_trace::{
        CompileTrace, CriticalPathReport, PassTrace, Trace, TraceConfig, TraceEvent, TraceKind,
        WaitCause,
    };
}
