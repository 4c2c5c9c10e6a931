//! # xdp-compiler — translation to and optimization of IL+XDP
//!
//! The XDP methodology's purpose is to give a compiler an explicit
//! representation in which data-movement optimizations are ordinary IR
//! rewrites. This crate supplies both ends:
//!
//! * a **frontend** ([`frontend`]) that translates a sequential
//!   shared-memory program — an [`xdp_ir::Program`] of assignments, kernel
//!   calls, loops and `redistribute`s — into the naive *owner-computes* IL+XDP form of §2.2 — every statement guarded by `iown`, every potentially
//!   remote operand fetched through a send/receive pair into a
//!   per-processor temporary;
//! * the **optimization passes** the paper walks through ([`passes`]):
//!   compute-rule elimination by bounds localization, same-owner
//!   communication elision, message vectorization, loop fusion with
//!   ownership-transfer legality checking, await sinking, the
//!   ownership-migration strategy, delayed communication binding, and
//!   accessibility-check elimination;
//! * the **end-to-end pipeline** ([`pipeline`]): [`compile`] assembles
//!   parse → place → lower → optimize behind one entry point with per-pass
//!   provenance — the shared compile path of every `xdpc` subcommand and
//!   the `xdpd` serving daemon's content-hashed compile cache.
//!
//! All static reasoning exploits the paper's stated compilation model — "a
//! fixed, known processor grid and partitioning as allowed in HPF" (§3):
//! loop bounds, array shapes, and grids are compile-time constants, so
//! ownership questions are decided exactly, on sets
//! ([`xdp_ir::analysis`]), rather than approximately.

pub mod cli;
pub mod frontend;
pub mod passes;
pub mod pipeline;

pub use frontend::{lower_owner_computes, FrontendError};
pub use passes::{Pass, PassManager, PassResult};
pub use pipeline::{
    compile, compile_program, Backend, CompileError, CompileOptions, Compiled, SeqMode,
};
pub use xdp_trace::{CompileTrace, PassTrace};
