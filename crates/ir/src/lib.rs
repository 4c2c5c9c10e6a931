//! # xdp-ir — the IL+XDP intermediate language
//!
//! This crate defines the intermediate language that the XDP methodology
//! (Bala, Ferrante & Carter, PPoPP '93) extends: typed array variables,
//! Fortran-90 triplet *sections*, HPF-style *distributions* over processor
//! grids, and the XDP statement forms — guarded (compute-rule) statements,
//! data/ownership *send* and *receive* statements, and the `iown` /
//! `accessible` / `await` / `mylb` / `myub` / `mypid` intrinsics.
//!
//! The crate is purely syntactic + geometric: it knows how to describe
//! programs and how ownership of array elements maps onto processors, but it
//! does not execute anything. Execution lives in `xdp-core`; the run-time
//! symbol table in `xdp-runtime`; optimization in `xdp-compiler`.
//!
//! ## Layout
//!
//! * [`triplet`] / [`section`] — regular-section algebra (`lb:ub:st`).
//! * [`grid`] — processor grids with row-major pid linearization.
//! * [`dist`] — HPF distributions (`*`, `BLOCK`, `CYCLIC`, `CYCLIC(b)`)
//!   and the ownership maps they induce.
//! * [`types`] — element types and variable identities.
//! * [`expr`] — integer, boolean (compute-rule) and element expressions.
//! * [`stmt`] — XDP statements and whole programs.
//! * [`walk`] — the one traversal: `visit` and `map`; nothing outside it
//!   knows the children of a node.
//! * [`build`] — ergonomic builders used by the compiler and tests.
//! * [`pretty`] — pretty-printer emitting the paper's concrete notation.

pub mod analysis;
pub mod build;
pub mod dist;
pub mod expr;
pub mod grid;
pub mod pretty;
pub mod section;
pub mod stmt;
pub mod triplet;
pub mod types;
pub mod validate;
pub mod walk;

pub use dist::{DimDist, Distribution};
pub use expr::{
    BoolExpr, CmpOp, ElemBinOp, ElemExpr, IntBinOp, IntExpr, SectionRef, Subscript, TripletExpr,
};
pub use grid::ProcGrid;
pub use section::Section;
pub use stmt::{block_stmt_ids, Block, Decl, DestSet, Ownership, Program, Stmt, TransferKind};
pub use triplet::Triplet;
pub use types::{ElemType, VarId};
pub use validate::validate;
