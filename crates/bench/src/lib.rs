//! # xdp-bench — the paper's claims
//!
//! [`claims`] holds Figures 1–4 and experiments E1–E11 of DESIGN.md's
//! index, one function each: it builds its tables, asserts what the paper
//! claims of them (a violated claim panics naming the claim and the cell)
//! and returns the tables. Each is one `#[test]` of the root
//! `tests/paper_claims.rs`. [`conformance`] is Figure 1's rule suite and
//! [`Table`] the one table printer. The claims assert behaviour and record
//! nothing; host speed is measured by `benchmark/` alone.

pub mod claims;
pub mod conformance;
pub mod table;

pub use table::Table;
