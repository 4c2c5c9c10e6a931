//! Experiments E12 and E15–E17 (DESIGN §3), one function each, beside the
//! oracles they drive. As in `xdp_bench::claims`, a function asserts its
//! claims (a violation panics naming it) and returns its tables;
//! `tests/paper_claims.rs` runs each as one `#[test]`.

mod e12;
mod e15;
mod e16;
mod e17;

pub use e12::e12;
pub use e15::e15;
pub use e16::e16;
pub use e17::e17;
