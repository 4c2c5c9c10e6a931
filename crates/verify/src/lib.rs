//! Differential testing for the XDP stack.
//!
//! The paper's optimizations are all claimed to be *meaning-preserving*
//! rewrites over the Figure-1 operational rules. This crate checks that
//! claim mechanically on programs nobody hand-wrote:
//!
//! * [`gen`] — a seeded generator of executable, well-formed IL+XDP
//!   programs (plus the syntactic proptest strategies shared with the
//!   language round-trip tests);
//! * [`lockstep`] — the reference executor, deliberately boring: it
//!   advances processors round-robin one step at a time, so
//!   schedule-dependence bugs in the real machines show up as fingerprint
//!   differences;
//! * [`fingerprint`] — the execution oracle: final per-processor memory
//!   image, sorted movement multiset, and section-state digest;
//! * [`diff`] — the differential driver, the one builder of the
//!   backend × machine matrix ([`machine`]) and the one run protocol
//!   ([`Fingerprint::of_run`] from [`init_value`]) every fingerprinted run
//!   follows: `Lockstep` vs [`xdp_core::SimExec`] vs
//!   [`xdp_core::AsyncExec`] vs the compiled VM, every prefix of the
//!   default pass pipeline vs the unoptimized program, and faulty vs
//!   lossless runs under a [`xdp_fault::FaultPlan`];
//! * [`shrink`] — a greedy structural shrinker that reduces a failing
//!   program to a minimal pretty-printed `.xdp` repro;
//! * [`fuzz`] — the sweep loop tying it all together, shared by
//!   `xdpc fuzz` and E12;
//! * [`claims`] — experiments E12 and E15–E17, asserted.

pub mod claims;
pub mod diff;
pub mod fingerprint;
pub mod fuzz;
pub mod gen;
pub mod lockstep;
pub mod shrink;

pub use diff::{
    check_program, check_with, default_passes, init_value, machine, CheckConfig, Divergence,
    DEFAULT_CHECK_BUDGET,
};
pub use fingerprint::Fingerprint;
pub use fuzz::{run_fuzz, Failure, FuzzConfig, FuzzReport};
pub use gen::{executable_program, render_repro, GenConfig, TestProgram};
pub use shrink::{shrink, ShrinkResult};
