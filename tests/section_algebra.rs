//! Tier-1 runs only the root package, and the section algebra decides
//! every ownership question in it: `crates/ir`'s triplet equivalence
//! suite runs here too.

#[path = "../crates/ir/tests/triplet_equivalence.rs"]
mod triplet_equivalence;
