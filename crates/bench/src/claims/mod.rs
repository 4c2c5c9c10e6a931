//! Figures 1–4 and experiments E1–E11 (DESIGN §3), one function each.
//!
//! A function builds the tables its experiment prints, asserts the shape
//! DESIGN §3 claims of them and returns them. A violated claim panics with
//! the claim's ID and the cell, e.g. `E1(b): CYCLIC n=256 full pipeline
//! sent 16 messages, claimed P(P−1) = 12`. `tests/paper_claims.rs` runs
//! each as one `#[test]` and prints what it returns.

mod e1;
mod e10;
mod e11;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod f1;
mod f2;
mod f3;
mod f4;

pub use e1::e1;
pub use e10::e10;
pub use e11::e11;
pub use e2::e2;
pub use e3::e3;
pub use e4::e4;
pub use e5::e5;
pub use e6::e6;
pub use e7::e7;
pub use e8::e8;
pub use e9::e9;
pub use f1::f1;
pub use f2::f2;
pub use f3::f3;
pub use f4::f4;

use std::sync::Arc;
use xdp_compiler::lower_owner_computes;
use xdp_core::{ExecReport, KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

/// §2.2's running example `do i = 1, n: A[i] = A[i] + B[i]` with A
/// block-distributed and B distributed `bd` over `nprocs`, lowered to its
/// naive owner-computes form, and (A, B). E1, E5 and E6 transform it.
fn running_example(n: i64, nprocs: usize, bd: DimDist) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array("B", ElemType::F64, vec![(1, n)], vec![bd], grid));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    s.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(n),
        vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
    )];
    let naive = lower_owner_computes(&s).expect("the running example is sequential");
    (naive, a, bb)
}

/// Run a form of the running example on `nprocs` simulated processors
/// from A[i] = i and B[i] = `b`·i, and check that it computed
/// A[i] = `want`·i.
fn run_running_example(
    p: &Program,
    (a, bb): (VarId, VarId),
    nprocs: usize,
    b: f64,
    want: f64,
) -> ExecReport {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bb, |idx| Value::F64(b * idx[0] as f64));
    let r = exec.run().expect("run");
    let g = exec.gather(a);
    for i in 1..=p.decl(a).bounds[0].count() {
        let got = g.get(&[i]).expect("A is covered").as_f64();
        assert_eq!(got, want * i as f64, "A[{i}]");
    }
    r
}
