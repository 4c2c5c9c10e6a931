//! 1-D Jacobi-style stencils: shifted operands whose vectorized form is the
//! classic boundary exchange.

use crate::workloads;
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};

/// `do i = 2, n-1 { A[i] = 0.5 * (B[i-1] + B[i+1]) }` with both arrays
/// block-distributed over `nprocs`.
pub fn jacobi1d_seq(n: i64, nprocs: usize) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid,
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bm = b::sref(bb, vec![b::at(b::iv("i").sub(b::c(1)))]);
    let bp = b::sref(bb, vec![b::at(b::iv("i").add(b::c(1)))]);
    s.body = vec![b::do_loop(
        "i",
        b::c(2),
        b::c(n - 1),
        vec![b::assign(
            ai,
            xdp_ir::ElemExpr::LitF(0.5).mul(b::val(bm).add(b::val(bp))),
        )],
    )];
    (s, a, bb)
}

/// Sequential reference for [`jacobi1d_seq`] given `B`'s initial values.
pub fn jacobi1d_reference(b0: &[f64]) -> Vec<f64> {
    let n = b0.len();
    let mut a = vec![0.0; n];
    for i in 1..n - 1 {
        a[i] = 0.5 * (b0[i - 1] + b0[i + 1]);
    }
    a
}

/// Seeded initial condition.
pub fn jacobi_input(n: i64, seed: u64) -> Vec<f64> {
    workloads::uniform_f64(n as usize, seed, -10.0, 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xdp_compiler::{lower_owner_computes, PassManager};
    use xdp_core::{KernelRegistry, MachineConfig, SimExec};
    use xdp_runtime::Value;

    fn run(
        p: &xdp_ir::Program,
        a: VarId,
        bvar: VarId,
        n: i64,
        nprocs: usize,
        b0: &[f64],
    ) -> (Vec<f64>, u64) {
        let mut exec = SimExec::new(
            Arc::new(p.clone()),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        exec.init_exclusive(a, |_| Value::F64(0.0));
        exec.init_exclusive(bvar, |idx| Value::F64(b0[(idx[0] - 1) as usize]));
        let rep = exec.run().expect("run");
        let g = exec.gather(a);
        let got: Vec<f64> = (1..=n).map(|i| g.get(&[i]).unwrap().as_f64()).collect();
        (got, rep.net.messages)
    }

    #[test]
    fn jacobi_naive_and_optimized_agree_with_reference() {
        let (n, nprocs) = (32i64, 4);
        let (s, a, bvar) = jacobi1d_seq(n, nprocs);
        let b0 = jacobi_input(n, 42);
        let want = jacobi1d_reference(&b0);

        let naive = lower_owner_computes(&s).unwrap();
        let (got0, m0) = run(&naive, a, bvar, n, nprocs, &b0);
        let (opt, _) = PassManager::paper_pipeline().run(&naive);
        let (got1, m1) = run(&opt, a, bvar, n, nprocs, &b0);

        for i in 1..(n as usize - 1) {
            assert!((got0[i] - want[i]).abs() < 1e-12, "naive A[{i}]");
            assert!((got1[i] - want[i]).abs() < 1e-12, "optimized A[{i}]");
        }
        // Naive: two messages per interior iteration; optimized: only the
        // 2*(P-1) boundary elements move.
        assert_eq!(m0, 2 * (n as u64 - 2));
        assert_eq!(m1, 2 * (nprocs as u64 - 1), "boundary exchange only");
    }
}
