//! Distributed matrix-vector product `y = M x`, exercising the multicast
//! form `E -> S` (§2.6: "It can also be used for a broadcast or multicast
//! operation").
//!
//! `M[1:n,1:n]` is row-block distributed; the input vector `x` lives on
//! processor 0 and is *broadcast* to a per-processor replica array
//! `XL[0:P-1, 1:n]` with a single multicast send; every processor then
//! computes its row block locally with the `matvec` kernel.

use std::sync::Arc;
use xdp_core::kernels::sections;
use xdp_core::{Kernel, KernelRegistry};
use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Buffer;

/// Ids declared by [`build_matvec`].
#[derive(Clone, Copy, Debug)]
pub struct MatVecVars {
    pub m: VarId,
    pub x: VarId,
    pub xl: VarId,
    pub y: VarId,
}

/// `matvec(yblock, mblock, xrow, rows, cols)` — dense row-block product.
struct MatVecKernel;

impl Kernel for MatVecKernel {
    fn name(&self) -> &str {
        "matvec"
    }
    fn run(&self, args: &mut [Buffer], int_args: &[i64]) -> Result<u64, String> {
        sections(args, 3, "(y, m, x, rows, cols)")?;
        let &[rows, cols] = int_args else {
            return Err(format!(
                "takes (y, m, x, rows, cols), given {} sizes",
                int_args.len()
            ));
        };
        let (rows, cols) = (rows.max(0) as usize, cols.max(0) as usize);
        if args[0].len() < rows || args[1].len() != rows * cols || args[2].len() != cols {
            return Err(format!(
                "wants y of {rows}, m of {rows} x {cols} and x of {cols} elements"
            ));
        }
        for r in 0..rows {
            let mut acc = 0.0;
            for c in 0..cols {
                acc += args[1].get(r * cols + c).as_f64() * args[2].get(c).as_f64();
            }
            args[0].set(r, xdp_runtime::Value::F64(acc));
        }
        Ok((2 * rows * cols) as u64)
    }
}

/// The standard + application kernels, plus `matvec`.
pub fn matvec_kernels() -> KernelRegistry {
    let mut r = crate::fft::app_kernels();
    r.register(Arc::new(MatVecKernel));
    r
}

/// Build the broadcast-then-compute program.
pub fn build_matvec(n: i64, nprocs: usize) -> (Program, MatVecVars) {
    assert!(n % nprocs as i64 == 0);
    let np = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let m = p.declare(b::array(
        "M",
        ElemType::F64,
        vec![(1, n), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let x = p.declare(xdp_ir::Decl {
        name: "x".into(),
        elem: ElemType::F64,
        bounds: vec![xdp_ir::Triplet::range(1, n)],
        ownership: xdp_ir::Ownership::Exclusive,
        dist: Some(xdp_ir::Distribution::collapsed(1, nprocs)),
        segment_shape: None,
    });
    let xl = p.declare(b::array(
        "XL",
        ElemType::F64,
        vec![(0, np - 1), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let y = p.declare(b::array(
        "y",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid,
    ));
    let vars = MatVecVars { m, x, xl, y };

    let x_all = b::sref(x, vec![b::all()]);
    let my_xl = b::sref(xl, vec![b::at(b::mypid()), b::all()]);
    let m_all = b::sref(m, vec![b::all(), b::all()]);
    let rlo = b::mylb(m_all.clone(), 1);
    let rhi = b::myub(m_all, 1);
    let my_m = b::sref(m, vec![b::span(rlo.clone(), rhi.clone()), b::all()]);
    let my_y = b::sref(y, vec![b::span(rlo, rhi)]);
    // Broadcast destinations: every pid.
    let dests: Vec<xdp_ir::IntExpr> = (0..np).map(b::c).collect();
    p.body = vec![
        // One multicast send of the whole vector.
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::send_to(x_all.clone(), dests)],
        ),
        // Every processor (p0 included) receives its replica.
        b::recv_val(my_xl.clone(), x_all),
        b::guarded(
            b::await_(my_xl.clone()),
            vec![b::kernel_with(
                "matvec",
                vec![my_y, my_m, my_xl],
                vec![b::c(n / np), b::c(n)],
            )],
        ),
    ];
    (p, vars)
}

/// The matrix-vector product under an *arbitrary* row placement: `M` is
/// declared with `dist` (any rank-2 distribution that keeps dimension 2
/// collapsed — `BLOCK`, `CYCLIC`, or fully collapsed rows), `y` is
/// *aligned* to `M`'s row dimension via [`Distribution::aligned_map`] so
/// its ownership provably tracks the matrix rows, and the compute is one
/// `iown`-guarded loop over rows — the same program text works unchanged
/// for every placement, which is exactly what lets the `xdp-place`
/// search choose one. The broadcast of `x` is placement-independent.
pub fn build_matvec_placed(
    n: i64,
    nprocs: usize,
    dist: xdp_ir::Distribution,
) -> (Program, MatVecVars) {
    use xdp_ir::{Distribution, Ownership, Triplet};
    assert_eq!(dist.rank(), 2);
    assert!(!dist.dims()[1].is_distributed(), "rows must stay whole");
    let np = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let mbounds: Vec<Triplet> = vec![Triplet::range(1, n), Triplet::range(1, n)];
    let m = p.declare(xdp_ir::Decl {
        name: "M".into(),
        elem: ElemType::F64,
        bounds: mbounds.clone(),
        ownership: Ownership::Exclusive,
        dist: Some(dist.clone()),
        segment_shape: None,
    });
    let x = p.declare(xdp_ir::Decl {
        name: "x".into(),
        elem: ElemType::F64,
        bounds: vec![Triplet::range(1, n)],
        ownership: Ownership::Exclusive,
        dist: Some(Distribution::collapsed(1, nprocs)),
        segment_shape: None,
    });
    let xl = p.declare(b::array(
        "XL",
        ElemType::F64,
        vec![(0, np - 1), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid,
    ));
    // y[r] lives wherever M[r, *] does, for every candidate placement.
    let y = p.declare(xdp_ir::Decl {
        name: "y".into(),
        elem: ElemType::F64,
        bounds: vec![Triplet::range(1, n)],
        ownership: Ownership::Exclusive,
        dist: Some(Distribution::aligned_map(dist, mbounds, vec![Some((0, 0))])),
        segment_shape: None,
    });
    let vars = MatVecVars { m, x, xl, y };

    let x_all = b::sref(x, vec![b::all()]);
    let my_xl = b::sref(xl, vec![b::at(b::mypid()), b::all()]);
    let row_r = b::sref(m, vec![b::at(b::iv("r")), b::all()]);
    let y_r = b::sref(y, vec![b::span(b::iv("r"), b::iv("r"))]);
    let dests: Vec<xdp_ir::IntExpr> = (0..np).map(b::c).collect();
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::send_to(x_all.clone(), dests)],
        ),
        b::recv_val(my_xl.clone(), x_all),
        // One row at a time, wherever that row lives.
        b::guarded(
            b::await_(my_xl.clone()),
            vec![b::do_loop(
                "r",
                b::c(1),
                b::c(n),
                vec![b::guarded(
                    b::iown(row_r.clone()),
                    vec![b::kernel_with(
                        "matvec",
                        vec![y_r, row_r, my_xl],
                        vec![b::c(1), b::c(n)],
                    )],
                )],
            )],
        ),
    ];
    (p, vars)
}

/// Sequential reference.
pub fn matvec_reference(m: &[f64], x: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|r| (0..n).map(|c| m[r * n + c] * x[c]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use xdp_core::{MachineConfig, SimExec};
    use xdp_runtime::Value;

    #[test]
    fn broadcast_matvec_matches_reference() {
        let (n, nprocs) = (16i64, 4usize);
        let (p, vars) = build_matvec(n, nprocs);
        let mdata = workloads::uniform_f64((n * n) as usize, 3, -1.0, 1.0);
        let xdata = workloads::uniform_f64(n as usize, 4, -1.0, 1.0);
        let mut exec = SimExec::new(Arc::new(p), matvec_kernels(), MachineConfig::new(nprocs));
        exec.init_exclusive(vars.m, |idx| {
            Value::F64(mdata[((idx[0] - 1) * n + idx[1] - 1) as usize])
        });
        exec.init_exclusive(vars.x, |idx| Value::F64(xdata[(idx[0] - 1) as usize]));
        let r = exec.run().expect("matvec");
        // One multicast = P bound messages on the wire.
        assert_eq!(r.net.messages, nprocs as u64);
        assert_eq!(r.net.bound_messages, nprocs as u64);
        let want = matvec_reference(&mdata, &xdata, n as usize);
        let g = exec.gather(vars.y);
        for i in 1..=n {
            let got = g.get(&[i]).unwrap().as_f64();
            assert!(
                (got - want[(i - 1) as usize]).abs() < 1e-9,
                "y[{i}]: {got} vs {}",
                want[(i - 1) as usize]
            );
        }
    }

    #[test]
    fn placed_matvec_matches_reference_for_every_placement() {
        use xdp_ir::Distribution;
        let (n, np) = (16i64, 4usize);
        for dist in [
            Distribution::new(vec![DimDist::Block, DimDist::Star], ProcGrid::linear(np)),
            Distribution::new(vec![DimDist::Cyclic, DimDist::Star], ProcGrid::linear(np)),
            Distribution::collapsed(2, np),
        ] {
            let (p, vars) = build_matvec_placed(n, np, dist.clone());
            assert!(xdp_ir::validate(&p).is_empty(), "{dist}");
            let mdata = workloads::uniform_f64((n * n) as usize, 3, -1.0, 1.0);
            let xdata = workloads::uniform_f64(n as usize, 4, -1.0, 1.0);
            let mut exec = SimExec::new(Arc::new(p), matvec_kernels(), MachineConfig::new(np));
            exec.init_exclusive(vars.m, |idx| {
                Value::F64(mdata[((idx[0] - 1) * n + idx[1] - 1) as usize])
            });
            exec.init_exclusive(vars.x, |idx| Value::F64(xdata[(idx[0] - 1) as usize]));
            let r = exec.run().unwrap_or_else(|e| panic!("{dist}: {e}"));
            assert_eq!(r.net.messages, np as u64, "{dist}: broadcast only");
            let want = matvec_reference(&mdata, &xdata, n as usize);
            let g = exec.gather(vars.y);
            for i in 1..=n {
                let got = g.get(&[i]).unwrap().as_f64();
                assert!(
                    (got - want[(i - 1) as usize]).abs() < 1e-9,
                    "{dist}: y[{i}]"
                );
            }
        }
    }

    #[test]
    fn broadcast_includes_the_sender() {
        // p0's own replica arrives through the self-multicast branch.
        let (p, vars) = build_matvec(8, 2);
        let mut exec = SimExec::new(Arc::new(p), matvec_kernels(), MachineConfig::new(2));
        exec.init_exclusive(vars.m, |_| Value::F64(1.0));
        exec.init_exclusive(vars.x, |_| Value::F64(2.0));
        exec.run().expect("run");
        let g = exec.gather(vars.y);
        for i in 1..=8 {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 16.0);
        }
    }
}
