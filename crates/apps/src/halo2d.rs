//! 2-D Jacobi iteration with explicit halo exchange, written directly in
//! IL+XDP.
//!
//! The grid `U[1:n,1:m]` is `(BLOCK,*)`-distributed (row slabs). Each sweep
//! every processor sends its first and last owned rows into the neighbors'
//! ghost arrays (`GUP`/`GDN`, one row per processor, aligned so processor p
//! owns its own ghost row), then updates:
//!
//! * interior rows from `U` alone,
//! * its first owned row using `GUP` (the row above, held by p-1),
//! * its last owned row using `GDN` (the row below, held by p+1),
//!
//! with the global boundary rows held fixed (Dirichlet). The same section
//! travels under the same name every sweep; the per-processor receive/await
//! serialization keeps the rendezvous ordered, so no message-type salts are
//! needed — this is the disciplined communication structure the paper
//! expects the compiler to emit.

use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, ProcGrid, Program, Stmt, VarId};

/// Ids of the arrays declared by [`build_jacobi2d`].
#[derive(Clone, Copy, Debug)]
pub struct Halo2dVars {
    /// The grid (old values).
    pub u: VarId,
    /// The grid (new values).
    pub v: VarId,
    /// Ghost row from the upper neighbor: `GUP[p, *]` on processor p.
    pub gup: VarId,
    /// Ghost row from the lower neighbor.
    pub gdn: VarId,
}

/// Build `sweeps` Jacobi sweeps over an `n x m` grid on `nprocs` row slabs.
/// `n` must be divisible by `nprocs` and each slab must have >= 2 rows.
pub fn build_jacobi2d(n: i64, m: i64, nprocs: usize, sweeps: i64) -> (Program, Halo2dVars) {
    assert!(n % nprocs as i64 == 0, "nprocs must divide n");
    let chunk = n / nprocs as i64;
    assert!(chunk >= 2, "each slab needs at least 2 rows");
    let np = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let u = p.declare(b::array(
        "U",
        ElemType::F64,
        vec![(1, n), (1, m)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let v = p.declare(b::array(
        "V",
        ElemType::F64,
        vec![(1, n), (1, m)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let gup = p.declare(b::array(
        "GUP",
        ElemType::F64,
        vec![(0, np - 1), (1, m)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let gdn = p.declare(b::array(
        "GDN",
        ElemType::F64,
        vec![(0, np - 1), (1, m)],
        vec![DimDist::Block, DimDist::Star],
        grid,
    ));
    let vars = Halo2dVars { u, v, gup, gdn };

    // Owned row range of U (constant across sweeps).
    let u_all = b::sref(u, vec![b::all(), b::all()]);
    let rlo = b::mylb(u_all.clone(), 1);
    let rhi = b::myub(u_all, 1);
    // Row sections.
    let row = |var: VarId, r: xdp_ir::IntExpr| b::sref(var, vec![b::at(r), b::all()]);
    let top_row = row(u, rlo.clone());
    let bot_row = row(u, rhi.clone());
    // The neighbor rows, by global index arithmetic.
    let row_above = row(u, rlo.clone().sub(b::c(1))); // owned by p-1
    let row_below = row(u, rhi.clone().add(b::c(1))); // owned by p+1
    let my_gup = row(gup, b::mypid());
    let my_gdn = row(gdn, b::mypid());
    let first_proc = b::cmp(CmpOp::Eq, b::mypid(), b::c(0));
    let last_proc = b::cmp(CmpOp::Eq, b::mypid(), b::c(np - 1));
    let not_first = b::cmp(CmpOp::Gt, b::mypid(), b::c(0));
    let not_last = b::cmp(CmpOp::Lt, b::mypid(), b::c(np - 1));

    // Five-point update of row target <- average of neighbors, using the
    // given up/down row references, over columns 2..m-1.
    let jm = b::span(b::c(2), b::c(m - 1));
    let stencil =
        |tvar: VarId, r: xdp_ir::IntExpr, up: xdp_ir::SectionRef, dn: xdp_ir::SectionRef| {
            let target = b::sref(tvar, vec![b::at(r.clone()), jm.clone()]);
            let left = b::sref(u, vec![b::at(r.clone()), b::span(b::c(1), b::c(m - 2))]);
            let right = b::sref(u, vec![b::at(r), b::span(b::c(3), b::c(m))]);
            let up = b::sref(up.var, vec![up.subs[0].clone(), jm.clone()]);
            let dn = b::sref(dn.var, vec![dn.subs[0].clone(), jm.clone()]);
            b::assign(
                target,
                xdp_ir::ElemExpr::LitF(0.25).mul(
                    b::val(up)
                        .add(b::val(dn))
                        .add(b::val(left))
                        .add(b::val(right)),
                ),
            )
        };

    // --- halo exchange -----------------------------------------------------
    // Send my top row to p-1's GDN, my bottom row to p+1's GUP.
    let mut sweep: Vec<Stmt> = vec![
        b::guarded(not_first.clone(), vec![b::send(top_row.clone())]),
        b::guarded(not_last.clone(), vec![b::send(bot_row.clone())]),
    ];
    // Receive the row above into my GUP, the row below into my GDN.
    sweep.push(b::guarded(
        not_first.clone(),
        vec![b::recv_val(my_gup.clone(), row_above.clone())],
    ));
    sweep.push(b::guarded(
        not_last.clone(),
        vec![b::recv_val(my_gdn.clone(), row_below.clone())],
    ));
    // --- compute (into V) --------------------------------------------------
    // Interior owned rows rlo+1 .. rhi-1 use U on both sides.
    sweep.push(b::do_loop_step(
        "r",
        rlo.clone().add(b::c(1)),
        rhi.clone().sub(b::c(1)),
        b::c(1),
        vec![stencil(
            v,
            b::iv("r"),
            row(u, b::iv("r").sub(b::c(1))),
            row(u, b::iv("r").add(b::c(1))),
        )],
    ));
    // First owned row: upper neighbor from the ghost (or Dirichlet copy on p0).
    sweep.push(b::guarded(
        not_first.clone().and(b::await_(my_gup.clone())),
        vec![stencil(
            v,
            rlo.clone(),
            my_gup.clone(),
            row(u, rlo.clone().add(b::c(1))),
        )],
    ));
    sweep.push(b::guarded(
        first_proc.clone(),
        vec![b::assign(
            b::sref(v, vec![b::at(rlo.clone()), jm.clone()]),
            b::val(b::sref(u, vec![b::at(rlo.clone()), jm.clone()])),
        )],
    ));
    // Last owned row symmetric.
    sweep.push(b::guarded(
        not_last.clone().and(b::await_(my_gdn.clone())),
        vec![stencil(
            v,
            rhi.clone(),
            row(u, rhi.clone().sub(b::c(1))),
            my_gdn.clone(),
        )],
    ));
    sweep.push(b::guarded(
        last_proc.clone(),
        vec![b::assign(
            b::sref(v, vec![b::at(rhi.clone()), jm.clone()]),
            b::val(b::sref(u, vec![b::at(rhi.clone()), jm.clone()])),
        )],
    ));
    // Boundary columns copied through (Dirichlet).
    for col in [1, m] {
        sweep.push(b::do_loop_step(
            "r",
            rlo.clone(),
            rhi.clone(),
            b::c(1),
            vec![b::assign(
                b::sref(v, vec![b::at(b::iv("r")), b::at(b::c(col))]),
                b::val(b::sref(u, vec![b::at(b::iv("r")), b::at(b::c(col))])),
            )],
        ));
    }
    // --- copy back: U <- V over the owned slab ------------------------------
    sweep.push(b::assign(
        b::sref(u, vec![b::span(rlo.clone(), rhi.clone()), b::all()]),
        b::val(b::sref(
            v,
            vec![b::span(rlo.clone(), rhi.clone()), b::all()],
        )),
    ));
    // A barrier between sweeps keeps the same-name halo messages of
    // successive sweeps strictly ordered across processors.
    sweep.push(Stmt::Barrier);

    p.body = vec![b::do_loop("t", b::c(1), b::c(sweeps), sweep)];
    (p, vars)
}

/// The mirror of [`build_jacobi2d`]: `U[1:n,1:m]` distributed `(*,BLOCK)`
/// (column slabs), ghost *columns* exchanged left/right instead of rows
/// up/down. `GUP`/`GDN` hold the neighbor columns (one `n`-element row per
/// processor; sections conform by volume). Which orientation is cheaper
/// depends on the grid shape — the halo a processor sends is a full
/// cross-section of the cut dimension — which is exactly the decision the
/// `xdp-place` search makes from the phase graph's shifts.
pub fn build_jacobi2d_cols(n: i64, m: i64, nprocs: usize, sweeps: i64) -> (Program, Halo2dVars) {
    assert!(m % nprocs as i64 == 0, "nprocs must divide m");
    let chunk = m / nprocs as i64;
    assert!(chunk >= 2, "each slab needs at least 2 columns");
    let np = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let dims = vec![DimDist::Star, DimDist::Block];
    let u = p.declare(b::array(
        "U",
        ElemType::F64,
        vec![(1, n), (1, m)],
        dims.clone(),
        grid.clone(),
    ));
    let v = p.declare(b::array(
        "V",
        ElemType::F64,
        vec![(1, n), (1, m)],
        dims,
        grid.clone(),
    ));
    let gup = p.declare(b::array(
        "GUP",
        ElemType::F64,
        vec![(0, np - 1), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    let gdn = p.declare(b::array(
        "GDN",
        ElemType::F64,
        vec![(0, np - 1), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid,
    ));
    let vars = Halo2dVars { u, v, gup, gdn };

    // Owned column range of U (constant across sweeps).
    let u_all = b::sref(u, vec![b::all(), b::all()]);
    let clo = b::mylb(u_all.clone(), 2);
    let chi = b::myub(u_all, 2);
    // Column sections.
    let col = |var: VarId, c: xdp_ir::IntExpr| b::sref(var, vec![b::all(), b::at(c)]);
    let left_col = col(u, clo.clone());
    let right_col = col(u, chi.clone());
    let col_before = col(u, clo.clone().sub(b::c(1))); // owned by p-1
    let col_after = col(u, chi.clone().add(b::c(1))); // owned by p+1
    let my_gup = b::sref(gup, vec![b::at(b::mypid()), b::all()]);
    let my_gdn = b::sref(gdn, vec![b::at(b::mypid()), b::all()]);
    let first_proc = b::cmp(CmpOp::Eq, b::mypid(), b::c(0));
    let last_proc = b::cmp(CmpOp::Eq, b::mypid(), b::c(np - 1));
    let not_first = b::cmp(CmpOp::Gt, b::mypid(), b::c(0));
    let not_last = b::cmp(CmpOp::Lt, b::mypid(), b::c(np - 1));

    // Five-point update of column target <- average of neighbors over rows
    // 2..n-1; `lf`/`rt` are already restricted to those rows.
    let im = b::span(b::c(2), b::c(n - 1));
    let ghost_rows = |g: &xdp_ir::SectionRef| b::sref(g.var, vec![g.subs[0].clone(), im.clone()]);
    let stencil =
        |tvar: VarId, c: xdp_ir::IntExpr, lf: xdp_ir::SectionRef, rt: xdp_ir::SectionRef| {
            let target = b::sref(tvar, vec![im.clone(), b::at(c.clone())]);
            let up = b::sref(u, vec![b::span(b::c(1), b::c(n - 2)), b::at(c.clone())]);
            let dn = b::sref(u, vec![b::span(b::c(3), b::c(n)), b::at(c)]);
            b::assign(
                target,
                xdp_ir::ElemExpr::LitF(0.25)
                    .mul(b::val(lf).add(b::val(rt)).add(b::val(up)).add(b::val(dn))),
            )
        };
    let col_rows = |c: xdp_ir::IntExpr| b::sref(u, vec![im.clone(), b::at(c)]);

    // --- halo exchange: first column left, last column right ---------------
    let mut sweep: Vec<Stmt> = vec![
        b::guarded(not_first.clone(), vec![b::send(left_col.clone())]),
        b::guarded(not_last.clone(), vec![b::send(right_col.clone())]),
        b::guarded(
            not_first.clone(),
            vec![b::recv_val(my_gup.clone(), col_before.clone())],
        ),
        b::guarded(
            not_last.clone(),
            vec![b::recv_val(my_gdn.clone(), col_after.clone())],
        ),
    ];
    // --- compute (into V) --------------------------------------------------
    // Interior owned columns use U on both sides.
    sweep.push(b::do_loop_step(
        "c",
        clo.clone().add(b::c(1)),
        chi.clone().sub(b::c(1)),
        b::c(1),
        vec![stencil(
            v,
            b::iv("c"),
            col_rows(b::iv("c").sub(b::c(1))),
            col_rows(b::iv("c").add(b::c(1))),
        )],
    ));
    // First owned column: left neighbor from the ghost (Dirichlet on p0).
    sweep.push(b::guarded(
        not_first.clone().and(b::await_(my_gup.clone())),
        vec![stencil(
            v,
            clo.clone(),
            ghost_rows(&my_gup),
            col_rows(clo.clone().add(b::c(1))),
        )],
    ));
    sweep.push(b::guarded(
        first_proc.clone(),
        vec![b::assign(
            b::sref(v, vec![im.clone(), b::at(clo.clone())]),
            b::val(b::sref(u, vec![im.clone(), b::at(clo.clone())])),
        )],
    ));
    // Last owned column symmetric.
    sweep.push(b::guarded(
        not_last.clone().and(b::await_(my_gdn.clone())),
        vec![stencil(
            v,
            chi.clone(),
            col_rows(chi.clone().sub(b::c(1))),
            ghost_rows(&my_gdn),
        )],
    ));
    sweep.push(b::guarded(
        last_proc.clone(),
        vec![b::assign(
            b::sref(v, vec![im.clone(), b::at(chi.clone())]),
            b::val(b::sref(u, vec![im.clone(), b::at(chi.clone())])),
        )],
    ));
    // Boundary rows copied through (Dirichlet).
    for row in [1, n] {
        sweep.push(b::do_loop_step(
            "c",
            clo.clone(),
            chi.clone(),
            b::c(1),
            vec![b::assign(
                b::sref(v, vec![b::at(b::c(row)), b::at(b::iv("c"))]),
                b::val(b::sref(u, vec![b::at(b::c(row)), b::at(b::iv("c"))])),
            )],
        ));
    }
    // --- copy back: U <- V over the owned slab ------------------------------
    sweep.push(b::assign(
        b::sref(u, vec![b::all(), b::span(clo.clone(), chi.clone())]),
        b::val(b::sref(
            v,
            vec![b::all(), b::span(clo.clone(), chi.clone())],
        )),
    ));
    sweep.push(Stmt::Barrier);

    p.body = vec![b::do_loop("t", b::c(1), b::c(sweeps), sweep)];
    (p, vars)
}

/// Sequential reference: `sweeps` Jacobi iterations with fixed boundary.
pub fn jacobi2d_reference(u0: &[f64], n: usize, m: usize, sweeps: usize) -> Vec<f64> {
    let mut u = u0.to_vec();
    let mut v = u0.to_vec();
    for _ in 0..sweeps {
        for i in 1..n - 1 {
            for j in 1..m - 1 {
                v[i * m + j] = 0.25
                    * (u[(i - 1) * m + j]
                        + u[(i + 1) * m + j]
                        + u[i * m + j - 1]
                        + u[i * m + j + 1]);
            }
        }
        // Boundaries copied through.
        for j in 0..m {
            v[j] = u[j];
            v[(n - 1) * m + j] = u[(n - 1) * m + j];
        }
        for i in 0..n {
            v[i * m] = u[i * m];
            v[i * m + m - 1] = u[i * m + m - 1];
        }
        std::mem::swap(&mut u, &mut v);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::sync::Arc;
    use xdp_core::{KernelRegistry, MachineConfig, SimExec};
    use xdp_runtime::Value;

    fn run_built(
        (p, vars): (Program, Halo2dVars),
        n: i64,
        m: i64,
        nprocs: usize,
        sweeps: i64,
    ) -> (Vec<f64>, u64) {
        let u0 = workloads::uniform_f64((n * m) as usize, 5, 0.0, 10.0);
        let mut exec = SimExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        exec.init_exclusive(vars.u, |idx| {
            Value::F64(u0[((idx[0] - 1) * m + idx[1] - 1) as usize])
        });
        let r = exec.run().expect("jacobi2d");
        let g = exec.gather(vars.u);
        let mut out = vec![0.0; (n * m) as usize];
        for i in 1..=n {
            for j in 1..=m {
                out[((i - 1) * m + j - 1) as usize] = g.get(&[i, j]).expect("owned").as_f64();
            }
        }
        let want = jacobi2d_reference(&u0, n as usize, m as usize, sweeps as usize);
        for k in 0..out.len() {
            assert!(
                (out[k] - want[k]).abs() < 1e-9,
                "cell {k}: {} vs {}",
                out[k],
                want[k]
            );
        }
        (out, r.net.messages)
    }

    fn run(n: i64, m: i64, nprocs: usize, sweeps: i64) -> (Vec<f64>, u64) {
        run_built(build_jacobi2d(n, m, nprocs, sweeps), n, m, nprocs, sweeps)
    }

    fn run_cols(n: i64, m: i64, nprocs: usize, sweeps: i64) -> (Vec<f64>, u64) {
        run_built(
            build_jacobi2d_cols(n, m, nprocs, sweeps),
            n,
            m,
            nprocs,
            sweeps,
        )
    }

    #[test]
    fn column_slabs_match_reference() {
        let (_, msgs) = run_cols(10, 8, 4, 1);
        assert_eq!(msgs, 6);
        let (_, msgs) = run_cols(6, 12, 2, 7);
        assert_eq!(msgs, 14);
        let (_, msgs) = run_cols(8, 8, 1, 3);
        assert_eq!(msgs, 0);
    }

    #[test]
    fn row_and_column_orientations_agree() {
        let row = run(8, 8, 4, 3).0;
        let col = run_cols(8, 8, 4, 3).0;
        for (a, b) in row.iter().zip(&col) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi2d_matches_reference_one_sweep() {
        let (_, msgs) = run(8, 10, 4, 1);
        // 2 halo rows per interior boundary, 3 boundaries.
        assert_eq!(msgs, 6);
    }

    #[test]
    fn jacobi2d_matches_reference_many_sweeps() {
        let (_, msgs) = run(8, 10, 4, 5);
        assert_eq!(msgs, 30);
        run(12, 6, 2, 7).0.len(); // another shape
        run(8, 8, 1, 3).0.len(); // single processor, no comm
    }

    #[test]
    fn single_proc_has_no_messages() {
        let (_, msgs) = run(8, 8, 1, 3);
        assert_eq!(msgs, 0);
    }
}
