//! Global reduction in IL+XDP: local partial sums, then a binary combining
//! tree over the partials — `log2(P)` communication rounds, all expressed
//! with compute rules over `mypid` arithmetic.
//!
//! Round `s` (s = 1, 2, 4, ...): every processor whose pid is an odd
//! multiple of `s` sends its partial to pid − s; receivers accumulate.
//! After the last round the total sits in `R[0]` on processor 0.

use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, IntBinOp, IntExpr, ProcGrid, Program, VarId};

/// Variables declared by [`build_reduce`].
#[derive(Clone, Copy, Debug)]
pub struct ReduceVars {
    /// The data being summed.
    pub x: VarId,
    /// Per-processor partials; `R[0]` ends with the total.
    pub r: VarId,
    /// Receive slots, one per processor.
    pub t: VarId,
}

/// Build a global sum of `X[1:n]` over `nprocs` (a power of two).
pub fn build_reduce(n: i64, nprocs: usize) -> (Program, ReduceVars) {
    assert!(
        nprocs.is_power_of_two(),
        "tree reduction wants 2^k processors"
    );
    assert!(n % nprocs as i64 == 0);
    let np = nprocs as i64;
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let x = p.declare(b::array(
        "X",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let r = p.declare(b::array_seg(
        "R",
        ElemType::F64,
        vec![(0, np - 1)],
        vec![DimDist::Block],
        grid.clone(),
        vec![1],
    ));
    let t = p.declare(b::array_seg(
        "T",
        ElemType::F64,
        vec![(0, np - 1)],
        vec![DimDist::Block],
        grid,
        vec![1],
    ));
    let vars = ReduceVars { x, r, t };

    let x_all = b::sref(x, vec![b::all()]);
    let my_r = b::sref(r, vec![b::at(b::mypid())]);
    let my_t = b::sref(t, vec![b::at(b::mypid())]);
    // The partner's partial at stride s: R[mypid + s].
    let partner_r = b::sref(r, vec![b::at(b::mypid().add(b::iv("s")))]);

    // mypid % (2s) == s  -> I am a sender this round.
    let two_s = b::iv("s").mul(b::c(2));
    let mod2s = IntExpr::Bin(IntBinOp::Mod, Box::new(b::mypid()), Box::new(two_s));
    let is_sender = b::cmp(CmpOp::Eq, mod2s.clone(), b::iv("s"));
    let is_receiver = b::cmp(CmpOp::Eq, mod2s, b::c(0)).and(b::cmp(
        CmpOp::Lt,
        b::mypid().add(b::iv("s")),
        b::c(np),
    ));

    let mut body = vec![
        // Local partial: sum my block by running accumulation.
        b::assign(my_r.clone(), xdp_ir::ElemExpr::LitF(0.0)),
        b::do_loop_step(
            "i",
            b::mylb(x_all.clone(), 1),
            b::myub(x_all, 1),
            b::c(1),
            vec![b::assign(
                my_r.clone(),
                b::val(my_r.clone()).add(b::val(b::sref(x, vec![b::at(b::iv("i"))]))),
            )],
        ),
    ];
    // Combining tree: s = 1, 2, 4, ... < P, expressed as a do-loop with a
    // doubling step... XDP loops are arithmetic, so unroll log2(P) rounds
    // (compile-time constant, exactly what a compiler would emit).
    let mut s = 1i64;
    while s < np {
        let bind = |e: &xdp_ir::BoolExpr| e.subst("s", &b::c(s));
        body.push(b::guarded(bind(&is_sender), vec![b::send(my_r.clone())]));
        body.push(b::guarded(
            bind(&is_receiver),
            vec![
                b::recv_val(my_t.clone(), partner_r.subst("s", &b::c(s))),
                b::guarded(
                    b::await_(my_t.clone()),
                    vec![b::assign(
                        my_r.clone(),
                        b::val(my_r.clone()).add(b::val(my_t.clone())),
                    )],
                ),
            ],
        ));
        s *= 2;
    }
    p.body = body;
    (p, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::sync::Arc;
    use xdp_core::{KernelRegistry, MachineConfig, SimExec};
    use xdp_runtime::Value;

    fn run(n: i64, nprocs: usize) -> (f64, u64, f64) {
        let (p, vars) = build_reduce(n, nprocs);
        let data = workloads::uniform_f64(n as usize, 17, -5.0, 5.0);
        let mut exec = SimExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        exec.init_exclusive(vars.x, |idx| Value::F64(data[(idx[0] - 1) as usize]));
        let r = exec.run().expect("reduce");
        let g = exec.gather(vars.r);
        let total = g.get(&[0]).unwrap().as_f64();
        let want: f64 = data.iter().sum();
        assert!((total - want).abs() < 1e-9, "{total} vs {want}");
        (total, r.net.messages, r.virtual_time)
    }

    #[test]
    fn tree_reduction_sums_correctly() {
        for nprocs in [1usize, 2, 4, 8] {
            let (_, msgs, _) = run(32, nprocs);
            // A P-leaf binary tree moves P-1 partials.
            assert_eq!(msgs, nprocs as u64 - 1, "P={nprocs}");
        }
    }

    #[test]
    fn tree_depth_shows_in_time() {
        // log-depth: time grows much slower than linearly in P.
        let (_, _, t2) = run(64, 2);
        let (_, _, t8) = run(64, 8);
        // 3 rounds vs 1 round: less than 3.5x the single-round comm time.
        assert!(t8 < t2 * 3.5, "t8 {t8} vs t2 {t2}");
    }
}
