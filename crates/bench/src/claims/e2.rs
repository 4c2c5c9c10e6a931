//! E2 — segment-granularity sweep (§3.1): "The use of segments allows the
//! pipelining of a transfer of a section ... In many cases, this can
//! effectively reduce the total time by allowing a processor to overlap
//! one segment's transfer with computation on another segment."
//!
//! A two-processor producer/consumer pipeline: P0 produces an n-element
//! array segment by segment (fixed work per element) and transfers each
//! segment's ownership as soon as it is ready; P1 receives each segment
//! and consumes it (fixed work per element). One whole-array segment
//! serializes produce and consume (time ~ produce + transfer + consume);
//! one-element segments pipeline perfectly but pay per-message latency and
//! overheads n times; the optimum sits in between.

use crate::table::{j, Table};
use std::sync::Arc;
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, Distribution, ElemType, ProcGrid, Program, VarId};
use xdp_machine::CostModel;
use xdp_runtime::Value;

/// Producer/consumer pipeline with `n/seg` segment transfers: the array
/// is collapsed on P0 and transferred wholesale to P1.
fn pipeline(n: i64, seg: i64, work_per_elem: i64) -> (Program, VarId) {
    assert!(n % seg == 0);
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(2),
        vec![seg],
    ));
    p.decls[0].dist = Some(Distribution::collapsed(1, 2));
    let c0 = b::iv("c").sub(b::c(1)).mul(b::c(seg)).add(b::c(1));
    let c1 = b::iv("c").mul(b::c(seg));
    let chunk = b::sref(a, vec![b::span(c0, c1)]);
    p.body = vec![
        // Producer: work on a segment, then hand it off.
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::do_loop(
                "c",
                b::c(1),
                b::c(n / seg),
                vec![
                    b::kernel_with("work", vec![chunk.clone()], vec![b::c(work_per_elem * seg)]),
                    b::send_own_val(chunk.clone()),
                ],
            )],
        ),
        // Consumer: receive each segment, then work on it.
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(1)),
            vec![b::do_loop(
                "c",
                b::c(1),
                b::c(n / seg),
                vec![
                    b::recv_own_val(chunk.clone()),
                    b::guarded(
                        b::await_(chunk.clone()),
                        vec![b::kernel_with(
                            "work",
                            vec![chunk.clone()],
                            vec![b::c(work_per_elem * seg)],
                        )],
                    ),
                ],
            )],
        ),
    ];
    (p, a)
}

/// At every α the time is a U-curve over segment size: strictly falling
/// to an interior optimum, strictly rising after it. The optimum does not
/// move finer as α grows (here it stays at 64 elements).
pub fn e2() -> Vec<Table> {
    let n = 256i64;
    let work = 40i64; // flops per element on each side
    let segments = [1i64, 4, 16, 64, 256];
    let mut t = Table::new(
        "E2: segment-pipelined ownership transfer (n=256, 2 procs)",
        &["alpha", "segment", "messages", "time", "vs best"],
    );
    let mut last_optimum = 0;
    for &alpha in &[20.0, 100.0, 400.0] {
        let cost = CostModel {
            alpha,
            ..CostModel::default_1993()
        };
        let mut rows = Vec::new();
        for &seg in &segments {
            let (prog, a) = pipeline(n, seg, work);
            let mut exec = SimExec::new(
                Arc::new(prog),
                KernelRegistry::standard(),
                MachineConfig::new(2).with_cost(cost),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            let r = exec.run().expect("pipeline");
            // Every segment's ownership moved to P1.
            let g = exec.gather(a);
            assert_eq!(g.owner(&[1]), Some(1), "E2: alpha={alpha} seg={seg}");
            assert_eq!(g.owner(&[n]), Some(1), "E2: alpha={alpha} seg={seg}");
            rows.push((seg, r.net.messages, r.virtual_time));
        }
        let best = (0..rows.len())
            .min_by(|&x, &y| rows[x].2.total_cmp(&rows[y].2))
            .unwrap();
        let optimum = rows[best].0;
        assert!(
            0 < best && best < rows.len() - 1,
            "E2: alpha={alpha}: optimum at segment {optimum}, claimed interior"
        );
        for w in rows.windows(2) {
            let ((s0, _, t0), (s1, _, t1)) = (w[0], w[1]);
            let falling = s1 <= optimum;
            assert!(
                (t1 < t0) == falling,
                "E2: alpha={alpha}: segment {s0} -> {s1} goes {t0} -> {t1}, not a U-curve"
            );
        }
        assert!(
            optimum >= last_optimum,
            "E2: alpha={alpha}: optimum moved finer, {last_optimum} -> {optimum}"
        );
        last_optimum = optimum;
        let best = rows[best].2;
        for (seg, msgs, time) in rows {
            t.row(&[
                j::f(alpha),
                j::i(seg),
                j::u(msgs),
                j::f(time),
                j::s(&format!("{:.2}x", time / best)),
            ]);
        }
    }
    t.note(
        "interpretation: the minimum is the compiler's segment-shape choice\n\
         (§3.1); here it stays at 64-element segments at every alpha.\n",
    );
    vec![t]
}
