//! E2 — segment-granularity sweep (§3.1): "The use of segments allows the
//! pipelining of a transfer of a section ... In many cases, this can
//! effectively reduce the total time by allowing a processor to overlap
//! one segment's transfer with computation on another segment."
//!
//! A two-processor producer/consumer pipeline: P0 produces an n-element
//! array segment by segment (fixed work per element) and transfers each
//! segment's ownership as soon as it is ready; P1 receives each segment
//! and consumes it (fixed work per element).
//!
//! Expected shape: a U-curve in segment size. One whole-array segment
//! serializes produce and consume (time ~ produce + transfer + consume);
//! one-element segments pipeline perfectly but pay per-message latency and
//! overheads n times; the optimum sits in between and moves toward coarser
//! segments as per-message cost grows.

use std::sync::Arc;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_machine::CostModel;
use xdp_runtime::Value;

/// Producer/consumer pipeline with `n/seg` segment transfers.
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
    // BLOCK over 2: P0 owns 1..n/2. Use only P0's half as the payload and
    // P1's half as the destination landing zone... simpler: collapsed on
    // P0, transferred wholesale to P1. Re-declare collapsed:
    p.decls[0].dist = Some(xdp_ir::Distribution::collapsed(1, 2));
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

fn main() {
    let n = 256i64;
    let work = 40i64; // flops per element on each side
    let mut t = Table::new(
        "E2: segment-pipelined ownership transfer (n=256, 2 procs)",
        &["alpha", "segment", "messages", "time", "vs best"],
    );
    for &alpha in &[20.0, 100.0, 400.0] {
        let cost = CostModel {
            alpha,
            ..CostModel::default_1993()
        };
        let mut rows = Vec::new();
        for &seg in &[1i64, 4, 16, 64, 256] {
            let (prog, a) = pipeline(n, seg, work);
            let mut exec = SimExec::new(
                Arc::new(prog),
                KernelRegistry::standard(),
                MachineConfig::new(2).with_cost(cost),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            let r = exec.run().expect("pipeline");
            // All elements now on P1, incremented by both work kernels'
            // first-element touch: just verify ownership moved.
            let g = exec.gather(a);
            assert_eq!(g.owner(&[1]), Some(1));
            assert_eq!(g.owner(&[n]), Some(1));
            rows.push((seg, r.net.messages, r.virtual_time));
        }
        let best = rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
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
    t.print();
    println!(
        "interpretation: the minimum is the compiler's segment-shape choice\n\
         (§3.1); it moves toward coarser segments as per-message cost grows."
    );
}
