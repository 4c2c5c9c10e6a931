//! The §2.6 debugger idea, demonstrated: "a debugger could allow the user
//! to input an ownership transfer command that moves exclusive ownership
//! of a variable (and hence the permission to execute certain SPMD code
//! segments ...) from one processor to another. Thus, processors can be
//! selectively monitored by simply transferring ownership of this
//! variable."
//!
//! `MON[0]` is the monitor token. Each phase, every processor runs its
//! work; the `iown(MON[0])`-guarded snapshot block executes only on the
//! token's owner, which records its pid into the trace array. Between
//! phases the token's ownership is handed to the next processor — the
//! "debugger command". The final trace proves exactly one processor was
//! monitored per phase, in the commanded order.
//!
//! ```text
//! cargo run --example debug_monitor
//! ```

use std::sync::Arc;
use xdp::prelude::*;

fn main() {
    let nprocs = 4usize;
    let np = nprocs as i64;
    let phases = np; // monitor each processor once, round-robin
    let mut p = Program::new();
    let grid = ProcGrid::linear(nprocs);
    let work = p.declare(build::array(
        "WORK",
        ElemType::F64,
        vec![(1, np * 4)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let mon = p.declare(Decl {
        name: "MON".into(),
        elem: ElemType::I64,
        bounds: vec![Triplet::range(0, 0)],
        ownership: Ownership::Exclusive,
        dist: Some(Distribution::collapsed(1, nprocs)), // token starts on p0
        segment_shape: Some(vec![1]),
    });
    let trace = p.declare(build::array(
        "TRACE",
        ElemType::I64,
        vec![(1, phases)],
        vec![DimDist::Cyclic], // phase t's slot owned by proc (t-1) % P
        grid,
    ));
    let mon0 = build::sref(mon, vec![build::at(build::c(0))]);
    let work_all = build::sref(work, vec![build::all()]);
    let mine = build::sref(
        work,
        vec![build::span(
            build::mylb(work_all.clone(), 1),
            build::myub(work_all, 1),
        )],
    );
    let trace_t = build::sref(trace, vec![build::at(build::iv("t"))]);
    p.body = vec![build::do_loop(
        "t",
        build::c(1),
        build::c(phases),
        vec![
            // Everybody computes.
            build::kernel_with("work", vec![mine.clone()], vec![build::c(500)]),
            // Only the monitored processor snapshots: it stamps its pid
            // into the phase's trace slot (which it may not own — but the
            // trace slot owner is exactly the monitored proc by
            // construction: slot t is cyclic-owned by (t-1) % P, and the
            // token visits processors in that same order).
            build::guarded(
                build::iown(mon0.clone()).and(build::iown(trace_t.clone())),
                vec![build::assign(
                    trace_t.clone(),
                    xdp_ir::ElemExpr::FromInt(build::mypid()),
                )],
            ),
            // The "debugger command": pass the token to the next processor.
            build::guarded(
                build::iown(mon0.clone()),
                vec![build::send_own_val(mon0.clone())],
            ),
            build::guarded(
                build::cmp(
                    xdp_ir::CmpOp::Eq,
                    build::mypid(),
                    xdp_ir::IntExpr::Bin(
                        xdp_ir::IntBinOp::Mod,
                        Box::new(build::iv("t")),
                        Box::new(build::c(np)),
                    ),
                ),
                vec![build::recv_own_val(mon0.clone())],
            ),
            build::guarded(build::await_(mon0.clone()), vec![]),
            Stmt::Barrier,
        ],
    )];

    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs).with_timeline(),
    );
    let report = exec.run().expect("run");
    let g = exec.gather(trace);
    println!("phase -> monitored processor (token owner):");
    for t in 1..=phases {
        let who = g.get(&[t]).unwrap().as_i64();
        println!("  phase {t}: p{who}");
        assert_eq!(who, t - 1, "round-robin monitoring order");
    }
    let gm = exec.gather(mon);
    println!(
        "\ntoken finally rests on p{} after {} ownership hops ({} messages total)",
        gm.owner(&[0]).unwrap(),
        phases,
        report.net.messages,
    );
    println!("{}", report.gantt(72));
    println!(
        "only the token owner executed the monitored block each phase —\n\
         ownership as a debugging capability, exactly as §2.6 suggests."
    );
}
