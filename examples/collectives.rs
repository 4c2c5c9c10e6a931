//! The redistribution planner: how a `redistribute` is priced under two
//! machines, and the statement executed on the simulator, sending exactly
//! its plan's messages.
//!
//! ```text
//! cargo run --example collectives
//! ```

use std::sync::Arc;
use xdp::collectives::plan;
use xdp::prelude::*;

fn main() {
    let nprocs = 8;
    let n = 64i64;

    // --- the redistribution planner ---------------------------------------
    println!("==== redistribution planner ====\n");
    let src = Distribution::new(vec![DimDist::Block], ProcGrid::linear(nprocs));
    let dst = Distribution::new(vec![DimDist::Cyclic], ProcGrid::linear(nprocs));
    let tbounds = [Triplet::range(1, n)];
    for (label, cost, topo) in [
        (
            "cheap messages, uniform net",
            CostModel {
                alpha: 0.1,
                cpu_overhead: 0.1,
                ..CostModel::default_1993()
            },
            Topology::Uniform,
        ),
        (
            "dear messages, linear net",
            CostModel {
                alpha: 5000.0,
                ..CostModel::default_1993()
            },
            Topology::Linear,
        ),
    ] {
        let pl = plan(VarId(0), &tbounds, 8, &src, &dst, &cost, &topo, false);
        println!("BLOCK -> CYCLIC under {label}:");
        for (st, c) in &pl.alternatives {
            let mark = if *st == pl.strategy {
                "  <- chosen"
            } else {
                ""
            };
            println!("  {st:<16} predicted {c:>10.1}{mark}");
        }
    }

    // --- `redistribute` as an executed statement --------------------------
    // Each processor-pair's elements travel as ONE strided-section message
    // (here 32 elements per message), not one message per element.
    println!("\n==== redistribute statement on the simulator ====\n");
    let nn = 256i64;
    let mut p = Program::new();
    let a = p.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, nn)],
        vec![DimDist::Block],
        ProcGrid::linear(nprocs),
    ));
    p.body = vec![build::redistribute(a, dst.clone())];
    println!("{}", xdp::ir::pretty::program(&p));
    let p = Arc::new(p);
    let mut exec = SimExec::new(
        p.clone(),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    let r = exec.run().expect("run");
    let g = exec.gather(a);
    for i in 1..=nn {
        assert_eq!(g.get(&[i]).expect("covered").as_f64(), i as f64);
    }
    // The plan the machine lowered the statement from (one section per
    // message), and what it was priced at.
    let lowered = exec.plan_ctx().plan(a, p.decl(a), &src, &dst);
    assert_eq!(r.net.messages as usize, lowered.schedule.message_count());
    println!(
        "executed: virtual time {:.1} (round-synchronous price {:.1}), {} messages (vs {} moving elements one-by-one)",
        r.virtual_time,
        lowered.predicted,
        r.net.messages,
        nn - nn / nprocs as i64,
    );
}
