//! The collectives subsystem: collective algorithms as explicit message
//! schedules, cost prediction across interconnects, and the redistribution
//! planner — from schedule construction down to an executed `redistribute`
//! statement.
//!
//! ```text
//! cargo run --example collectives
//! ```

use std::sync::Arc;
use xdp::collectives::{
    allgather_ring, allreduce, alltoall_bruck, alltoall_pairwise, broadcast_binomial, plan,
    run_lockstep,
};
use xdp::prelude::*;

fn main() {
    let nprocs = 8;
    let n = 64i64;

    // --- collective algorithms as schedules -------------------------------
    println!("==== collective schedules (P={nprocs}, n={n} f64) ====\n");
    let schedules = [
        (
            "broadcast (binomial)",
            broadcast_binomial(VarId(0), n, 8, nprocs, 0),
        ),
        (
            "allreduce (recursive doubling)",
            allreduce(VarId(0), n, 8, nprocs),
        ),
        ("allgather (ring)", allgather_ring(VarId(0), n, 8, nprocs)),
        (
            "all-to-all (pairwise)",
            alltoall_pairwise(VarId(0), n, 8, nprocs),
        ),
        ("all-to-all (Bruck)", alltoall_bruck(VarId(0), n, 8, nprocs)),
    ];
    let model = CostModel::default_1993();
    println!(
        "{:<32} {:>6} {:>9} {:>9} {:>12} {:>12}",
        "collective", "rounds", "messages", "bytes", "t(uniform)", "t(linear)"
    );
    for (name, s) in &schedules {
        println!(
            "{:<32} {:>6} {:>9} {:>9} {:>12.1} {:>12.1}",
            name,
            s.rounds.len(),
            s.message_count(),
            s.total_bytes(),
            s.predicted_cost(&model, &Topology::Uniform),
            s.predicted_cost(&model, &Topology::Linear),
        );
    }

    // Applied in memory, the broadcast puts the root's data everywhere.
    let bounds = Section::new(vec![Triplet::range(1, n)]);
    let bcast = &schedules[0].1;
    let mut data: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| {
            if p == 0 {
                (1..=n).map(|i| i as f64).collect()
            } else {
                vec![0.0; n as usize]
            }
        })
        .collect();
    run_lockstep(bcast, &bounds, &mut data).expect("well-formed schedule");
    assert!(data.iter().all(|v| v[7] == 8.0), "broadcast delivered");
    println!("\nbroadcast applied in memory: every processor holds the root's data\n");

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
