//! Quickstart: the paper's §2.2 running example, end to end.
//!
//! Builds `do i: A[i] = A[i] + B[i]` with misaligned distributions,
//! translates it to naive owner-computes IL+XDP, runs the paper's
//! optimization pipeline, and executes both versions on a simulated
//! 4-processor 1993-style multicomputer.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use xdp::prelude::*;

fn main() {
    let n = 16i64;
    let nprocs = 4;

    // --- sequential source with HPF-style distribution annotations -------
    let grid = ProcGrid::linear(nprocs);
    let mut seq = Program::new();
    let a = seq.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let b = seq.declare(build::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Cyclic], // misaligned with A on purpose
        grid,
    ));
    let ai = build::sref(a, vec![build::at(build::iv("i"))]);
    let bi = build::sref(b, vec![build::at(build::iv("i"))]);
    seq.body = vec![build::do_loop(
        "i",
        build::c(1),
        build::c(n),
        vec![build::assign(
            ai.clone(),
            build::val(ai).add(build::val(bi)),
        )],
    )];

    // --- naive owner-computes translation (§2.2) -------------------------
    let naive = xdp_compiler::lower_owner_computes(&seq).unwrap();
    println!("==== naive owner-computes IL+XDP ====\n");
    println!("{}", xdp_ir::pretty::program(&naive));

    // --- the paper's optimization pipeline --------------------------------
    let (optimized, log) = PassManager::paper_pipeline().run(&naive);
    println!("==== optimization log ====\n");
    for (name, r) in &log {
        println!(
            "pass {name}: {}",
            if r.changed { "changed" } else { "no change" }
        );
        for note in &r.notes {
            println!("  - {note}");
        }
    }
    println!("\n==== optimized IL+XDP ====\n");
    println!("{}", xdp_ir::pretty::program(&optimized));

    // --- execute both on the simulated machine ---------------------------
    let run = |p: &Program, label: &str| {
        let mut exec = SimExec::new(
            Arc::new(p.clone()),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs).with_timeline(),
        );
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(b, |idx| Value::F64(100.0 * idx[0] as f64));
        let report = exec.run().expect("execution");
        println!("==== {label} ====");
        println!(
            "  virtual time {:>10.1}   messages {:>3}   wire bytes {:>5}   symtab queries {:>4}",
            report.virtual_time,
            report.net.messages,
            report.net.wire_bytes,
            report.procs.iter().map(|p| p.symtab.queries).sum::<u64>(),
        );
        println!("{}", report.gantt(72));
        let g = exec.gather(a);
        for i in 1..=n {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
        }
        report.virtual_time
    };
    let t0 = run(&naive, "naive execution");
    let t1 = run(&optimized, "optimized execution");
    println!("speedup: {:.2}x  (results verified identical)", t0 / t1);
}
