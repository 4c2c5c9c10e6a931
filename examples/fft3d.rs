//! The paper's §4 walkthrough: a 3-D FFT with XDP ownership
//! redistribution, optimized stage by stage.
//!
//! Prints the IL+XDP for the paper's 4x4x4-on-4 configuration (including
//! the verbatim first listing), shows the compiler passes *deriving* the
//! optimized stages, executes every stage on the simulated machine
//! (verifying bit-level agreement with a sequential 3-D FFT), and renders
//! the timelines that make the communication/computation overlap visible.
//!
//! ```text
//! cargo run --example fft3d [n nprocs]
//! ```

use xdp::prelude::*;
use xdp_apps::fft3d::{self, Fft3dConfig, Stage};
use xdp_compiler::passes::{FuseLoops, LocalizeBounds, SinkAwait};
use xdp_compiler::Pass;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let nprocs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let cfg = Fft3dConfig::new(n, nprocs);

    // --- the paper's first listing, verbatim shape (n == P only) ---------
    if n == nprocs as i64 {
        let (paper, _) = fft3d::paper_listing_v0(cfg);
        println!("==== §4 first listing (verbatim shape) ====\n");
        println!("{}", xdp_ir::pretty::program(&paper));
    }

    // --- pass-derived optimization of the naive stage ---------------------
    let (v0, _) = fft3d::build(cfg, Stage::V0Naive);
    println!("==== v0: naive guarded form ====\n");
    println!("{}", xdp_ir::pretty::program(&v0));

    let loc = LocalizeBounds.run(&v0);
    println!("==== compute-rule elimination (localize-bounds) ====");
    for note in &loc.notes {
        println!("  - {note}");
    }
    let fused = FuseLoops.run(&loc.program);
    println!("==== loop fusion ====");
    for note in &fused.notes {
        println!("  - {note}");
    }
    let sunk = SinkAwait.run(&fused.program);
    println!("==== await sinking ====");
    for note in &sunk.notes {
        println!("  - {note}");
    }
    println!("\n==== derived optimized program ====\n");
    println!("{}", xdp_ir::pretty::program(&sunk.program));

    // --- execute every stage with slow communication ----------------------
    println!("==== execution (alpha = 500, per-stage) ====\n");
    let slow = CostModel {
        alpha: 500.0,
        ..CostModel::default_1993()
    };
    let mut baseline = None;
    for stage in Stage::all() {
        let report = fft3d::run_stage(
            cfg,
            stage,
            MachineConfig::new(nprocs).with_cost(slow).with_timeline(),
            42,
        )
        .expect("fft3d stage");
        let t = report.virtual_time;
        let speedup = baseline.map(|b: f64| b / t).unwrap_or(1.0);
        baseline = baseline.or(Some(t));
        println!(
            "{:>14}: time {:>12.1}  messages {:>4}  wait {:>12.1}  speedup vs v0 {:>5.2}x",
            stage.label(),
            t,
            report.net.messages,
            report.total_wait(),
            speedup,
        );
        println!("{}", report.gantt(72));
    }
    println!("(every stage verified against the sequential 3-D FFT)");
}
