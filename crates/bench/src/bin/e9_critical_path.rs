//! E9 — critical-path decomposition of the 3-D FFT derivation.
//!
//! F4 shows *that* each derivation stage is faster; this experiment shows
//! *why*, by walking the happens-before graph of a fully traced run and
//! attributing every microsecond of end-to-end virtual time to compute,
//! wire, or wait — per stage, then per IR statement for the first and
//! last stages. The analyzer must account for 100% of the virtual time
//! (checked below); the per-statement ranking is the "top movement costs"
//! table cited in EXPERIMENTS.md E9.
//!
//! Expected shape: v0's path is dominated by wait (serialized per-element
//! rendezvous); the derivation first converts wait into overlapped wire
//! time, then (v5, planned redistribution) collapses wire time by
//! vectorizing the transpose into one message per processor pair.

use std::collections::HashMap;
use xdp_apps::fft3d::{build, run_program, Fft3dConfig, Stage};
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_core::{CriticalPathReport, MachineConfig, TraceConfig};
use xdp_ir::pretty;
use xdp_machine::CostModel;

const N: i64 = 8;
const P: usize = 4;
const SEED: u64 = 42;

/// Run one stage with full tracing and return its critical-path report.
fn analyze(stage: Stage) -> CriticalPathReport {
    let cfg = Fft3dConfig::new(N, P);
    let cost = CostModel {
        unexpected_overhead: 0.0,
        ..CostModel::default_1993()
    };
    let (program, vars) = build(cfg, stage);
    let labels: HashMap<u32, String> = pretty::stmt_table(&program).into_iter().collect();
    let sim = MachineConfig::new(P)
        .with_cost(cost)
        .with_trace(TraceConfig::full());
    let report = run_program(cfg, program, vars, sim, SEED).expect("stage run");
    let cp = report.trace.critical_path(&labels);
    let vt = report.virtual_time;
    assert!(
        (cp.attributed() - vt).abs() <= 1e-6 * vt,
        "{}: analyzer attributed {:.3} of {:.3}",
        stage.label(),
        cp.attributed(),
        vt
    );
    cp
}

fn main() {
    let mut t = Table::new(
        "E9: critical-path decomposition, 3-D FFT n=8 P=4 (virtual us)",
        &["stage", "total", "compute", "wire", "wait", "hops"],
    );
    let mut detail = Vec::new();
    for stage in Stage::all() {
        let cp = analyze(stage);
        t.row(&[
            j::s(stage.label()),
            j::f(cp.total),
            j::f(cp.compute),
            j::f(cp.wire),
            j::f(cp.wait),
            j::u(cp.hops as u64),
        ]);
        if matches!(stage, Stage::V0Naive | Stage::V5Planned) {
            detail.push((stage.label(), cp));
        }
    }
    t.print();

    // Before/after per-statement attribution: where the time went in the
    // naive program, and where it goes once the derivation is complete.
    for (label, cp) in detail {
        println!("-- {label} --");
        print!("{}", cp.render(5));
        println!();
    }
}
