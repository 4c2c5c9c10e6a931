//! F4 — the §4 3-D FFT: every derivation stage, swept over problem size
//! and network latency. Every cell is verified against the sequential
//! 3-D FFT before being reported.
//!
//! Expected shape: time(v0) >= time(v1) >= time(v2) >= time(v3); the
//! pipelined stages' advantage grows with latency; v4 (receive preposting)
//! additionally wins when unexpected-message handling is expensive.

use xdp_apps::fft3d::{run_stage, Fft3dConfig, Stage};
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_core::MachineConfig;
use xdp_machine::CostModel;

fn main() {
    let nprocs = 4;
    let mut t = Table::new(
        "F4: 3-D FFT derivation stages (times in virtual us, verified)",
        &["n", "alpha", "stage", "time", "vs v0", "messages", "wait"],
    );
    for &n in &[8i64, 16] {
        for &alpha in &[100.0, 500.0, 2000.0] {
            // Rendezvous protocol (no eager buffering) for the main
            // sweep; the eager regime is F4b below.
            let cost = CostModel {
                alpha,
                unexpected_overhead: 0.0,
                ..CostModel::default_1993()
            };
            let mut t0 = None;
            for stage in Stage::all() {
                let r = run_stage(
                    Fft3dConfig::new(n, nprocs),
                    stage,
                    MachineConfig::new(nprocs).with_cost(cost),
                    42,
                )
                .expect("stage run");
                let base = *t0.get_or_insert(r.virtual_time);
                t.row(&[
                    j::i(n),
                    j::f(alpha),
                    j::s(stage.label()),
                    j::f(r.virtual_time),
                    j::s(&format!("{:.2}x", base / r.virtual_time)),
                    j::u(r.net.messages),
                    j::f(r.total_wait()),
                ]);
            }
        }
    }
    t.print();

    // The eager-protocol regime where preposting (§3.2) pays off.
    let mut t2 = Table::new(
        "F4b: receive preposting under eager-protocol costs (n=8, P=4)",
        &["unexpected_overhead", "stage", "time", "speedup"],
    );
    for &uo in &[0.0, 20.0, 50.0, 100.0, 200.0] {
        let cost = CostModel {
            alpha: 50.0,
            beta: 0.2,
            unexpected_overhead: uo,
            ..CostModel::default_1993()
        };
        let mut base = None;
        for stage in [Stage::V3AwaitSunk, Stage::V4PrePosted] {
            let r = run_stage(
                Fft3dConfig::new(8, nprocs),
                stage,
                MachineConfig::new(nprocs).with_cost(cost),
                42,
            )
            .expect("stage run");
            let b0 = *base.get_or_insert(r.virtual_time);
            t2.row(&[
                j::f(uo),
                j::s(stage.label()),
                j::f(r.virtual_time),
                j::s(&format!("{:.2}x", b0 / r.virtual_time)),
            ]);
        }
    }
    t2.print();

    // The §3.2 shared-address translation target: the same programs, with
    // sends/receives costed as prefetch/poststore.
    let mut t3 = Table::new(
        "F4c: shared-address machine (KSR1-style costs, n=16, P=4)",
        &["stage", "time", "vs v0"],
    );
    let mut base = None;
    for stage in Stage::all() {
        let r = run_stage(
            Fft3dConfig::new(16, nprocs),
            stage,
            MachineConfig::new(nprocs).with_cost(CostModel::shared_address()),
            42,
        )
        .expect("stage run");
        let b0 = *base.get_or_insert(r.virtual_time);
        t3.row(&[
            j::s(stage.label()),
            j::f(r.virtual_time),
            j::s(&format!("{:.2}x", b0 / r.virtual_time)),
        ]);
    }
    t3.print();
    println!(
        "F4c: with cheap shared-address transfers the stages converge —\n\
         the paper's point that the XDP representation is machine-neutral\n\
         while the *profitability* of each optimization is machine-specific."
    );
}
