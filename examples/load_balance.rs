//! The §2.7 load-balancing idiom: ownership-based self-scheduling.
//!
//! "Depending on the load at run-time, there might be multiple outstanding
//! sends or outstanding receives." The master publishes every task's cost
//! under one name; every processor claims an equal number of jobs, but in
//! *completion order* — so a processor that drew cheap jobs comes back for
//! the next one sooner. Compare against the static contiguous-block
//! assignment across a skew sweep.
//!
//! ```text
//! cargo run --example load_balance
//! ```

use std::sync::Arc;
use xdp::prelude::*;
use xdp_apps::farm::{build_farm, build_static, FarmConfig};
use xdp_apps::workloads;

fn run(p: Program, w: VarId, costs: &[u64], np: usize) -> ExecReport {
    let mut exec = SimExec::new(Arc::new(p), xdp_apps::app_kernels(), MachineConfig::new(np));
    exec.init_exclusive(w, |idx| Value::F64(costs[(idx[0] - 1) as usize] as f64));
    exec.run().expect("farm run")
}

fn main() {
    let (tasks, np, scale) = (32usize, 4usize, 50i64);
    let cfg = FarmConfig {
        tasks,
        nprocs: np,
        scale,
    };
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>9} {:>12}",
        "skew", "static time", "farm time", "ideal bound", "speedup", "farm eff."
    );
    for skew in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
        let costs = workloads::zipf_costs(tasks, 200_000, skew);
        let (pf, vf) = build_farm(cfg);
        let farm = run(pf, vf.w, &costs, np);
        let (ps, vs) = build_static(cfg);
        let stat = run(ps, vs.w, &costs, np);
        // Ideal = perfectly balanced compute, in virtual time units.
        let ideal = workloads::ideal_makespan(&costs, np) as f64 * scale as f64 * 0.1;
        println!(
            "{:>6.1} {:>14.0} {:>14.0} {:>14.0} {:>8.2}x {:>11.1}%",
            skew,
            stat.virtual_time,
            farm.virtual_time,
            ideal,
            stat.virtual_time / farm.virtual_time,
            100.0 * ideal / farm.virtual_time,
        );
    }
    println!(
        "\n(static = contiguous block assignment; farm = §2.7 multiple\n\
         outstanding sends/receives on one name, claims in completion order)"
    );
}
