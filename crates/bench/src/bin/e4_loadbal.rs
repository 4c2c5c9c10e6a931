//! E4 — ownership-based load balancing (§2.6/§2.7): the self-scheduling
//! task farm vs static block assignment across skew and machine size.
//!
//! Expected shape: at zero skew both are ideal; as skew grows, the static
//! assignment's worst block dominates while the farm tracks the ideal
//! makespan bound; the advantage grows with processor count.

use std::sync::Arc;
use xdp_apps::farm::{build_farm, build_static, FarmConfig};
use xdp_apps::workloads;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_core::{ExecReport, MachineConfig, SimExec};
use xdp_ir::{Program, VarId};
use xdp_runtime::Value;

fn run(p: Program, w: VarId, costs: &[u64], np: usize) -> ExecReport {
    let mut exec = SimExec::new(Arc::new(p), xdp_apps::app_kernels(), MachineConfig::new(np));
    exec.init_exclusive(w, |idx| Value::F64(costs[(idx[0] - 1) as usize] as f64));
    exec.run().expect("run")
}

fn main() {
    let scale = 50i64;
    let mut t = Table::new(
        "E4: task farm vs static blocks (virtual time)",
        &[
            "P",
            "tasks",
            "skew",
            "static",
            "farm",
            "ideal bound",
            "farm/static",
            "farm/ideal",
        ],
    );
    for &np in &[4usize, 8] {
        let tasks = np * 8;
        for &skew in &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            let costs = workloads::zipf_costs(tasks, 200_000, skew);
            let cfg = FarmConfig {
                tasks,
                nprocs: np,
                scale,
            };
            let (pf, vf) = build_farm(cfg);
            let farm = run(pf, vf.w, &costs, np);
            let (ps, vs) = build_static(cfg);
            let stat = run(ps, vs.w, &costs, np);
            let ideal = workloads::ideal_makespan(&costs, np) as f64 * scale as f64 * 0.1;
            t.row(&[
                j::i(np as i64),
                j::i(tasks as i64),
                j::f(skew),
                j::f(stat.virtual_time),
                j::f(farm.virtual_time),
                j::f(ideal),
                j::s(&format!("{:.2}x", stat.virtual_time / farm.virtual_time)),
                j::s(&format!("{:.2}", farm.virtual_time / ideal)),
            ]);
        }
    }
    t.print();

    // Shuffled costs: static improves, the farm still tracks ideal.
    let mut t2 = Table::new(
        "E4b: shuffled task order (P=4, 32 tasks, skew 1.5)",
        &["order", "static", "farm"],
    );
    let np = 4;
    let cfg = FarmConfig {
        tasks: 32,
        nprocs: np,
        scale,
    };
    for (label, costs) in [
        ("sorted desc", workloads::zipf_costs(32, 200_000, 1.5)),
        (
            "shuffled",
            workloads::shuffled(workloads::zipf_costs(32, 200_000, 1.5), 11),
        ),
    ] {
        let (pf, vf) = build_farm(cfg);
        let farm = run(pf, vf.w, &costs, np);
        let (ps, vs) = build_static(cfg);
        let stat = run(ps, vs.w, &costs, np);
        t2.row(&[
            j::s(label),
            j::f(stat.virtual_time),
            j::f(farm.virtual_time),
        ]);
    }
    t2.print();
}
