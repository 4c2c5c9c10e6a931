//! E4 — ownership-based load balancing (§2.6/§2.7): the self-scheduling
//! task farm vs static block assignment across skew and machine size.

use crate::table::{j, Table};
use std::sync::Arc;
use xdp_apps::farm::{build_farm, build_static, FarmConfig};
use xdp_apps::workloads;
use xdp_core::{ExecReport, MachineConfig, SimExec};
use xdp_ir::{Program, VarId};
use xdp_runtime::Value;

fn run(p: Program, w: VarId, costs: &[u64], np: usize) -> ExecReport {
    let mut exec = SimExec::new(Arc::new(p), xdp_apps::app_kernels(), MachineConfig::new(np));
    exec.init_exclusive(w, |idx| Value::F64(costs[(idx[0] - 1) as usize] as f64));
    exec.run().expect("run")
}

/// Static and farm virtual times for one cost vector.
fn static_and_farm(cfg: FarmConfig, costs: &[u64]) -> (f64, f64) {
    let (ps, vs) = build_static(cfg);
    let (pf, vf) = build_farm(cfg);
    let stat = run(ps, vs.w, costs, cfg.nprocs).virtual_time;
    (stat, run(pf, vf.w, costs, cfg.nprocs).virtual_time)
}

/// At zero skew both assignments are within 0.02 % of the ideal makespan;
/// at every positive skew, and in either task order, the farm beats
/// static blocks.
pub fn e4() -> Vec<Table> {
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
            let (stat, farm) = static_and_farm(cfg, &costs);
            let ideal = workloads::ideal_makespan(&costs, np) as f64 * scale as f64 * 0.1;
            let cell = format!("P={np} skew={skew}");
            if skew == 0.0 {
                for (name, time) in [("static", stat), ("farm", farm)] {
                    let off = (time / ideal - 1.0).abs();
                    assert!(
                        off <= 2e-4,
                        "E4: {cell}: {name} {time} is {off:.2e} off ideal {ideal}"
                    );
                }
            } else {
                assert!(
                    farm < stat,
                    "E4: {cell}: farm {farm} not below static {stat}"
                );
            }
            t.row(&[
                j::i(np as i64),
                j::i(tasks as i64),
                j::f(skew),
                j::f(stat),
                j::f(farm),
                j::f(ideal),
                j::s(&format!("{:.2}x", stat / farm)),
                j::s(&format!("{:.2}", farm / ideal)),
            ]);
        }
    }

    // Shuffled costs: static improves, the farm still wins.
    let mut t2 = Table::new(
        "E4b: shuffled task order (P=4, 32 tasks, skew 1.5)",
        &["order", "static", "farm"],
    );
    let cfg = FarmConfig {
        tasks: 32,
        nprocs: 4,
        scale,
    };
    for (label, costs) in [
        ("sorted desc", workloads::zipf_costs(32, 200_000, 1.5)),
        (
            "shuffled",
            workloads::shuffled(workloads::zipf_costs(32, 200_000, 1.5), 11),
        ),
    ] {
        let (stat, farm) = static_and_farm(cfg, &costs);
        assert!(
            farm < stat,
            "E4b: {label}: farm {farm} not below static {stat}"
        );
        t2.row(&[j::s(label), j::f(stat), j::f(farm)]);
    }
    vec![t, t2]
}
