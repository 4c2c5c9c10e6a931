//! The §2.7 load-balancing idiom: a self-scheduling task farm built from
//! multiple outstanding sends and receives on one name.
//!
//! "This could be accomplished by having the owner of a particular variable
//! initiate a sequence of sends of values of the variable, each value
//! representing a certain job to be performed. Meanwhile, any processor
//! that was otherwise idle could initiate a receive of that variable, and
//! then perform the indicated job. Depending on the load at run-time, there
//! might be multiple outstanding sends or outstanding receives."
//!
//! The master (p0) sends every task's cost as the value of the single name
//! `TASK[0]`; every processor (master included) claims `tasks / P` jobs by
//! receiving that name and running the `work_data` kernel, whose cost *is*
//! the received value. Claims resolve in completion order, so an
//! early-finishing processor picks up the next job — greedy list
//! scheduling, constrained to equal claim counts (XDP compute rules cannot
//! branch on element values, so claim counts are fixed at compile time;
//! see DESIGN.md).

use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, ProcGrid, Program, VarId};

/// Farm parameters.
#[derive(Clone, Copy, Debug)]
pub struct FarmConfig {
    /// Number of tasks; must be divisible by `nprocs`.
    pub tasks: usize,
    /// Machine size.
    pub nprocs: usize,
    /// Flops charged per unit of task cost.
    pub scale: i64,
}

/// Variables declared by the farm builders.
#[derive(Clone, Copy, Debug)]
pub struct FarmVars {
    /// The job list (costs as data).
    pub w: VarId,
}

/// The dynamic farm: master sends all jobs on one name; everyone claims
/// `tasks/P` of them in completion order.
pub fn build_farm(cfg: FarmConfig) -> (Program, FarmVars) {
    assert!(
        cfg.tasks.is_multiple_of(cfg.nprocs),
        "equal claim counts need nprocs | tasks"
    );
    let t = cfg.tasks as i64;
    let np = cfg.nprocs;
    let claims = t / np as i64;
    let mut p = Program::new();
    let w = p.declare(xdp_ir::Decl {
        name: "W".into(),
        elem: ElemType::F64,
        bounds: vec![xdp_ir::Triplet::range(1, t)],
        ownership: xdp_ir::Ownership::Exclusive,
        dist: Some(xdp_ir::Distribution::collapsed(1, np)),
        segment_shape: None,
    });
    let task = p.declare(xdp_ir::Decl {
        name: "TASK".into(),
        elem: ElemType::F64,
        bounds: vec![xdp_ir::Triplet::range(0, 0)],
        ownership: xdp_ir::Ownership::Exclusive,
        dist: Some(xdp_ir::Distribution::collapsed(1, np)),
        segment_shape: None,
    });
    let rslot = p.declare(b::array(
        "RSLOT",
        ElemType::F64,
        vec![(0, np as i64 - 1)],
        vec![DimDist::Block],
        ProcGrid::linear(np),
    ));

    let wj = b::sref(w, vec![b::at(b::iv("j"))]);
    let task0 = b::sref(task, vec![b::at(b::c(0))]);
    let mine = b::sref(rslot, vec![b::at(b::mypid())]);

    p.body = vec![
        // Master: publish every job under the single name TASK[0].
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::do_loop(
                "j",
                b::c(1),
                b::c(t),
                vec![
                    b::assign(task0.clone(), b::val(wj.clone())),
                    b::send(task0.clone()),
                ],
            )],
        ),
        // Everyone: claim jobs in completion order.
        b::do_loop(
            "r",
            b::c(1),
            b::c(claims),
            vec![
                b::recv_val(mine.clone(), task0.clone()),
                b::guarded(
                    b::await_(mine.clone()),
                    vec![b::kernel_with(
                        "work_data",
                        vec![mine.clone()],
                        vec![b::c(cfg.scale)],
                    )],
                ),
            ],
        ),
    ];
    (p, FarmVars { w })
}

/// The static baseline: the same job list block-distributed; every
/// processor runs exactly its own contiguous chunk, no communication.
pub fn build_static(cfg: FarmConfig) -> (Program, FarmVars) {
    let t = cfg.tasks as i64;
    let np = cfg.nprocs;
    let mut p = Program::new();
    let w = p.declare(b::array(
        "W",
        ElemType::F64,
        vec![(1, t)],
        vec![DimDist::Block],
        ProcGrid::linear(np),
    ));
    let wall = b::sref(w, vec![b::all()]);
    let wj = b::sref(w, vec![b::at(b::iv("j"))]);
    p.body = vec![b::do_loop_step(
        "j",
        b::mylb(wall.clone(), 1),
        b::myub(wall, 1),
        b::c(1),
        vec![b::kernel_with("work_data", vec![wj], vec![b::c(cfg.scale)])],
    )];
    (p, FarmVars { w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::sync::Arc;
    use xdp_core::{MachineConfig, SimExec};
    use xdp_runtime::Value;

    fn run(program: Program, w: VarId, costs: &[u64], np: usize) -> xdp_core::ExecReport {
        let mut exec = SimExec::new(
            Arc::new(program),
            crate::fft::app_kernels(),
            MachineConfig::new(np),
        );
        exec.init_exclusive(w, |idx| Value::F64(costs[(idx[0] - 1) as usize] as f64));
        exec.run().expect("farm run")
    }

    #[test]
    fn farm_distributes_all_tasks() {
        let cfg = FarmConfig {
            tasks: 16,
            nprocs: 4,
            scale: 10,
        };
        let costs = workloads::zipf_costs(16, 1000, 0.0);
        let (p, vars) = build_farm(cfg);
        let rep = run(p, vars.w, &costs, 4);
        assert_eq!(rep.net.messages, 16);
        // Uniform costs: claims spread evenly.
        assert!(
            rep.net.received_by.iter().all(|&r| r == 4),
            "{:?}",
            rep.net.received_by
        );
    }

    #[test]
    fn farm_beats_static_blocks_on_skewed_costs() {
        let (tasks, np, scale) = (32, 4, 50);
        // Decreasing power-law costs: the first block is crushing.
        let costs = workloads::zipf_costs(tasks, 200_000, 1.5);
        let cfg = FarmConfig {
            tasks,
            nprocs: np,
            scale,
        };

        let (pf, vf) = build_farm(cfg);
        let farm = run(pf, vf.w, &costs, np);
        let (ps, vs) = build_static(cfg);
        let stat = run(ps, vs.w, &costs, np);

        assert!(
            farm.virtual_time < stat.virtual_time,
            "farm {} < static {}",
            farm.virtual_time,
            stat.virtual_time
        );
        // And the farm should be within a modest factor of the ideal bound.
        let ideal = workloads::ideal_makespan(&costs, np) as f64 * scale as f64 * 0.1; // flop_time of the default model
        assert!(
            farm.virtual_time < 2.5 * ideal,
            "farm {} vs ideal {}",
            farm.virtual_time,
            ideal
        );
    }

    #[test]
    fn static_matches_block_makespan_model() {
        let (tasks, np, scale) = (16, 4, 100);
        let costs = workloads::shuffled(workloads::zipf_costs(tasks, 10_000, 1.0), 9);
        let cfg = FarmConfig {
            tasks,
            nprocs: np,
            scale,
        };
        let (ps, vs) = build_static(cfg);
        let rep = run(ps, vs.w, &costs, np);
        assert_eq!(rep.net.messages, 0);
        let model = workloads::static_block_makespan(&costs, np) as f64 * scale as f64 * 0.1;
        // Virtual time tracks the model up to small per-statement overheads.
        assert!(
            (rep.virtual_time - model).abs() / model < 0.05,
            "sim {} vs model {}",
            rep.virtual_time,
            model
        );
    }
}
