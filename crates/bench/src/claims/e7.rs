//! E7 — architectural sensitivity (§3.2: "Other optimizations need to be
//! modified depending on various architectural and system
//! considerations").
//!
//! Two communication patterns under three interconnects (uniform crossbar,
//! linear array, 2-D mesh) with hop-scaled latency:
//!
//! * the 3-D FFT redistribution is all-to-all — its cost tracks the
//!   topology's average pair distance, so a linear array hurts;
//! * the 2-D Jacobi halo exchange is nearest-neighbor *in pid space* — on
//!   a linear array every message is one hop; on a 2-D mesh the row-major
//!   pid embedding puts "neighbors" like p3/p4 four hops apart, so the
//!   same program slows down unless the decomposition is re-fitted to the
//!   interconnect.

use crate::table::{j, Table};
use std::sync::Arc;
use xdp_apps::fft3d::{run_stage, Fft3dConfig, Stage};
use xdp_apps::halo2d::build_jacobi2d;
use xdp_core::{ExecReport, KernelRegistry, MachineConfig, SimExec};
use xdp_machine::{CostModel, Topology};
use xdp_runtime::Value;

/// The FFT ranks uniform ≤ mesh < linear; the Jacobi halo is the same on
/// uniform and linear and slower on the mismatched mesh — three ways the
/// same IL+XDP program meets three machines.
pub fn e7() -> Vec<Table> {
    let nprocs = 8;
    let cost = CostModel {
        alpha: 400.0,
        hop_factor: 1.0, // each extra hop costs another alpha
        ..CostModel::default_1993()
    };
    let machine = |topo: &Topology| {
        MachineConfig::new(nprocs)
            .with_cost(cost)
            .with_topo(topo.clone())
    };
    let topos: [(&str, Topology); 3] = [
        ("uniform", Topology::Uniform),
        ("mesh 2x4", Topology::Mesh2D { rows: 2, cols: 4 }),
        ("linear", Topology::Linear),
    ];
    let fft = |topo: &Topology| {
        run_stage(
            Fft3dConfig::new(16, nprocs),
            Stage::V3AwaitSunk,
            machine(topo),
            42,
        )
        .expect("fft")
    };
    let jacobi = |topo: &Topology| {
        let (p, vars) = build_jacobi2d(16, 32, nprocs, 4);
        let mut exec = SimExec::new(Arc::new(p), KernelRegistry::standard(), machine(topo));
        exec.init_exclusive(vars.u, |idx| Value::F64((idx[0] * 31 + idx[1]) as f64));
        exec.run().expect("jacobi")
    };
    type Pattern<'a> = (&'a str, &'a dyn Fn(&Topology) -> ExecReport);
    let patterns: [Pattern; 2] = [
        ("3-D FFT redistribution (all-to-all)", &fft),
        ("2-D Jacobi halo (nearest-neighbor)", &jacobi),
    ];

    let mut t = Table::new(
        "E7: interconnect sensitivity (P=8, alpha=400, hop_factor=1)",
        &["pattern", "topology", "time", "wait", "vs uniform"],
    );
    let mut times = Vec::new();
    for (pattern, run) in patterns {
        let mut base = None;
        for (name, topo) in &topos {
            let r = run(topo);
            let b0 = *base.get_or_insert(r.virtual_time);
            t.row(&[
                j::s(pattern),
                j::s(name),
                j::f(r.virtual_time),
                j::f(r.total_wait()),
                j::s(&format!("{:.2}x", r.virtual_time / b0)),
            ]);
            times.push(r.virtual_time);
        }
    }
    let [fu, fm, fl, ju, jm, jl] = times[..] else {
        unreachable!("two patterns on three topologies")
    };
    assert!(
        fu <= fm && fm < fl,
        "E7: FFT uniform {fu} ≤ mesh {fm} < linear {fl}"
    );
    assert!(
        ju == jl && jl < jm,
        "E7: Jacobi uniform {ju} = linear {jl} < mesh {jm}"
    );
    t.note(
        "interpretation: the all-to-all redistribution pays the topology's\n\
         diameter; the pid-space nearest-neighbor halo is free on the linear\n\
         array but pays dearly on the mesh, whose row-major embedding puts\n\
         'adjacent' pids rows apart — the decomposition, not just the message\n\
         count, must fit the interconnect (§3.2).\n",
    );
    vec![t]
}
