//! E6 — when does ownership migration pay? The §2.2 loop executed k times:
//! owner-computes pays communication every round; migration pays ownership
//! traffic once and computes locally thereafter.
//!
//! Expected shape: migration overtakes owner-computes at small k (its
//! one-time cost is comparable to one round of value traffic) and the gap
//! grows linearly in k. A competing loop pinned to A's *original*
//! alignment moves the crossover: migration helps loop 1 but makes loop 2
//! remote, so the winner depends on the execution-count ratio.

use std::sync::Arc;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_compiler::passes::MigrateOwnership;
use xdp_compiler::{lower_owner_computes, Pass};
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

fn source(n: i64, nprocs: usize) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Cyclic],
        grid,
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    s.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(n),
        vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
    )];
    (s, a, bb)
}

fn repeat(p: &Program, k: usize) -> Program {
    let mut out = p.clone();
    let body = out.body.clone();
    for _ in 1..k {
        out.body.extend(body.clone());
    }
    out
}

fn run(p: Program, a: VarId, bb: VarId, nprocs: usize) -> (f64, u64) {
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
    let r = exec.run().expect("run");
    (r.virtual_time, r.net.messages)
}

fn main() {
    let (n, nprocs) = (32i64, 4usize);
    let (s, a, bb) = source(n, nprocs);
    let naive = lower_owner_computes(&s).unwrap();
    let migrated = MigrateOwnership::default().run(&naive).program;

    let mut t = Table::new(
        "E6: repeated loop — owner-computes vs migrate-once (n=32, P=4)",
        &["k", "oc time", "oc msgs", "mig time", "mig msgs", "winner"],
    );
    for &k in &[1usize, 2, 4, 8, 16] {
        let (t_oc, m_oc) = run(repeat(&naive, k), a, bb, nprocs);
        let (t_mig, m_mig) = run(repeat(&migrated, k), a, bb, nprocs);
        t.row(&[
            j::i(k as i64),
            j::f(t_oc),
            j::u(m_oc),
            j::f(t_mig),
            j::u(m_mig),
            j::s(if t_mig < t_oc {
                "migration"
            } else {
                "owner-computes"
            }),
        ]);
    }
    t.print();
    println!(
        "owner-computes moves the misaligned values every round; migration\n\
         moves ownership once (the co-location refinement skips aligned\n\
         elements) and every later round is fully local."
    );
}
