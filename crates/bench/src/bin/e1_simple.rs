//! E1 — the §2.2 running example `A[i] = A[i] + B[i]` across alignment
//! regimes and optimization variants.
//!
//! Expected shape: with aligned distributions, same-owner elision removes
//! all communication; misaligned, vectorization collapses n per-element
//! messages into a few section messages; binding sheds name headers;
//! migration converts value traffic into one-time ownership traffic.

use std::sync::Arc;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_compiler::passes::{BindCommunication, MigrateOwnership};
use xdp_compiler::{lower_owner_computes, Pass, PassManager};
use xdp_core::{ExecReport, KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

fn source(n: i64, nprocs: usize, bd: DimDist) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array("B", ElemType::F64, vec![(1, n)], vec![bd], grid));
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

fn execute(p: &Program, a: VarId, bb: VarId, nprocs: usize, n: i64) -> ExecReport {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bb, |idx| Value::F64(100.0 * idx[0] as f64));
    let r = exec.run().expect("run");
    let g = exec.gather(a);
    for i in 1..=n {
        assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64, "A[{i}]");
    }
    r
}

fn main() {
    let nprocs = 4;
    let mut t = Table::new(
        "E1: A[i] = A[i] + B[i] — variants x alignment (all verified)",
        &[
            "n",
            "B dist",
            "variant",
            "messages",
            "wire bytes",
            "time",
            "speedup",
        ],
    );
    for &n in &[16i64, 64, 256] {
        for (bdname, bd) in [
            ("BLOCK (aligned)", DimDist::Block),
            ("CYCLIC (misaligned)", DimDist::Cyclic),
        ] {
            let (s, a, bb) = source(n, nprocs, bd);
            let naive = lower_owner_computes(&s).unwrap();
            let mut base = None;
            let mut add = |label: &str, p: &Program, t: &mut Table| {
                let r = execute(p, a, bb, nprocs, n);
                let b0 = *base.get_or_insert(r.virtual_time);
                t.row(&[
                    j::i(n),
                    j::s(bdname),
                    j::s(label),
                    j::u(r.net.messages),
                    j::u(r.net.wire_bytes),
                    j::f(r.virtual_time),
                    j::s(&format!("{:.2}x", b0 / r.virtual_time)),
                ]);
            };
            add("naive owner-computes", &naive, &mut t);
            let bound = BindCommunication.run(&naive).program;
            add("bound (delayed binding)", &bound, &mut t);
            let (opt, _) = PassManager::paper_pipeline().run(&naive);
            add("full pipeline", &opt, &mut t);
            let mig = MigrateOwnership::default().run(&naive).program;
            add("ownership migration", &mig, &mut t);
        }
    }
    t.print();
}
