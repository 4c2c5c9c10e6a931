//! E5 — delayed communication binding (§3.2): identical programs with
//! rendezvous-by-name vs compile-time-bound destinations.
//!
//! Expected shape: identical results and message counts; bound messages
//! shed the wire name header and the matcher lookup, so wire bytes and
//! time drop — proportionally more for small messages, where the header
//! dominates the payload.

use std::sync::Arc;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_compiler::passes::BindCommunication;
use xdp_compiler::{lower_owner_computes, Pass};
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

/// Section-level transfers of `width` elements per message: A[i-block] +=
/// B-sections, written directly so the message size is controllable.
fn sectioned(n: i64, nprocs: usize) -> (Program, VarId, VarId) {
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

fn main() {
    let nprocs = 4;
    let mut t = Table::new(
        "E5: rendezvous-by-name vs bound communication (verified identical)",
        &[
            "n",
            "variant",
            "messages",
            "payload B",
            "wire B",
            "header overhead",
            "time",
            "speedup",
        ],
    );
    for &n in &[16i64, 64, 256] {
        let (s, a, bb) = sectioned(n, nprocs);
        let naive = lower_owner_computes(&s).unwrap();
        let bound = BindCommunication.run(&naive).program;
        let mut base = None;
        for (label, prog) in [("unbound (name on wire)", &naive), ("bound (§3.2)", &bound)] {
            let mut exec = SimExec::new(
                Arc::new(prog.clone()),
                KernelRegistry::standard(),
                MachineConfig::new(nprocs),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            exec.init_exclusive(bb, |idx| Value::F64(2.0 * idx[0] as f64));
            let r = exec.run().expect("run");
            let g = exec.gather(a);
            for i in 1..=n {
                assert_eq!(g.get(&[i]).unwrap().as_f64(), 3.0 * i as f64);
            }
            let b0 = *base.get_or_insert(r.virtual_time);
            let overhead = r.net.wire_bytes - r.net.payload_bytes;
            t.row(&[
                j::i(n),
                j::s(label),
                j::u(r.net.messages),
                j::u(r.net.payload_bytes),
                j::u(r.net.wire_bytes),
                j::s(&format!(
                    "{:.0}%",
                    100.0 * overhead as f64 / r.net.payload_bytes.max(1) as f64
                )),
                j::f(r.virtual_time),
                j::s(&format!("{:.2}x", b0 / r.virtual_time)),
            ]);
        }
    }
    t.print();

    fn count_unbound(p: &Program) -> usize {
        let mut n = 0;
        p.visit(&mut |s| {
            if matches!(
                s,
                xdp_ir::Stmt::Send {
                    dest: xdp_ir::DestSet::Unspecified,
                    ..
                }
            ) {
                n += 1;
            }
        });
        n
    }
    let (s, _, _) = sectioned(16, nprocs);
    let naive = lower_owner_computes(&s).unwrap();
    let bound = BindCommunication.run(&naive).program;
    println!(
        "static send statements unbound: naive {}, bound {}",
        count_unbound(&naive),
        count_unbound(&bound)
    );
}
