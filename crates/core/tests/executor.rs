//! Executor integration tests: timeline invariants, determinism, checked
//! runtime diagnostics, and interpreter edge cases.

use std::sync::Arc;
use xdp_core::{KernelRegistry, MachineConfig, RtError, SimExec, TraceKind};
use xdp_ir::build as b;
use xdp_ir::{CmpOp, DimDist, ElemType, ProcGrid, Program, Stmt, TransferKind, VarId};
use xdp_runtime::Value;

fn one_proc_array(n: i64) -> (Program, VarId) {
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::I64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(1),
    ));
    (p, a)
}

#[test]
fn negative_step_loop() {
    let (mut p, a) = one_proc_array(5);
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    // Fill 5,4,3,2,1 with the running iteration count via a scalar.
    p.body = vec![
        b::set("k", b::c(0)),
        b::do_loop_step(
            "i",
            b::c(5),
            b::c(1),
            b::c(-1),
            vec![
                b::set("k", b::iv("k").add(b::c(1))),
                b::assign(ai.clone(), xdp_ir::ElemExpr::FromInt(b::iv("k"))),
            ],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(1),
    );
    exec.run().unwrap();
    let g = exec.gather(a);
    // i runs 5,4,3,2,1 while k runs 1..5.
    assert_eq!(g.get(&[5]).unwrap().as_i64(), 1);
    assert_eq!(g.get(&[1]).unwrap().as_i64(), 5);
}

#[test]
fn zero_trip_loop_and_empty_guard() {
    let (mut p, a) = one_proc_array(4);
    let ai = b::sref(a, vec![b::at(b::c(1))]);
    p.body = vec![
        b::do_loop(
            "i",
            b::c(5),
            b::c(1),
            vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitI(9))],
        ),
        b::guarded(
            xdp_ir::BoolExpr::False,
            vec![b::assign(ai.clone(), xdp_ir::ElemExpr::LitI(7))],
        ),
        b::guarded(xdp_ir::BoolExpr::True, vec![]),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(1),
    );
    exec.run().unwrap();
    assert_eq!(exec.gather(a).get(&[1]).unwrap().as_i64(), 0);
}

#[test]
fn zero_step_loop_is_an_error() {
    let (mut p, a) = one_proc_array(4);
    let ai = b::sref(a, vec![b::at(b::c(1))]);
    p.body = vec![b::do_loop_step(
        "i",
        b::c(1),
        b::c(4),
        b::c(0),
        vec![b::assign(ai, xdp_ir::ElemExpr::LitI(1))],
    )];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(1),
    );
    assert!(matches!(exec.run(), Err(RtError::ZeroStep)));
}

#[test]
fn universal_scalars_diverge_per_processor() {
    // Each processor computes its own copy of a universal value (§2.1:
    // "the values at each processor can be different").
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::I64,
        vec![(1, 4)],
        vec![DimDist::Block],
        ProcGrid::linear(4),
    ));
    let u = p.declare(b::universal_array("U", ElemType::I64, vec![(1, 1)]));
    let u1 = b::sref(u, vec![b::at(b::c(1))]);
    let all = b::sref(a, vec![b::all()]);
    let mine = b::sref(a, vec![b::at(b::mylb(all, 1))]);
    p.body = vec![
        b::assign(
            u1.clone(),
            xdp_ir::ElemExpr::FromInt(b::mypid().mul(b::c(10))),
        ),
        b::assign(mine, b::val(u1)),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(4),
    );
    exec.run().unwrap();
    let g = exec.gather(a);
    for pid in 0..4i64 {
        assert_eq!(g.get(&[pid + 1]).unwrap().as_i64(), pid * 10);
    }
}

#[test]
fn timeline_invariants() {
    // Events lie within [0, makespan]; per-processor busy+wait <= finish.
    let mut p = Program::new();
    let grid = ProcGrid::linear(3);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 12)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let t = p.declare(b::array(
        "T",
        ElemType::F64,
        vec![(0, 2)],
        vec![DimDist::Block],
        grid,
    ));
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    let tm = b::sref(t, vec![b::at(b::mypid())]);
    p.body = vec![
        b::guarded(
            b::iown(a1.clone()),
            vec![b::send(a1.clone()), b::send(a1.clone())],
        ),
        b::guarded(
            b::cmp(CmpOp::Gt, b::mypid(), b::c(0)),
            vec![
                b::recv_val(tm.clone(), a1.clone()),
                b::guarded(b::await_(tm.clone()), vec![]),
            ],
        ),
        Stmt::Barrier,
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(3).with_timeline(),
    );
    let r = exec.run().unwrap();
    assert!(r.virtual_time > 0.0);
    for ev in &r.trace.events {
        assert!(ev.t0 >= 0.0 && ev.t1 <= r.virtual_time + 1e-9, "{ev:?}");
        assert!(ev.t0 <= ev.t1, "{ev:?}");
        assert!(ev.pid < 3);
    }
    for (pid, proc_) in r.procs.iter().enumerate() {
        assert!(
            proc_.busy + proc_.wait <= proc_.finish_time + 1e-9,
            "p{pid}: busy {} + wait {} vs finish {}",
            proc_.busy,
            proc_.wait,
            proc_.finish_time
        );
    }
    // The barrier produced at least one Wait interval on some processor.
    assert!(r.trace.events.iter().any(|e| e.kind == TraceKind::Wait));
}

#[test]
fn deterministic_virtual_time_and_traffic() {
    use xdp_apps::fft3d::{run_stage, Fft3dConfig, Stage};
    let run = || {
        let r = run_stage(
            Fft3dConfig::new(8, 4),
            Stage::V2Fused,
            MachineConfig::new(4),
            3,
        )
        .unwrap();
        (
            r.virtual_time.to_bits(),
            r.net.messages,
            r.net.wire_bytes,
            r.procs
                .iter()
                .map(|p| p.finish_time.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "bit-identical reruns");
}

#[test]
fn mismatched_transfer_kind_is_flagged() {
    // P0 sends ownership-only (`=>`); P1 receives ownership+value (`<=-`).
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        ProcGrid::linear(2),
        vec![2],
    ));
    let p0sec = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![Stmt::Send {
                sec: p0sec.clone(),
                kind: TransferKind::Ownership,
                dest: xdp_ir::DestSet::Unspecified,
                salt: None,
            }],
        ),
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_own_val(p0sec.clone()),
                b::guarded(b::await_(p0sec.clone()), vec![]),
            ],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(2),
    );
    match exec.run() {
        Err(RtError::BadTransfer { detail, .. }) => {
            assert!(detail.contains("matched a Ownership send"), "{detail}");
        }
        other => panic!("expected kind-mismatch diagnosis, got {other:?}"),
    }
}

#[test]
fn two_dimensional_grid_program() {
    // (BLOCK,BLOCK) on a 2x2 grid: each processor scales its own quadrant;
    // verifies 2-D ownership in the interpreter end to end.
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 4), (1, 4)],
        vec![DimDist::Block, DimDist::Block],
        ProcGrid::grid2(2, 2),
    ));
    let all = b::sref(a, vec![b::all(), b::all()]);
    let quad = b::sref(
        a,
        vec![
            b::span(b::mylb(all.clone(), 1), b::myub(all.clone(), 1)),
            b::span(b::mylb(all.clone(), 2), b::myub(all, 2)),
        ],
    );
    p.body = vec![b::assign(
        quad.clone(),
        b::val(quad.clone()).mul(xdp_ir::ElemExpr::FromInt(b::mypid().add(b::c(1)))),
    )];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(4),
    );
    exec.init_exclusive(a, |_| Value::F64(1.0));
    let r = exec.run().unwrap();
    assert_eq!(r.net.messages, 0);
    let g = exec.gather(a);
    // Row-major 2x2 grid: quadrant owners 0,1 / 2,3.
    assert_eq!(g.get(&[1, 1]).unwrap().as_f64(), 1.0);
    assert_eq!(g.get(&[1, 4]).unwrap().as_f64(), 2.0);
    assert_eq!(g.get(&[4, 1]).unwrap().as_f64(), 3.0);
    assert_eq!(g.get(&[4, 4]).unwrap().as_f64(), 4.0);
}

#[test]
fn accessible_enables_background_computation() {
    // §2.3: "It can be used to allow a processor to perform a background
    // computation while awaiting data from another processor."
    // P1 polls accessible(); on each negative poll it does a unit of
    // background work; when the data lands it consumes it. The background
    // work must overlap the transfer: wait time ~0 on P1 despite a slow
    // message.
    let mut p = Program::new();
    let grid = ProcGrid::linear(2);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let w = p.declare(b::array(
        "W",
        ElemType::F64,
        vec![(0, 1)],
        vec![DimDist::Block],
        grid,
    ));
    let p0sec = b::sref(a, vec![b::at(b::c(1))]);
    let my_w = b::sref(w, vec![b::at(b::mypid())]);
    let is_p0 = b::cmp(CmpOp::Eq, b::mypid(), b::c(0));
    let is_p1 = b::cmp(CmpOp::Eq, b::mypid(), b::c(1));
    p.body = vec![
        // P0 computes a while before sending (so P1 would otherwise wait).
        b::guarded(
            is_p0.clone(),
            vec![
                b::kernel_with("work", vec![p0sec.clone()], vec![b::c(5_000)]),
                b::send(p0sec.clone()),
            ],
        ),
        b::guarded(
            is_p1.clone(),
            vec![
                b::recv_val(my_w.clone(), p0sec.clone()),
                // Background work units while the transfer is in flight.
                b::do_loop(
                    "poll",
                    b::c(1),
                    b::c(20),
                    vec![b::guarded(
                        xdp_ir::BoolExpr::Not(Box::new(b::accessible(my_w.clone()))),
                        vec![b::kernel_with("work", vec![my_w.clone()], vec![b::c(400)])],
                    )],
                ),
                // Then the foreground consumption.
                b::guarded(b::await_(my_w.clone()), vec![]),
            ],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(2).unchecked(), // background kernel touches the slot
    );
    let r = exec.run().unwrap();
    // P1 filled its waiting time with background work: its wait is a small
    // fraction of P0's head start (5000 flops * 0.1 = 500 time units).
    assert!(
        r.procs[1].wait < 100.0,
        "P1 waited {} despite background work",
        r.procs[1].wait
    );
    assert!(r.procs[1].busy > 300.0, "background work actually ran");
}

#[test]
fn nonconformable_send_recv_pair_is_an_error_not_a_panic() {
    // P0 sends a 2-element section; P1 receives it into a 1-element target
    // under the same *name* — incorrect XDP usage (§2.7) that must surface
    // as a runtime error, not a crash.
    let mut p = Program::new();
    let grid = ProcGrid::linear(2);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let w = p.declare(b::array(
        "W",
        ElemType::F64,
        vec![(0, 1)],
        vec![DimDist::Block],
        grid,
    ));
    let two = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    let one = b::sref(w, vec![b::at(b::mypid())]);
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::send(two.clone())],
        ),
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_val(one.clone(), two.clone()),
                b::guarded(b::await_(one.clone()), vec![]),
            ],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(2),
    );
    match exec.run() {
        Err(RtError::Symtab(xdp_runtime::symtab::SymtabError::SizeMismatch {
            payload, ..
        })) => assert_eq!(payload, 2),
        other => panic!("expected size-mismatch error, got {other:?}"),
    }
}

#[test]
fn surplus_ownership_claimants_are_diagnosed() {
    // Failure injection: two processors both post `U <=-` for the same
    // section but only one send exists. One wins the rendezvous; the other
    // holds a transitional placeholder forever — the executor must report
    // the deadlock rather than hang or corrupt state.
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, 6)],
        vec![DimDist::Block],
        ProcGrid::linear(3),
        vec![2],
    ));
    let p0sec = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::send_own_val(p0sec.clone())],
        ),
        // Both p1 and p2 claim.
        b::guarded(
            b::cmp(CmpOp::Gt, b::mypid(), b::c(0)),
            vec![
                b::recv_own_val(p0sec.clone()),
                b::guarded(b::await_(p0sec.clone()), vec![]),
            ],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(3),
    );
    match exec.run() {
        Err(RtError::Deadlock(d)) => {
            assert!(d.contains("unmatched recv"), "{d}");
        }
        other => panic!("expected a deadlock diagnosis, got {other:?}"),
    }
}

#[test]
fn deadlock_diagnosis_includes_program_positions() {
    // A receive that can never match, inside a loop: the diagnosis should
    // point at the loop and its live induction value.
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        ProcGrid::linear(2),
        vec![1],
    ));
    let theirs = b::sref(a, vec![b::at(b::c(3))]); // P1's element, never sent
    p.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(3),
        vec![b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![
                b::recv_own_val(theirs.clone()),
                b::guarded(b::await_(theirs.clone()), vec![]),
            ],
        )],
    )];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(2),
    );
    match exec.run() {
        Err(RtError::Deadlock(d)) => {
            assert!(d.contains("do i=1"), "position missing: {d}");
            assert!(d.contains("unmatched recv"), "{d}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}
