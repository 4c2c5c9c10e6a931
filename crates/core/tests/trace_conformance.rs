//! Machine conformance: the simulator, the task machine and the lockstep
//! reference must emit the same *movement multiset* — identical send-init
//! / recv-post / wire-transit / recv-complete events up to timing and
//! message ids — for the same program (see
//! `xdp_trace::Trace::movement_keys`), whatever the cost model — and
//! whether the run kept its whole timeline (`TraceConfig::full()`) or the
//! movement record alone (`TraceConfig::movement()`).

use std::sync::Arc;
use xdp_core::{
    AsyncExec, KernelRegistry, Machine, MachineConfig, SimExec, Trace, TraceConfig, TraceKind,
};
use xdp_ir::build as b;
use xdp_ir::{DimDist, Distribution, ElemType, ProcGrid, Program, VarId};
use xdp_machine::CostModel;
use xdp_runtime::Value;
use xdp_trace::Movement;
use xdp_verify::lockstep::Lockstep;

/// Block-distributed A and cyclic B: every A[i] += B[i] via messages.
fn message_program(n: i64, nprocs: usize) -> (Arc<Program>, VarId, VarId) {
    let mut p = Program::new();
    let grid = ProcGrid::linear(nprocs);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = p.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Cyclic],
        grid.clone(),
    ));
    let t = p.declare(b::array(
        "T",
        ElemType::F64,
        vec![(0, nprocs as i64 - 1)],
        vec![DimDist::Block],
        grid,
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    let tm = b::sref(t, vec![b::at(b::mypid())]);
    p.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(n),
        vec![
            b::guarded(b::iown(bi.clone()), vec![b::send(bi.clone())]),
            b::guarded(
                b::iown(ai.clone()),
                vec![
                    b::recv_val(tm.clone(), bi.clone()),
                    b::guarded(
                        b::await_(tm.clone()),
                        vec![b::assign(
                            ai.clone(),
                            b::val(ai.clone()).add(b::val(tm.clone())),
                        )],
                    ),
                ],
            ),
        ],
    )];
    (Arc::new(p), a, bb)
}

/// A 2-D array redistributed from row-block to column-block layout — the
/// collective planner expands this into generated sends/receives whose
/// trace events all inherit the `redistribute` statement's id.
fn redistribute_program(n: i64, nprocs: usize) -> (Arc<Program>, VarId) {
    let mut p = Program::new();
    let grid = ProcGrid::linear(nprocs);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n), (1, n)],
        vec![DimDist::Block, DimDist::Star],
        grid.clone(),
    ));
    p.body = vec![b::redistribute(
        a,
        Distribution::new(vec![DimDist::Star, DimDist::Block], grid),
    )];
    (Arc::new(p), a)
}

/// The trace of one run on any machine.
fn trace_of(mut exec: impl Machine, init: &[(VarId, f64)]) -> Trace {
    for &(v, x) in init {
        exec.init_exclusive(v, &move |idx| Value::F64(x * idx[0] as f64));
    }
    exec.run_report().unwrap().trace
}

/// The movement multiset of one traced run on any machine.
fn multiset(exec: impl Machine, init: &[(VarId, f64)]) -> Movement {
    trace_of(exec, init).movement_keys()
}

fn sim_multiset(prog: &Arc<Program>, nprocs: usize, init: &[(VarId, f64)]) -> Movement {
    let cfg = MachineConfig::new(nprocs).with_trace(TraceConfig::full());
    multiset(
        SimExec::new(prog.clone(), KernelRegistry::standard(), cfg),
        init,
    )
}

fn thread_multiset(prog: &Arc<Program>, nprocs: usize, init: &[(VarId, f64)]) -> Movement {
    let cfg = MachineConfig::new(nprocs).with_trace(TraceConfig::full());
    multiset(
        AsyncExec::new(prog.clone(), KernelRegistry::standard(), cfg),
        init,
    )
}

#[test]
fn backends_agree_on_message_program() {
    let nprocs = 3;
    let (prog, a, bb) = message_program(12, nprocs);
    let init = vec![(a, 1.0), (bb, 2.0)];
    let sim = sim_multiset(&prog, nprocs, &init);
    let thr = thread_multiset(&prog, nprocs, &init);
    assert!(!sim.is_empty());
    assert_eq!(sim, thr);
}

#[test]
fn backends_agree_on_redistribute_program() {
    let nprocs = 2;
    let (prog, a) = redistribute_program(4, nprocs);
    let init = vec![(a, 1.0)];
    let sim = sim_multiset(&prog, nprocs, &init);
    let thr = thread_multiset(&prog, nprocs, &init);
    assert!(!sim.is_empty());
    assert_eq!(sim, thr);
}

/// Movement is recorded whatever its extent: a cost model with no
/// per-message CPU overhead (`zero_comm`) must not drop the simulator's
/// send-init / recv-post / recv-complete events.
#[test]
fn every_machine_agrees_on_simple_xdp_under_any_cost_model() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../xdp-programs/simple.xdp");
    let source = std::fs::read_to_string(path).unwrap();
    let prog = Arc::new(xdp_lang::parse_program(&source).unwrap());
    let init = [(VarId(0), 1.0), (VarId(1), 2.0)];
    let k = KernelRegistry::standard;
    let traced = TraceConfig::full();

    let cfg = MachineConfig::new(4).with_trace(traced);
    let lockstep = multiset(Lockstep::new(prog.clone(), k(), cfg.clone()), &init);
    assert_eq!(lockstep.len(), 64, "16 transfers x 4 movement events");
    assert_eq!(
        multiset(AsyncExec::new(prog.clone(), k(), cfg), &init),
        lockstep
    );
    for cost in [CostModel::default_1993(), CostModel::zero_comm()] {
        let cfg = MachineConfig::new(4).with_trace(traced).with_cost(cost);
        assert_eq!(
            multiset(SimExec::new(prog.clone(), k(), cfg), &init),
            lockstep,
            "cpu_overhead = {}",
            cost.cpu_overhead
        );
    }
}

/// The `movement()` column: on every machine it keeps the events a
/// fingerprint reads — the same movement multiset and section-state
/// digest as the full trace — and none of the rest.
#[test]
fn the_movement_record_is_the_full_traces_movement_on_every_machine() {
    let (messages, a, bb) = message_program(12, 3);
    let (redistribute, ra) = redistribute_program(4, 2);
    let programs = [
        (&messages, 3, vec![(a, 1.0), (bb, 2.0)]),
        (&redistribute, 2, vec![(ra, 1.0)]),
    ];
    let k = KernelRegistry::standard;
    for (prog, nprocs, init) in &programs {
        let on_every_machine = |trace: TraceConfig| {
            let cfg = MachineConfig::new(*nprocs).with_trace(trace);
            [
                (
                    "SimExec",
                    trace_of(SimExec::new((*prog).clone(), k(), cfg.clone()), init),
                ),
                (
                    "AsyncExec",
                    trace_of(AsyncExec::new((*prog).clone(), k(), cfg.clone()), init),
                ),
                (
                    "Lockstep",
                    trace_of(Lockstep::new((*prog).clone(), k(), cfg), init),
                ),
            ]
        };
        let full = on_every_machine(TraceConfig::full());
        let movement = on_every_machine(TraceConfig::movement());
        for ((machine, full), (_, movement)) in full.iter().zip(&movement) {
            let moved = movement.movement_keys();
            assert!(!moved.is_empty(), "{machine}");
            assert_eq!(moved, full.movement_keys(), "{machine}");
            let states = movement.state_keys();
            assert_eq!(states, full.state_keys(), "{machine}");
            assert_eq!(
                movement.events.len(),
                moved.len() + states.len(),
                "{machine}: nothing but the movement record"
            );
            // (The lockstep reference emits nothing per statement.)
            assert!(
                *machine == "Lockstep" || full.of_kind(TraceKind::Compute).next().is_some(),
                "{machine}: the full trace keeps the per-statement events"
            );
        }
    }
}

#[test]
fn chrome_export_of_real_run_is_valid_json() {
    let nprocs = 3;
    let (prog, a, bb) = message_program(12, nprocs);
    let mut exec = SimExec::new(
        prog,
        KernelRegistry::standard(),
        MachineConfig::new(nprocs).with_trace(TraceConfig::full()),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bb, |idx| Value::F64(2.0 * idx[0] as f64));
    let r = exec.run().unwrap();

    let chrome = r.trace.to_chrome_json();
    let v = serde_json::from_str(&chrome).expect("chrome export parses");
    let evs = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    // Every event has the required trace-event fields.
    for e in evs {
        assert!(e.get("name").and_then(|n| n.as_str()).is_some(), "{e:?}");
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(e.get("pid").is_some(), "{e:?}");
        // Non-metadata events additionally need a thread and timestamp.
        if ph != "M" {
            assert!(e.get("tid").is_some() && e.get("ts").is_some(), "{e:?}");
        }
    }
    // Spans and wire transits made it through.
    assert!(evs
        .iter()
        .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));

    let jsonl = r.trace.to_jsonl();
    for line in jsonl.lines() {
        serde_json::from_str(line).expect("jsonl line parses");
    }
}
