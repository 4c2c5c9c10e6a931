//! Conformance smoke tests: the VM must be observably identical to the
//! tree-walking interpreter — step for step on local and messaging
//! programs, and bit-identical in virtual time and final state on the
//! simulated machine. The protocol tests at the end run one body on both
//! processors. (The exhaustive corpus-wide diff lives in `xdp-verify`.)

mod step_pair;

use std::sync::Arc;
use xdp_core::{
    Action, AsyncExec, Dest, Interp, KernelRegistry, MachineConfig, Processor, RtError, SimExec,
};
use xdp_ir::build as b;
use xdp_ir::{
    CmpOp, DimDist, Distribution, ElemType, ProcGrid, Program, Section, Stmt, TransferKind,
    Triplet, VarId,
};
use xdp_runtime::symtab::SecState;
use xdp_runtime::Value;
use xdp_vm::{VmProc, VmProgram};

const N: i64 = 16;

/// `prog` compiled once and loaded as one checked processor per pid — what
/// `xdp_verify::machine` hands a machine's `from_procs` for `Backend::Vm`.
fn vm_procs(prog: Arc<Program>, kernels: &KernelRegistry, nprocs: usize) -> Vec<VmProc> {
    let prog = VmProgram::compile(prog, kernels);
    (0..nprocs)
        .map(|pid| VmProc::new(prog.clone(), pid, nprocs, true))
        .collect()
}

/// Loop nest + guards + kernel + scalar/universal traffic: every local
/// statement form, no messaging.
fn local_program(nprocs: usize) -> (Arc<Program>, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, N)],
        vec![DimDist::Block],
        grid,
    ));
    let u = p.declare(b::universal_array("U", ElemType::F64, vec![(0, 1)]));
    let all = b::sref(a, vec![b::all()]);
    let mine = b::sref(
        a,
        vec![b::span(b::mylb(all.clone(), 1), b::myub(all.clone(), 1))],
    );
    let first = b::sref(a, vec![b::at(b::mylb(all, 1))]);
    let u0 = b::sref(u, vec![b::at(b::c(0))]);
    p.body = vec![
        b::set("k", b::c(3)),
        b::do_loop(
            "i",
            b::c(1),
            b::iv("k"),
            vec![b::assign(
                mine.clone(),
                b::val(mine.clone()).add(b::val(first.clone())),
            )],
        ),
        b::guarded(
            b::iown(first.clone()),
            vec![b::kernel_with("scale", vec![mine.clone()], vec![b::c(2)])],
        ),
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::assign(
                u0.clone(),
                xdp_ir::ElemExpr::FromInt(b::mypid().mul(b::c(10))),
            )],
        ),
        b::assign(mine.clone(), b::val(mine).mul(b::val(first))),
    ];
    (Arc::new(p), a, u)
}

#[test]
fn lockstep_local_program_is_step_identical() {
    let nprocs = 2;
    let (prog, a, _) = local_program(nprocs);
    let kernels = KernelRegistry::standard();
    let vm_prog = VmProgram::compile(prog.clone(), &kernels);
    for pid in 0..nprocs {
        let mut it = Interp::new(prog.clone(), kernels.clone(), pid, nprocs, true);
        let mut vm = VmProc::new(vm_prog.clone(), pid, nprocs, true);
        for p in [it.env_mut(), vm.env_mut()] {
            let full = p.full_section(a);
            for idx in full.iter() {
                let _ = p.symtab.write(a, &idx, Value::F64(idx[0] as f64));
            }
        }
        let mut steps = 0;
        loop {
            let si = it.step().unwrap();
            let sv = vm.step().unwrap();
            assert_eq!(
                format!("{:?}", si.action),
                format!("{:?}", sv.action),
                "p{pid} step {steps}: action"
            );
            assert_eq!(si.sid, sv.sid, "p{pid} step {steps}: sid");
            assert_eq!(
                (si.ops.symtab_ops, si.ops.seg_scans, si.ops.flops),
                (sv.ops.symtab_ops, sv.ops.seg_scans, sv.ops.flops),
                "p{pid} step {steps}: op counts"
            );
            assert_eq!(
                format!("{:?}", si.note),
                format!("{:?}", sv.note),
                "p{pid} step {steps}: note"
            );
            assert_eq!(it.position(), vm.position(), "p{pid} step {steps}");
            if matches!(si.action, Action::Done) {
                break;
            }
            steps += 1;
            assert!(steps < 10_000, "runaway");
        }
        // Final memory identical element-by-element.
        let full = it.env().full_section(a);
        for idx in full.iter() {
            assert_eq!(
                format!("{:?}", it.env().symtab.read(a, &idx)),
                format!("{:?}", vm.env().symtab.read(a, &idx)),
                "p{pid} A{idx:?}"
            );
        }
    }
}

/// Sends, value receives, awaits, and a barrier: the machines must agree
/// to the bit on virtual time and traffic, and on gathered state.
fn messaging_program(nprocs: i64) -> (Arc<Program>, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs as usize);
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, N)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let t = p.declare(b::array(
        "T",
        ElemType::F64,
        vec![(0, nprocs - 1)],
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
    (Arc::new(p), a, t)
}

fn report_key(
    exec: &mut SimExec<impl Processor>,
    a: VarId,
    t: VarId,
) -> (u64, u64, u64, Vec<u64>, String, String) {
    for (var, scale) in [(a, 1.0), (t, 0.0)] {
        exec.init_exclusive(var, move |idx| Value::F64(idx[0] as f64 * scale));
    }
    let r = exec.run().unwrap();
    let ga = exec.gather(a);
    let gt = exec.gather(t);
    (
        r.virtual_time.to_bits(),
        r.net.messages,
        r.net.wire_bytes,
        r.procs.iter().map(|p| p.finish_time.to_bits()).collect(),
        format!("{ga:?}"),
        format!("{gt:?}"),
    )
}

#[test]
fn messaging_program_identical_on_sim_machine() {
    let (prog, a, t) = messaging_program(3);
    let kernels = KernelRegistry::standard();
    let mut interp = SimExec::new(prog.clone(), kernels.clone(), MachineConfig::new(3));
    let mut vm = SimExec::from_procs(vm_procs(prog, &kernels, 3), MachineConfig::new(3));
    assert_eq!(report_key(&mut interp, a, t), report_key(&mut vm, a, t));
}

#[test]
fn messaging_program_identical_on_async_machine() {
    // The compiled bytecode on the task-per-processor machine must land in
    // the same final memory as the interpreter on the simulator (the async
    // machine is wall-clock, so only state is comparable).
    let (prog, a, t) = messaging_program(3);
    let kernels = KernelRegistry::standard();
    let mut sim = SimExec::new(prog.clone(), kernels.clone(), MachineConfig::new(3));
    let mut tasks = AsyncExec::from_procs(vm_procs(prog, &kernels, 3), MachineConfig::new(3));
    for (var, scale) in [(a, 1.0), (t, 0.0)] {
        sim.init_exclusive(var, move |idx| Value::F64(idx[0] as f64 * scale));
        tasks.init_exclusive(var, move |idx| Value::F64(idx[0] as f64 * scale));
    }
    sim.run().unwrap();
    tasks.run().unwrap();
    assert_eq!(
        format!("{:?}", sim.gather(a)),
        format!("{:?}", tasks.gather(a))
    );
    assert_eq!(
        format!("{:?}", sim.gather(t)),
        format!("{:?}", tasks.gather(t))
    );
}

fn redistribute_program(nprocs: usize) -> (Arc<Program>, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, N)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let all = b::sref(a, vec![b::all()]);
    let mine = b::sref(
        a,
        vec![b::span(b::mylb(all.clone(), 1), b::myub(all.clone(), 1))],
    );
    // After the cyclic redistribution `mylb:myub` is no longer contiguous,
    // so the middle statement touches only the (always-owned) first
    // element.
    let first = b::sref(a, vec![b::at(b::mylb(all, 1))]);
    p.body = vec![
        b::assign(mine.clone(), b::val(mine.clone()).add(b::val(mine.clone()))),
        b::redistribute(a, Distribution::new(vec![DimDist::Cyclic], grid.clone())),
        b::assign(first.clone(), b::val(first.clone()).add(b::val(first))),
        b::redistribute(a, Distribution::new(vec![DimDist::Block], grid)),
        b::assign(mine.clone(), b::val(mine.clone()).add(b::val(mine))),
    ];
    (Arc::new(p), a)
}

#[test]
fn redistribute_program_identical_on_sim_machine() {
    let nprocs = 4;
    let (prog, a) = redistribute_program(nprocs);
    let kernels = KernelRegistry::standard();
    let mut interp = SimExec::new(prog.clone(), kernels.clone(), MachineConfig::new(nprocs));
    let mut vm = SimExec::from_procs(vm_procs(prog, &kernels, nprocs), MachineConfig::new(nprocs));
    assert_eq!(report_key(&mut interp, a, a), report_key(&mut vm, a, a));
}

/// Messaging compared below the machine: every step's `StepOut` and every
/// request id, with messages delivered by hand.
#[test]
fn lockstep_messaging_programs_are_step_identical() {
    let kernels = KernelRegistry::standard();
    let (prog, _, _) = messaging_program(3);
    let delivered = step_pair::assert_step_identical("messaging", &prog, &kernels, 3);
    assert_eq!(delivered, 2);
    let (prog, _) = redistribute_program(4);
    let delivered = step_pair::assert_step_identical("redistribute", &prog, &kernels, 4);
    assert!(delivered >= 12, "two all-to-all reshuffles: {delivered}");
}

// ---- The transfer protocol, one body per rule, run on both processors ----

fn interp(p: &Arc<Program>, pid: usize, nprocs: usize) -> Interp {
    Interp::new(p.clone(), KernelRegistry::standard(), pid, nprocs, true)
}

fn vm(p: &Arc<Program>, pid: usize, nprocs: usize) -> VmProc {
    let prog = VmProgram::compile(p.clone(), &KernelRegistry::standard());
    VmProc::new(prog, pid, nprocs, true)
}

fn send_and_recv_actions_surface_on<P: Processor>(load: fn(&Arc<Program>, usize, usize) -> P) {
    // P0 sends its block's value; P1 receives it into its own block
    // (value receive with matching name).
    let mut p = Program::new();
    let grid = ProcGrid::linear(2);
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let t = p.declare(b::array(
        "T",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        grid,
    ));
    let p0sec = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    let tmine = b::sref(t, vec![b::span(b::c(3), b::c(4))]);
    p.body = vec![
        b::guarded(b::iown(p0sec.clone()), vec![b::send(p0sec.clone())]),
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(1)),
            vec![b::recv_val(tmine.clone(), p0sec.clone())],
        ),
    ];
    let p = Arc::new(p);

    // P0: expect a Send action.
    let mut i0 = load(&p, 0, 2);
    i0.env_mut().symtab.write(VarId(0), &[1], Value::F64(6.0));
    let mut saw_send = None;
    loop {
        match i0.step().unwrap().action {
            Action::Send { msg, dest } => {
                saw_send = Some((msg, dest));
            }
            Action::Done => break,
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
    let (msg, dest) = saw_send.expect("P0 sent");
    assert_eq!(dest, Dest::Any);
    assert_eq!(msg.src, 0);
    assert_eq!(msg.payload.as_ref().unwrap().get(0), Value::F64(6.0));

    // P1: expect a PostRecv, then completion applies the payload.
    let mut i1 = load(&p, 1, 2);
    let mut req = None;
    loop {
        match i1.step().unwrap().action {
            Action::PostRecv { tag, req_id } => {
                assert_eq!(tag, msg.tag);
                req = Some(req_id);
            }
            Action::Done => break,
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
    let req = req.expect("P1 posted recv");
    assert_eq!(i1.outstanding().len(), 1);
    // Target transitional while in flight.
    let tsec = Section::new(vec![Triplet::range(3, 4)]);
    assert_eq!(
        i1.env_mut().symtab.state_of(VarId(1), &tsec),
        SecState::Transitional
    );
    // A completion nobody posted is a named error and changes nothing.
    match i1.complete_recv(req + 1, msg.clone()) {
        Err(e @ RtError::BadTransfer { .. }) => assert_eq!(
            e.to_string(),
            format!("p1: completion for unknown receive request {}", req + 1)
        ),
        other => panic!("{other:?}"),
    }
    assert_eq!(i1.outstanding().len(), 1);
    i1.complete_recv(req, msg).unwrap();
    assert_eq!(
        i1.env_mut().symtab.state_of(VarId(1), &tsec),
        SecState::Accessible
    );
    assert_eq!(i1.env().symtab.read(VarId(1), &[3]), Some(Value::F64(6.0)));
    assert!(i1.outstanding().is_empty());
}

#[test]
fn send_and_recv_actions_surface() {
    send_and_recv_actions_surface_on(interp);
    send_and_recv_actions_surface_on(vm);
}

fn await_blocks_until_completion_on<P: Processor>(load: fn(&Arc<Program>, usize, usize) -> P) {
    // P1 initiates an ownership receive then awaits it.
    let mut p = Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        ProcGrid::linear(2),
    ));
    let p0sec = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    p.body = vec![
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_own_val(p0sec.clone()),
                b::guarded(
                    b::await_(p0sec.clone()),
                    vec![b::assign(
                        p0sec.clone(),
                        b::val(p0sec.clone()).add(xdp_ir::ElemExpr::LitF(1.0)),
                    )],
                ),
            ],
        ),
        b::guarded(
            b::cmp(CmpOp::Eq, b::mypid(), b::c(0)),
            vec![b::send_own_val(p0sec.clone())],
        ),
    ];
    let p = Arc::new(p);
    let mut i1 = load(&p, 1, 2);
    let mut req = None;
    let mut blocked = false;
    for _ in 0..100 {
        match i1.step().unwrap().action {
            Action::PostRecv { req_id, .. } => req = Some(req_id),
            Action::BlockOn { var, sec } => {
                assert_eq!(var, VarId(0));
                blocked = true;
                let waiting = i1.outstanding_for(var, &sec);
                assert_eq!(waiting.len(), 1);
                break;
            }
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
    assert!(blocked, "await should block while transitional");

    // Drive P0 to produce the ownership message.
    let mut i0 = load(&p, 0, 2);
    i0.env_mut().symtab.write(VarId(0), &[1], Value::F64(10.0));
    let mut sent = None;
    loop {
        match i0.step().unwrap().action {
            Action::Send { msg, .. } => sent = Some(msg),
            Action::Done => break,
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
    let msg = sent.unwrap();
    assert_eq!(msg.kind, TransferKind::OwnershipValue);
    // P0 no longer owns; storage released.
    assert!(!i0
        .env_mut()
        .symtab
        .iown(VarId(0), &Section::new(vec![Triplet::range(1, 2)])));

    // Complete on P1 and let it finish: A[1] becomes 11.
    i1.complete_recv(req.unwrap(), msg).unwrap();
    loop {
        match i1.step().unwrap().action {
            Action::Done => break,
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(i1.env().symtab.read(VarId(0), &[1]), Some(Value::F64(11.0)));
}

#[test]
fn await_blocks_until_completion() {
    await_blocks_until_completion_on(interp);
    await_blocks_until_completion_on(vm);
}

fn barrier_round_trip_on<P: Processor>(load: fn(&Arc<Program>, usize, usize) -> P) {
    let mut p = Program::new();
    let _ = p.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 2)],
        vec![DimDist::Block],
        ProcGrid::linear(1),
    ));
    p.body = vec![Stmt::Barrier];
    let mut i = load(&Arc::new(p), 0, 1);
    match i.step().unwrap().action {
        Action::Barrier => {}
        other => panic!("{other:?}"),
    }
    // Still at the barrier until released.
    match i.step().unwrap().action {
        Action::Barrier => {}
        other => panic!("{other:?}"),
    }
    i.pass_barrier();
    loop {
        match i.step().unwrap().action {
            Action::Done => break,
            Action::Continue => {}
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn barrier_round_trip() {
    barrier_round_trip_on(interp);
    barrier_round_trip_on(vm);
}
