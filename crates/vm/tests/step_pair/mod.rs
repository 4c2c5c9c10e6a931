//! Drive the interpreter and the VM side by side, one step at a time,
//! delivering messages by hand: every `StepOut` (action — including the
//! message or the request id and tag it carries — op counts, statement id,
//! note), every outstanding-receive list and every error must be equal.
//! Shared by `crates/vm/tests/lockstep.rs` and, through `#[path]`, the
//! root package's `tests/vm_conformance.rs` (tier-1 runs only the latter).

use std::sync::Arc;
use xdp_core::{Action, Interp, KernelRegistry, Processor, StepOut};
use xdp_ir::{Ownership, Program};
use xdp_runtime::{Msg, Value};
use xdp_vm::{VmProc, VmProgram};

fn same_step(at: &str, si: &StepOut, sv: &StepOut) {
    assert_eq!(
        format!("{:?}", si.action),
        format!("{:?}", sv.action),
        "{at}: action"
    );
    assert_eq!(si.sid, sv.sid, "{at}: sid");
    assert_eq!(
        (si.ops.symtab_ops, si.ops.seg_scans, si.ops.flops),
        (sv.ops.symtab_ops, sv.ops.seg_scans, sv.ops.flops),
        "{at}: op counts"
    );
    assert_eq!(
        format!("{:?}", si.note),
        format!("{:?}", sv.note),
        "{at}: note"
    );
}

/// Run `program` on `nprocs` interpreter/VM pairs, round robin, one step
/// per processor per round. Returns the number of messages delivered.
pub fn assert_step_identical(
    label: &str,
    program: &Arc<Program>,
    kernels: &KernelRegistry,
    nprocs: usize,
) -> usize {
    let vm_prog = VmProgram::compile(program.clone(), kernels);
    // What `SimExec::new` does before it loads interpreters.
    let program = xdp_collectives::prepare_arc(program.clone());
    let mut its: Vec<Interp> = (0..nprocs)
        .map(|pid| Interp::new(program.clone(), kernels.clone(), pid, nprocs, true))
        .collect();
    let mut vms: Vec<VmProc> = (0..nprocs)
        .map(|pid| VmProc::new(vm_prog.clone(), pid, nprocs, true))
        .collect();
    for (o, d) in program.decls.iter().enumerate() {
        if d.ownership == Ownership::Exclusive {
            let f = |idx: &[i64]| Value::F64((o as i64 * 1000 + idx.iter().sum::<i64>()) as f64);
            xdp_core::proc::init_exclusive(&mut its, xdp_ir::VarId(o as u32), f);
            xdp_core::proc::init_exclusive(&mut vms, xdp_ir::VarId(o as u32), f);
        }
    }

    // Sent, undelivered messages with the pid they are bound to (if any).
    let mut mailbox: Vec<(Msg, Option<usize>)> = Vec::new();
    let mut delivered = 0;
    let mut done = vec![false; nprocs];
    let mut at_barrier = vec![false; nprocs];
    for round in 0..100_000 {
        let mut progressed = false;
        for pid in 0..nprocs {
            if done[pid] || at_barrier[pid] {
                continue;
            }
            let at = format!("{label} p{pid} round {round}");
            assert_eq!(its[pid].outstanding(), vms[pid].outstanding(), "{at}");
            for (req, tag) in its[pid].outstanding() {
                let hit = mailbox
                    .iter()
                    .position(|(m, to)| m.tag == tag && to.is_none_or(|to| to == pid));
                if let Some(k) = hit {
                    let (msg, _) = mailbox.remove(k);
                    its[pid].complete_recv(req, msg.clone()).expect(&at);
                    vms[pid].complete_recv(req, msg).expect(&at);
                    delivered += 1;
                    progressed = true;
                }
            }
            let (si, sv) = match (its[pid].step(), vms[pid].step()) {
                (Ok(si), Ok(sv)) => (si, sv),
                (Err(ei), Err(ev)) => {
                    assert_eq!(ei.to_string(), ev.to_string(), "{at}: error text");
                    return delivered;
                }
                (i, v) => panic!("{at}: backends disagree on success: {i:?} vs {v:?}"),
            };
            same_step(&at, &si, &sv);
            assert_eq!(its[pid].position(), vms[pid].position(), "{at}");
            progressed |= !matches!(si.action, Action::BlockOn { .. });
            match si.action {
                Action::Done => done[pid] = true,
                Action::Barrier => at_barrier[pid] = true,
                Action::BlockOn { var, sec } => assert_eq!(
                    its[pid].outstanding_for(var, &sec),
                    vms[pid].outstanding_for(var, &sec),
                    "{at}"
                ),
                Action::Send { msg, dest: None } => mailbox.push((msg, None)),
                Action::Send {
                    msg,
                    dest: Some(to),
                } => mailbox.extend(to.into_iter().map(|to| (msg.clone(), Some(to)))),
                Action::PostRecv { .. } | Action::Continue => {}
            }
        }
        if done.iter().all(|d| *d) {
            return delivered;
        }
        if (0..nprocs).all(|p| done[p] || at_barrier[p]) {
            for p in 0..nprocs {
                if std::mem::take(&mut at_barrier[p]) {
                    its[p].pass_barrier();
                    vms[p].pass_barrier();
                }
            }
            progressed = true;
        }
        assert!(progressed, "{label}: stuck in round {round}");
    }
    panic!("{label}: runaway");
}
