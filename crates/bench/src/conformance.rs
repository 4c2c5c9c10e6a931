//! Figure 1 conformance suite: one executable check per rule row of the
//! paper's "Rules governing execution on processor p" table.
//!
//! Each check builds the smallest program or symbol-table scenario that
//! exercises the rule and returns `Ok(())` or a description of the
//! violation. The `fig1_conformance` binary prints the table; the
//! integration tests assert every rule passes.

use std::sync::Arc;
use xdp_core::{Interp, KernelRegistry, MachineConfig, RtError, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, Section, Triplet, VarId};
use xdp_runtime::symtab::SecState;
use xdp_runtime::Value;

type Check = fn() -> Result<(), String>;

/// All Figure 1 rules with their table text and check.
pub fn rules() -> Vec<(&'static str, &'static str, Check)> {
    vec![
        ("mypid", "returns the unique identifier of p", check_mypid),
        (
            "mylb(X,d)",
            "smallest owned index in dim d, MAXINT otherwise",
            check_mylb,
        ),
        (
            "myub(X,d)",
            "largest owned index in dim d, MININT otherwise",
            check_myub,
        ),
        ("iown(X)", "true iff X is owned by p", check_iown),
        (
            "accessible(X)",
            "owned and data accessible",
            check_accessible,
        ),
        (
            "await(X)",
            "false if unowned, else blocks until accessible",
            check_await,
        ),
        (
            "E ->",
            "initiate send of name and value of E",
            check_send_value,
        ),
        (
            "E -> S",
            "sends to the processors specified by S",
            check_send_dest,
        ),
        (
            "E =>",
            "blocks until accessible, sends ownership only",
            check_send_own,
        ),
        (
            "E -=>",
            "blocks until accessible, sends ownership and value",
            check_send_own_val,
        ),
        (
            "E <- X",
            "blocks until E accessible, receives value named X",
            check_recv_value,
        ),
        ("U <=", "receives ownership of unowned U", check_recv_own),
        (
            "U <=-",
            "receives ownership and value of unowned U",
            check_recv_own_val,
        ),
        (
            "state: accessible",
            "owned, no uncompleted receives",
            check_state_accessible,
        ),
        (
            "state: transitional",
            "owned with an uncompleted receive",
            check_state_transitional,
        ),
        (
            "state: unowned",
            "some element not owned by p",
            check_state_unowned,
        ),
        (
            "compute rules",
            "unowned reference makes the rule false everywhere",
            check_rule_unowned,
        ),
        (
            "multiple outstanding",
            "several sends/receives on one name are legal",
            check_multiple_outstanding,
        ),
    ]
}

fn decls_1d(n: i64, nprocs: usize) -> (Arc<Program>, VarId) {
    let mut p = Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(nprocs),
        vec![1],
    ));
    (Arc::new(p), a)
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("violated: {what}"))
    }
}

fn check_mypid() -> Result<(), String> {
    let (p, _) = decls_1d(8, 4);
    let mut seen = std::collections::HashSet::new();
    for pid in 0..4 {
        let mut i = Interp::new(p.clone(), KernelRegistry::standard(), pid, 4, true);
        let v = i.env.eval_int(&b::mypid()).map_err(|e| e.to_string())?;
        expect(v == pid as i64, "mypid equals the processor id")?;
        seen.insert(v);
    }
    expect(seen.len() == 4, "mypid unique per processor")
}

fn check_mylb() -> Result<(), String> {
    let (p, a) = decls_1d(8, 4);
    let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 4, true);
    let full = b::sref(a, vec![b::all()]);
    let v = i1
        .env
        .eval_int(&b::mylb(full.clone(), 1))
        .map_err(|e| e.to_string())?;
    expect(v == 3, "P1's block of 8/4 starts at 3")?;
    // Query restricted to an unowned range -> MAXINT.
    let left = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    let v2 = i1
        .env
        .eval_int(&b::mylb(left, 1))
        .map_err(|e| e.to_string())?;
    expect(v2 == i64::MAX, "MAXINT when no element owned")
}

fn check_myub() -> Result<(), String> {
    let (p, a) = decls_1d(8, 4);
    let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 4, true);
    let full = b::sref(a, vec![b::all()]);
    let v = i1
        .env
        .eval_int(&b::myub(full, 1))
        .map_err(|e| e.to_string())?;
    expect(v == 4, "P1's block ends at 4")?;
    let left = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    let v2 = i1
        .env
        .eval_int(&b::myub(left, 1))
        .map_err(|e| e.to_string())?;
    expect(v2 == i64::MIN, "MININT when no element owned")
}

fn check_iown() -> Result<(), String> {
    let (p, a) = decls_1d(8, 4);
    let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 4, true);
    let own = Section::new(vec![Triplet::range(3, 4)]);
    let cross = Section::new(vec![Triplet::range(2, 3)]);
    expect(i1.env.symtab.iown(a, &own), "owned block reports iown")?;
    expect(
        !i1.env.symtab.iown(a, &cross),
        "partially owned section is not iown",
    )
}

fn check_accessible() -> Result<(), String> {
    let (p, a) = decls_1d(8, 4);
    let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 4, true);
    let own = Section::new(vec![Triplet::range(3, 4)]);
    expect(
        i1.env.symtab.accessible(a, &own),
        "quiescent owned section accessible",
    )?;
    i1.env
        .symtab
        .begin_value_recv(a, &own)
        .map_err(|e| e.to_string())?;
    expect(
        !i1.env.symtab.accessible(a, &own),
        "uncompleted receive makes it inaccessible",
    )
}

fn check_await() -> Result<(), String> {
    let (p, a) = decls_1d(8, 4);
    let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 4, true);
    let own_ref = b::sref(a, vec![b::span(b::c(3), b::c(4))]);
    let other_ref = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
    use xdp_core::RuleVal;
    let r = i1
        .env
        .eval_rule(&b::await_(other_ref))
        .map_err(|e| e.to_string())?;
    expect(r == RuleVal::False, "await of unowned returns false")?;
    let r = i1
        .env
        .eval_rule(&b::await_(own_ref.clone()))
        .map_err(|e| e.to_string())?;
    expect(r == RuleVal::True, "await of accessible returns true")?;
    let own = Section::new(vec![Triplet::range(3, 4)]);
    i1.env
        .symtab
        .begin_value_recv(a, &own)
        .map_err(|e| e.to_string())?;
    let r = i1
        .env
        .eval_rule(&b::await_(own_ref))
        .map_err(|e| e.to_string())?;
    expect(
        matches!(r, RuleVal::Block(_, _)),
        "await of transitional blocks",
    )
}

/// Run one program on `nprocs` simulated processors with values A[i] = i.
fn run(
    program: Program,
    a: VarId,
    nprocs: usize,
) -> Result<(SimExec, xdp_core::ExecReport), String> {
    let mut exec = SimExec::new(
        Arc::new(program),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    let r = exec.run().map_err(|e| e.to_string())?;
    Ok((exec, r))
}

fn two_proc_prog() -> (Program, VarId, VarId) {
    let mut p = Program::new();
    let grid = ProcGrid::linear(2);
    let a = p.declare(b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, 4)],
        vec![DimDist::Block],
        grid.clone(),
        vec![1],
    ));
    let t = p.declare(b::array_seg(
        "T",
        ElemType::F64,
        vec![(0, 1)],
        vec![DimDist::Block],
        grid,
        vec![1],
    ));
    (p, a, t)
}

fn check_send_value() -> Result<(), String> {
    // P0 sends A[1:2]'s value; P1 receives it into T[1]... per-element.
    let (mut p, a, t) = two_proc_prog();
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    let tm = b::sref(t, vec![b::at(b::c(1))]);
    p.body = vec![
        b::guarded(b::iown(a1.clone()), vec![b::send(a1.clone())]),
        b::guarded(
            b::iown(tm.clone()),
            vec![
                b::recv_val(tm.clone(), a1.clone()),
                b::guarded(b::await_(tm.clone()), vec![]),
            ],
        ),
    ];
    let (exec, r) = run(p, a, 2)?;
    expect(r.net.messages == 1, "one message delivered")?;
    let g = exec.gather(t);
    expect(
        g.get(&[1]).map(|v| v.as_f64()) == Some(1.0),
        "value arrived intact",
    )?;
    // Sender still owns its data after a value send.
    let g = exec.gather(a);
    expect(
        g.owner(&[1]) == Some(0),
        "value send does not move ownership",
    )
}

fn check_send_dest() -> Result<(), String> {
    // Bound send: only the listed destination can claim it.
    let (mut p, a, t) = two_proc_prog();
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    let tm = b::sref(t, vec![b::at(b::mypid())]);
    p.body = vec![
        b::guarded(
            b::iown(a1.clone()),
            vec![b::send_to(a1.clone(), vec![b::c(1)])],
        ),
        b::guarded(
            b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_val(tm.clone(), a1.clone()),
                b::guarded(b::await_(tm.clone()), vec![]),
            ],
        ),
    ];
    let (exec, r) = run(p, a, 2)?;
    expect(r.net.bound_messages == 1, "message traveled bound")?;
    let g = exec.gather(t);
    expect(
        g.get(&[1]).map(|v| v.as_f64()) == Some(1.0),
        "bound value arrived",
    )
}

fn check_send_own() -> Result<(), String> {
    // `=>` moves ownership but NOT the value.
    let (mut p, a, _) = two_proc_prog();
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    p.body = vec![
        b::guarded(b::iown(a1.clone()), vec![b::send_own(a1.clone())]),
        b::guarded(
            b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_own(a1.clone()),
                b::guarded(b::await_(a1.clone()), vec![]),
            ],
        ),
    ];
    let (exec, _) = run(p, a, 2)?;
    let g = exec.gather(a);
    expect(g.owner(&[1]) == Some(1), "ownership moved to P1")?;
    expect(
        g.get(&[1]).map(|v| v.as_f64()) == Some(0.0),
        "value did not travel with `=>` (fresh storage)",
    )
}

fn check_send_own_val() -> Result<(), String> {
    let (mut p, a, _) = two_proc_prog();
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    p.body = vec![
        b::guarded(b::iown(a1.clone()), vec![b::send_own_val(a1.clone())]),
        b::guarded(
            b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(1)),
            vec![
                b::recv_own_val(a1.clone()),
                b::guarded(b::await_(a1.clone()), vec![]),
            ],
        ),
    ];
    let (exec, _) = run(p, a, 2)?;
    let g = exec.gather(a);
    expect(g.owner(&[1]) == Some(1), "ownership moved")?;
    expect(
        g.get(&[1]).map(|v| v.as_f64()) == Some(1.0),
        "value moved too",
    )
}

fn check_recv_value() -> Result<(), String> {
    // The receive target must be owned; receiving into another's section
    // is an error.
    let (mut p, a, _) = two_proc_prog();
    let theirs = b::sref(a, vec![b::at(b::c(3))]); // P1's element
    p.body = vec![xdp_ir::Stmt::Recv {
        target: theirs.clone(),
        kind: xdp_ir::TransferKind::Value,
        name: Some(theirs),
        salt: None,
    }];
    let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 2, true);
    match i.step() {
        Err(RtError::Symtab(_)) => Ok(()),
        other => Err(format!("receive into unowned section accepted: {other:?}")),
    }
}

fn check_recv_own() -> Result<(), String> {
    // Ownership can only be received if the section was unowned.
    let (mut p, a, _) = two_proc_prog();
    let mine = b::sref(a, vec![b::at(b::c(1))]); // P0 already owns this
    p.body = vec![b::recv_own(mine)];
    let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 2, true);
    match i.step() {
        Err(RtError::Symtab(xdp_runtime::symtab::SymtabError::AlreadyOwned { .. })) => Ok(()),
        other => Err(format!(
            "ownership receive of owned section accepted: {other:?}"
        )),
    }
}

fn check_recv_own_val() -> Result<(), String> {
    check_send_own_val()
}

fn check_state_accessible() -> Result<(), String> {
    let (p, a) = decls_1d(8, 2);
    let mut i = Interp::new(p, KernelRegistry::standard(), 0, 2, true);
    let own = Section::new(vec![Triplet::range(1, 4)]);
    expect(
        i.env.symtab.state_of(a, &own) == SecState::Accessible,
        "quiescent owned section is accessible",
    )
}

fn check_state_transitional() -> Result<(), String> {
    let (p, a) = decls_1d(8, 2);
    let mut i = Interp::new(p, KernelRegistry::standard(), 0, 2, true);
    let own = Section::new(vec![Triplet::range(1, 2)]);
    i.env
        .symtab
        .begin_value_recv(a, &own)
        .map_err(|e| e.to_string())?;
    expect(
        i.env.symtab.state_of(a, &own) == SecState::Transitional,
        "initiated receive puts section in transitional",
    )?;
    // Checked runtime flags reads of transitional data (unpredictable).
    match i.env.read_section(a, &own) {
        Err(RtError::TransitionalRead { .. }) => Ok(()),
        other => Err(format!("transitional read not flagged: {other:?}")),
    }
}

fn check_state_unowned() -> Result<(), String> {
    let (p, a) = decls_1d(8, 2);
    let mut i = Interp::new(p, KernelRegistry::standard(), 0, 2, true);
    let cross = Section::new(vec![Triplet::range(4, 5)]);
    expect(
        i.env.symtab.state_of(a, &cross) == SecState::Unowned,
        "section with any unowned element is unowned",
    )
}

fn check_rule_unowned() -> Result<(), String> {
    // "a compute rule can always be executed on any processor without
    // error" — a rule referencing an unowned section is just false.
    let (p, a) = decls_1d(8, 2);
    let mut i1 = Interp::new(p, KernelRegistry::standard(), 1, 2, true);
    let p0s = b::sref(a, vec![b::span(b::c(1), b::c(4))]);
    use xdp_core::RuleVal;
    let r = i1
        .env
        .eval_rule(&b::iown(p0s.clone()))
        .map_err(|e| e.to_string())?;
    expect(
        r == RuleVal::False,
        "iown of unowned is false, not an error",
    )?;
    let r = i1
        .env
        .eval_rule(&b::accessible(p0s))
        .map_err(|e| e.to_string())?;
    expect(r == RuleVal::False, "accessible of unowned is false")
}

fn check_multiple_outstanding() -> Result<(), String> {
    // §2.7: several sends and receives outstanding on one name.
    let (mut p, a, t) = two_proc_prog();
    let a1 = b::sref(a, vec![b::at(b::c(1))]);
    let tm = b::sref(t, vec![b::at(b::mypid())]);
    p.body = vec![
        // P0 publishes its element twice under the same name.
        b::guarded(
            b::iown(a1.clone()),
            vec![b::send(a1.clone()), b::send(a1.clone())],
        ),
        // Both processors claim one copy each.
        b::recv_val(tm.clone(), a1.clone()),
        b::guarded(b::await_(tm.clone()), vec![]),
    ];
    let (exec, r) = run(p, a, 2)?;
    expect(r.net.messages == 2, "both sends matched")?;
    let g = exec.gather(t);
    expect(
        g.get(&[0]).map(|v| v.as_f64()) == Some(1.0)
            && g.get(&[1]).map(|v| v.as_f64()) == Some(1.0),
        "each claimant got a copy",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_figure1_rule_holds() {
        for (rule, _, check) in super::rules() {
            check().unwrap_or_else(|e| panic!("rule `{rule}`: {e}"));
        }
    }
}
