//! The step-based SPMD interpreter: Figure 1's rules, executable.
//!
//! Every processor runs one [`Interp`] over the *same* program (SPMD). The
//! interpreter is written in explicit-control-stack style so an executor
//! can interleave processors deterministically: [`Interp::step`] performs
//! one atomic action and returns what interaction (if any) the executor
//! must now perform — post a send, post a receive, block on a section
//! state, or synchronize at a barrier.
//!
//! The interpreter is the reference *evaluator*: it walks the statement
//! tree, evaluates operands (charging each as it goes) and gathers
//! sections element by element. What a transfer statement does once its
//! operands are values is [`crate::transfer`], shared with every other
//! processor implementation.
//!
//! Blocking semantics, per Figure 1:
//!
//! * `E =>` / `E -=>` block until `E` is accessible, then transfer.
//! * `E <- X` blocks until `E` is accessible, then initiates the receive
//!   (marking `E` transitional until the message completes).
//! * `U <=` / `U <=-` require `U` unowned and install a transitional
//!   placeholder, so subsequent `await(U)` blocks instead of failing.
//! * `await(X)` in a compute rule: false if unowned, blocks while
//!   transitional, true when accessible.
//!
//! XDP performs *no* implicit run-time checks beyond these; the optional
//! checked mode (see [`crate::env::ProcEnv::checked`]) additionally flags
//! reads of transitional sections and mismatched transfers as errors.

use crate::env::{OpCounts, ProcEnv, RtError, RuleVal};
use crate::kernels::KernelRegistry;
use crate::proc::Processor;
use std::sync::Arc as Rc;
use std::sync::Arc;
use xdp_ir::{Decl, DestSet, Program, Section, Stmt, TransferKind, VarId};
use xdp_runtime::{Msg, Tag};

/// What the executor must do after a step.
#[derive(Clone, Debug)]
pub enum Action {
    /// Pure local progress; step again when convenient.
    Continue,
    /// A send was initiated: post `msg` (to `dest` pids if bound).
    Send { msg: Msg, dest: Option<Vec<usize>> },
    /// A receive was initiated: post a request for `tag`; deliver the
    /// matched message via [`ProcEnv::complete_recv`] with `req_id`.
    PostRecv { tag: Tag, req_id: u64 },
    /// Blocked until `sec` of `var` becomes accessible on this processor
    /// (some outstanding receive must complete first).
    BlockOn { var: VarId, sec: Section },
    /// Reached a global barrier.
    Barrier,
    /// Program complete on this processor.
    Done,
}

/// One step's outcome: the action plus the local work performed (converted
/// to virtual time by the executor's cost model).
#[derive(Clone, Debug)]
pub struct StepOut {
    pub action: Action,
    pub ops: OpCounts,
    /// Preorder id (see `xdp_ir::block_stmt_ids`) of the program statement
    /// the step executed, for trace attribution. `None` for steps with no
    /// statement (e.g. the final `Done`). Statements a `redistribute`
    /// expands into inherit the redistribute's own id.
    pub sid: Option<u32>,
    /// Extra structure for trace instants.
    pub note: Option<StepNote>,
}

/// Noteworthy work inside a step, reported for trace instants.
#[derive(Clone, Debug)]
pub enum StepNote {
    /// A local kernel ran.
    Kernel { name: String, flops: u64 },
    /// A `redistribute` was planned and expanded; `pieces` is the number
    /// of scheduled messages, `bytes` the payload volume this processor
    /// will send.
    Collective {
        var: String,
        strategy: String,
        pieces: usize,
    },
}

#[derive(Debug)]
enum Frame {
    Block {
        stmts: Rc<[Stmt]>,
        /// Statement id of each `stmts[k]`, parallel to `stmts`.
        ids: Rc<[u32]>,
        idx: usize,
    },
    Loop {
        var: String,
        body: Rc<[Stmt]>,
        /// Statement id of each body statement (same every iteration).
        ids: Rc<[u32]>,
        /// The loop statement's own id (bookkeeping steps charge here).
        sid: u32,
        current: i64,
        hi: i64,
        step: i64,
    },
}

/// The per-processor interpreter.
pub struct Interp {
    /// The processor's environment (symbol table, scalars, universal data,
    /// transfer state).
    pub env: ProcEnv,
    kernels: KernelRegistry,
    stack: Vec<Frame>,
}

impl Interp {
    /// Load `program` onto processor `pid` of an `nprocs` machine.
    pub fn new(
        program: Arc<Program>,
        kernels: KernelRegistry,
        pid: usize,
        nprocs: usize,
        checked: bool,
    ) -> Interp {
        let decls: Arc<[Decl]> = program.decls.clone().into();
        let env = ProcEnv::new(pid, nprocs, decls, checked);
        let body: Rc<[Stmt]> = program.body.clone().into();
        let ids: Rc<[u32]> = xdp_ir::block_stmt_ids(0, &program.body).into();
        Interp {
            env,
            kernels,
            stack: vec![Frame::Block {
                stmts: body,
                ids,
                idx: 0,
            }],
        }
    }

    /// True when the program has run to completion here.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Perform one atomic step.
    pub fn step(&mut self) -> Result<StepOut, RtError> {
        let action = self.step_inner();
        self.env.end_step(action)
    }

    fn step_inner(&mut self) -> Result<Action, RtError> {
        loop {
            let frame = match self.stack.last_mut() {
                None => return Ok(Action::Done),
                Some(f) => f,
            };
            match frame {
                Frame::Block { stmts, ids, idx } => {
                    if *idx >= stmts.len() {
                        self.stack.pop();
                        continue;
                    }
                    let stmt = stmts[*idx].clone();
                    let sid = ids[*idx];
                    self.env.at_stmt(sid);
                    return self.exec_stmt(stmt, sid);
                }
                Frame::Loop {
                    var,
                    body,
                    ids,
                    sid,
                    current,
                    hi,
                    step,
                } => {
                    let cont = if *step > 0 {
                        *current <= *hi
                    } else {
                        *current >= *hi
                    };
                    if !cont {
                        self.stack.pop();
                        continue;
                    }
                    let v = *current;
                    *current += *step;
                    let name = var.clone();
                    let b = body.clone();
                    let bids = ids.clone();
                    self.env.at_stmt(*sid);
                    self.env.scalars.insert(name, v);
                    self.env.ops.flops += 1; // loop bookkeeping
                    self.stack.push(Frame::Block {
                        stmts: b,
                        ids: bids,
                        idx: 0,
                    });
                    return Ok(Action::Continue);
                }
            }
        }
    }

    /// Advance the instruction pointer of the current block.
    fn advance(&mut self) {
        if let Some(Frame::Block { idx, .. }) = self.stack.last_mut() {
            *idx += 1;
        }
    }

    /// Move past the current statement unless `action` says it must run
    /// again when the processor is woken.
    fn settle(&mut self, action: Action) -> Action {
        if !matches!(action, Action::BlockOn { .. } | Action::Barrier) {
            self.advance();
        }
        action
    }

    fn exec_stmt(&mut self, stmt: Stmt, sid: u32) -> Result<Action, RtError> {
        match stmt {
            Stmt::Assign { target, rhs } => {
                self.env.exec_assign(&target, &rhs)?;
                self.advance();
                Ok(Action::Continue)
            }
            Stmt::ScalarAssign { var, value } => {
                let v = self.env.eval_int(&value)?;
                self.env.scalars.insert(var, v);
                self.advance();
                Ok(Action::Continue)
            }
            Stmt::Kernel {
                name,
                args,
                int_args,
            } => {
                let kernel = self
                    .kernels
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| RtError::UnknownKernel(name.clone()))?;
                let mut secs = Vec::with_capacity(args.len());
                for a in &args {
                    secs.push(self.env.eval_section(a)?);
                }
                let mut ints = Vec::with_capacity(int_args.len());
                for e in &int_args {
                    ints.push(self.env.eval_int(e)?);
                }
                let mut bufs = Vec::with_capacity(secs.len());
                for (v, s) in &secs {
                    bufs.push(self.env.read_section(*v, s)?);
                }
                let flops = kernel.run(&mut bufs, &ints);
                self.env.ran_kernel(name, flops);
                for ((v, s), buf) in secs.iter().zip(&bufs) {
                    self.env.write_section(*v, s, buf)?;
                }
                self.advance();
                Ok(Action::Continue)
            }
            Stmt::Send {
                sec,
                kind,
                dest,
                salt,
            } => {
                let (var, s) = self.env.eval_section(&sec)?;
                let salt_v = match &salt {
                    None => 0,
                    Some(e) => self.env.eval_int(e)?,
                };
                let dests = match &dest {
                    DestSet::Unspecified => None,
                    DestSet::Pids(es) => {
                        let mut pids = Vec::with_capacity(es.len());
                        for e in es {
                            pids.push(self.env.eval_int(e)? as usize);
                        }
                        Some(pids)
                    }
                };
                let gathered = match kind {
                    TransferKind::Value => Some(self.env.read_section(var, &s)?),
                    TransferKind::Ownership | TransferKind::OwnershipValue => None,
                };
                let action = self.env.send(var, s, kind, salt_v, dests, gathered)?;
                Ok(self.settle(action))
            }
            Stmt::Recv {
                target,
                kind,
                name,
                salt,
            } => {
                let (tvar, tsec) = self.env.eval_section(&target)?;
                let salt_v = match &salt {
                    None => 0,
                    Some(e) => self.env.eval_int(e)?,
                };
                let action = match kind {
                    TransferKind::Value => {
                        if let Some(block) = self.env.check_value_recv(tvar, &tsec)? {
                            return Ok(block);
                        }
                        let nref = Stmt::recv_match_name(&target, &name);
                        let nname = self.env.eval_section(&nref)?;
                        self.env.post_value_recv(tvar, tsec, nname, salt_v)?
                    }
                    TransferKind::Ownership | TransferKind::OwnershipValue => {
                        self.env.post_ownership_recv(tvar, tsec, kind, salt_v)?
                    }
                };
                Ok(self.settle(action))
            }
            Stmt::Guarded { rule, body } => match self.env.eval_rule(&rule)? {
                RuleVal::False => {
                    self.advance();
                    Ok(Action::Continue)
                }
                RuleVal::True => {
                    self.advance();
                    let ids: Rc<[u32]> = xdp_ir::block_stmt_ids(sid + 1, &body).into();
                    let b: Rc<[Stmt]> = body.into();
                    self.stack.push(Frame::Block {
                        stmts: b,
                        ids,
                        idx: 0,
                    });
                    Ok(Action::Continue)
                }
                RuleVal::Block(var, sec) => Ok(Action::BlockOn { var, sec }),
            },
            Stmt::DoLoop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.env.eval_int(&lo)?;
                let hi = self.env.eval_int(&hi)?;
                let step = self.env.eval_int(&step)?;
                if step == 0 {
                    return Err(RtError::ZeroStep);
                }
                self.advance();
                let ids: Rc<[u32]> = xdp_ir::block_stmt_ids(sid + 1, &body).into();
                let b: Rc<[Stmt]> = body.into();
                self.stack.push(Frame::Loop {
                    var,
                    body: b,
                    ids,
                    sid,
                    current: lo,
                    hi,
                    step,
                });
                Ok(Action::Continue)
            }
            Stmt::Barrier => {
                let action = self.env.barrier();
                Ok(self.settle(action))
            }
            Stmt::Redistribute { var, dist } => {
                let stmts = self.env.redistribute(var, dist)?;
                self.advance();
                // Every statement the redistribute expands into inherits
                // its id, so trace attribution stays on the source line.
                let ids: Rc<[u32]> = vec![sid; stmts.len()].into();
                let b: Rc<[Stmt]> = stmts.into();
                self.stack.push(Frame::Block {
                    stmts: b,
                    ids,
                    idx: 0,
                });
                Ok(Action::Continue)
            }
        }
    }
}

impl Processor for Interp {
    fn step(&mut self) -> Result<StepOut, RtError> {
        Interp::step(self)
    }

    /// A human-readable description of where execution currently stands:
    /// the loop nest with live induction values and the statement index in
    /// the innermost block. Used by deadlock diagnostics.
    fn position(&self) -> String {
        if self.stack.is_empty() {
            return "done".to_string();
        }
        let mut parts = Vec::new();
        for f in &self.stack {
            match f {
                Frame::Loop {
                    var,
                    current,
                    hi,
                    step,
                    ..
                } => {
                    // `current` has already advanced past the live value.
                    parts.push(format!("do {var}={} (to {hi} by {step})", current - step));
                }
                Frame::Block { idx, stmts, .. } => {
                    parts.push(format!("stmt {}/{}", (*idx).min(stmts.len()), stmts.len()));
                }
            }
        }
        parts.join(" > ")
    }

    fn env(&self) -> &ProcEnv {
        &self.env
    }

    fn env_mut(&mut self) -> &mut ProcEnv {
        &mut self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};
    use xdp_runtime::Value;

    fn simple_program(nprocs: usize) -> Arc<Program> {
        let mut p = Program::new();
        let grid = ProcGrid::linear(nprocs);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid,
        ));
        let all = b::sref(a, vec![b::all()]);
        let mine = b::sref(a, vec![b::span(b::mylb(all.clone(), 1), b::myub(all, 1))]);
        p.body = vec![b::assign(mine, xdp_ir::ElemExpr::FromInt(b::mypid()))];
        Arc::new(p)
    }

    fn run_to_done(interp: &mut Interp) {
        for _ in 0..10_000 {
            let out = interp.step().unwrap();
            match out.action {
                Action::Done => return,
                Action::Continue => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        panic!("did not finish");
    }

    #[test]
    fn local_program_runs_to_done() {
        let p = simple_program(4);
        for pid in 0..4 {
            let mut i = Interp::new(p.clone(), KernelRegistry::standard(), pid, 4, true);
            run_to_done(&mut i);
            assert!(i.is_done());
            // Each processor wrote its pid into its own block.
            let lo = 1 + 2 * pid as i64;
            assert_eq!(
                i.env.symtab.read(VarId(0), &[lo]),
                Some(Value::F64(pid as f64))
            );
        }
    }

    #[test]
    fn do_loop_iterates() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::I64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(4),
            vec![b::assign(ai, xdp_ir::ElemExpr::FromInt(b::iv("i")))],
        )];
        let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 1, true);
        run_to_done(&mut i);
        for k in 1..=4 {
            assert_eq!(i.env.symtab.read(VarId(0), &[k]), Some(Value::I64(k)));
        }
    }

    #[test]
    fn guard_false_skips_body() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        // Guard references P0's block: false on P1.
        let p0sec = b::sref(a, vec![b::span(b::c(1), b::c(2))]);
        let own = b::sref(a, vec![b::span(b::c(3), b::c(4))]);
        p.body = vec![b::guarded(
            b::iown(p0sec),
            vec![b::assign(own, xdp_ir::ElemExpr::LitF(1.0))],
        )];
        let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 1, 4, true);
        run_to_done(&mut i);
        assert_eq!(i.env.symtab.read(VarId(0), &[3]), Some(Value::F64(0.0)));
    }

    #[test]
    fn kernel_call_executes() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
        ));
        let all = b::sref(a, vec![b::all()]);
        p.body = vec![
            b::assign(all.clone(), xdp_ir::ElemExpr::LitF(3.0)),
            b::kernel_with("scale", vec![all.clone()], vec![b::c(4)]),
        ];
        let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 1, true);
        run_to_done(&mut i);
        assert_eq!(i.env.symtab.read(VarId(0), &[2]), Some(Value::F64(12.0)));
    }

    #[test]
    fn unknown_kernel_errors() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 2)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
        ));
        p.body = vec![b::kernel("nope", vec![b::sref(a, vec![b::all()])])];
        let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 1, true);
        loop {
            match i.step() {
                Err(RtError::UnknownKernel(n)) => {
                    assert_eq!(n, "nope");
                    break;
                }
                Ok(StepOut {
                    action: Action::Done,
                    ..
                }) => panic!("no error"),
                Ok(_) => {}
                Err(e) => panic!("{e}"),
            }
        }
    }
}
