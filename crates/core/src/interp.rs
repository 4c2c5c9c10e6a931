//! The step-based SPMD interpreter: Figure 1's rules, executable.
//!
//! Every processor runs one [`Interp`] over the *same* program (SPMD). The
//! interpreter is written in explicit-control-stack style so an executor
//! can interleave processors deterministically: [`Interp::step`] performs
//! one atomic action and returns what interaction (if any) the executor
//! must now perform — post a send, post a receive, block on a section
//! state, or synchronize at a barrier.
//!
//! Blocking semantics implemented here, per Figure 1:
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
use std::collections::HashMap;
use std::sync::Arc as Rc;
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_ir::{Decl, DestSet, Distribution, Program, Section, Stmt, TransferKind, VarId};
use xdp_runtime::{Buffer, Msg, Tag};

/// What the executor must do after a step.
#[derive(Clone, Debug)]
pub enum Action {
    /// Pure local progress; step again when convenient.
    Continue,
    /// A send was initiated: post `msg` (to `dest` pids if bound).
    Send { msg: Msg, dest: Option<Vec<usize>> },
    /// A receive was initiated: post a request for `tag`; deliver the
    /// matched message via [`Interp::complete_recv`] with `req_id`.
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

/// An initiated, uncompleted receive.
#[derive(Clone, Debug)]
enum PendingRecv {
    Value {
        var: VarId,
        sec: Section,
        touched: Vec<usize>,
    },
    Own {
        var: VarId,
        seg_id: usize,
        kind: TransferKind,
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
    /// The processor's environment (symbol table, scalars, universal data).
    pub env: ProcEnv,
    program: Arc<Program>,
    kernels: KernelRegistry,
    stack: Vec<Frame>,
    pending: HashMap<u64, (Tag, PendingRecv)>,
    next_req: u64,
    barrier_passed: bool,
    /// Current distribution of each redistributed variable (falls back to
    /// the declared distribution). SPMD-identical across processors.
    cur_dist: HashMap<VarId, Distribution>,
    /// The machine-wide planning context: what the redistribution planner
    /// prices schedules with, and the plans the machine's processors
    /// share (private 1993 defaults until a driver sets the machine's).
    plan_ctx: Arc<PlanCtx>,
    /// Count of `redistribute` statements executed, for tag salting.
    redist_epoch: u64,
    /// Statement id of the statement the current step is executing.
    cur_sid: Option<u32>,
    /// Structured note the current step produced (kernel, collective).
    cur_note: Option<StepNote>,
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
            program,
            kernels,
            stack: vec![Frame::Block {
                stmts: body,
                ids,
                idx: 0,
            }],
            pending: HashMap::new(),
            next_req: (pid as u64) << 32,
            barrier_passed: false,
            cur_dist: HashMap::new(),
            plan_ctx: PlanCtx::default_1993(),
            redist_epoch: 0,
            cur_sid: None,
            cur_note: None,
        }
    }

    /// Join a machine: plan redistributions through its shared context.
    /// Every processor of one machine must be handed the same context
    /// (identical plans are what make schedules and tags agree
    /// machine-wide).
    pub fn set_plan_ctx(&mut self, ctx: Arc<PlanCtx>) {
        self.plan_ctx = ctx;
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// True when the program has run to completion here.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// A human-readable description of where execution currently stands:
    /// the loop nest with live induction values and the statement index in
    /// the innermost block. Used by deadlock diagnostics.
    pub fn position(&self) -> String {
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

    /// Receives initiated but not yet completed, as `(req_id, tag)`.
    pub fn outstanding(&self) -> Vec<(u64, Tag)> {
        let mut v: Vec<(u64, Tag)> = self
            .pending
            .iter()
            .map(|(r, (t, _))| (*r, t.clone()))
            .collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Outstanding receives whose target overlaps `sec` of `var` — the
    /// receives that must complete to make it accessible.
    pub fn outstanding_for(&self, var: VarId, sec: &Section) -> Vec<(u64, Tag)> {
        let mut v: Vec<(u64, Tag)> = self
            .pending
            .iter()
            .filter(|(_, (_, p))| match p {
                PendingRecv::Value {
                    var: v2, sec: s2, ..
                } => *v2 == var && s2.overlaps(sec),
                PendingRecv::Own {
                    var: v2, seg_id, ..
                } => {
                    *v2 == var
                        && self
                            .env
                            .symtab
                            .entry(*v2)
                            .map(|e| e.segments[*seg_id].section.overlaps(sec))
                            .unwrap_or(false)
                }
            })
            .map(|(r, (t, _))| (*r, t.clone()))
            .collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Apply a matched message to the receive it completes.
    pub fn complete_recv(&mut self, req_id: u64, msg: Msg) -> Result<(), RtError> {
        let (tag, pending) = self
            .pending
            .remove(&req_id)
            .ok_or_else(|| RtError::BadTransfer {
                pid: self.env.pid,
                detail: format!("completion for unknown receive request {req_id}"),
            })?;
        debug_assert_eq!(tag, msg.tag, "matcher delivered a mismatched tag");
        match pending {
            PendingRecv::Value { var, sec, touched } => {
                if self.env.checked && msg.kind != TransferKind::Value {
                    return Err(RtError::BadTransfer {
                        pid: self.env.pid,
                        detail: format!("value receive of {tag} matched a {:?} send", msg.kind),
                    });
                }
                let payload = msg.payload.as_ref().ok_or_else(|| RtError::BadTransfer {
                    pid: self.env.pid,
                    detail: format!("value receive of {tag} got no payload"),
                })?;
                self.env
                    .symtab
                    .complete_value_recv(var, &sec, &touched, payload)?;
            }
            PendingRecv::Own { var, seg_id, kind } => {
                if self.env.checked && msg.kind != kind {
                    return Err(RtError::BadTransfer {
                        pid: self.env.pid,
                        detail: format!("ownership receive of {tag} matched a {:?} send", msg.kind),
                    });
                }
                let payload: Option<&Buffer> = if kind == TransferKind::OwnershipValue {
                    msg.payload.as_deref()
                } else {
                    None
                };
                self.env
                    .symtab
                    .complete_ownership_recv(var, seg_id, payload)?;
            }
        }
        Ok(())
    }

    /// Perform one atomic step.
    pub fn step(&mut self) -> Result<StepOut, RtError> {
        self.cur_sid = None;
        self.cur_note = None;
        let action = self.step_inner()?;
        Ok(StepOut {
            action,
            ops: self.env.drain_ops(),
            sid: self.cur_sid,
            note: self.cur_note.take(),
        })
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
                    self.cur_sid = Some(sid);
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
                    self.cur_sid = Some(*sid);
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

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
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
                self.env.ops.flops += flops;
                self.cur_note = Some(StepNote::Kernel { name, flops });
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
                let payload = match kind {
                    TransferKind::Value => Some(Arc::new(self.env.read_section(var, &s)?)),
                    TransferKind::Ownership | TransferKind::OwnershipValue => {
                        if let Some(d) = &dests {
                            if d.len() > 1 {
                                return Err(RtError::BadTransfer {
                                    pid: self.env.pid,
                                    detail: "ownership multicast is meaningless".to_string(),
                                });
                            }
                        }
                        use xdp_runtime::symtab::SecState;
                        match self.env.symtab.state_of(var, &s) {
                            SecState::Unowned => {
                                return Err(RtError::BadTransfer {
                                    pid: self.env.pid,
                                    detail: format!("ownership send of unowned {var}{s}"),
                                })
                            }
                            SecState::Transitional => {
                                // "Owner send operations block until the
                                // section is accessible" (§2.6).
                                return Ok(Action::BlockOn { var, sec: s });
                            }
                            SecState::Accessible => {}
                        }
                        let data = self.env.symtab.remove_ownership(var, &s)?;
                        if kind == TransferKind::OwnershipValue {
                            Some(Arc::new(data))
                        } else {
                            None
                        }
                    }
                };
                let msg = Msg {
                    tag: Tag::salted(var, s, salt_v),
                    kind,
                    payload,
                    src: self.env.pid,
                };
                self.advance();
                Ok(Action::Send { msg, dest: dests })
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
                match kind {
                    TransferKind::Value => {
                        use xdp_runtime::symtab::SecState;
                        match self.env.symtab.state_of(tvar, &tsec) {
                            SecState::Unowned => {
                                return Err(RtError::Symtab(
                                    xdp_runtime::symtab::SymtabError::NotOwned {
                                        var: tvar,
                                        sec: tsec,
                                    },
                                ))
                            }
                            SecState::Transitional => {
                                // "Blocks until E is accessible" (§2.7).
                                return Ok(Action::BlockOn {
                                    var: tvar,
                                    sec: tsec,
                                });
                            }
                            SecState::Accessible => {}
                        }
                        let nref = Stmt::recv_match_name(&target, &name);
                        let (nvar, nsec) = self.env.eval_section(&nref)?;
                        let touched = self.env.symtab.begin_value_recv(tvar, &tsec)?;
                        let req = self.fresh_req();
                        let tag = Tag::salted(nvar, nsec, salt_v);
                        self.pending.insert(
                            req,
                            (
                                tag.clone(),
                                PendingRecv::Value {
                                    var: tvar,
                                    sec: tsec,
                                    touched,
                                },
                            ),
                        );
                        self.advance();
                        Ok(Action::PostRecv { tag, req_id: req })
                    }
                    TransferKind::Ownership | TransferKind::OwnershipValue => {
                        let seg_id = self.env.symtab.begin_ownership_recv(tvar, &tsec)?;
                        let req = self.fresh_req();
                        let tag = Tag::salted(tvar, tsec, salt_v);
                        self.pending.insert(
                            req,
                            (
                                tag.clone(),
                                PendingRecv::Own {
                                    var: tvar,
                                    seg_id,
                                    kind,
                                },
                            ),
                        );
                        self.advance();
                        Ok(Action::PostRecv { tag, req_id: req })
                    }
                }
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
                if self.barrier_passed {
                    self.barrier_passed = false;
                    self.advance();
                    Ok(Action::Continue)
                } else {
                    Ok(Action::Barrier)
                }
            }
            Stmt::Redistribute { var, dist } => {
                let decl = self.program.decl(var);
                let src = self
                    .cur_dist
                    .get(&var)
                    .or(decl.dist.as_ref())
                    .cloned()
                    .ok_or_else(|| RtError::BadTransfer {
                        pid: self.env.pid,
                        detail: format!("redistribute of undistributed `{}`", decl.name),
                    })?;
                let plan = self.plan_ctx.plan(var, decl, &src, &dist);
                // Planning consults the section algebra once per message.
                self.env.ops.symtab_ops += plan.schedule.message_count() as u64;
                // Epoch-salted tags keep successive redistributions of one
                // variable from cross-matching.
                self.redist_epoch += 1;
                let salt_base = self.redist_epoch as i64 * 1_000_000;
                let stmts =
                    xdp_collectives::lower_redistribute_for_pid(&plan, self.env.pid, salt_base);
                self.cur_note = Some(StepNote::Collective {
                    var: decl.name.clone(),
                    strategy: plan.strategy.to_string(),
                    pieces: plan.schedule.message_count(),
                });
                self.cur_dist.insert(var, dist);
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

    /// Release this processor from a barrier (executor callback).
    pub fn pass_barrier(&mut self) {
        self.barrier_passed = true;
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
    fn send_and_recv_actions_surface() {
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
                b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(1)),
                vec![b::recv_val(tmine.clone(), p0sec.clone())],
            ),
        ];
        let p = Arc::new(p);

        // P0: expect a Send action.
        let mut i0 = Interp::new(p.clone(), KernelRegistry::standard(), 0, 2, true);
        i0.env.symtab.write(VarId(0), &[1], Value::F64(6.0));
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
        assert_eq!(dest, None);
        assert_eq!(msg.src, 0);
        assert_eq!(msg.payload.as_ref().unwrap().get(0), Value::F64(6.0));

        // P1: expect a PostRecv, then completion applies the payload.
        let mut i1 = Interp::new(p, KernelRegistry::standard(), 1, 2, true);
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
        use xdp_runtime::symtab::SecState;
        let tsec = Section::new(vec![xdp_ir::Triplet::range(3, 4)]);
        assert_eq!(
            i1.env.symtab.state_of(VarId(1), &tsec),
            SecState::Transitional
        );
        i1.complete_recv(req, msg).unwrap();
        assert_eq!(
            i1.env.symtab.state_of(VarId(1), &tsec),
            SecState::Accessible
        );
        assert_eq!(i1.env.symtab.read(VarId(1), &[3]), Some(Value::F64(6.0)));
        assert!(i1.outstanding().is_empty());
    }

    #[test]
    fn await_blocks_until_completion() {
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
                b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(1)),
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
                b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(0)),
                vec![b::send_own_val(p0sec.clone())],
            ),
        ];
        let p = Arc::new(p);
        let mut i1 = Interp::new(p.clone(), KernelRegistry::standard(), 1, 2, true);
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
        let mut i0 = Interp::new(p, KernelRegistry::standard(), 0, 2, true);
        i0.env.symtab.write(VarId(0), &[1], Value::F64(10.0));
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
            .env
            .symtab
            .iown(VarId(0), &Section::new(vec![xdp_ir::Triplet::range(1, 2)])));

        // Complete on P1 and let it finish: A[1] becomes 11.
        i1.complete_recv(req.unwrap(), msg).unwrap();
        loop {
            match i1.step().unwrap().action {
                Action::Done => break,
                Action::Continue => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(i1.env.symtab.read(VarId(0), &[1]), Some(Value::F64(11.0)));
    }

    #[test]
    fn barrier_round_trip() {
        let mut p = Program::new();
        let _ = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 2)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
        ));
        p.body = vec![Stmt::Barrier];
        let mut i = Interp::new(Arc::new(p), KernelRegistry::standard(), 0, 1, true);
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
