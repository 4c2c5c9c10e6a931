//! The compiled per-processor virtual machine.
//!
//! [`VmProc`] executes [`crate::VmProgram`] code under the exact
//! observable contract of the tree-walking interpreter (see the crate
//! docs): one step per statement, identical op counts, identical actions
//! and errors. Where the interpreter re-resolves, the VM indexes; where
//! the interpreter boxes elements, the VM copies slices — but every
//! *charged* operation and every symbol-table call is the same.

use crate::compile::{
    compile_lowered, CElem, CInt, CRule, CSec, CSub, Cx, SlotMap, VmOp, VmProgram, VmStmt,
};
use std::collections::HashMap;
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_core::{Action, ProcEnv, Processor, RtError, StepNote, StepOut};
use xdp_ir::{ElemBinOp, IntBinOp, Ownership, Section, TransferKind, Triplet, VarId};
use xdp_runtime::symtab::SecState;
use xdp_runtime::{Buffer, Msg, Tag, Value};

/// An initiated, uncompleted receive (mirror of the interpreter's).
#[derive(Clone, Debug)]
enum VPending {
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
enum VFrame {
    Block {
        stmts: Arc<[VmStmt]>,
        idx: usize,
    },
    Loop {
        slot: usize,
        var: Arc<str>,
        body: Arc<[VmStmt]>,
        sid: u32,
        current: i64,
        hi: i64,
        step: i64,
    },
}

/// The compiled per-processor executor. A drop-in [`Processor`]: plug into
/// `SimExec::from_procs` / `AsyncExec::from_procs`.
pub struct VmProc {
    /// The processor's environment (symbol table, universal data, ops).
    pub env: ProcEnv,
    prog: Arc<VmProgram>,
    /// Scalar register file, indexed by slot id.
    regs: Vec<Option<i64>>,
    /// Private slot map (grows when `redistribute` lowers new statements).
    slots: SlotMap,
    stack: Vec<VFrame>,
    pending: HashMap<u64, (Tag, VPending)>,
    next_req: u64,
    barrier_passed: bool,
    cur_dist: HashMap<VarId, xdp_ir::Distribution>,
    /// The machine-wide planning context (mirror of the interpreter's).
    plan_ctx: Arc<PlanCtx>,
    redist_epoch: u64,
    cur_sid: Option<u32>,
    cur_note: Option<StepNote>,
}

impl VmProc {
    /// Load compiled `prog` onto processor `pid` of an `nprocs` machine.
    pub fn new(prog: Arc<VmProgram>, pid: usize, nprocs: usize, checked: bool) -> VmProc {
        let env = ProcEnv::new(pid, nprocs, prog.decls.clone(), checked);
        let slots = prog.slots.clone();
        let regs = vec![None; slots.len()];
        VmProc {
            env,
            stack: vec![VFrame::Block {
                stmts: prog.code.clone(),
                idx: 0,
            }],
            regs,
            slots,
            pending: HashMap::new(),
            next_req: (pid as u64) << 32,
            barrier_passed: false,
            cur_dist: HashMap::new(),
            plan_ctx: PlanCtx::default_1993(),
            redist_epoch: 0,
            cur_sid: None,
            cur_note: None,
            prog,
        }
    }

    /// Join a machine: plan redistributions through its shared context.
    pub fn set_plan_ctx(&mut self, ctx: Arc<PlanCtx>) {
        self.plan_ctx = ctx;
    }

    /// True when the program has run to completion here.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Program position for deadlock diagnostics (same format as the
    /// interpreter's).
    pub fn position(&self) -> String {
        if self.stack.is_empty() {
            return "done".to_string();
        }
        let mut parts = Vec::new();
        for f in &self.stack {
            match f {
                VFrame::Loop {
                    var,
                    current,
                    hi,
                    step,
                    ..
                } => {
                    // `current` has already advanced past the live value.
                    parts.push(format!("do {var}={} (to {hi} by {step})", current - step));
                }
                VFrame::Block { idx, stmts } => {
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

    /// Outstanding receives whose target overlaps `sec` of `var`.
    pub fn outstanding_for(&self, var: VarId, sec: &Section) -> Vec<(u64, Tag)> {
        let mut v: Vec<(u64, Tag)> = self
            .pending
            .iter()
            .filter(|(_, (_, p))| match p {
                VPending::Value {
                    var: v2, sec: s2, ..
                } => *v2 == var && s2.overlaps(sec),
                VPending::Own {
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
            VPending::Value { var, sec, touched } => {
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
            VPending::Own { var, seg_id, kind } => {
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

    /// Release this processor from a barrier (executor callback).
    pub fn pass_barrier(&mut self) {
        self.barrier_passed = true;
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
            let (code, idx) = match self.stack.last_mut() {
                None => return Ok(Action::Done),
                Some(VFrame::Block { stmts, idx }) => {
                    if *idx >= stmts.len() {
                        self.stack.pop();
                        continue;
                    }
                    (stmts.clone(), *idx)
                }
                Some(VFrame::Loop {
                    slot,
                    body,
                    sid,
                    current,
                    hi,
                    step,
                    ..
                }) => {
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
                    let slot = *slot;
                    let b = body.clone();
                    self.cur_sid = Some(*sid);
                    self.regs[slot] = Some(v);
                    self.env.ops.flops += 1; // loop bookkeeping
                    self.stack.push(VFrame::Block { stmts: b, idx: 0 });
                    return Ok(Action::Continue);
                }
            };
            self.cur_sid = Some(code[idx].sid);
            return self.exec_op(&code, idx);
        }
    }

    /// Advance the instruction pointer of the current block.
    fn advance(&mut self) {
        if let Some(VFrame::Block { idx, .. }) = self.stack.last_mut() {
            *idx += 1;
        }
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn exec_op(&mut self, code: &Arc<[VmStmt]>, at: usize) -> Result<Action, RtError> {
        let stmt = &code[at];
        let sid = stmt.sid;
        match &stmt.op {
            VmOp::Assign { target, rhs } => {
                let tsec = self.eval_sec(target)?;
                let vol = tsec.volume();
                let result = self.eval_elem(rhs, vol, &tsec)?;
                self.write_sec(target.var, &tsec, &result)?;
                self.advance();
                Ok(Action::Continue)
            }
            VmOp::ScalarAssign { slot, value } => {
                let v = self.eval_int(value)?;
                self.regs[*slot] = Some(v);
                self.advance();
                Ok(Action::Continue)
            }
            VmOp::Kernel {
                name,
                kernel,
                args,
                int_args,
            } => {
                let kernel = kernel
                    .clone()
                    .ok_or_else(|| RtError::UnknownKernel(name.to_string()))?;
                let mut secs = Vec::with_capacity(args.len());
                for a in args {
                    secs.push((a.var, self.eval_sec(a)?));
                }
                let mut ints = Vec::with_capacity(int_args.len());
                for e in int_args {
                    ints.push(self.eval_int(e)?);
                }
                let mut bufs = Vec::with_capacity(secs.len());
                for (v, s) in &secs {
                    bufs.push(self.read_sec(*v, s)?);
                }
                let flops = kernel.run(&mut bufs, &ints);
                self.env.ops.flops += flops;
                self.cur_note = Some(StepNote::Kernel {
                    name: name.to_string(),
                    flops,
                });
                for ((v, s), buf) in secs.iter().zip(&bufs) {
                    self.write_sec(*v, s, buf)?;
                }
                self.advance();
                Ok(Action::Continue)
            }
            VmOp::Send {
                sec,
                kind,
                dest,
                salt,
            } => {
                let var = sec.var;
                let s = self.eval_sec(sec)?;
                let salt_v = match salt {
                    None => 0,
                    Some(e) => self.eval_int(e)?,
                };
                let dests = match dest {
                    None => None,
                    Some(es) => {
                        let mut pids = Vec::with_capacity(es.len());
                        for e in es {
                            pids.push(self.eval_int(e)? as usize);
                        }
                        Some(pids)
                    }
                };
                let payload = match kind {
                    TransferKind::Value => Some(Arc::new(self.read_sec(var, &s)?)),
                    TransferKind::Ownership | TransferKind::OwnershipValue => {
                        if let Some(d) = &dests {
                            if d.len() > 1 {
                                return Err(RtError::BadTransfer {
                                    pid: self.env.pid,
                                    detail: "ownership multicast is meaningless".to_string(),
                                });
                            }
                        }
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
                        if *kind == TransferKind::OwnershipValue {
                            Some(Arc::new(data))
                        } else {
                            None
                        }
                    }
                };
                let msg = Msg {
                    tag: Tag::salted(var, s, salt_v),
                    kind: *kind,
                    payload,
                    src: self.env.pid,
                };
                self.advance();
                Ok(Action::Send { msg, dest: dests })
            }
            VmOp::Recv {
                target,
                kind,
                name,
                salt,
            } => {
                let tvar = target.var;
                let tsec = self.eval_sec(target)?;
                let salt_v = match salt {
                    None => 0,
                    Some(e) => self.eval_int(e)?,
                };
                match kind {
                    TransferKind::Value => {
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
                        // With no explicit match name the interpreter
                        // re-evaluates the target reference (charging its
                        // subscripts a second time); mirror that.
                        let nref = name.as_ref().unwrap_or(target);
                        let nvar = nref.var;
                        let nsec = self.eval_sec(nref)?;
                        let touched = self.env.symtab.begin_value_recv(tvar, &tsec)?;
                        let req = self.fresh_req();
                        let tag = Tag::salted(nvar, nsec, salt_v);
                        self.pending.insert(
                            req,
                            (
                                tag.clone(),
                                VPending::Value {
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
                                VPending::Own {
                                    var: tvar,
                                    seg_id,
                                    kind: *kind,
                                },
                            ),
                        );
                        self.advance();
                        Ok(Action::PostRecv { tag, req_id: req })
                    }
                }
            }
            VmOp::Guarded { rule, body } => match self.eval_rule(rule)? {
                RuleOut::False => {
                    self.advance();
                    Ok(Action::Continue)
                }
                RuleOut::True => {
                    self.advance();
                    let b = body.clone();
                    self.stack.push(VFrame::Block { stmts: b, idx: 0 });
                    Ok(Action::Continue)
                }
                RuleOut::Block(var, sec) => Ok(Action::BlockOn { var, sec }),
            },
            VmOp::DoLoop {
                slot,
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval_int(lo)?;
                let hi = self.eval_int(hi)?;
                let step = self.eval_int(step)?;
                if step == 0 {
                    return Err(RtError::ZeroStep);
                }
                self.advance();
                self.stack.push(VFrame::Loop {
                    slot: *slot,
                    var: var.clone(),
                    body: body.clone(),
                    sid,
                    current: lo,
                    hi,
                    step,
                });
                Ok(Action::Continue)
            }
            VmOp::Barrier => {
                if self.barrier_passed {
                    self.barrier_passed = false;
                    self.advance();
                    Ok(Action::Continue)
                } else {
                    Ok(Action::Barrier)
                }
            }
            VmOp::Redistribute { var, dist } => {
                let var = *var;
                let decl = &self.prog.program.decls[var.index()];
                let src = self
                    .cur_dist
                    .get(&var)
                    .or(decl.dist.as_ref())
                    .cloned()
                    .ok_or_else(|| RtError::BadTransfer {
                        pid: self.env.pid,
                        detail: format!("redistribute of undistributed `{}`", decl.name),
                    })?;
                let plan = self.plan_ctx.plan(var, decl, &src, dist);
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
                self.cur_dist.insert(var, dist.clone());
                self.advance();
                // Compile the lowered statements now: each inherits this
                // redistribute's id, nested bodies number from id + 1 —
                // the same ids the interpreter assigns at run time.
                let lowered = {
                    let mut cx = Cx {
                        slots: &mut self.slots,
                        decls: &self.prog.decls,
                        kernels: &self.prog.kernels,
                    };
                    compile_lowered(&mut cx, sid, &stmts)
                };
                if self.regs.len() < self.slots.len() {
                    self.regs.resize(self.slots.len(), None);
                }
                self.stack.push(VFrame::Block {
                    stmts: lowered,
                    idx: 0,
                });
                Ok(Action::Continue)
            }
        }
    }

    // ---- expression evaluation (charging mirrors of ProcEnv's) ----

    fn require_exclusive(&self, var: VarId) -> Result<(), RtError> {
        if self.env.decls[var.index()].ownership == Ownership::Universal {
            Err(RtError::IntrinsicOnUniversal(var))
        } else {
            Ok(())
        }
    }

    fn eval_int(&mut self, e: &CInt) -> Result<i64, RtError> {
        match e {
            CInt::Const(c) => Ok(*c),
            CInt::Slot(i) => self.regs[*i]
                .ok_or_else(|| RtError::UndefinedScalar(self.slots.name(*i).to_string())),
            CInt::MyPid => Ok(self.env.pid as i64),
            CInt::MyLb(r, d) => {
                let sec = self.eval_sec(r)?;
                self.require_exclusive(r.var)?;
                self.env.ops.symtab_ops += 1;
                Ok(self.env.symtab.mylb(r.var, &sec, *d))
            }
            CInt::MyUb(r, d) => {
                let sec = self.eval_sec(r)?;
                self.require_exclusive(r.var)?;
                self.env.ops.symtab_ops += 1;
                Ok(self.env.symtab.myub(r.var, &sec, *d))
            }
            CInt::Neg(a) => Ok(self.eval_int(a)?.saturating_neg()),
            CInt::Bin(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.env.ops.flops += 1;
                // Saturating arithmetic, as in the interpreter: bounds
                // expressions combine mylb/myub sentinels with offsets.
                Ok(match op {
                    IntBinOp::Add => a.saturating_add(b),
                    IntBinOp::Sub => a.saturating_sub(b),
                    IntBinOp::Mul => a.saturating_mul(b),
                    IntBinOp::Div => a / b,
                    IntBinOp::Mod => a.rem_euclid(b),
                    IntBinOp::Min => a.min(b),
                    IntBinOp::Max => a.max(b),
                })
            }
        }
    }

    fn eval_sec(&mut self, r: &CSec) -> Result<Section, RtError> {
        if let Some(s) = &r.konst {
            return Ok(s.clone());
        }
        let mut dims = Vec::with_capacity(r.subs.len());
        for sub in &r.subs {
            dims.push(match sub {
                CSub::Fixed(t) => *t,
                CSub::Point(e) => Triplet::point(self.eval_int(e)?),
                CSub::Range(lb, ub, st) => {
                    let lb = self.eval_int(lb)?;
                    let ub = self.eval_int(ub)?;
                    let st = self.eval_int(st)?;
                    Triplet::new(lb, ub, st)
                }
            });
        }
        Ok(Section::new(dims))
    }

    fn eval_rule(&mut self, e: &CRule) -> Result<RuleOut, RtError> {
        Ok(match e {
            CRule::Const(true) => RuleOut::True,
            CRule::Const(false) => RuleOut::False,
            CRule::Iown(r) => {
                let sec = self.eval_sec(r)?;
                self.require_exclusive(r.var)?;
                self.env.ops.symtab_ops += 1;
                if self.env.symtab.iown(r.var, &sec) {
                    RuleOut::True
                } else {
                    RuleOut::False
                }
            }
            CRule::Accessible(r) => {
                let sec = self.eval_sec(r)?;
                self.require_exclusive(r.var)?;
                self.env.ops.symtab_ops += 1;
                if self.env.symtab.accessible(r.var, &sec) {
                    RuleOut::True
                } else {
                    RuleOut::False
                }
            }
            CRule::Await(r) => {
                let sec = self.eval_sec(r)?;
                self.require_exclusive(r.var)?;
                self.env.ops.symtab_ops += 1;
                match self.env.symtab.state_of(r.var, &sec) {
                    SecState::Unowned => RuleOut::False,
                    SecState::Transitional => RuleOut::Block(r.var, sec),
                    SecState::Accessible => RuleOut::True,
                }
            }
            CRule::Cmp(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.env.ops.flops += 1;
                if op.eval(a, b) {
                    RuleOut::True
                } else {
                    RuleOut::False
                }
            }
            CRule::And(a, b) => match self.eval_rule(a)? {
                RuleOut::False => RuleOut::False,
                RuleOut::Block(v, s) => RuleOut::Block(v, s),
                RuleOut::True => self.eval_rule(b)?,
            },
            CRule::Or(a, b) => match self.eval_rule(a)? {
                RuleOut::True => RuleOut::True,
                RuleOut::Block(v, s) => RuleOut::Block(v, s),
                RuleOut::False => self.eval_rule(b)?,
            },
            CRule::Not(a) => match self.eval_rule(a)? {
                RuleOut::True => RuleOut::False,
                RuleOut::False => RuleOut::True,
                RuleOut::Block(v, s) => RuleOut::Block(v, s),
            },
        })
    }

    /// Gather a readable section. Same charging and errors as
    /// `ProcEnv::read_section`; exclusive variables use the symbol table's
    /// strided fast path instead of per-element index resolution.
    fn read_sec(&mut self, var: VarId, sec: &Section) -> Result<Buffer, RtError> {
        if self.env.decls[var.index()].ownership == Ownership::Universal {
            return self.env.read_section(var, sec);
        }
        if self.env.checked {
            match self.env.symtab.classify(var, sec).0 {
                SecState::Accessible => {}
                SecState::Transitional => {
                    return Err(RtError::TransitionalRead {
                        pid: self.env.pid,
                        var,
                        sec: sec.clone(),
                    })
                }
                SecState::Unowned => {
                    return Err(RtError::UnownedRead {
                        pid: self.env.pid,
                        var,
                        sec: sec.clone(),
                    })
                }
            }
        }
        self.env.ops.flops += sec.volume() as u64;
        let elem = self.env.decls[var.index()].elem;
        let mut out = Buffer::zeros(elem, sec.volume() as usize);
        if self.env.symtab.read_section_into(var, sec, &mut out) {
            Ok(out)
        } else {
            Err(RtError::UnownedRead {
                pid: self.env.pid,
                var,
                sec: sec.clone(),
            })
        }
    }

    /// Scatter a buffer into a writable section. Same charging and errors
    /// as `ProcEnv::write_section`, with the strided fast path.
    fn write_sec(&mut self, var: VarId, sec: &Section, buf: &Buffer) -> Result<(), RtError> {
        if self.env.decls[var.index()].ownership == Ownership::Universal {
            return self.env.write_section(var, sec, buf);
        }
        self.env.ops.flops += sec.volume() as u64;
        if self.env.symtab.write_section_from(var, sec, buf) {
            Ok(())
        } else {
            Err(RtError::UnownedWrite {
                pid: self.env.pid,
                var,
                sec: sec.clone(),
            })
        }
    }

    fn eval_elem(&mut self, e: &CElem, vol: i64, tsec: &Section) -> Result<Buffer, RtError> {
        match e {
            CElem::Ref(r) => {
                let sec = self.eval_sec(r)?;
                if sec.volume() != vol && sec.volume() != 1 {
                    return Err(RtError::NotConformable {
                        lhs: tsec.clone(),
                        rhs: sec,
                    });
                }
                let buf = self.read_sec(r.var, &sec)?;
                if buf.len() as i64 == vol {
                    Ok(buf)
                } else {
                    // Broadcast a single element (no charge, as in the
                    // interpreter).
                    let v = buf.get(0);
                    let mut out = Buffer::zeros(buf.ty(), vol as usize);
                    for i in 0..vol as usize {
                        out.set(i, v);
                    }
                    Ok(out)
                }
            }
            CElem::LitF(v) => Ok(Buffer::F64(vec![*v; vol as usize])),
            CElem::LitI(v) => Ok(Buffer::I64(vec![*v; vol as usize])),
            CElem::FromInt(ie) => {
                let v = self.eval_int(ie)?;
                Ok(Buffer::I64(vec![v; vol as usize]))
            }
            CElem::Neg(a) => {
                let mut buf = self.eval_elem(a, vol, tsec)?;
                self.env.ops.flops += vol as u64;
                match &mut buf {
                    Buffer::I64(v) => v.iter_mut().for_each(|x| *x = -*x),
                    Buffer::F64(v) => v.iter_mut().for_each(|x| *x = -*x),
                    Buffer::C64(v) => v.iter_mut().for_each(|x| *x = -*x),
                }
                Ok(buf)
            }
            CElem::Bin(op, a, b) => {
                let ba = self.eval_elem(a, vol, tsec)?;
                let bb = self.eval_elem(b, vol, tsec)?;
                self.env.ops.flops += vol as u64;
                Ok(bin_elem(*op, &ba, &bb, vol as usize))
            }
        }
    }
}

/// Result of a compiled rule evaluation (mirror of `RuleVal`).
enum RuleOut {
    True,
    False,
    Block(VarId, Section),
}

/// Element-wise binary op over two `vol`-element buffers.
///
/// Same-typed operands take a typed slice path; everything else (mixed
/// types, zero volume) falls through to code identical to the
/// interpreter's — including its result-type rule (additive promotion of
/// the first elements, even for division, with coercion on store) and its
/// panic on `vol == 0`.
fn bin_elem(op: ElemBinOp, ba: &Buffer, bb: &Buffer, vol: usize) -> Buffer {
    match (ba, bb) {
        (Buffer::F64(a), Buffer::F64(b)) if vol > 0 => Buffer::F64(match op {
            ElemBinOp::Add => a.iter().zip(b).map(|(x, y)| x + y).collect(),
            ElemBinOp::Sub => a.iter().zip(b).map(|(x, y)| x - y).collect(),
            ElemBinOp::Mul => a.iter().zip(b).map(|(x, y)| x * y).collect(),
            ElemBinOp::Div => a.iter().zip(b).map(|(x, y)| x / y).collect(),
        }),
        (Buffer::I64(a), Buffer::I64(b)) if vol > 0 => Buffer::I64(match op {
            ElemBinOp::Add => a.iter().zip(b).map(|(x, y)| x + y).collect(),
            ElemBinOp::Sub => a.iter().zip(b).map(|(x, y)| x - y).collect(),
            ElemBinOp::Mul => a.iter().zip(b).map(|(x, y)| x * y).collect(),
            // Integer storage, f64 division, truncating store — exactly
            // `Value::div` coerced back by `Buffer::set`.
            ElemBinOp::Div => a
                .iter()
                .zip(b)
                .map(|(x, y)| (*x as f64 / *y as f64) as i64)
                .collect(),
        }),
        (Buffer::C64(a), Buffer::C64(b)) if vol > 0 => Buffer::C64(match op {
            ElemBinOp::Add => a.iter().zip(b).map(|(x, y)| *x + *y).collect(),
            ElemBinOp::Sub => a.iter().zip(b).map(|(x, y)| *x - *y).collect(),
            ElemBinOp::Mul => a.iter().zip(b).map(|(x, y)| *x * *y).collect(),
            ElemBinOp::Div => a.iter().zip(b).map(|(x, y)| *x / *y).collect(),
        }),
        _ => {
            let f = match op {
                ElemBinOp::Add => Value::add,
                ElemBinOp::Sub => Value::sub,
                ElemBinOp::Mul => Value::mul,
                ElemBinOp::Div => Value::div,
            };
            let ty = Value::add(ba.get(0), bb.get(0)).ty();
            let mut out = Buffer::zeros(ty, vol);
            for i in 0..vol {
                out.set(i, f(ba.get(i), bb.get(i)));
            }
            out
        }
    }
}

impl Processor for VmProc {
    fn step(&mut self) -> Result<StepOut, RtError> {
        VmProc::step(self)
    }

    fn complete_recv(&mut self, req_id: u64, msg: Msg) -> Result<(), RtError> {
        VmProc::complete_recv(self, req_id, msg)
    }

    fn outstanding(&self) -> Vec<(u64, Tag)> {
        VmProc::outstanding(self)
    }

    fn outstanding_for(&self, var: VarId, sec: &Section) -> Vec<(u64, Tag)> {
        VmProc::outstanding_for(self, var, sec)
    }

    fn pass_barrier(&mut self) {
        VmProc::pass_barrier(self)
    }

    fn position(&self) -> String {
        VmProc::position(self)
    }

    fn set_plan_ctx(&mut self, ctx: Arc<PlanCtx>) {
        VmProc::set_plan_ctx(self, ctx)
    }

    fn env(&self) -> &ProcEnv {
        &self.env
    }

    fn env_mut(&mut self) -> &mut ProcEnv {
        &mut self.env
    }
}
