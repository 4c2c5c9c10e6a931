//! The compiled per-processor virtual machine.
//!
//! [`VmProc`] is a second *evaluator* over the transfer rules the
//! interpreter uses (`xdp_core::transfer`): it owns the compiled code
//! form, the frame stack, the register file, expression evaluation over
//! [`crate::compile`]'s resolved forms, and strided section gather/scatter.
//! Where the interpreter re-resolves, the VM indexes; where the
//! interpreter boxes elements, the VM copies slices — but every *charged*
//! operation and every symbol-table call of the evaluation is the same,
//! in the same order, and that half of the contract is what the
//! differential suites check (see the crate docs). Sends, receives,
//! completions, barriers and redistribution planning are the shared rules
//! themselves.

use crate::compile::{
    compile_lowered, CElem, CInt, CRule, CSec, CSub, Cx, SlotMap, VmOp, VmProgram, VmStmt,
};
use std::sync::Arc;
use xdp_core::{Action, ProcEnv, Processor, RtError, RuleVal, StepOut};
use xdp_ir::{ElemBinOp, Ownership, Section, TransferKind, Triplet, VarId};
use xdp_runtime::{Buffer, Value};

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
    /// The processor's environment (symbol table, universal data, ops,
    /// transfer state).
    pub env: ProcEnv,
    prog: Arc<VmProgram>,
    /// Scalar register file, indexed by slot id.
    regs: Vec<Option<i64>>,
    /// Private slot map (grows when `redistribute` lowers new statements).
    slots: SlotMap,
    stack: Vec<VFrame>,
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
            prog,
        }
    }

    /// Perform one atomic step.
    pub fn step(&mut self) -> Result<StepOut, RtError> {
        let action = self.step_inner();
        self.env.end_step(action)
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
                    self.env.at_stmt(*sid);
                    self.regs[slot] = Some(v);
                    self.env.ops.flops += 1; // loop bookkeeping
                    self.stack.push(VFrame::Block { stmts: b, idx: 0 });
                    return Ok(Action::Continue);
                }
            };
            self.env.at_stmt(code[idx].sid);
            return self.exec_op(&code, idx);
        }
    }

    /// Advance the instruction pointer of the current block.
    fn advance(&mut self) {
        if let Some(VFrame::Block { idx, .. }) = self.stack.last_mut() {
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
                self.env.ran_kernel(name.to_string(), flops);
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
                let gathered = match kind {
                    TransferKind::Value => Some(self.read_sec(var, &s)?),
                    TransferKind::Ownership | TransferKind::OwnershipValue => None,
                };
                let action = self.env.send(var, s, *kind, salt_v, dests, gathered)?;
                Ok(self.settle(action))
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
                let action = match kind {
                    TransferKind::Value => {
                        if let Some(block) = self.env.check_value_recv(tvar, &tsec)? {
                            return Ok(block);
                        }
                        // With no explicit match name the interpreter
                        // re-evaluates the target reference (charging its
                        // subscripts a second time); so does the VM.
                        let nref = name.as_ref().unwrap_or(target);
                        let nsec = self.eval_sec(nref)?;
                        self.env
                            .post_value_recv(tvar, tsec, (nref.var, nsec), salt_v)?
                    }
                    TransferKind::Ownership | TransferKind::OwnershipValue => {
                        self.env.post_ownership_recv(tvar, tsec, *kind, salt_v)?
                    }
                };
                Ok(self.settle(action))
            }
            VmOp::Guarded { rule, body } => match self.eval_rule(rule)? {
                RuleVal::False => {
                    self.advance();
                    Ok(Action::Continue)
                }
                RuleVal::True => {
                    self.advance();
                    let b = body.clone();
                    self.stack.push(VFrame::Block { stmts: b, idx: 0 });
                    Ok(Action::Continue)
                }
                RuleVal::Block(var, sec) => Ok(Action::BlockOn { var, sec }),
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
                let action = self.env.barrier();
                Ok(self.settle(action))
            }
            VmOp::Redistribute { var, dist } => {
                let stmts = self.env.redistribute(*var, dist.clone())?;
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

    // ---- expression evaluation: same charges, in the same order, as
    // ProcEnv's over the unresolved forms ----

    fn eval_int(&mut self, e: &CInt) -> Result<i64, RtError> {
        match e {
            CInt::Const(c) => Ok(*c),
            CInt::Slot(i) => self.regs[*i]
                .ok_or_else(|| RtError::UndefinedScalar(self.slots.name(*i).to_string())),
            CInt::MyPid => Ok(self.env.pid as i64),
            CInt::MyLb(r, d) => {
                let sec = self.eval_sec(r)?;
                self.env.mylb(r.var, &sec, *d)
            }
            CInt::MyUb(r, d) => {
                let sec = self.eval_sec(r)?;
                self.env.myub(r.var, &sec, *d)
            }
            CInt::Neg(a) => Ok(self.eval_int(a)?.saturating_neg()),
            CInt::Bin(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.env.ops.flops += 1;
                op.apply(a, b).ok_or(RtError::DivisionByZero)
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

    fn eval_rule(&mut self, e: &CRule) -> Result<RuleVal, RtError> {
        Ok(match e {
            CRule::Const(true) => RuleVal::True,
            CRule::Const(false) => RuleVal::False,
            CRule::Iown(r) => {
                let sec = self.eval_sec(r)?;
                self.env.iown(r.var, &sec)?
            }
            CRule::Accessible(r) => {
                let sec = self.eval_sec(r)?;
                self.env.accessible(r.var, &sec)?
            }
            CRule::Await(r) => {
                let sec = self.eval_sec(r)?;
                self.env.await_(r.var, sec)?
            }
            CRule::Cmp(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.env.compare(*op, a, b)
            }
            CRule::And(a, b) => match self.eval_rule(a)? {
                RuleVal::False => RuleVal::False,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
                RuleVal::True => self.eval_rule(b)?,
            },
            CRule::Or(a, b) => match self.eval_rule(a)? {
                RuleVal::True => RuleVal::True,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
                RuleVal::False => self.eval_rule(b)?,
            },
            CRule::Not(a) => match self.eval_rule(a)? {
                RuleVal::True => RuleVal::False,
                RuleVal::False => RuleVal::True,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
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
        self.env.check_read(var, sec)?;
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

    /// Program position for deadlock diagnostics (same format as the
    /// interpreter's).
    fn position(&self) -> String {
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

    fn env(&self) -> &ProcEnv {
        &self.env
    }

    fn env_mut(&mut self) -> &mut ProcEnv {
        &mut self.env
    }
}
