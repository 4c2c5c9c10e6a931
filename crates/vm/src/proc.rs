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
//! completions, barriers and a `redistribute` (its plan and this
//! processor's share of it) are the shared rules themselves.

use crate::compile::{CElem, CInt, CRule, CSec, CSub, VmOp, VmProgram, VmStmt};
use std::borrow::Cow;
use std::sync::Arc;
use xdp_core::{Action, Dest, ProcEnv, Processor, RtError, RuleVal, StepOut};
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

/// What a statement evaluates itself in, handed back when it ends: the
/// triplet vectors of the sections it evaluated, its element buffers (one
/// stack per element type) and a kernel call's operand lists. A statement
/// takes from the scratch before it allocates, and gives back only what
/// it took, so the scratch never holds more than the busiest single
/// statement held at once; a gathered buffer a send moves into its
/// message is simply not given back.
#[derive(Default)]
struct Scratch {
    dims: Vec<Vec<Triplet>>,
    bufs: [Vec<Buffer>; 3],
    kernel: KernelArgs,
}

/// A kernel call's operand lists.
#[derive(Default)]
struct KernelArgs {
    /// The evaluated sections, `None` for a constant one.
    secs: Vec<Option<Section>>,
    ints: Vec<i64>,
    bufs: Vec<Buffer>,
}

impl Scratch {
    /// `len` copies of `v`, in a buffer of `v`'s type.
    fn filled(&mut self, v: Value, len: usize) -> Buffer {
        let ty = v.ty();
        let mut buf = self.bufs[ty as usize]
            .pop()
            .unwrap_or_else(|| Buffer::zeros(ty, 0));
        buf.fill(v, len);
        buf
    }

    fn give(&mut self, buf: Buffer) {
        self.bufs[buf.ty() as usize].push(buf);
    }

    /// Give back an evaluated section; a constant one was never taken.
    fn give_sec(&mut self, sec: Cow<'_, Section>) {
        if let Cow::Owned(sec) = sec {
            self.dims.push(sec.into_dims());
        }
    }

    /// Give back a kernel call's operand lists and everything in them.
    fn give_kernel(&mut self, mut args: KernelArgs) {
        for buf in args.bufs.drain(..) {
            self.give(buf);
        }
        let secs = args.secs.drain(..).flatten();
        self.dims.extend(secs.map(Section::into_dims));
        args.ints.clear();
        self.kernel = args;
    }
}

/// The compiled per-processor executor. A drop-in [`Processor`]: plug into
/// `SimExec::from_procs` / `AsyncExec::from_procs`.
pub struct VmProc {
    /// The processor's environment (symbol table, universal data, ops,
    /// transfer state).
    pub env: ProcEnv,
    prog: Arc<VmProgram>,
    /// Scalar register file, indexed by the program's slot ids.
    regs: Vec<Option<i64>>,
    stack: Vec<VFrame>,
    scratch: Scratch,
}

impl VmProc {
    /// Load compiled `prog` onto processor `pid` of an `nprocs` machine.
    pub fn new(prog: Arc<VmProgram>, pid: usize, nprocs: usize, checked: bool) -> VmProc {
        let env = ProcEnv::new(pid, nprocs, prog.decls.clone(), checked);
        let regs = vec![None; prog.slots.len()];
        VmProc {
            env,
            stack: vec![VFrame::Block {
                stmts: prog.code.clone(),
                idx: 0,
            }],
            regs,
            prog,
            scratch: Scratch::default(),
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
                self.scratch.give(result);
                self.scratch.give_sec(tsec);
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
                let mut ops = std::mem::take(&mut self.scratch.kernel);
                for a in args {
                    ops.secs.push(match self.eval_sec(a)? {
                        Cow::Borrowed(_) => None,
                        Cow::Owned(s) => Some(s),
                    });
                }
                for e in int_args {
                    ops.ints.push(self.eval_int(e)?);
                }
                let sec = |k: usize| ops.secs[k].as_ref().or(args[k].konst.as_ref()).unwrap();
                for (k, a) in args.iter().enumerate() {
                    let buf = self.read_sec(a.var, sec(k))?;
                    ops.bufs.push(buf);
                }
                let ran = kernel.run(&mut ops.bufs, &ops.ints);
                self.env.ran_kernel(name.clone(), ran)?;
                for (k, a) in args.iter().enumerate() {
                    self.write_sec(a.var, sec(k), &ops.bufs[k])?;
                }
                self.scratch.give_kernel(ops);
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
                    None => Dest::Any,
                    Some(es) if es.len() == 1 => Dest::One(self.eval_int(&es[0])? as usize),
                    Some(es) => {
                        let mut pids = Vec::with_capacity(es.len());
                        for e in es {
                            pids.push(self.eval_int(e)? as usize);
                        }
                        Dest::Many(pids)
                    }
                };
                let gathered = match kind {
                    TransferKind::Value => Some(self.read_sec(var, &s)?),
                    TransferKind::Ownership | TransferKind::OwnershipValue => None,
                };
                let action = self
                    .env
                    .send(var, s.into_owned(), *kind, salt_v, dests, gathered)?;
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
                            self.scratch.give_sec(tsec);
                            return Ok(block);
                        }
                        // With no explicit match name the interpreter
                        // re-evaluates the target reference (charging its
                        // subscripts a second time); so does the VM.
                        let nref = name.as_ref().unwrap_or(target);
                        let nsec = self.eval_sec(nref)?;
                        self.env.post_value_recv(
                            tvar,
                            tsec.into_owned(),
                            (nref.var, nsec.into_owned()),
                            salt_v,
                        )?
                    }
                    TransferKind::Ownership | TransferKind::OwnershipValue => self
                        .env
                        .post_ownership_recv(tvar, tsec.into_owned(), *kind, salt_v)?,
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
                let action = self.env.redistribute(*var, dist)?;
                if !self.env.redistributing() {
                    self.advance();
                }
                Ok(action)
            }
        }
    }

    // ---- expression evaluation: same charges, in the same order, as
    // ProcEnv's over the unresolved forms ----

    fn eval_int(&mut self, e: &CInt) -> Result<i64, RtError> {
        match e {
            CInt::Const(c) => Ok(*c),
            CInt::Slot(i) => self.regs[*i]
                .ok_or_else(|| RtError::UndefinedScalar(self.prog.slots.name(*i).to_string())),
            CInt::MyPid => Ok(self.env.pid as i64),
            CInt::MyLb(r, d, subscript) => {
                let sec = self.eval_sec(r)?;
                let lb = self.env.mylb(r.var, &sec, *d, *subscript);
                self.scratch.give_sec(sec);
                lb
            }
            CInt::MyUb(r, d, subscript) => {
                let sec = self.eval_sec(r)?;
                let ub = self.env.myub(r.var, &sec, *d, *subscript);
                self.scratch.give_sec(sec);
                ub
            }
            CInt::Neg(a) => Ok(self.eval_int(a)?.saturating_neg()),
            CInt::Bin(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.env.ops.flops += 1;
                op.apply(a, b).ok_or(RtError::DivisionByZero)
            }
        }
    }

    /// Evaluate a section reference: a constant one is borrowed, any other
    /// is built in a triplet vector taken from the scratch.
    fn eval_sec<'a>(&mut self, r: &'a CSec) -> Result<Cow<'a, Section>, RtError> {
        if let Some(s) = &r.konst {
            return Ok(Cow::Borrowed(s));
        }
        let mut dims = self.scratch.dims.pop().unwrap_or_default();
        dims.clear();
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
        Ok(Cow::Owned(Section::new(dims)))
    }

    fn eval_rule(&mut self, e: &CRule) -> Result<RuleVal, RtError> {
        Ok(match e {
            CRule::Const(true) => RuleVal::True,
            CRule::Const(false) => RuleVal::False,
            CRule::Iown(r) => {
                let sec = self.eval_sec(r)?;
                let v = self.env.iown(r.var, &sec)?;
                self.scratch.give_sec(sec);
                v
            }
            CRule::Accessible(r) => {
                let sec = self.eval_sec(r)?;
                let v = self.env.accessible(r.var, &sec)?;
                self.scratch.give_sec(sec);
                v
            }
            CRule::Await(r) => {
                let sec = self.eval_sec(r)?;
                let v = self.env.await_(r.var, &sec)?;
                self.scratch.give_sec(sec);
                v
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

    /// Gather a readable section into a buffer taken from the scratch.
    /// Same charging and errors as `ProcEnv::read_section`; exclusive
    /// variables use the symbol table's strided fast path instead of
    /// per-element index resolution.
    fn read_sec(&mut self, var: VarId, sec: &Section) -> Result<Buffer, RtError> {
        let decl = &self.env.decls[var.index()];
        let universal = decl.ownership == Ownership::Universal;
        let mut out = self
            .scratch
            .filled(Value::zero(decl.elem), sec.volume() as usize);
        if universal {
            self.env.read_universal(var, sec, &mut out)?;
            return Ok(out);
        }
        self.env.check_read(var, sec)?;
        self.env.ops.flops += sec.volume() as u64;
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

    /// Evaluate an element expression into a `vol`-element buffer taken
    /// from the scratch.
    fn eval_elem(&mut self, e: &CElem, vol: i64, tsec: &Section) -> Result<Buffer, RtError> {
        match e {
            CElem::Ref(r) => {
                let sec = self.eval_sec(r)?;
                if sec.volume() != vol && sec.volume() != 1 {
                    return Err(RtError::NotConformable {
                        lhs: tsec.clone(),
                        rhs: sec.into_owned(),
                    });
                }
                let buf = self.read_sec(r.var, &sec)?;
                self.scratch.give_sec(sec);
                if buf.len() as i64 == vol {
                    Ok(buf)
                } else {
                    // Broadcast a single element (no charge, as in the
                    // interpreter).
                    let out = self.scratch.filled(buf.get(0), vol as usize);
                    self.scratch.give(buf);
                    Ok(out)
                }
            }
            CElem::LitF(v) => Ok(self.scratch.filled(Value::F64(*v), vol as usize)),
            CElem::LitI(v) => Ok(self.scratch.filled(Value::I64(*v), vol as usize)),
            CElem::FromInt(ie) => {
                let v = self.eval_int(ie)?;
                Ok(self.scratch.filled(Value::I64(v), vol as usize))
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
                Ok(bin_elem(*op, ba, bb, &mut self.scratch))
            }
        }
    }
}

/// Element-wise `a op b` over two equal-length buffers taken from
/// `scratch`, handing back what it does not return.
///
/// Same-typed operands combine in place into `a`; mixed types fall back to
/// code identical to the interpreter's, including its result-type rule
/// (additive promotion, even for division, with coercion on store).
fn bin_elem(op: ElemBinOp, mut a: Buffer, b: Buffer, scratch: &mut Scratch) -> Buffer {
    match (&mut a, &b) {
        (Buffer::F64(x), Buffer::F64(y)) => match op {
            ElemBinOp::Add => zip_with(x, y, |p, q| p + q),
            ElemBinOp::Sub => zip_with(x, y, |p, q| p - q),
            ElemBinOp::Mul => zip_with(x, y, |p, q| p * q),
            ElemBinOp::Div => zip_with(x, y, |p, q| p / q),
        },
        (Buffer::I64(x), Buffer::I64(y)) => match op {
            ElemBinOp::Add => zip_with(x, y, |p, q| p + q),
            ElemBinOp::Sub => zip_with(x, y, |p, q| p - q),
            ElemBinOp::Mul => zip_with(x, y, |p, q| p * q),
            // Integer storage, f64 division, truncating store — exactly
            // `Value::div` coerced back by `Buffer::set`.
            ElemBinOp::Div => zip_with(x, y, |p, q| (p as f64 / q as f64) as i64),
        },
        (Buffer::C64(x), Buffer::C64(y)) => match op {
            ElemBinOp::Add => zip_with(x, y, |p, q| p + q),
            ElemBinOp::Sub => zip_with(x, y, |p, q| p - q),
            ElemBinOp::Mul => zip_with(x, y, |p, q| p * q),
            ElemBinOp::Div => zip_with(x, y, |p, q| p / q),
        },
        _ => {
            let f = match op {
                ElemBinOp::Add => Value::add,
                ElemBinOp::Sub => Value::sub,
                ElemBinOp::Mul => Value::mul,
                ElemBinOp::Div => Value::div,
            };
            let ty = Value::promote(a.ty(), b.ty());
            let mut out = scratch.filled(Value::zero(ty), a.len());
            for i in 0..a.len() {
                out.set(i, f(a.get(i), b.get(i)));
            }
            scratch.give(a);
            scratch.give(b);
            return out;
        }
    }
    scratch.give(b);
    a
}

/// `x[i] = f(x[i], y[i])` for every `i`.
fn zip_with<T: Copy>(x: &mut [T], y: &[T], f: impl Fn(T, T) -> T) {
    x.iter_mut().zip(y).for_each(|(p, q)| *p = f(*p, *q));
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
        let sharing = self.env.share_position();
        let mut parts = Vec::new();
        for (k, f) in self.stack.iter().enumerate() {
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
                    let idx = idx + usize::from(sharing.is_some() && k + 1 == self.stack.len());
                    parts.push(format!("stmt {}/{}", idx.min(stmts.len()), stmts.len()));
                }
            }
        }
        parts.extend(sharing);
        parts.join(" > ")
    }

    fn env(&self) -> &ProcEnv {
        &self.env
    }

    fn env_mut(&mut self) -> &mut ProcEnv {
        &mut self.env
    }
}
