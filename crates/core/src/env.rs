//! Per-processor execution environment and expression evaluation.
//!
//! Each simulated processor holds: its run-time XDP symbol table (exclusive
//! data), private storage for universally owned variables, and its integer
//! scalar environment (loop variables, `i` in §2.2). Expression evaluation
//! here implements the compute-rule semantics of §2.4: rules are
//! side-effect-free, `await` is the only blocking intrinsic, and rules can
//! be evaluated on any processor without error. The environment also
//! carries the processor's transfer state; the rules that act on it are in
//! [`crate::transfer`].

use crate::interp::StepNote;
use crate::transfer::{PendingRecv, RunningShare};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_ir::{
    BoolExpr, CmpOp, Decl, Distribution, ElemBinOp, ElemExpr, IntExpr, Ownership, Section,
    SectionRef, Subscript, Triplet, VarId,
};
use xdp_runtime::symtab::{SecState, SymtabError};
use xdp_runtime::{Buffer, RtSymbolTable, Tag, Value};

/// A run-time error: either incorrect XDP usage caught by the checked
/// runtime, or a malformed program.
#[derive(Clone, PartialEq, Debug)]
pub enum RtError {
    /// Undefined integer scalar.
    UndefinedScalar(String),
    /// Read of an element not owned (no storage anywhere to read).
    UnownedRead {
        pid: usize,
        var: VarId,
        sec: Section,
    },
    /// Write to an element not owned here.
    UnownedWrite {
        pid: usize,
        var: VarId,
        sec: Section,
    },
    /// Checked mode: read of a transitional section (value unpredictable).
    TransitionalRead {
        pid: usize,
        var: VarId,
        sec: Section,
    },
    /// Intrinsic applied to a universal variable (§2.3 requires exclusive).
    IntrinsicOnUniversal(VarId),
    /// `mylb`/`myub` inside a section subscript on a processor that owns
    /// no element of the queried section: the paper's `MAXINT`/`MININT`
    /// would become an index. (In a loop bound it is an empty range.)
    NothingOwned {
        pid: usize,
        /// The query as evaluated, a whole dimension as `*`:
        /// `mylb(U[*,*], 1)`.
        query: String,
        /// What was queried: the array's name, or its section.
        of: String,
    },
    /// Symbol-table protocol violation.
    Symtab(SymtabError),
    /// Sections in an element-wise operation do not conform.
    NotConformable { lhs: Section, rhs: Section },
    /// Unknown kernel name.
    UnknownKernel(String),
    /// A kernel refused its call (wrong sections, wrong element type).
    KernelCall {
        pid: usize,
        name: String,
        detail: String,
    },
    /// Ownership transfer of an unowned section, and similar misuse.
    BadTransfer { pid: usize, detail: String },
    /// Zero loop step.
    ZeroStep,
    /// Integer `/` or `%` with a zero divisor.
    DivisionByZero,
    /// No processor can ever advance and the run is not over: a receive
    /// nobody sends, one left unmatched at program end, a barrier facing a
    /// blocked peer. Every machine decides this exactly, from its state.
    Deadlock(String),
    /// Processor `pid` took the machine's statement budget of steps
    /// ([`crate::MachineConfig::max_steps`]) without finishing: a runaway
    /// program, or one larger than the budget allows. On the task machine,
    /// where several processors may fail, the run names the lowest pid.
    StepBudget { pid: usize, max_steps: u64 },
    /// A message was permanently lost in transit: fault injection dropped
    /// every transmission attempt and the delivery layer dead-lettered it.
    MessageLost(String),
    /// The machine is larger than its topology can address (e.g. 9 pids
    /// on a 2x4 mesh); hop counts for the overflow pids would be garbage.
    Topology(String),
    /// The OS refused to spawn even one worker thread for the async
    /// executor's pool.
    SpawnFailed(String),
    /// The machine was handed a [`crate::MachineConfig`] setting it cannot
    /// honour (the reference executor and a fault plan); it refuses the
    /// run rather than ignore the setting.
    Unsupported(String),
}

impl From<SymtabError> for RtError {
    fn from(e: SymtabError) -> RtError {
        RtError::Symtab(e)
    }
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::UndefinedScalar(n) => write!(f, "undefined scalar `{n}`"),
            RtError::UnownedRead { pid, var, sec } => {
                write!(f, "p{pid}: read of unowned {var}{sec}")
            }
            RtError::UnownedWrite { pid, var, sec } => {
                write!(f, "p{pid}: write to unowned {var}{sec}")
            }
            RtError::TransitionalRead { pid, var, sec } => {
                write!(f, "p{pid}: read of transitional {var}{sec}")
            }
            RtError::IntrinsicOnUniversal(v) => {
                write!(f, "intrinsic applied to universal variable {v}")
            }
            RtError::NothingOwned { pid, query, of } => {
                write!(f, "p{pid}: {query}: p{pid} owns no element of {of}")
            }
            RtError::Symtab(e) => write!(f, "{e}"),
            RtError::NotConformable { lhs, rhs } => {
                write!(f, "sections do not conform: {lhs} vs {rhs}")
            }
            RtError::UnknownKernel(n) => write!(f, "unknown kernel `{n}`"),
            RtError::KernelCall { pid, name, detail } => {
                write!(f, "p{pid}: kernel `{name}` {detail}")
            }
            RtError::BadTransfer { pid, detail } => write!(f, "p{pid}: {detail}"),
            RtError::ZeroStep => write!(f, "do-loop with zero step"),
            RtError::DivisionByZero => write!(f, "division by zero"),
            RtError::Deadlock(d) => write!(f, "deadlock:\n{d}"),
            RtError::StepBudget { pid, max_steps } => {
                write!(f, "p{pid}: statement budget of {max_steps} steps exhausted")
            }
            RtError::MessageLost(d) => write!(f, "message lost:\n{d}"),
            RtError::Topology(d) => write!(f, "topology mismatch:\n{d}"),
            RtError::SpawnFailed(d) => write!(f, "thread spawn failed:\n{d}"),
            RtError::Unsupported(d) => write!(f, "unsupported machine configuration: {d}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Result of evaluating a compute rule: `await` on a transitional section
/// blocks rather than producing a value.
#[derive(Clone, PartialEq, Debug)]
pub enum RuleVal {
    True,
    False,
    /// Evaluation must block until this section becomes accessible.
    Block(VarId, Section),
}

impl RuleVal {
    fn of(b: bool) -> RuleVal {
        if b {
            RuleVal::True
        } else {
            RuleVal::False
        }
    }
}

/// Per-step operation counters, converted to virtual time by the executor's
/// cost model.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpCounts {
    /// Symbol-table queries performed.
    pub symtab_ops: u64,
    /// Segment descriptors examined by those queries.
    pub seg_scans: u64,
    /// Arithmetic/copy element operations performed.
    pub flops: u64,
}

/// One processor's state.
#[derive(Debug)]
pub struct ProcEnv {
    /// This processor's id.
    pub pid: usize,
    /// Machine size.
    pub nprocs: usize,
    /// The run-time XDP symbol table (exclusive variables).
    pub symtab: RtSymbolTable,
    /// Private full-size storage for universal arrays, indexed by VarId.
    universal: Vec<Option<Buffer>>,
    /// Universal integer scalars (loop variables).
    pub scalars: HashMap<String, i64>,
    /// Shared declarations.
    pub decls: Arc<[Decl]>,
    /// Checked mode: flag transitional reads and other unsafe-but-legal
    /// XDP usage as errors.
    pub checked: bool,
    /// Counters accumulated since last drain.
    pub ops: OpCounts,
    /// Symbol-table scan counter at the last drain.
    scanned_baseline: u64,
    // ---- what the transfer rules ([`crate::transfer`]) keep between
    // steps; nothing else reads or writes these ----
    /// Receives initiated and not yet completed, in request order.
    pub(crate) pending: BTreeMap<u64, (Tag, PendingRecv)>,
    /// The last request id handed out (ids are unique machine-wide: the
    /// pid is in the high half).
    pub(crate) next_req: u64,
    /// The executor released the barrier this processor is waiting at.
    pub(crate) barrier_passed: bool,
    /// Current distribution of each redistributed variable (falls back to
    /// the declared distribution). SPMD-identical across processors.
    pub(crate) cur_dist: HashMap<VarId, Distribution>,
    /// The machine-wide planning context: what the redistribution planner
    /// prices schedules with, and the plans the machine's processors
    /// share (private 1993 defaults until a driver sets the machine's).
    pub(crate) plan_ctx: Arc<PlanCtx>,
    /// Steps taken, and the machine's statement budget for them (none
    /// until the processor joins a machine).
    pub(crate) steps: u64,
    pub(crate) max_steps: u64,
    /// Count of `redistribute` statements executed, for tag salting.
    pub(crate) redist_epoch: u64,
    /// The share of the `redistribute` in progress, if any.
    pub(crate) share: Option<RunningShare>,
    /// Statement id of the statement the current step is executing.
    pub(crate) cur_sid: Option<u32>,
    /// Structured note the current step produced (kernel, collective).
    pub(crate) cur_note: Option<StepNote>,
}

impl ProcEnv {
    /// Build processor `pid`'s environment.
    pub fn new(pid: usize, nprocs: usize, decls: Arc<[Decl]>, checked: bool) -> ProcEnv {
        let symtab = RtSymbolTable::build(pid, &decls);
        let universal = decls
            .iter()
            .map(|d| {
                if d.ownership == Ownership::Universal {
                    let vol: i64 = d.bounds.iter().map(|t| t.count()).product();
                    Some(Buffer::zeros(d.elem, vol as usize))
                } else {
                    None
                }
            })
            .collect();
        ProcEnv {
            pid,
            nprocs,
            symtab,
            universal,
            scalars: HashMap::new(),
            decls,
            checked,
            ops: OpCounts::default(),
            scanned_baseline: 0,
            pending: BTreeMap::new(),
            next_req: (pid as u64) << 32,
            barrier_passed: false,
            cur_dist: HashMap::new(),
            plan_ctx: PlanCtx::default_1993(),
            steps: 0,
            max_steps: u64::MAX,
            redist_epoch: 0,
            share: None,
            cur_sid: None,
            cur_note: None,
        }
    }

    /// Drain and reset the per-step op counters; descriptor-scan work is
    /// taken from the symbol table's own counter.
    pub fn drain_ops(&mut self) -> OpCounts {
        let scanned = self.symtab.stats.segments_scanned;
        let mut out = std::mem::take(&mut self.ops);
        out.seg_scans = scanned - self.scanned_baseline;
        self.scanned_baseline = scanned;
        out
    }

    /// The full global section of a variable.
    pub fn full_section(&self, var: VarId) -> Section {
        Section::new(self.decls[var.index()].bounds.clone())
    }

    fn universal_ordinal(&self, var: VarId, idx: &[i64]) -> Option<usize> {
        let full = self.full_section(var);
        full.ordinal_of(idx).map(|o| o as usize)
    }

    /// Evaluate an integer expression outside any section subscript (a
    /// loop bound, a scalar, a kernel argument, a destination, a salt).
    pub fn eval_int(&mut self, e: &IntExpr) -> Result<i64, RtError> {
        self.eval_int_in(e, false)
    }

    /// Evaluate an integer expression; `subscript` when it indexes a
    /// section.
    fn eval_int_in(&mut self, e: &IntExpr, subscript: bool) -> Result<i64, RtError> {
        match e {
            IntExpr::Const(c) => Ok(*c),
            IntExpr::Var(name) => self
                .scalars
                .get(name)
                .copied()
                .ok_or_else(|| RtError::UndefinedScalar(name.clone())),
            IntExpr::MyPid => Ok(self.pid as i64),
            IntExpr::MyLb(r, d) => {
                let (var, sec) = self.eval_section(r)?;
                self.mylb(var, &sec, *d, subscript)
            }
            IntExpr::MyUb(r, d) => {
                let (var, sec) = self.eval_section(r)?;
                self.myub(var, &sec, *d, subscript)
            }
            IntExpr::Neg(a) => Ok(self.eval_int_in(a, subscript)?.saturating_neg()),
            IntExpr::Bin(op, a, b) => {
                let a = self.eval_int_in(a, subscript)?;
                let b = self.eval_int_in(b, subscript)?;
                self.ops.flops += 1;
                op.apply(a, b).ok_or(RtError::DivisionByZero)
            }
        }
    }

    // ---- the intrinsics of §2.3 on an evaluated section: exclusive
    // variables only, one symbol-table query charged each ----

    fn charge_intrinsic(&mut self, var: VarId) -> Result<(), RtError> {
        if self.decls[var.index()].ownership == Ownership::Universal {
            return Err(RtError::IntrinsicOnUniversal(var));
        }
        self.ops.symtab_ops += 1;
        Ok(())
    }

    /// `mylb(X, d)`: smallest owned index in dimension `d`, the paper's
    /// `MAXINT` when nothing is owned — an empty range as a loop's lower
    /// bound, and [`RtError::NothingOwned`] in a `subscript`.
    pub fn mylb(
        &mut self,
        var: VarId,
        sec: &Section,
        d: u32,
        subscript: bool,
    ) -> Result<i64, RtError> {
        self.charge_intrinsic(var)?;
        let lb = self.symtab.mylb(var, sec, d);
        self.owned_bound(lb, i64::MAX, subscript, ("mylb", var, sec, d))
    }

    /// `myub(X, d)`: largest owned index in dimension `d`; `MININT` when
    /// nothing is owned, as [`ProcEnv::mylb`].
    pub fn myub(
        &mut self,
        var: VarId,
        sec: &Section,
        d: u32,
        subscript: bool,
    ) -> Result<i64, RtError> {
        self.charge_intrinsic(var)?;
        let ub = self.symtab.myub(var, sec, d);
        self.owned_bound(ub, i64::MIN, subscript, ("myub", var, sec, d))
    }

    /// A bound the symbol table answered, refused where the empty
    /// ownership's `sentinel` would index a section.
    fn owned_bound(
        &self,
        bound: i64,
        sentinel: i64,
        subscript: bool,
        (which, var, sec, d): (&str, VarId, &Section, u32),
    ) -> Result<i64, RtError> {
        if !subscript || bound != sentinel {
            return Ok(bound);
        }
        let decl = &self.decls[var.index()];
        let dims = (sec.dims().iter().zip(&decl.bounds)).map(|(t, whole)| {
            if t == whole {
                "*".to_string()
            } else {
                t.to_string()
            }
        });
        let section = format!("{}[{}]", decl.name, dims.collect::<Vec<_>>().join(","));
        Err(RtError::NothingOwned {
            pid: self.pid,
            query: format!("{which}({section}, {d})"),
            of: if *sec == self.full_section(var) {
                decl.name.clone()
            } else {
                section
            },
        })
    }

    /// `iown(X)`.
    pub fn iown(&mut self, var: VarId, sec: &Section) -> Result<RuleVal, RtError> {
        self.charge_intrinsic(var)?;
        Ok(RuleVal::of(self.symtab.iown(var, sec)))
    }

    /// `accessible(X)`.
    pub fn accessible(&mut self, var: VarId, sec: &Section) -> Result<RuleVal, RtError> {
        self.charge_intrinsic(var)?;
        Ok(RuleVal::of(self.symtab.accessible(var, sec)))
    }

    /// `await(X)`: false if unowned, blocks while transitional, true when
    /// accessible.
    pub fn await_(&mut self, var: VarId, sec: &Section) -> Result<RuleVal, RtError> {
        self.charge_intrinsic(var)?;
        Ok(match self.symtab.state_of(var, sec) {
            SecState::Unowned => RuleVal::False,
            SecState::Transitional => RuleVal::Block(var, sec.clone()),
            SecState::Accessible => RuleVal::True,
        })
    }

    /// An integer comparison in a compute rule, on evaluated operands.
    pub fn compare(&mut self, op: CmpOp, a: i64, b: i64) -> RuleVal {
        self.ops.flops += 1;
        RuleVal::of(op.eval(a, b))
    }

    /// Resolve a section reference to a concrete `(variable, section)`.
    pub fn eval_section(&mut self, r: &SectionRef) -> Result<(VarId, Section), RtError> {
        let bounds = self.decls[r.var.index()].bounds.clone();
        let mut dims = Vec::with_capacity(r.subs.len());
        for (d, s) in r.subs.iter().enumerate() {
            dims.push(match s {
                Subscript::Point(e) => Triplet::point(self.eval_int_in(e, true)?),
                Subscript::All => bounds[d],
                Subscript::Range(t) => {
                    let lb = self.eval_int_in(&t.lb, true)?;
                    let ub = self.eval_int_in(&t.ub, true)?;
                    let st = self.eval_int_in(&t.st, true)?;
                    Triplet::new(lb, ub, st)
                }
            });
        }
        Ok((r.var, Section::new(dims)))
    }

    /// Evaluate a compute rule (§2.4). `And`/`Or` short-circuit; a `Block`
    /// result propagates so the statement re-evaluates after waking.
    pub fn eval_rule(&mut self, e: &BoolExpr) -> Result<RuleVal, RtError> {
        Ok(match e {
            BoolExpr::True => RuleVal::True,
            BoolExpr::False => RuleVal::False,
            BoolExpr::Iown(r) => {
                let (var, sec) = self.eval_section(r)?;
                self.iown(var, &sec)?
            }
            BoolExpr::Accessible(r) => {
                let (var, sec) = self.eval_section(r)?;
                self.accessible(var, &sec)?
            }
            BoolExpr::Await(r) => {
                let (var, sec) = self.eval_section(r)?;
                self.await_(var, &sec)?
            }
            BoolExpr::Cmp(op, a, b) => {
                let (a, b) = (self.eval_int(a)?, self.eval_int(b)?);
                self.compare(*op, a, b)
            }
            BoolExpr::And(a, b) => match self.eval_rule(a)? {
                RuleVal::False => RuleVal::False,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
                RuleVal::True => self.eval_rule(b)?,
            },
            BoolExpr::Or(a, b) => match self.eval_rule(a)? {
                RuleVal::True => RuleVal::True,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
                RuleVal::False => self.eval_rule(b)?,
            },
            BoolExpr::Not(a) => match self.eval_rule(a)? {
                RuleVal::True => RuleVal::False,
                RuleVal::False => RuleVal::True,
                RuleVal::Block(v, s) => RuleVal::Block(v, s),
            },
        })
    }

    /// Gather a readable section into a row-major buffer. Exclusive
    /// variables read from owned storage; universal variables from the
    /// local copy.
    pub fn read_section(&mut self, var: VarId, sec: &Section) -> Result<Buffer, RtError> {
        let decl = &self.decls[var.index()];
        if decl.ownership == Ownership::Universal {
            let mut out = Buffer::zeros(decl.elem, sec.volume() as usize);
            self.read_universal(var, sec, &mut out)?;
            return Ok(out);
        }
        self.check_read(var, sec)?;
        self.ops.flops += sec.volume() as u64;
        self.symtab
            .read_section(var, sec)
            .ok_or_else(|| RtError::UnownedRead {
                pid: self.pid,
                var,
                sec: sec.clone(),
            })
    }

    /// Gather a section of universal `var` into `out`, sized to it.
    pub fn read_universal(
        &mut self,
        var: VarId,
        sec: &Section,
        out: &mut Buffer,
    ) -> Result<(), RtError> {
        for (ord, idx) in sec.iter().enumerate() {
            let o = self
                .universal_ordinal(var, &idx)
                .ok_or_else(|| RtError::UnownedRead {
                    pid: self.pid,
                    var,
                    sec: sec.clone(),
                })?;
            out.set(ord, self.universal[var.index()].as_ref().unwrap().get(o));
        }
        self.ops.flops += sec.volume() as u64;
        Ok(())
    }

    /// Checked mode: reading an exclusive section that is transitional
    /// (value unpredictable) or not owned here is an error.
    pub fn check_read(&self, var: VarId, sec: &Section) -> Result<(), RtError> {
        if !self.checked {
            return Ok(());
        }
        match self.symtab.classify(var, sec).0 {
            SecState::Accessible => Ok(()),
            SecState::Transitional => Err(RtError::TransitionalRead {
                pid: self.pid,
                var,
                sec: sec.clone(),
            }),
            SecState::Unowned => Err(RtError::UnownedRead {
                pid: self.pid,
                var,
                sec: sec.clone(),
            }),
        }
    }

    /// Scatter a buffer into a writable section.
    pub fn write_section(
        &mut self,
        var: VarId,
        sec: &Section,
        buf: &Buffer,
    ) -> Result<(), RtError> {
        let decl = &self.decls[var.index()];
        self.ops.flops += sec.volume() as u64;
        if decl.ownership == Ownership::Universal {
            for (ord, idx) in sec.iter().enumerate() {
                let o = self
                    .universal_ordinal(var, &idx)
                    .ok_or_else(|| RtError::UnownedWrite {
                        pid: self.pid,
                        var,
                        sec: sec.clone(),
                    })?;
                self.universal[var.index()]
                    .as_mut()
                    .unwrap()
                    .set(o, buf.get(ord));
            }
            return Ok(());
        }
        if self.symtab.write_section(var, sec, buf) {
            Ok(())
        } else {
            Err(RtError::UnownedWrite {
                pid: self.pid,
                var,
                sec: sec.clone(),
            })
        }
    }

    /// Execute an element-wise assignment `target = rhs`.
    pub fn exec_assign(&mut self, target: &SectionRef, rhs: &ElemExpr) -> Result<(), RtError> {
        let (tvar, tsec) = self.eval_section(target)?;
        let vol = tsec.volume();
        let result = self.eval_elem(rhs, vol, &tsec)?;
        self.write_section(tvar, &tsec, &result)
    }

    /// Evaluate an element expression to a buffer of `vol` elements
    /// (scalar results broadcast).
    fn eval_elem(&mut self, e: &ElemExpr, vol: i64, tsec: &Section) -> Result<Buffer, RtError> {
        match e {
            ElemExpr::Ref(r) => {
                let (var, sec) = self.eval_section(r)?;
                if sec.volume() != vol && sec.volume() != 1 {
                    return Err(RtError::NotConformable {
                        lhs: tsec.clone(),
                        rhs: sec,
                    });
                }
                let buf = self.read_section(var, &sec)?;
                if buf.len() as i64 == vol {
                    Ok(buf)
                } else {
                    // Broadcast a single element.
                    let mut out = Buffer::zeros(buf.ty(), vol as usize);
                    for i in 0..vol as usize {
                        out.set(i, buf.get(0));
                    }
                    Ok(out)
                }
            }
            ElemExpr::LitF(v) => {
                let mut out = Buffer::zeros(xdp_ir::ElemType::F64, vol as usize);
                for i in 0..vol as usize {
                    out.set(i, Value::F64(*v));
                }
                Ok(out)
            }
            ElemExpr::LitI(v) => {
                let mut out = Buffer::zeros(xdp_ir::ElemType::I64, vol as usize);
                for i in 0..vol as usize {
                    out.set(i, Value::I64(*v));
                }
                Ok(out)
            }
            ElemExpr::FromInt(ie) => {
                let v = self.eval_int(ie)?;
                let mut out = Buffer::zeros(xdp_ir::ElemType::I64, vol as usize);
                for i in 0..vol as usize {
                    out.set(i, Value::I64(v));
                }
                Ok(out)
            }
            ElemExpr::Neg(a) => {
                let mut buf = self.eval_elem(a, vol, tsec)?;
                self.ops.flops += vol as u64;
                for i in 0..vol as usize {
                    let v = Value::neg(buf.get(i));
                    buf.set(i, v);
                }
                Ok(buf)
            }
            ElemExpr::Bin(op, a, b) => {
                let ba = self.eval_elem(a, vol, tsec)?;
                let bb = self.eval_elem(b, vol, tsec)?;
                self.ops.flops += vol as u64;
                let f = match op {
                    ElemBinOp::Add => Value::add,
                    ElemBinOp::Sub => Value::sub,
                    ElemBinOp::Mul => Value::mul,
                    ElemBinOp::Div => Value::div,
                };
                let ty = Value::promote(ba.ty(), bb.ty());
                let mut out = Buffer::zeros(ty, vol as usize);
                for i in 0..vol as usize {
                    out.set(i, f(ba.get(i), bb.get(i)));
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn env(pid: usize) -> ProcEnv {
        let decls: Arc<[Decl]> = vec![
            b::array(
                "A",
                ElemType::F64,
                vec![(1, 8)],
                vec![DimDist::Block],
                ProcGrid::linear(4),
            ),
            b::universal_array("U", ElemType::F64, vec![(1, 8)]),
        ]
        .into();
        ProcEnv::new(pid, 4, decls, true)
    }

    #[test]
    fn eval_int_basics() {
        let mut e = env(2);
        assert_eq!(e.eval_int(&b::mypid()).unwrap(), 2);
        e.scalars.insert("i".into(), 5);
        assert_eq!(e.eval_int(&b::iv("i").add(b::c(3))).unwrap(), 8);
        assert!(matches!(
            e.eval_int(&b::iv("zz")),
            Err(RtError::UndefinedScalar(_))
        ));
    }

    #[test]
    fn eval_mylb_myub() {
        let mut e = env(1); // P1 owns A[3:4]
        let a = VarId(0);
        let full = b::sref(a, vec![b::all()]);
        assert_eq!(e.eval_int(&b::mylb(full.clone(), 1)).unwrap(), 3);
        assert_eq!(e.eval_int(&b::myub(full, 1)).unwrap(), 4);
        // Intrinsic on universal is an error.
        let u = b::sref(VarId(1), vec![b::all()]);
        assert!(matches!(
            e.eval_int(&b::mylb(u, 1)),
            Err(RtError::IntrinsicOnUniversal(_))
        ));
    }

    #[test]
    fn eval_sections_with_subscripts() {
        let mut e = env(0);
        e.scalars.insert("i".into(), 3);
        let r = b::sref(VarId(0), vec![b::span_st(b::c(1), b::iv("i"), b::c(2))]);
        let (v, sec) = e.eval_section(&r).unwrap();
        assert_eq!(v, VarId(0));
        assert_eq!(sec, Section::new(vec![Triplet::new(1, 3, 2)]));
        let (_, all) = e.eval_section(&b::sref(VarId(0), vec![b::all()])).unwrap();
        assert_eq!(all, Section::new(vec![Triplet::range(1, 8)]));
    }

    #[test]
    fn rules_follow_ownership() {
        let mut e = env(1); // P1 owns A[3:4]
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        let other = b::sref(VarId(0), vec![b::span(b::c(1), b::c(2))]);
        assert_eq!(e.eval_rule(&b::iown(own.clone())).unwrap(), RuleVal::True);
        assert_eq!(
            e.eval_rule(&b::iown(other.clone())).unwrap(),
            RuleVal::False
        );
        assert_eq!(e.eval_rule(&b::await_(other)).unwrap(), RuleVal::False);
        assert_eq!(e.eval_rule(&b::await_(own.clone())).unwrap(), RuleVal::True);
        // Short-circuit and.
        let rule = b::iown(own.clone()).and(BoolExpr::False);
        assert_eq!(e.eval_rule(&rule).unwrap(), RuleVal::False);
        assert_eq!(
            e.eval_rule(&BoolExpr::Not(Box::new(BoolExpr::False)))
                .unwrap(),
            RuleVal::True
        );
    }

    #[test]
    fn await_blocks_on_transitional() {
        let mut e = env(1);
        let sec = Section::new(vec![Triplet::range(3, 4)]);
        e.symtab.begin_value_recv(VarId(0), &sec).unwrap();
        let r = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        assert_eq!(
            e.eval_rule(&b::await_(r.clone())).unwrap(),
            RuleVal::Block(VarId(0), sec.clone())
        );
        assert_eq!(e.eval_rule(&b::accessible(r)).unwrap(), RuleVal::False);
    }

    #[test]
    fn assign_local_exclusive() {
        let mut e = env(1); // owns A[3:4]
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        e.exec_assign(&own, &ElemExpr::LitF(2.5))
            .map_err(|x| panic!("{x}"))
            .ok();
        assert_eq!(e.symtab.read(VarId(0), &[3]), Some(Value::F64(2.5)));
        // A[3:4] = A[3:4] + A[3:4]
        e.exec_assign(&own, &b::val(own.clone()).add(b::val(own.clone())))
            .unwrap();
        assert_eq!(e.symtab.read(VarId(0), &[4]), Some(Value::F64(5.0)));
    }

    #[test]
    fn assign_unowned_is_error() {
        let mut e = env(1);
        let other = b::sref(VarId(0), vec![b::span(b::c(1), b::c(2))]);
        assert!(matches!(
            e.exec_assign(&other, &ElemExpr::LitF(1.0)),
            Err(RtError::UnownedWrite { .. })
        ));
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        assert!(matches!(
            e.exec_assign(&own, &b::val(other)),
            Err(RtError::UnownedRead { .. })
        ));
    }

    #[test]
    fn universal_assign_is_local_everywhere() {
        for pid in 0..4 {
            let mut e = env(pid);
            let u = b::sref(VarId(1), vec![b::all()]);
            e.exec_assign(&u, &ElemExpr::FromInt(b::mypid())).unwrap();
            let buf = e.read_section(VarId(1), &e.full_section(VarId(1))).unwrap();
            assert_eq!(buf.get(7), Value::I64(pid as i64).coerce(ElemType::F64));
        }
    }

    #[test]
    fn broadcast_scalar_rhs() {
        let mut e = env(1);
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        let one = b::sref(VarId(0), vec![b::at(b::c(3))]);
        e.exec_assign(&own, &ElemExpr::LitF(7.0)).unwrap();
        // A[3:4] = A[3] + 1  (A[3] broadcast over 2 elements)
        e.exec_assign(&own, &b::val(one).add(ElemExpr::LitF(1.0)))
            .unwrap();
        assert_eq!(e.symtab.read(VarId(0), &[3]), Some(Value::F64(8.0)));
        assert_eq!(e.symtab.read(VarId(0), &[4]), Some(Value::F64(8.0)));
    }

    #[test]
    fn nonconformable_is_error() {
        let mut e = env(1);
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        let tri = b::sref(VarId(1), vec![b::span(b::c(1), b::c(3))]);
        assert!(matches!(
            e.exec_assign(&own, &b::val(tri)),
            Err(RtError::NotConformable { .. })
        ));
    }

    #[test]
    fn checked_mode_flags_transitional_read() {
        let mut e = env(1);
        let sec = Section::new(vec![Triplet::range(3, 4)]);
        e.symtab.begin_value_recv(VarId(0), &sec).unwrap();
        assert!(matches!(
            e.read_section(VarId(0), &sec),
            Err(RtError::TransitionalRead { .. })
        ));
        // Unchecked mode reads the (unpredictable) current contents.
        e.checked = false;
        assert!(e.read_section(VarId(0), &sec).is_ok());
    }

    #[test]
    fn ops_counters_accumulate() {
        let mut e = env(1);
        let own = b::sref(VarId(0), vec![b::span(b::c(3), b::c(4))]);
        let _ = e.eval_rule(&b::iown(own.clone())).unwrap();
        let c = e.drain_ops();
        assert_eq!(c.symtab_ops, 1);
        e.exec_assign(&own, &b::val(own.clone()).add(ElemExpr::LitF(1.0)))
            .unwrap();
        let c2 = e.drain_ops();
        assert!(c2.flops >= 4);
        assert_eq!(e.ops.flops, 0);
    }
}
