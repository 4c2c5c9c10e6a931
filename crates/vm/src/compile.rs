//! Ahead-of-time compilation of an IL+XDP program to VM code.
//!
//! Compilation is *resolution*, not transformation: the compiled form
//! executes exactly the statements the interpreter would, in the same
//! order, with the same charged operation counts — it just pays the
//! lookup costs (scalar names, kernel names, constant subscripts) once
//! instead of on every execution.

use std::collections::HashMap;
use std::sync::Arc;
use xdp_core::{Kernel, KernelRegistry};
use xdp_ir::{
    BoolExpr, CmpOp, Decl, DestSet, Distribution, ElemBinOp, ElemExpr, IntBinOp, IntExpr, Program,
    Section, SectionRef, Stmt, Subscript, TransferKind, Triplet, VarId,
};

/// Interned scalar-variable names: the VM's register file layout.
///
/// Slot ids are dense and stable; the per-processor register file is a
/// `Vec<Option<i64>>` indexed by slot. Statements lowered at run time by
/// `redistribute` may intern additional names, growing a processor's
/// private copy.
#[derive(Clone, Debug, Default)]
pub struct SlotMap {
    index: HashMap<String, usize>,
    names: Vec<Arc<str>>,
}

impl SlotMap {
    /// Slot id for `name`, allocating one if new.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(Arc::from(name));
        self.index.insert(name.to_string(), i);
        i
    }

    /// Number of slots allocated.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name interned at slot `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }
}

/// A compiled integer expression. Identical evaluation semantics (and
/// charged ops) to [`IntExpr`] under the interpreter, with scalar
/// variables resolved to register slots.
#[derive(Clone, Debug)]
pub enum CInt {
    Const(i64),
    Slot(usize),
    MyPid,
    MyLb(Box<CSec>, u32),
    MyUb(Box<CSec>, u32),
    Neg(Box<CInt>),
    Bin(IntBinOp, Box<CInt>, Box<CInt>),
}

/// One compiled subscript dimension.
#[derive(Clone, Debug)]
pub enum CSub {
    /// Constant at compile time (literal point, `*`, or constant range).
    Fixed(Triplet),
    Point(CInt),
    Range(CInt, CInt, CInt),
}

/// A compiled section reference. When every subscript folded, `konst`
/// holds the pre-built section and evaluation is a clone.
#[derive(Clone, Debug)]
pub struct CSec {
    pub var: VarId,
    pub subs: Vec<CSub>,
    pub konst: Option<Section>,
}

/// A compiled compute rule.
#[derive(Clone, Debug)]
pub enum CRule {
    Const(bool),
    Iown(CSec),
    Accessible(CSec),
    Await(CSec),
    Cmp(CmpOp, Box<CInt>, Box<CInt>),
    And(Box<CRule>, Box<CRule>),
    Or(Box<CRule>, Box<CRule>),
    Not(Box<CRule>),
}

/// A compiled element expression.
#[derive(Clone, Debug)]
pub enum CElem {
    Ref(CSec),
    LitF(f64),
    LitI(i64),
    FromInt(Box<CInt>),
    Neg(Box<CElem>),
    Bin(ElemBinOp, Box<CElem>, Box<CElem>),
}

/// One compiled statement: the operation plus the source statement's
/// preorder id (statements lowered from a `redistribute` inherit its id,
/// exactly as in the interpreter).
#[derive(Clone, Debug)]
pub struct VmStmt {
    pub sid: u32,
    pub op: VmOp,
}

/// Compiled statement operations, mirroring [`Stmt`] one-for-one.
#[derive(Clone)]
pub enum VmOp {
    Assign {
        target: CSec,
        rhs: CElem,
    },
    ScalarAssign {
        slot: usize,
        value: CInt,
    },
    Kernel {
        name: Arc<str>,
        /// Pre-resolved at compile time; `None` defers the unknown-kernel
        /// error to execution, where the interpreter raises it.
        kernel: Option<Arc<dyn Kernel>>,
        args: Vec<CSec>,
        int_args: Vec<CInt>,
    },
    Send {
        sec: CSec,
        kind: TransferKind,
        dest: Option<Vec<CInt>>,
        salt: Option<CInt>,
    },
    Recv {
        target: CSec,
        kind: TransferKind,
        name: Option<CSec>,
        salt: Option<CInt>,
    },
    Guarded {
        rule: CRule,
        body: Arc<[VmStmt]>,
    },
    DoLoop {
        slot: usize,
        var: Arc<str>,
        lo: CInt,
        hi: CInt,
        step: CInt,
        body: Arc<[VmStmt]>,
    },
    Barrier,
    Redistribute {
        var: VarId,
        dist: Distribution,
    },
}

impl std::fmt::Debug for VmOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmOp::Assign { .. } => write!(f, "Assign"),
            VmOp::ScalarAssign { slot, .. } => write!(f, "ScalarAssign(slot {slot})"),
            VmOp::Kernel { name, .. } => write!(f, "Kernel({name})"),
            VmOp::Send { kind, .. } => write!(f, "Send({kind:?})"),
            VmOp::Recv { kind, .. } => write!(f, "Recv({kind:?})"),
            VmOp::Guarded { body, .. } => write!(f, "Guarded({} stmts)", body.len()),
            VmOp::DoLoop { var, .. } => write!(f, "DoLoop({var})"),
            VmOp::Barrier => write!(f, "Barrier"),
            VmOp::Redistribute { var, .. } => write!(f, "Redistribute({var})"),
        }
    }
}

/// A compiled program, shared (via `Arc`) by every processor of a machine.
#[derive(Debug)]
pub struct VmProgram {
    /// The prepared source program (for executors that introspect it).
    pub program: Arc<Program>,
    /// Shared declarations (what [`xdp_core::ProcEnv`] is built from).
    pub decls: Arc<[Decl]>,
    /// Compiled top-level body.
    pub code: Arc<[VmStmt]>,
    /// Register layout for scalar variables.
    pub slots: SlotMap,
    /// The kernel registry (needed to compile statements lowered at run
    /// time by `redistribute`).
    pub kernels: KernelRegistry,
}

impl VmProgram {
    /// Compile `program` for execution. Applies the same collective
    /// preparation (`xdp_collectives::prepare_arc`) the interpreter-based
    /// executors apply, so both backends run the identical program.
    pub fn compile(program: Arc<Program>, kernels: &KernelRegistry) -> Arc<VmProgram> {
        let program = xdp_collectives::prepare_arc(program);
        let mut slots = SlotMap::default();
        let code = {
            let mut cx = Cx {
                slots: &mut slots,
                decls: &program.decls,
                kernels,
            };
            compile_block(&mut cx, 0, &program.body)
        };
        let decls: Arc<[Decl]> = program.decls.clone().into();
        Arc::new(VmProgram {
            decls,
            code,
            slots,
            kernels: kernels.clone(),
            program,
        })
    }
}

/// Compilation context.
pub(crate) struct Cx<'a> {
    pub slots: &'a mut SlotMap,
    pub decls: &'a [Decl],
    pub kernels: &'a KernelRegistry,
}

/// Compile a block whose first statement has preorder id `base`.
pub(crate) fn compile_block(cx: &mut Cx<'_>, base: u32, block: &[Stmt]) -> Arc<[VmStmt]> {
    let ids = xdp_ir::block_stmt_ids(base, block);
    block
        .iter()
        .zip(ids)
        .map(|(s, sid)| compile_stmt(cx, sid, s))
        .collect()
}

/// Compile statements lowered at run time by a `redistribute`: every
/// top-level statement inherits the redistribute's own id (`sid`), and
/// nested bodies number from `sid + 1` — the ids the interpreter assigns
/// when it executes the same lowered statements.
pub(crate) fn compile_lowered(cx: &mut Cx<'_>, sid: u32, stmts: &[Stmt]) -> Arc<[VmStmt]> {
    stmts.iter().map(|s| compile_stmt(cx, sid, s)).collect()
}

fn compile_stmt(cx: &mut Cx<'_>, sid: u32, s: &Stmt) -> VmStmt {
    let op = match s {
        Stmt::Assign { target, rhs } => VmOp::Assign {
            target: compile_sec(cx, target),
            rhs: compile_elem(cx, rhs),
        },
        Stmt::ScalarAssign { var, value } => VmOp::ScalarAssign {
            slot: cx.slots.intern(var),
            value: compile_int(cx, value),
        },
        Stmt::Kernel {
            name,
            args,
            int_args,
        } => VmOp::Kernel {
            kernel: cx.kernels.get(name).cloned(),
            name: Arc::from(name.as_str()),
            args: args.iter().map(|a| compile_sec(cx, a)).collect(),
            int_args: int_args.iter().map(|e| compile_int(cx, e)).collect(),
        },
        Stmt::Send {
            sec,
            kind,
            dest,
            salt,
        } => VmOp::Send {
            sec: compile_sec(cx, sec),
            kind: *kind,
            dest: match dest {
                DestSet::Unspecified => None,
                DestSet::Pids(es) => Some(es.iter().map(|e| compile_int(cx, e)).collect()),
            },
            salt: salt.as_ref().map(|e| compile_int(cx, e)),
        },
        Stmt::Recv {
            target,
            kind,
            name,
            salt,
        } => VmOp::Recv {
            target: compile_sec(cx, target),
            kind: *kind,
            name: name.as_ref().map(|n| compile_sec(cx, n)),
            salt: salt.as_ref().map(|e| compile_int(cx, e)),
        },
        Stmt::Guarded { rule, body } => VmOp::Guarded {
            rule: compile_rule(cx, rule),
            body: compile_block(cx, sid + 1, body),
        },
        Stmt::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
        } => VmOp::DoLoop {
            slot: cx.slots.intern(var),
            var: Arc::from(var.as_str()),
            lo: compile_int(cx, lo),
            hi: compile_int(cx, hi),
            step: compile_int(cx, step),
            body: compile_block(cx, sid + 1, body),
        },
        Stmt::Barrier => VmOp::Barrier,
        Stmt::Redistribute { var, dist } => VmOp::Redistribute {
            var: *var,
            dist: dist.clone(),
        },
    };
    VmStmt { sid, op }
}

fn compile_int(cx: &mut Cx<'_>, e: &IntExpr) -> CInt {
    match e {
        IntExpr::Const(c) => CInt::Const(*c),
        IntExpr::Var(name) => CInt::Slot(cx.slots.intern(name)),
        IntExpr::MyPid => CInt::MyPid,
        IntExpr::MyLb(r, d) => CInt::MyLb(Box::new(compile_sec(cx, r)), *d),
        IntExpr::MyUb(r, d) => CInt::MyUb(Box::new(compile_sec(cx, r)), *d),
        IntExpr::Neg(a) => CInt::Neg(Box::new(compile_int(cx, a))),
        // Never fold arithmetic: `Bin` charges one flop per evaluation in
        // the interpreter, and the VM must charge identically.
        IntExpr::Bin(op, a, b) => CInt::Bin(
            *op,
            Box::new(compile_int(cx, a)),
            Box::new(compile_int(cx, b)),
        ),
    }
}

fn compile_sec(cx: &mut Cx<'_>, r: &SectionRef) -> CSec {
    let bounds = &cx.decls[r.var.index()].bounds;
    let subs: Vec<CSub> = r
        .subs
        .iter()
        .enumerate()
        .map(|(d, s)| match s {
            // Literal constants are charge-free in the interpreter, so
            // folding them is cost-neutral. A constant stride < 1 must NOT
            // fold: `Triplet::new` panics, and that panic belongs at the
            // statement's execution (it may sit behind a false guard).
            Subscript::Point(IntExpr::Const(c)) => CSub::Fixed(Triplet::point(*c)),
            Subscript::Point(e) => CSub::Point(compile_int(cx, e)),
            Subscript::All => CSub::Fixed(bounds[d]),
            Subscript::Range(t) => match (&t.lb, &t.ub, &t.st) {
                (IntExpr::Const(lb), IntExpr::Const(ub), IntExpr::Const(st)) if *st >= 1 => {
                    CSub::Fixed(Triplet::new(*lb, *ub, *st))
                }
                _ => CSub::Range(
                    compile_int(cx, &t.lb),
                    compile_int(cx, &t.ub),
                    compile_int(cx, &t.st),
                ),
            },
        })
        .collect();
    let konst = if subs.iter().all(|s| matches!(s, CSub::Fixed(_))) {
        Some(Section::new(
            subs.iter()
                .map(|s| match s {
                    CSub::Fixed(t) => *t,
                    _ => unreachable!(),
                })
                .collect(),
        ))
    } else {
        None
    };
    CSec {
        var: r.var,
        subs,
        konst,
    }
}

fn compile_rule(cx: &mut Cx<'_>, e: &BoolExpr) -> CRule {
    match e {
        BoolExpr::True => CRule::Const(true),
        BoolExpr::False => CRule::Const(false),
        BoolExpr::Iown(r) => CRule::Iown(compile_sec(cx, r)),
        BoolExpr::Accessible(r) => CRule::Accessible(compile_sec(cx, r)),
        BoolExpr::Await(r) => CRule::Await(compile_sec(cx, r)),
        BoolExpr::Cmp(op, a, b) => CRule::Cmp(
            *op,
            Box::new(compile_int(cx, a)),
            Box::new(compile_int(cx, b)),
        ),
        BoolExpr::And(a, b) => {
            CRule::And(Box::new(compile_rule(cx, a)), Box::new(compile_rule(cx, b)))
        }
        BoolExpr::Or(a, b) => {
            CRule::Or(Box::new(compile_rule(cx, a)), Box::new(compile_rule(cx, b)))
        }
        BoolExpr::Not(a) => CRule::Not(Box::new(compile_rule(cx, a))),
    }
}

fn compile_elem(cx: &mut Cx<'_>, e: &ElemExpr) -> CElem {
    match e {
        ElemExpr::Ref(r) => CElem::Ref(compile_sec(cx, r)),
        ElemExpr::LitF(v) => CElem::LitF(*v),
        ElemExpr::LitI(v) => CElem::LitI(*v),
        ElemExpr::FromInt(ie) => CElem::FromInt(Box::new(compile_int(cx, ie))),
        ElemExpr::Neg(a) => CElem::Neg(Box::new(compile_elem(cx, a))),
        ElemExpr::Bin(op, a, b) => CElem::Bin(
            *op,
            Box::new(compile_elem(cx, a)),
            Box::new(compile_elem(cx, b)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    fn program() -> Arc<Program> {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let all = b::sref(a, vec![b::all()]);
        let fixed = b::sref(a, vec![b::span(b::c(1), b::c(4))]);
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![
            b::assign(fixed, xdp_ir::ElemExpr::LitF(1.0)),
            b::do_loop(
                "i",
                b::c(1),
                b::c(8),
                vec![b::assign(ai, xdp_ir::ElemExpr::FromInt(b::iv("i")))],
            ),
            b::assign(all, xdp_ir::ElemExpr::LitF(0.0)),
        ];
        Arc::new(p)
    }

    #[test]
    fn constant_sections_fold() {
        let prog = VmProgram::compile(program(), &KernelRegistry::standard());
        // First assign: [1:4] is constant.
        match &prog.code[0].op {
            VmOp::Assign { target, .. } => {
                assert_eq!(target.konst, Some(Section::new(vec![Triplet::range(1, 4)])));
            }
            other => panic!("{other:?}"),
        }
        // Third assign: `*` folds to declared bounds.
        match &prog.code[2].op {
            VmOp::Assign { target, .. } => {
                assert_eq!(target.konst, Some(Section::new(vec![Triplet::range(1, 8)])));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_variable_gets_slot_and_body_ids_match_interp() {
        let prog = VmProgram::compile(program(), &KernelRegistry::standard());
        match &prog.code[1].op {
            VmOp::DoLoop {
                slot, var, body, ..
            } => {
                assert_eq!(&**var, "i");
                // Body statement id numbers from the loop's id + 1.
                assert_eq!(prog.code[1].sid, 1);
                assert_eq!(body[0].sid, 2);
                // The subscript uses the same slot as the loop variable.
                match &body[0].op {
                    VmOp::Assign { target, .. } => match &target.subs[0] {
                        CSub::Point(CInt::Slot(s)) => assert_eq!(s, slot),
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_kernel_compiles_but_defers_error() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 2)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
        ));
        p.body = vec![b::kernel("nope", vec![b::sref(a, vec![b::all()])])];
        let prog = VmProgram::compile(Arc::new(p), &KernelRegistry::standard());
        match &prog.code[0].op {
            VmOp::Kernel { kernel, name, .. } => {
                assert!(kernel.is_none());
                assert_eq!(&**name, "nope");
            }
            other => panic!("{other:?}"),
        }
    }
}
