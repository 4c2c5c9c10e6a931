//! XDP statements and programs.
//!
//! The statement forms follow §2.5–§2.7 of the paper:
//!
//! * data send `E ->` / `E -> S`, ownership send `E =>`, combined `E -=>`;
//! * data receive `E <- X`, ownership receive `U <=`, combined `U <=-`;
//! * compute-rule guarded statements `rule : { ... }`;
//! * ordinary IL statements (assignments, do-loops, kernel calls).
//!
//! Programs are SPMD: the whole [`Program`] is loaded onto every processor.

use crate::dist::Distribution;
use crate::expr::{BoolExpr, ElemExpr, IntExpr, SectionRef};
use crate::types::{ElemType, VarId};

/// Whether a variable's elements are exclusively owned (one processor each)
/// or universally owned (each processor has its own copy) — §2.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ownership {
    /// Every element exclusively owned by a single processor; tracked in the
    /// run-time symbol table; transferable.
    Exclusive,
    /// Every processor has a private copy; values may diverge; never
    /// communicated directly.
    Universal,
}

/// What a transfer statement moves (§2.6–§2.7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransferKind {
    /// `->` / `<-`: the value only.
    Value,
    /// `=>` / `<=`: the ownership only.
    Ownership,
    /// `-=>` / `<=-`: ownership and value together.
    OwnershipValue,
}

impl TransferKind {
    /// Does this transfer move ownership?
    pub fn moves_ownership(self) -> bool {
        !matches!(self, TransferKind::Value)
    }
}

/// Destination annotation of a send.
///
/// A bare `E ->` has destination [`DestSet::Unspecified`]: the message goes
/// to whichever processor initiates a matching receive (rendezvous by name).
/// The compiler's delayed communication binding (§3.2) may later annotate
/// the send with explicit receiver pids.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DestSet {
    /// `E ->` — matched at run time purely by name.
    Unspecified,
    /// `E -> S` — explicit processor id expressions (singleton = point to
    /// point, several = multicast).
    Pids(Vec<IntExpr>),
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// An IL+XDP statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// Element-wise assignment `target = rhs` over conformable sections.
    Assign { target: SectionRef, rhs: ElemExpr },
    /// Assignment to a universally owned integer scalar.
    ScalarAssign { var: String, value: IntExpr },
    /// Invocation of a named local kernel, e.g. `fft1D(A[i,*,k])`.
    /// `int_args` passes scalar parameters (e.g. a synthetic work cost).
    Kernel {
        name: String,
        args: Vec<SectionRef>,
        int_args: Vec<IntExpr>,
    },
    /// Send statement: `sec ->` (Value, Unspecified), `sec -> S` (Value,
    /// Pids), `sec =>` (Ownership), `sec -=>` (OwnershipValue).
    /// Ownership sends block until `sec` is accessible (§2.6).
    /// `salt` is the compiler-generated message type (§4's auxiliary
    /// send/receive linking structure); `None` = plain name matching.
    Send {
        sec: SectionRef,
        kind: TransferKind,
        dest: DestSet,
        salt: Option<IntExpr>,
    },
    /// Receive statement: `target <- name` (Value), `target <=`
    /// (Ownership), `target <=-` (OwnershipValue). For ownership receives
    /// the received name is the target itself (`U <= ` / `U <=-`), so
    /// `name` is `None`. `salt` must mirror the matching send's.
    Recv {
        target: SectionRef,
        kind: TransferKind,
        name: Option<SectionRef>,
        salt: Option<IntExpr>,
    },
    /// Compute-rule guarded block: `rule : { body }`.
    Guarded { rule: BoolExpr, body: Block },
    /// `do var = lo, hi [, step] { body }`.
    DoLoop {
        var: String,
        lo: IntExpr,
        hi: IntExpr,
        step: IntExpr,
        body: Block,
    },
    /// Global barrier — a run-time extension used to delimit program phases
    /// in tests and experiments. The paper leaves all synchronization to the
    /// compiler; the barrier is one of the primitives a compiler may bind
    /// (it is never inserted by the optimization passes themselves).
    Barrier,
    /// Collective redistribution: move exclusive variable `var` from its
    /// current distribution to `dist`. Semantically equal to the explicit
    /// ownership-migration loop nest (`-=>` / `<=-` per element, as in §4's
    /// FFT), but represented as one node so the `xdp-collectives` planner
    /// can choose the message schedule. Every processor must execute the
    /// statement (it is a collective).
    Redistribute { var: VarId, dist: Distribution },
}

impl Stmt {
    /// The name the receive matches on: the explicit `name` for value
    /// receives, the target itself for ownership receives.
    pub fn recv_match_name(target: &SectionRef, name: &Option<SectionRef>) -> SectionRef {
        name.clone().unwrap_or_else(|| target.clone())
    }

    /// The statements nested under this one: a guard's or a loop's body.
    pub fn body(&self) -> &[Stmt] {
        match self {
            Stmt::Guarded { body, .. } | Stmt::DoLoop { body, .. } => body,
            _ => &[],
        }
    }

    /// [`Stmt::body`], to rewrite; `None` for a statement that has none.
    pub fn body_mut(&mut self) -> Option<&mut Block> {
        match self {
            Stmt::Guarded { body, .. } | Stmt::DoLoop { body, .. } => Some(body),
            _ => None,
        }
    }

    /// Visit every statement in this subtree, preorder.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        visit_block(self.body(), f);
    }

    /// Number of statements in this subtree (self included) — the width
    /// of the preorder-id range the statement occupies.
    pub fn subtree_size(&self) -> usize {
        let mut n = 0usize;
        self.visit(&mut |_| n += 1);
        n
    }
}

/// Preorder statement ids for the statements of a block whose first
/// statement has id `base`.
///
/// Statement ids number every statement of a program in preorder:
/// `Program.body[0]` is 0 and a compound statement with id `g` gives its
/// first child id `g + 1`. The ids of `block[k]` is therefore `base` plus
/// the subtree sizes of the preceding siblings. Executors use this to tag
/// every trace event with the statement that caused it without storing
/// ids in the IR itself.
pub fn block_stmt_ids(base: u32, block: &[Stmt]) -> Vec<u32> {
    let mut ids = Vec::with_capacity(block.len());
    let mut next = base;
    for s in block {
        ids.push(next);
        next += s.subtree_size() as u32;
    }
    ids
}

/// Visit every statement in a block, preorder.
fn visit_block<'a>(block: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in block {
        s.visit(f);
    }
}

/// A variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct Decl {
    /// Source-level name (`A`, `B`, `T`, ...).
    pub name: String,
    /// Element type.
    pub elem: ElemType,
    /// Global index bounds, one triplet (`lb:ub`, stride 1) per dimension.
    /// Empty for scalars.
    pub bounds: Vec<crate::triplet::Triplet>,
    /// Exclusive or universal ownership.
    pub ownership: Ownership,
    /// Initial distribution (exclusive variables only).
    pub dist: Option<Distribution>,
    /// Per-dimension *local* segment shape chosen by the compiler (§3.1);
    /// `None` means one segment per owned rectangle.
    pub segment_shape: Option<Vec<i64>>,
}

impl Decl {
    /// Array rank (0 for scalars).
    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    /// Is this an exclusive variable (tracked in the run-time symbol
    /// table)?
    pub fn is_exclusive(&self) -> bool {
        self.ownership == Ownership::Exclusive
    }
}

/// A whole SPMD program: declarations plus a statement block, loaded
/// identically onto every processor.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// Declarations; `VarId(i)` names `decls[i]`.
    pub decls: Vec<Decl>,
    /// The program body.
    pub body: Block,
}

impl Program {
    /// Empty program.
    pub fn new() -> Program {
        Program {
            decls: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Add a declaration, returning its id.
    pub fn declare(&mut self, decl: Decl) -> VarId {
        assert!(
            self.decls.iter().all(|d| d.name != decl.name),
            "duplicate declaration of {}",
            decl.name
        );
        if decl.ownership == Ownership::Exclusive {
            assert!(
                decl.dist.is_some(),
                "exclusive variable {} needs a distribution",
                decl.name
            );
            if let Some(d) = &decl.dist {
                assert_eq!(
                    d.rank(),
                    decl.bounds.len(),
                    "distribution rank mismatch for {}",
                    decl.name
                );
            }
        }
        let id = VarId(self.decls.len() as u32);
        self.decls.push(decl);
        id
    }

    /// The declaration behind a [`VarId`].
    pub fn decl(&self, v: VarId) -> &Decl {
        &self.decls[v.index()]
    }

    /// Find a variable by source name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.decls
            .iter()
            .position(|d| d.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Visit every statement, preorder.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        visit_block(&self.body, f);
    }

    /// The size of every processor grid a declaration distributes onto, in
    /// declaration order.
    pub fn grid_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        (self.decls.iter()).filter_map(|d| d.dist.as_ref().map(Distribution::nprocs))
    }

    /// The machine the program is written for: the largest grid any
    /// declaration distributes onto. `None` when nothing is distributed.
    pub fn machine_size(&self) -> Option<usize> {
        self.grid_sizes().max()
    }

    /// Count statements of each broad kind — used by pass reports and
    /// tests ("the optimized program has no guards / fewer sends").
    pub fn stmt_census(&self) -> StmtCensus {
        let mut c = StmtCensus::default();
        self.visit(&mut |s| match s {
            Stmt::Assign { .. } | Stmt::ScalarAssign { .. } => c.assigns += 1,
            Stmt::Kernel { .. } => c.kernels += 1,
            Stmt::Send { .. } => c.sends += 1,
            Stmt::Recv { .. } => c.recvs += 1,
            Stmt::Guarded { .. } => c.guards += 1,
            Stmt::DoLoop { .. } => c.loops += 1,
            Stmt::Barrier => c.barriers += 1,
            Stmt::Redistribute { .. } => c.redistributes += 1,
        });
        c
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

/// Statement counts per kind.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StmtCensus {
    pub assigns: usize,
    pub kernels: usize,
    pub sends: usize,
    pub recvs: usize,
    pub guards: usize,
    pub loops: usize,
    pub barriers: usize,
    pub redistributes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DimDist;
    use crate::expr::Subscript;
    use crate::grid::ProcGrid;
    use crate::triplet::Triplet;

    fn decl_1d(name: &str, n: i64, nprocs: usize) -> Decl {
        Decl {
            name: name.into(),
            elem: ElemType::F64,
            bounds: vec![Triplet::range(1, n)],
            ownership: Ownership::Exclusive,
            dist: Some(Distribution::new(
                vec![DimDist::Block],
                ProcGrid::linear(nprocs),
            )),
            segment_shape: None,
        }
    }

    #[test]
    fn declare_and_lookup() {
        let mut p = Program::new();
        let a = p.declare(decl_1d("A", 16, 4));
        let b = p.declare(decl_1d("B", 16, 4));
        assert_eq!(p.lookup("A"), Some(a));
        assert_eq!(p.lookup("B"), Some(b));
        assert_eq!(p.lookup("C"), None);
        assert_eq!(p.decl(a).name, "A");
    }

    #[test]
    #[should_panic]
    fn duplicate_declaration_panics() {
        let mut p = Program::new();
        p.declare(decl_1d("A", 16, 4));
        p.declare(decl_1d("A", 16, 4));
    }

    #[test]
    #[should_panic]
    fn exclusive_without_distribution_panics() {
        let mut p = Program::new();
        p.declare(Decl {
            name: "A".into(),
            elem: ElemType::F64,
            bounds: vec![Triplet::range(1, 4)],
            ownership: Ownership::Exclusive,
            dist: None,
            segment_shape: None,
        });
    }

    #[test]
    fn census_counts_nested() {
        let mut p = Program::new();
        let a = p.declare(decl_1d("A", 16, 4));
        let aref = SectionRef::new(a, vec![Subscript::Point(IntExpr::Var("i".into()))]);
        p.body = vec![Stmt::DoLoop {
            var: "i".into(),
            lo: IntExpr::Const(1),
            hi: IntExpr::Const(16),
            step: IntExpr::Const(1),
            body: vec![Stmt::Guarded {
                rule: BoolExpr::Iown(aref.clone()),
                body: vec![
                    Stmt::Send {
                        sec: aref.clone(),
                        kind: TransferKind::Value,
                        dest: DestSet::Unspecified,
                        salt: None,
                    },
                    Stmt::Assign {
                        target: aref.clone(),
                        rhs: ElemExpr::Ref(aref.clone()),
                    },
                ],
            }],
        }];
        let c = p.stmt_census();
        assert_eq!(c.loops, 1);
        assert_eq!(c.guards, 1);
        assert_eq!(c.sends, 1);
        assert_eq!(c.assigns, 1);
        assert_eq!(c.recvs, 0);
    }

    #[test]
    fn preorder_ids_skip_subtrees() {
        let mut p = Program::new();
        let a = p.declare(decl_1d("A", 16, 4));
        let aref = SectionRef::new(a, vec![Subscript::Point(IntExpr::Var("i".into()))]);
        let send = Stmt::Send {
            sec: aref.clone(),
            kind: TransferKind::Value,
            dest: DestSet::Unspecified,
            salt: None,
        };
        // s0: do loop; s1: guard; s2: send; s3: barrier (top level).
        let guard = Stmt::Guarded {
            rule: BoolExpr::Iown(aref.clone()),
            body: vec![send.clone()],
        };
        let lp = Stmt::DoLoop {
            var: "i".into(),
            lo: IntExpr::Const(1),
            hi: IntExpr::Const(16),
            step: IntExpr::Const(1),
            body: vec![guard.clone()],
        };
        assert_eq!(send.subtree_size(), 1);
        assert_eq!(guard.subtree_size(), 2);
        assert_eq!(lp.subtree_size(), 3);
        let body = vec![lp, Stmt::Barrier];
        assert_eq!(block_stmt_ids(0, &body), vec![0, 3]);
        assert_eq!(block_stmt_ids(1, &[guard.clone(), send]), vec![1, 3]);
    }

    #[test]
    fn transfer_kind_flags() {
        assert!(TransferKind::OwnershipValue.moves_ownership());
        assert!(!TransferKind::Value.moves_ownership());
        assert!(TransferKind::Ownership.moves_ownership());
    }

    #[test]
    fn recv_match_name() {
        let t = SectionRef::scalar(VarId(0));
        let n = SectionRef::scalar(VarId(1));
        assert_eq!(Stmt::recv_match_name(&t, &Some(n.clone())), n);
        assert_eq!(Stmt::recv_match_name(&t, &None), t);
    }
}
