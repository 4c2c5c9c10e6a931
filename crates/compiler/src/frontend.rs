//! The owner-computes frontend (§2.2's "straightforward translation").
//!
//! Each assignment `A[g(i)] = f(..., B[f(i)], ...)` becomes, on every
//! processor:
//!
//! ```text
//! iown(B[f(i)]) : { B[f(i)] -> }
//! iown(A[g(i)]) : {
//!     _T0[mypid] <- B[f(i)]
//!     await(_T0[mypid]) : { A[g(i)] = f(..., _T0[mypid], ...) }
//! }
//! ```
//!
//! — the owner of each remote operand sends it into the ether; the owner of
//! the target receives it into a per-processor temporary (`T[mypid]` in the
//! paper), awaits it, and computes. The translation is deliberately naive:
//! it communicates *every* exclusive operand that is not syntactically the
//! target itself, even when owners coincide. Removing that redundancy is
//! the optimizer's job, exactly as in the paper.

use xdp_ir::build as b;
use xdp_ir::{
    Block, BoolExpr, Decl, DimDist, Distribution, ElemExpr, Ownership, ProcGrid, Program,
    SectionRef, Stmt, Triplet, VarId,
};

/// A named rejection of a program the owner-computes frontend cannot
/// lower, reported by `xdpc` (and any embedding) as an ordinary diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FrontendError {
    /// The input is the paper's starting point — "the original shared
    /// memory program ... replicated along with all its data" (§1):
    /// assignments, kernel calls and loops. An XDP statement (a transfer,
    /// a guard, a barrier) belongs to the output of compilation.
    NotSequential { stmt: String },
    /// A loop steps by something other than the constant 1.
    NonUnitStep { var: String },
    /// No declaration carries a distribution, so the machine size is
    /// undetermined.
    NoDistributedDecl,
    /// Two distributed declarations imply different machine sizes.
    MachineSizeConflict { first: usize, second: usize },
    /// An operand's section does not evaluate to a concrete shape (e.g. it
    /// mentions a variable that is not an enclosing loop index).
    NonStaticShape { operand: String },
    /// An operand's shape changes with the enclosing loop indices; the
    /// frontend requires loop-invariant reference shapes.
    LoopVariantShape { operand: String },
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::NotSequential { stmt } => {
                write!(
                    f,
                    "not a sequential statement (XDP construct in input): {stmt}"
                )
            }
            FrontendError::NonUnitStep { var } => {
                write!(
                    f,
                    "sequential frontend supports unit-step loops only (loop `{var}`)"
                )
            }
            FrontendError::NoDistributedDecl => {
                write!(f, "at least one distributed declaration required")
            }
            FrontendError::MachineSizeConflict { first, second } => {
                write!(
                    f,
                    "declarations disagree on machine size ({first} vs {second})"
                )
            }
            FrontendError::NonStaticShape { operand } => {
                write!(f, "operand {operand} has a non-static shape")
            }
            FrontendError::LoopVariantShape { operand } => {
                write!(
                    f,
                    "operand {operand} has a loop-variant shape; the owner-computes \
                     frontend requires loop-invariant reference shapes"
                )
            }
        }
    }
}

impl std::error::Error for FrontendError {}

/// Prefix of the temporaries the translation declares (`_T0`, `_T1`, ...).
const TEMP_PREFIX: &str = "_T";

/// Translate a sequential program to naive owner-computes IL+XDP.
/// Rejects programs the translation cannot handle with a named
/// [`FrontendError`] instead of panicking.
pub fn lower_owner_computes(seq: &Program) -> Result<Program, FrontendError> {
    // What the frontend does not take is named before anything else is
    // asked of the program, so that a caller who only wants to know
    // whether the source is sequential ([`SeqMode::Auto`]) hears that first.
    //
    // [`SeqMode::Auto`]: crate::SeqMode::Auto
    let mut refused = None;
    seq.visit(&mut |s| {
        if refused.is_none() {
            refused = refusal(seq, s);
        }
    });
    if let Some(e) = refused {
        return Err(e);
    }
    let mut lower = Lowerer {
        out: Program {
            decls: seq.decls.clone(),
            body: Vec::new(),
        },
        nprocs: machine_size(seq)?,
        temps: 0,
        loop_stack: Vec::new(),
        next_pair: 0,
    };
    let body = lower.block(&seq.body)?;
    let mut program = lower.out;
    program.body = body;
    Ok(program)
}

/// Why `s` is not a statement of a sequential program, if it is not one:
/// the frontend takes assignments, kernel calls and unit-step loops.
fn refusal(p: &Program, s: &Stmt) -> Option<FrontendError> {
    match s {
        Stmt::Assign { .. } | Stmt::Kernel { .. } => None,
        Stmt::DoLoop { step, .. } if step.as_const() == Some(1) => None,
        Stmt::DoLoop { var, .. } => Some(FrontendError::NonUnitStep { var: var.clone() }),
        other => Some(FrontendError::NotSequential {
            stmt: xdp_ir::pretty::stmt_summary(p, other),
        }),
    }
}

/// The machine size the declarations agree on: the frontend sizes its
/// temporaries by it, so every logical grid must have the same processor
/// count.
pub fn machine_size(p: &Program) -> Result<usize, FrontendError> {
    let mut sizes = p.grid_sizes();
    let first = sizes.next().ok_or(FrontendError::NoDistributedDecl)?;
    match sizes.find(|&second| second != first) {
        Some(second) => Err(FrontendError::MachineSizeConflict { first, second }),
        None => Ok(first),
    }
}

struct Lowerer {
    out: Program,
    nprocs: usize,
    temps: usize,
    /// Enclosing loop variables, outermost first (for salt expressions).
    loop_stack: Vec<String>,
    /// Next send/receive pair id (the §4 "auxiliary data structure that
    /// links" transfer pairs, realized as a message-type salt).
    next_pair: i64,
}

impl Lowerer {
    fn block(&mut self, stmts: &[Stmt]) -> Result<Block, FrontendError> {
        let mut out = Vec::new();
        for s in stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out)
    }

    /// A salt expression unique to this pair and the current iteration:
    /// `(((v1 * 2^20 + v2) * 2^20 + ...) * 256) + pair_id`.
    fn fresh_salt(&mut self) -> xdp_ir::IntExpr {
        let pair = self.next_pair;
        self.next_pair += 1;
        let mut acc: Option<xdp_ir::IntExpr> = None;
        for v in &self.loop_stack {
            let ve = b::iv(v);
            acc = Some(match acc {
                None => ve,
                Some(a) => a.mul(b::c(1 << 20)).add(ve),
            });
        }
        match acc {
            None => b::c(pair),
            Some(a) => a.mul(b::c(256)).add(b::c(pair)).simplify(),
        }
    }

    /// A per-processor temporary holding `vol` elements. For `vol == 1`
    /// this is the paper's `T[mypid]`; larger operands get a second
    /// dimension (`_Tk[mypid, 1:vol]`).
    fn fresh_temp(&mut self, elem: xdp_ir::ElemType, vol: i64) -> VarId {
        let name = format!("{TEMP_PREFIX}{}", self.temps);
        self.temps += 1;
        let mut bounds = vec![Triplet::range(0, self.nprocs as i64 - 1)];
        let mut dims = vec![DimDist::Block];
        let mut seg = vec![1];
        if vol > 1 {
            bounds.push(Triplet::range(1, vol));
            dims.push(DimDist::Star);
            seg.push(vol);
        }
        let decl = Decl {
            name,
            elem,
            bounds,
            ownership: Ownership::Exclusive,
            dist: Some(Distribution::new(dims, ProcGrid::linear(self.nprocs))),
            segment_shape: Some(seg),
        };
        self.out.declare(decl)
    }

    /// The (loop-invariant) element count of an operand reference; the
    /// frontend requires reference shapes not to vary with enclosing loop
    /// variables.
    fn ref_volume(&self, r: &SectionRef) -> Result<i64, FrontendError> {
        use crate::analysis::{concrete_section_unbounded, Bindings};
        let probe = |val: i64| {
            let mut env = Bindings::new();
            for v in &self.loop_stack {
                env.insert(v.clone(), val);
            }
            concrete_section_unbounded(&self.out, r, &env).map(|s| {
                // Shape only: per-dim counts are what matter.
                s.extents()
            })
        };
        match (probe(1), probe(2)) {
            (Some(a), Some(b)) => {
                if a != b {
                    return Err(FrontendError::LoopVariantShape {
                        operand: xdp_ir::pretty::section_ref(&self.out, r),
                    });
                }
                Ok(a.iter().product())
            }
            _ => Err(FrontendError::NonStaticShape {
                operand: xdp_ir::pretty::section_ref(&self.out, r),
            }),
        }
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Block) -> Result<(), FrontendError> {
        match s {
            Stmt::DoLoop {
                var, lo, hi, body, ..
            } => {
                self.loop_stack.push(var.clone());
                let inner = self.block(body);
                self.loop_stack.pop();
                out.push(b::do_loop(var, lo.clone(), hi.clone(), inner?));
            }
            Stmt::Kernel { args, .. } => {
                // Owner-computes on the first argument.
                let guard = args
                    .first()
                    .map(|a| b::iown(a.clone()))
                    .unwrap_or(BoolExpr::True);
                out.push(b::guarded(guard, vec![s.clone()]));
            }
            Stmt::Assign { target, rhs } => {
                self.assign(target, rhs, out)?;
            }
            _ => unreachable!("`refusal` named every other statement before lowering began"),
        }
        Ok(())
    }

    fn assign(
        &mut self,
        target: &SectionRef,
        rhs: &ElemExpr,
        out: &mut Block,
    ) -> Result<(), FrontendError> {
        // Operands needing communication: exclusive refs that are not
        // syntactically the target itself.
        let comm_refs: Vec<SectionRef> = rhs
            .refs()
            .into_iter()
            .filter(|r| self.out.decl(r.var).ownership == Ownership::Exclusive && *r != target)
            .cloned()
            .collect();

        // Deduplicate identical operand references (send once).
        let mut uniq: Vec<SectionRef> = Vec::new();
        for r in comm_refs {
            if !uniq.contains(&r) {
                uniq.push(r);
            }
        }

        // Message-type salts disambiguate transfer pairs: the same value
        // may travel to different consumers in different iterations (e.g. a
        // stencil's B[i-1]/B[i+1]), and pure name matching would cross the
        // streams. Each pair gets a unique id folded with the enclosing
        // loop variables — §4's "matching message types".
        let salts: Vec<_> = uniq.iter().map(|_| self.fresh_salt()).collect();

        // Sender side: each operand's owner sends it.
        for (r, salt) in uniq.iter().zip(&salts) {
            out.push(b::guarded(
                b::iown(r.clone()),
                vec![b::send_salted(r.clone(), salt.clone())],
            ));
        }

        // Receiver side: the target's owner receives into temporaries,
        // awaits them, and computes with operands substituted.
        let mut recv_body: Block = Vec::new();
        let mut rule: Option<BoolExpr> = None;
        let mut new_rhs = rhs.clone();
        for (r, salt) in uniq.iter().zip(&salts) {
            let elem = self.out.decl(r.var).elem;
            let vol = self.ref_volume(r)?;
            let t = self.fresh_temp(elem, vol);
            let tref = if vol > 1 {
                b::sref(t, vec![b::at(b::mypid()), b::span(b::c(1), b::c(vol))])
            } else {
                b::sref(t, vec![b::at(b::mypid())])
            };
            recv_body.push(b::recv_val_salted(tref.clone(), r.clone(), salt.clone()));
            new_rhs = new_rhs.replace_ref(r, &tref);
            let aw = b::await_(tref);
            rule = Some(match rule {
                None => aw,
                Some(prev) => prev.and(aw),
            });
        }
        match rule {
            None => {
                // Fully local statement: just guard by ownership.
                out.push(b::guarded(
                    b::iown(target.clone()),
                    vec![b::assign(target.clone(), rhs.clone())],
                ));
            }
            Some(rule) => {
                recv_body.push(b::guarded(rule, vec![b::assign(target.clone(), new_rhs)]));
                out.push(b::guarded(b::iown(target.clone()), recv_body));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::pretty;
    use xdp_ir::{ElemType, ProcGrid};

    /// The paper's running example: do i: A[i] = A[i] + B[i].
    pub fn paper_seq(n: i64, nprocs: usize, b_dist: DimDist) -> Program {
        let grid = ProcGrid::linear(nprocs);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, n)],
            vec![b_dist],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(n),
            vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
        )];
        s
    }

    #[test]
    fn lowers_paper_example_shape() {
        let seq = paper_seq(16, 4, DimDist::Block);
        let p = lower_owner_computes(&seq).unwrap();
        let text = pretty::program(&p);
        // Matches §2.2's translation.
        assert!(text.contains("iown(B[i]) : {"), "{text}");
        assert!(text.contains("B[i] ->"), "{text}");
        assert!(text.contains("iown(A[i]) : {"), "{text}");
        assert!(text.contains("_T0[mypid] <- B[i]"), "{text}");
        assert!(text.contains("await(_T0[mypid]) : {"), "{text}");
        assert!(text.contains("A[i] = (A[i] + _T0[mypid])"), "{text}");
        let c = p.stmt_census();
        assert_eq!(c.sends, 1);
        assert_eq!(c.recvs, 1);
        assert_eq!(c.guards, 3);
        assert_eq!(c.loops, 1);
        // A temp was declared, block over 4 procs, element segments.
        let t = p.lookup("_T0").unwrap();
        assert_eq!(p.decl(t).bounds[0], Triplet::range(0, 3));
    }

    #[test]
    fn local_statement_gets_only_guard() {
        // A[i] = A[i] * 2 — no remote operands.
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![b::assign(ai.clone(), b::val(ai).mul(ElemExpr::LitF(2.0)))],
        )];
        let p = lower_owner_computes(&s).unwrap();
        let c = p.stmt_census();
        assert_eq!(c.sends, 0);
        assert_eq!(c.recvs, 0);
        assert_eq!(c.guards, 1);
        assert!(p.lookup("_T0").is_none());
    }

    #[test]
    fn duplicate_operands_communicated_once() {
        // A[i] = B[i] + B[i]: one send, one temp.
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Cyclic],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![b::assign(ai, b::val(bi.clone()).add(b::val(bi)))],
        )];
        let p = lower_owner_computes(&s).unwrap();
        assert_eq!(p.stmt_census().sends, 1);
        assert!(p.lookup("_T1").is_none());
    }

    #[test]
    fn kernel_guarded_by_first_arg() {
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Block],
            grid,
        ));
        let col = b::sref(a, vec![b::all(), b::at(b::iv("k"))]);
        s.body = vec![b::do_loop(
            "k",
            b::c(1),
            b::c(4),
            vec![b::kernel("fft1d", vec![col])],
        )];
        let p = lower_owner_computes(&s).unwrap();
        let text = pretty::program(&p);
        assert!(text.contains("iown(A[*,k]) : {"), "{text}");
        assert!(text.contains("fft1d(A[*,k])"), "{text}");
    }

    #[test]
    fn machine_size_consistency() {
        let seq = paper_seq(8, 4, DimDist::Cyclic);
        assert_eq!(machine_size(&seq), Ok(4));
    }

    #[test]
    fn machine_size_conflict_is_an_error() {
        let mut s = Program::new();
        s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(4),
        ));
        s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        assert_eq!(
            machine_size(&s),
            Err(FrontendError::MachineSizeConflict {
                first: 4,
                second: 2
            })
        );
        assert_eq!(
            lower_owner_computes(&s),
            Err(FrontendError::MachineSizeConflict {
                first: 4,
                second: 2
            })
        );
    }

    #[test]
    fn no_distributed_decl_is_an_error() {
        let s = Program::new();
        assert_eq!(machine_size(&s), Err(FrontendError::NoDistributedDecl));
    }

    #[test]
    fn non_static_operand_shape_is_an_error_not_a_panic() {
        // A[i] = B[j] where `j` is no enclosing loop's index: the operand's
        // section never becomes concrete and the frontend must say so.
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Cyclic],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bj = b::sref(bb, vec![b::at(b::iv("j"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![b::assign(ai, b::val(bj))],
        )];
        match lower_owner_computes(&s) {
            Err(FrontendError::NonStaticShape { operand }) => {
                assert!(operand.contains('B'), "{operand}");
            }
            other => panic!("expected NonStaticShape, got {other:?}"),
        }
    }

    #[test]
    fn loop_variant_operand_shape_is_an_error_not_a_panic() {
        // A[i] = sum over B[1:i]: the operand's extent grows with `i`.
        let grid = ProcGrid::linear(2);
        let mut s = Program::new();
        let a = s.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = s.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, 8)],
            vec![DimDist::Cyclic],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bpre = b::sref(bb, vec![b::span(b::c(1), b::iv("i"))]);
        s.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(8),
            vec![b::assign(ai, b::val(bpre))],
        )];
        match lower_owner_computes(&s) {
            Err(FrontendError::LoopVariantShape { operand }) => {
                assert!(operand.contains('B'), "{operand}");
            }
            other => panic!("expected LoopVariantShape, got {other:?}"),
        }
    }
}
