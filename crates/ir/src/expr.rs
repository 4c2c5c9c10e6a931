//! Expressions: integer index expressions, boolean compute rules, and
//! element-valued expressions.
//!
//! Compute rules (§2.4) are side-effect-free boolean expressions built from
//! the XDP intrinsics (`iown`, `accessible`, `await`) plus ordinary integer
//! comparisons and connectives. A reference to an unowned section inside a
//! compute rule makes the whole rule false, so rules can run anywhere.

use crate::types::VarId;
use crate::walk::{self, Node, NodeMut, Role};
use std::fmt;

/// Integer-valued expressions: loop variables, intrinsics, arithmetic.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum IntExpr {
    /// Integer literal.
    Const(i64),
    /// A universally owned integer scalar — loop induction variables and
    /// helper scalars; each processor has its own copy (§2.2's `i`).
    Var(String),
    /// The executing processor's unique id (§2.3).
    MyPid,
    /// `mylb(X, d)`: smallest owned index of `X` in dimension `d`
    /// (1-based, as in the paper), `MAXINT` if none owned.
    MyLb(Box<SectionRef>, u32),
    /// `myub(X, d)`: largest owned index, `MININT` if none owned.
    MyUb(Box<SectionRef>, u32),
    /// Binary arithmetic.
    Bin(IntBinOp, Box<IntExpr>, Box<IntExpr>),
    /// Negation.
    Neg(Box<IntExpr>),
}

/// Binary integer operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntBinOp {
    Add,
    Sub,
    Mul,
    /// Truncating division (Fortran-style).
    Div,
    /// Euclidean remainder.
    Mod,
    Min,
    Max,
}

impl IntBinOp {
    /// `a op b`, the one integer arithmetic table: every compile-time
    /// folder and both run-time evaluators call it. `Add`/`Sub`/`Mul`
    /// saturate — bounds expressions legitimately combine the
    /// `mylb`/`myub` sentinels (`i64::MAX` / `i64::MIN`, §2.3) with
    /// offsets, and saturation keeps empty ranges empty. `Div` and `Mod`
    /// by zero have no value (`None`); `i64::MIN / -1` saturates.
    pub fn apply(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            IntBinOp::Add => a.saturating_add(b),
            IntBinOp::Sub => a.saturating_sub(b),
            IntBinOp::Mul => a.saturating_mul(b),
            IntBinOp::Div | IntBinOp::Mod if b == 0 => return None,
            IntBinOp::Div => a.checked_div(b).unwrap_or(i64::MAX),
            IntBinOp::Mod => a.wrapping_rem_euclid(b),
            IntBinOp::Min => a.min(b),
            IntBinOp::Max => a.max(b),
        })
    }
}

#[allow(clippy::should_implement_trait)] // builder sugar, deliberately named like the operators
impl IntExpr {
    /// Convenience: `self + other`.
    pub fn add(self, other: IntExpr) -> IntExpr {
        IntExpr::Bin(IntBinOp::Add, Box::new(self), Box::new(other))
    }
    /// Convenience: `self - other`.
    pub fn sub(self, other: IntExpr) -> IntExpr {
        IntExpr::Bin(IntBinOp::Sub, Box::new(self), Box::new(other))
    }
    /// Convenience: `self * other`.
    pub fn mul(self, other: IntExpr) -> IntExpr {
        IntExpr::Bin(IntBinOp::Mul, Box::new(self), Box::new(other))
    }

    /// Constant-fold if the expression contains no variables or intrinsics.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            IntExpr::Const(c) => Some(*c),
            IntExpr::Neg(e) => e.as_const().map(i64::saturating_neg),
            IntExpr::Bin(op, a, b) => op.apply(a.as_const()?, b.as_const()?),
            _ => None,
        }
    }

    /// Algebraic simplification: constant folding plus the unit/zero
    /// identities (`x+0`, `x-0`, `x*1`, `x*0`, `0+x`, `1*x`, `x/1`).
    pub fn simplify(&self) -> IntExpr {
        if let Some(c) = self.as_const() {
            return IntExpr::Const(c);
        }
        match self {
            IntExpr::Bin(op, a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (op, &a, &b) {
                    (IntBinOp::Add, x, IntExpr::Const(0)) => x.clone(),
                    (IntBinOp::Add, IntExpr::Const(0), x) => x.clone(),
                    (IntBinOp::Sub, x, IntExpr::Const(0)) => x.clone(),
                    (IntBinOp::Mul, x, IntExpr::Const(1)) => x.clone(),
                    (IntBinOp::Mul, IntExpr::Const(1), x) => x.clone(),
                    (IntBinOp::Mul, _, IntExpr::Const(0)) => IntExpr::Const(0),
                    (IntBinOp::Mul, IntExpr::Const(0), _) => IntExpr::Const(0),
                    (IntBinOp::Div, x, IntExpr::Const(1)) => x.clone(),
                    _ => IntExpr::Bin(*op, Box::new(a), Box::new(b)),
                }
            }
            IntExpr::Neg(a) => match a.simplify() {
                IntExpr::Neg(inner) => *inner,
                other => IntExpr::Neg(Box::new(other)),
            },
            other => other.clone(),
        }
    }

    /// Does the expression mention variable `name`?
    pub fn uses_var(&self, name: &str) -> bool {
        walk::uses_var(Node::Int(self), name)
    }

    /// Substitute `name := replacement` throughout.
    pub fn subst(&self, name: &str, replacement: &IntExpr) -> IntExpr {
        let mut out = self.clone();
        walk::subst(NodeMut::Int(&mut out), name, replacement);
        out
    }
}

/// A per-dimension subscript of a section reference.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Subscript {
    /// A single index, e.g. `A[i]`.
    Point(IntExpr),
    /// A triplet range, e.g. `A[1:n:2]`.
    Range(TripletExpr),
    /// The whole dimension, `A[*]`.
    All,
}

impl Subscript {
    /// Does the subscript mention variable `name`?
    pub fn uses_var(&self, name: &str) -> bool {
        walk::uses_var(Node::Sub(self), name)
    }
}

/// A triplet whose bounds are expressions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TripletExpr {
    pub lb: IntExpr,
    pub ub: IntExpr,
    pub st: IntExpr,
}

/// A (possibly symbolic) reference to a section of a variable:
/// the variable plus one subscript per dimension.
///
/// Scalars are referenced with an empty subscript list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SectionRef {
    pub var: VarId,
    pub subs: Vec<Subscript>,
}

impl SectionRef {
    /// Reference a scalar variable.
    pub fn scalar(var: VarId) -> SectionRef {
        SectionRef {
            var,
            subs: Vec::new(),
        }
    }

    /// Reference with the given subscripts.
    pub fn new(var: VarId, subs: Vec<Subscript>) -> SectionRef {
        SectionRef { var, subs }
    }

    /// Does any subscript mention variable `name`?
    pub fn uses_var(&self, name: &str) -> bool {
        self.subs.iter().any(|s| s.uses_var(name))
    }

    /// Substitute a variable in every subscript.
    pub fn subst(&self, name: &str, replacement: &IntExpr) -> SectionRef {
        let mut out = self.clone();
        walk::subst(NodeMut::Ref(&mut out), name, replacement);
        out
    }
}

/// Comparison operators for compute rules.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Boolean expressions — the compute-rule language (§2.4) plus the
/// intrinsic predicates of §2.3.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BoolExpr {
    True,
    False,
    /// `iown(X)`: executing processor owns all elements of `X`.
    Iown(SectionRef),
    /// `accessible(X)`: owned and no uncompleted receive.
    Accessible(SectionRef),
    /// `await(X)`: false if unowned; otherwise block until accessible,
    /// then true. The only blocking intrinsic.
    Await(SectionRef),
    /// Integer comparison.
    Cmp(CmpOp, IntExpr, IntExpr),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// Conjunction helper.
    pub fn and(self, other: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(self), Box::new(other))
    }

    /// Substitute an integer variable throughout.
    pub fn subst(&self, name: &str, replacement: &IntExpr) -> BoolExpr {
        let mut out = self.clone();
        walk::subst(NodeMut::Rule(&mut out), name, replacement);
        out
    }

    /// Does this rule (transitively) contain a blocking `await`?
    pub fn contains_await(&self) -> bool {
        walk::any(Node::Rule(self), |n| {
            matches!(n, Node::Rule(BoolExpr::Await(_)))
        })
    }
}

/// Binary operators on element values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ElemBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Element-valued expressions, evaluated element-wise over conformable
/// sections in an [`crate::stmt::Stmt::Assign`].
#[derive(Clone, PartialEq, Debug)]
pub enum ElemExpr {
    /// A section reference; yields that section's elements in row-major
    /// order. All `Ref`s in one expression must be conformable with the
    /// assignment target.
    Ref(SectionRef),
    /// A literal (real) constant, broadcast.
    LitF(f64),
    /// A literal integer constant, broadcast.
    LitI(i64),
    /// An integer expression (e.g. `mypid`), broadcast.
    FromInt(IntExpr),
    /// Element-wise binary operation.
    Bin(ElemBinOp, Box<ElemExpr>, Box<ElemExpr>),
    /// Element-wise negation.
    Neg(Box<ElemExpr>),
}

#[allow(clippy::should_implement_trait)] // builder sugar, deliberately named like the operators
impl ElemExpr {
    /// Convenience: `self + other`.
    pub fn add(self, other: ElemExpr) -> ElemExpr {
        ElemExpr::Bin(ElemBinOp::Add, Box::new(self), Box::new(other))
    }
    /// Convenience: `self * other`.
    pub fn mul(self, other: ElemExpr) -> ElemExpr {
        ElemExpr::Bin(ElemBinOp::Mul, Box::new(self), Box::new(other))
    }

    /// The sections whose elements the expression reads, left to right.
    pub fn refs(&self) -> Vec<&SectionRef> {
        let mut out = Vec::new();
        walk::visit(Node::Elem(self), &mut |n| {
            if let Node::Ref(r, Role::Read) = n {
                out.push(r);
            }
        });
        out
    }

    /// Substitute an integer variable in all subscripts.
    pub fn subst(&self, name: &str, replacement: &IntExpr) -> ElemExpr {
        let mut out = self.clone();
        walk::subst(NodeMut::Elem(&mut out), name, replacement);
        out
    }

    /// The expression with every read of `from` reading `to` instead.
    pub fn replace_ref(&self, from: &SectionRef, to: &SectionRef) -> ElemExpr {
        let mut out = self.clone();
        walk::map(NodeMut::Elem(&mut out), &mut |n| match n {
            NodeMut::Elem(ElemExpr::Ref(r)) if r == from => *r = to.clone(),
            _ => {}
        });
        out
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl CmpOp {
    /// Apply the comparison.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> IntExpr {
        IntExpr::Var(n.into())
    }

    #[test]
    fn const_folding() {
        let e = IntExpr::Const(3)
            .add(IntExpr::Const(4))
            .mul(IntExpr::Const(2));
        assert_eq!(e.as_const(), Some(14));
        assert_eq!(var("i").add(IntExpr::Const(1)).as_const(), None);
        assert_eq!(
            IntExpr::Bin(
                IntBinOp::Mod,
                Box::new(IntExpr::Const(-7)),
                Box::new(IntExpr::Const(4))
            )
            .as_const(),
            Some(1)
        );
    }

    #[test]
    fn arithmetic_table_saturates_and_refuses_a_zero_divisor() {
        use IntBinOp::*;
        assert_eq!(Add.apply(i64::MAX, 1), Some(i64::MAX));
        assert_eq!(Sub.apply(i64::MIN, 1), Some(i64::MIN));
        assert_eq!(Mul.apply(i64::MAX, 2), Some(i64::MAX));
        assert_eq!(Div.apply(-7, 2), Some(-3));
        assert_eq!(Mod.apply(-7, 4), Some(1));
        assert_eq!(Div.apply(8, 0), None);
        assert_eq!(Mod.apply(8, 0), None);
        assert_eq!(Div.apply(i64::MIN, -1), Some(i64::MAX));
        assert_eq!(Mod.apply(i64::MIN, -1), Some(0));
        // The folders decline instead of panicking, and fold with the
        // run-time (saturating) arithmetic.
        let zero_div = IntExpr::Bin(
            Div,
            Box::new(IntExpr::Const(8)),
            Box::new(IntExpr::Const(0)),
        );
        assert_eq!(zero_div.as_const(), None);
        assert_eq!(zero_div.simplify(), zero_div);
        let top = IntExpr::Const(i64::MAX).add(IntExpr::Const(1));
        assert_eq!(top.as_const(), Some(i64::MAX));
        assert_eq!(
            IntExpr::Neg(Box::new(IntExpr::Const(i64::MIN))).as_const(),
            Some(i64::MAX)
        );
    }

    #[test]
    fn simplify_identities() {
        let i = var("i");
        assert_eq!(i.clone().add(IntExpr::Const(0)).simplify(), i);
        assert_eq!(i.clone().mul(IntExpr::Const(1)).simplify(), i);
        assert_eq!(
            i.clone().mul(IntExpr::Const(0)).simplify(),
            IntExpr::Const(0)
        );
        assert_eq!(i.clone().sub(IntExpr::Const(0)).simplify(), i);
        assert_eq!(
            IntExpr::Neg(Box::new(IntExpr::Neg(Box::new(i.clone())))).simplify(),
            i
        );
        // Nested: (i + 0) * 1 -> i; constants fold.
        assert_eq!(
            i.clone()
                .add(IntExpr::Const(0))
                .mul(IntExpr::Const(1))
                .simplify(),
            i
        );
        assert_eq!(
            IntExpr::Const(3).add(IntExpr::Const(4)).simplify(),
            IntExpr::Const(7)
        );
        // Non-simplifiable stays put.
        let e = i.clone().add(IntExpr::Const(2));
        assert_eq!(e.simplify(), e);
    }

    #[test]
    fn subst_int() {
        let e = var("i").add(IntExpr::Const(1));
        let s = e.subst("i", &IntExpr::MyPid);
        assert_eq!(s, IntExpr::MyPid.add(IntExpr::Const(1)));
        assert!(!s.uses_var("i"));
    }

    #[test]
    fn subst_section_ref() {
        let r = SectionRef::new(VarId(0), vec![Subscript::Point(var("i")), Subscript::All]);
        assert!(r.uses_var("i"));
        let r2 = r.subst("i", &IntExpr::Const(5));
        assert!(!r2.uses_var("i"));
        assert_eq!(r2.subs[0], Subscript::Point(IntExpr::Const(5)));
    }

    #[test]
    fn bool_subst_and_await_detection() {
        let r = SectionRef::new(VarId(1), vec![Subscript::Point(var("k"))]);
        let rule = BoolExpr::Iown(r.clone()).and(BoolExpr::Await(r));
        assert!(rule.contains_await());
        let rule2 = rule.subst("k", &IntExpr::Const(2));
        match &rule2 {
            BoolExpr::And(a, _) => match a.as_ref() {
                BoolExpr::Iown(s) => {
                    assert_eq!(s.subs[0], Subscript::Point(IntExpr::Const(2)))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(!BoolExpr::Iown(SectionRef::scalar(VarId(0))).contains_await());
    }

    #[test]
    fn elem_refs() {
        let a = SectionRef::new(VarId(0), vec![Subscript::Point(var("i"))]);
        let b = SectionRef::new(VarId(1), vec![Subscript::Point(var("i"))]);
        let e = ElemExpr::Ref(a.clone()).add(ElemExpr::Ref(b.clone()));
        let refs = e.refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0], &a);
        assert_eq!(refs[1], &b);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Le.eval(3, 3));
        assert!(CmpOp::Lt.eval(2, 3));
        assert!(!CmpOp::Gt.eval(2, 3));
        assert!(CmpOp::Ne.eval(2, 3));
    }
}
