//! The one traversal of the IR.
//!
//! This module alone knows what the children of a node are. It holds two
//! operations over [`Stmt`] / [`BoolExpr`] / [`ElemExpr`] / [`SectionRef`]
//! / [`Subscript`] / [`IntExpr`]:
//!
//! * [`visit`] — pre-order, read-only, reaching *every* node under the one
//!   it is given: the references inside a subscript, inside `mylb`/`myub`,
//!   in loop bounds, kernel parameters, salts and destination pids. Each
//!   reference arrives with the [`Role`] it plays, so "every access of a
//!   statement" and "every array a program names" are closures over it
//!   and cannot miss a position.
//! * [`map`] — post-order, in place: the closure is handed each node after
//!   its children and may put another in its place.
//!
//! Both are generic over the closure and allocate nothing. What is built on
//! them sits beside them: [`any`], [`subst`] / [`Stmt::subst`] (a loop is
//! the IR's only binder, so substitution is the only scope-aware rewrite)
//! and [`rewrite_block`].
//!
//! Code that consumes a node's *meaning* keeps its own match — printing,
//! parsing, the run-time evaluator, the bytecode compiler, `affine_in` —
//! as do recognisers of one fixed shape, which do not recurse.

use crate::expr::{BoolExpr, ElemExpr, IntExpr, SectionRef, Subscript};
use crate::stmt::{Block, DestSet, Stmt, TransferKind};

/// What a statement does with a reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role<'a> {
    /// An assignment's target.
    Written,
    /// An operand of an assignment's right-hand side.
    Read,
    /// A kernel argument: read and written in place.
    Updated,
    /// The operand of a send of this kind.
    Sent(TransferKind),
    /// The target of a receive of this kind.
    Received(TransferKind),
    /// The argument of `iown` / `accessible` / `await` / `mylb` / `myub`;
    /// `by` is the outermost reference whose subscripts hold the query.
    Queried { by: Option<&'a SectionRef> },
    /// The name a value receive matches on: a tag, not an access.
    Tag,
}

/// A node, as [`visit`] shows it.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    Stmt(&'a Stmt),
    Rule(&'a BoolExpr),
    Elem(&'a ElemExpr),
    Ref(&'a SectionRef, Role<'a>),
    Sub(&'a Subscript),
    Int(&'a IntExpr),
}

/// Show `f` the node `n` and then everything under it, pre-order.
pub fn visit<'a>(n: Node<'a>, f: &mut impl FnMut(Node<'a>)) {
    visit_within(n, None, f)
}

/// [`visit`], inside the subscripts of `host`.
fn visit_within<'a>(n: Node<'a>, host: Option<&'a SectionRef>, f: &mut impl FnMut(Node<'a>)) {
    f(n);
    let mut go = |n| visit_within(n, host, f);
    match n {
        Node::Stmt(s) => match s {
            Stmt::Assign { target, rhs } => {
                go(Node::Ref(target, Role::Written));
                go(Node::Elem(rhs));
            }
            Stmt::ScalarAssign { value, .. } => go(Node::Int(value)),
            Stmt::Kernel { args, int_args, .. } => {
                args.iter().for_each(|a| go(Node::Ref(a, Role::Updated)));
                int_args.iter().for_each(|e| go(Node::Int(e)));
            }
            Stmt::Send {
                sec,
                kind,
                dest,
                salt,
            } => {
                go(Node::Ref(sec, Role::Sent(*kind)));
                if let DestSet::Pids(pids) = dest {
                    pids.iter().for_each(|e| go(Node::Int(e)));
                }
                salt.iter().for_each(|e| go(Node::Int(e)));
            }
            Stmt::Recv {
                target,
                kind,
                name,
                salt,
            } => {
                go(Node::Ref(target, Role::Received(*kind)));
                name.iter().for_each(|r| go(Node::Ref(r, Role::Tag)));
                salt.iter().for_each(|e| go(Node::Int(e)));
            }
            Stmt::Guarded { rule, body } => {
                go(Node::Rule(rule));
                body.iter().for_each(|s| go(Node::Stmt(s)));
            }
            Stmt::DoLoop {
                lo, hi, step, body, ..
            } => {
                [lo, hi, step].into_iter().for_each(|e| go(Node::Int(e)));
                body.iter().for_each(|s| go(Node::Stmt(s)));
            }
            Stmt::Barrier | Stmt::Redistribute { .. } => {}
        },
        Node::Rule(rule) => match rule {
            BoolExpr::Iown(r) | BoolExpr::Accessible(r) | BoolExpr::Await(r) => {
                go(Node::Ref(r, Role::Queried { by: host }))
            }
            BoolExpr::Cmp(_, a, b) => {
                go(Node::Int(a));
                go(Node::Int(b));
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                go(Node::Rule(a));
                go(Node::Rule(b));
            }
            BoolExpr::Not(a) => go(Node::Rule(a)),
            BoolExpr::True | BoolExpr::False => {}
        },
        Node::Elem(e) => match e {
            ElemExpr::Ref(r) => go(Node::Ref(r, Role::Read)),
            ElemExpr::FromInt(i) => go(Node::Int(i)),
            ElemExpr::Bin(_, a, b) => {
                go(Node::Elem(a));
                go(Node::Elem(b));
            }
            ElemExpr::Neg(a) => go(Node::Elem(a)),
            ElemExpr::LitF(_) | ElemExpr::LitI(_) => {}
        },
        Node::Ref(r, _) => {
            let host = host.or(Some(r));
            (r.subs.iter()).for_each(|s| visit_within(Node::Sub(s), host, f));
        }
        Node::Sub(s) => match s {
            Subscript::Point(e) => go(Node::Int(e)),
            Subscript::Range(t) => [&t.lb, &t.ub, &t.st]
                .into_iter()
                .for_each(|e| go(Node::Int(e))),
            Subscript::All => {}
        },
        Node::Int(e) => match e {
            IntExpr::MyLb(r, _) | IntExpr::MyUb(r, _) => {
                go(Node::Ref(r, Role::Queried { by: host }))
            }
            IntExpr::Bin(_, a, b) => {
                go(Node::Int(a));
                go(Node::Int(b));
            }
            IntExpr::Neg(a) => go(Node::Int(a)),
            IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::MyPid => {}
        },
    }
}

/// Does `pred` hold of `n` or of any node under it?
pub fn any<'a>(n: Node<'a>, mut pred: impl FnMut(Node<'a>) -> bool) -> bool {
    let mut found = false;
    visit(n, &mut |n| found = found || pred(n));
    found
}

/// Does anything under `n` mention the variable `name`?
pub fn uses_var(n: Node<'_>, name: &str) -> bool {
    any(n, |n| matches!(n, Node::Int(IntExpr::Var(v)) if v == name))
}

/// A node, as [`map`] hands it over for rewriting.
#[derive(Debug)]
pub enum NodeMut<'a> {
    Block(&'a mut Block),
    Rule(&'a mut BoolExpr),
    Elem(&'a mut ElemExpr),
    Ref(&'a mut SectionRef),
    Sub(&'a mut Subscript),
    Int(&'a mut IntExpr),
}

/// Rewrite in place, post-order: `f` is handed every node under `n`, then
/// `n`, each already rebuilt from its rewritten children. A block is a
/// node — `f` may delete, expand or merge its statements.
pub fn map(n: NodeMut<'_>, f: &mut impl FnMut(NodeMut<'_>)) {
    match n {
        NodeMut::Block(block) => {
            for s in block.iter_mut() {
                map_exprs(s, f);
                if let Some(body) = s.body_mut() {
                    map(NodeMut::Block(body), f);
                }
            }
            f(NodeMut::Block(block));
        }
        NodeMut::Rule(rule) => {
            match rule {
                BoolExpr::Iown(r) | BoolExpr::Accessible(r) | BoolExpr::Await(r) => {
                    map(NodeMut::Ref(r), f)
                }
                BoolExpr::Cmp(_, a, b) => {
                    map(NodeMut::Int(a), f);
                    map(NodeMut::Int(b), f);
                }
                BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                    map(NodeMut::Rule(a), f);
                    map(NodeMut::Rule(b), f);
                }
                BoolExpr::Not(a) => map(NodeMut::Rule(a), f),
                BoolExpr::True | BoolExpr::False => {}
            }
            f(NodeMut::Rule(rule));
        }
        NodeMut::Elem(e) => {
            match e {
                ElemExpr::Ref(r) => map(NodeMut::Ref(r), f),
                ElemExpr::FromInt(i) => map(NodeMut::Int(i), f),
                ElemExpr::Bin(_, a, b) => {
                    map(NodeMut::Elem(a), f);
                    map(NodeMut::Elem(b), f);
                }
                ElemExpr::Neg(a) => map(NodeMut::Elem(a), f),
                ElemExpr::LitF(_) | ElemExpr::LitI(_) => {}
            }
            f(NodeMut::Elem(e));
        }
        NodeMut::Ref(r) => {
            (r.subs.iter_mut()).for_each(|s| map(NodeMut::Sub(s), f));
            f(NodeMut::Ref(r));
        }
        NodeMut::Sub(s) => {
            match s {
                Subscript::Point(e) => map(NodeMut::Int(e), f),
                Subscript::Range(t) => [&mut t.lb, &mut t.ub, &mut t.st]
                    .into_iter()
                    .for_each(|e| map(NodeMut::Int(e), f)),
                Subscript::All => {}
            }
            f(NodeMut::Sub(s));
        }
        NodeMut::Int(e) => {
            match e {
                IntExpr::MyLb(r, _) | IntExpr::MyUb(r, _) => map(NodeMut::Ref(r), f),
                IntExpr::Bin(_, a, b) => {
                    map(NodeMut::Int(a), f);
                    map(NodeMut::Int(b), f);
                }
                IntExpr::Neg(a) => map(NodeMut::Int(a), f),
                IntExpr::Const(_) | IntExpr::Var(_) | IntExpr::MyPid => {}
            }
            f(NodeMut::Int(e));
        }
    }
}

/// [`map`] over the expressions a statement holds itself, its body apart.
fn map_exprs(s: &mut Stmt, f: &mut impl FnMut(NodeMut<'_>)) {
    match s {
        Stmt::Assign { target, rhs } => {
            map(NodeMut::Ref(target), f);
            map(NodeMut::Elem(rhs), f);
        }
        Stmt::ScalarAssign { value, .. } => map(NodeMut::Int(value), f),
        Stmt::Kernel { args, int_args, .. } => {
            args.iter_mut().for_each(|a| map(NodeMut::Ref(a), f));
            int_args.iter_mut().for_each(|e| map(NodeMut::Int(e), f));
        }
        Stmt::Send {
            sec, dest, salt, ..
        } => {
            map(NodeMut::Ref(sec), f);
            if let DestSet::Pids(pids) = dest {
                pids.iter_mut().for_each(|e| map(NodeMut::Int(e), f));
            }
            salt.iter_mut().for_each(|e| map(NodeMut::Int(e), f));
        }
        Stmt::Recv {
            target, name, salt, ..
        } => {
            map(NodeMut::Ref(target), f);
            name.iter_mut().for_each(|r| map(NodeMut::Ref(r), f));
            salt.iter_mut().for_each(|e| map(NodeMut::Int(e), f));
        }
        Stmt::Guarded { rule, .. } => map(NodeMut::Rule(rule), f),
        Stmt::DoLoop { lo, hi, step, .. } => [lo, hi, step]
            .into_iter()
            .for_each(|e| map(NodeMut::Int(e), f)),
        Stmt::Barrier | Stmt::Redistribute { .. } => {}
    }
}

/// Substitute `name := rep` in every expression under `n`. A block is
/// scoped: a loop's bounds belong to the enclosing scope, and the body of
/// a loop that rebinds `name` is left alone.
pub fn subst(n: NodeMut<'_>, name: &str, rep: &IntExpr) {
    let put = &mut |n: NodeMut<'_>| {
        if let NodeMut::Int(e) = n {
            if matches!(e, IntExpr::Var(v) if v == name) {
                *e = rep.clone();
            }
        }
    };
    let NodeMut::Block(block) = n else {
        return map(n, put);
    };
    for s in block {
        map_exprs(s, put);
        let rebinds = matches!(s, Stmt::DoLoop { var, .. } if var == name);
        if let Some(body) = s.body_mut().filter(|_| !rebinds) {
            subst(NodeMut::Block(body), name, rep);
        }
    }
}

impl Stmt {
    /// The statement with `name := rep` substituted (see [`subst`]).
    pub fn subst(&self, name: &str, rep: &IntExpr) -> Stmt {
        let mut block = vec![self.clone()];
        subst(NodeMut::Block(&mut block), name, rep);
        block.pop().expect("substitution keeps the statement")
    }
}

/// Map every statement of a block through `f` (which may expand a statement
/// into several or delete it); `f` sees a statement after its body.
pub fn rewrite_block(block: &[Stmt], f: &mut impl FnMut(Stmt) -> Vec<Stmt>) -> Vec<Stmt> {
    fn rewrite(block: Vec<Stmt>, f: &mut impl FnMut(Stmt) -> Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(block.len());
        for mut s in block {
            if let Some(body) = s.body_mut() {
                *body = rewrite(std::mem::take(body), f);
            }
            out.extend(f(s));
        }
        out
    }
    rewrite(block.to_vec(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build as b;
    use crate::VarId;

    /// `do i = mylb(W[*],1), 9 { iown(A[i]) : { A[myub(W[i:9], 1)] = B[i] + mypid
    /// ; A[i] -> {mylb(W[*],1)} salt i ; T <- A[i] } }`
    fn nest() -> Stmt {
        let (a, bb, w, t) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let ai = || b::sref(a, vec![b::at(b::iv("i"))]);
        let w_all = || b::sref(w, vec![b::all()]);
        let w_tail = b::sref(w, vec![b::span(b::iv("i"), b::c(9))]);
        b::do_loop(
            "i",
            b::mylb(w_all(), 1),
            b::c(9),
            vec![b::guarded(
                b::iown(ai()),
                vec![
                    b::assign(
                        b::sref(a, vec![b::at(b::myub(w_tail, 1))]),
                        b::val(b::sref(bb, vec![b::at(b::iv("i"))]))
                            .add(ElemExpr::FromInt(b::mypid())),
                    ),
                    Stmt::Send {
                        sec: ai(),
                        kind: TransferKind::Value,
                        dest: DestSet::Pids(vec![b::mylb(w_all(), 1)]),
                        salt: Some(b::iv("i")),
                    },
                    b::recv_val(b::sref(t, vec![b::at(b::mypid())]), ai()),
                ],
            )],
        )
    }

    #[test]
    fn visit_reaches_every_reference_with_its_role() {
        let s = nest();
        let mut seen = Vec::new();
        visit(Node::Stmt(&s), &mut |n| {
            if let Node::Ref(r, role) = n {
                let role = match role {
                    Role::Queried { by } => format!("Queried by {:?}", by.map(|h| h.var.0)),
                    other => format!("{other:?}"),
                };
                seen.push(format!("v{} {role}", r.var.0));
            }
        });
        assert_eq!(
            seen,
            [
                "v2 Queried by None",    // loop bound
                "v0 Queried by None",    // iown
                "v0 Written",            // A[myub(..)]
                "v2 Queried by Some(0)", // ... its subscript
                "v1 Read",
                "v0 Sent(Value)",
                "v2 Queried by None", // destination pid
                "v3 Received(Value)",
                "v0 Tag",
            ]
        );
        // As many references as the tree holds, by the naive count.
        assert_eq!(seen.len(), format!("{s:?}").matches("SectionRef {").count());
    }

    #[test]
    fn any_finds_nodes_wherever_they_stand() {
        let s = nest();
        let mypid = |n| matches!(n, Node::Int(IntExpr::MyPid));
        assert!(any(Node::Stmt(&s), mypid));
        assert!(!any(
            Node::Stmt(&b::send(b::sref(VarId(0), vec![b::all()]))),
            mypid
        ));
    }

    #[test]
    fn subst_respects_the_loop_that_rebinds_the_name() {
        let x = |v: &str| b::sref(VarId(0), vec![b::at(b::iv(v))]);
        let inner =
            |bound: &str, v: &str| b::do_loop("i", b::iv(bound), b::c(4), vec![b::send(x(v))]);
        // do k { X[i] -> ; do i = i, 4 { X[i] -> } }: the inner loop's bound is
        // the outer `i`, its body's is its own.
        let s = b::do_loop(
            "k",
            b::c(1),
            b::c(2),
            vec![b::send(x("i")), inner("i", "i")],
        );
        let want = b::do_loop(
            "k",
            b::c(1),
            b::c(2),
            vec![b::send(x("j")), inner("j", "i")],
        );
        assert_eq!(s.subst("i", &b::iv("j")), want);
        // Identity, and a round trip through a fresh name.
        let s = nest();
        assert_eq!(s.subst("i", &b::iv("i")), s);
        let there = s.subst("mypid_", &b::c(0));
        assert_eq!(there, s);
        let body = match &s {
            Stmt::DoLoop { body, .. } => body[0].clone(),
            _ => unreachable!(),
        };
        assert_ne!(body.subst("i", &b::iv("fresh")), body);
        assert_eq!(
            body.subst("i", &b::iv("fresh")).subst("fresh", &b::iv("i")),
            body
        );
    }

    #[test]
    fn rewrite_block_rewrites_nested_bodies_first() {
        let leaf = b::send(b::sref(VarId(0), vec![b::all()]));
        let block = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(2),
            vec![leaf.clone(), Stmt::Barrier],
        )];
        let mut order = Vec::new();
        let out = rewrite_block(&block, &mut |s| {
            order.push(s.subtree_size());
            match s {
                Stmt::Barrier => vec![],
                Stmt::Send { .. } => vec![s.clone(), s],
                other => vec![other],
            }
        });
        // The leaves first, then the loop as rebuilt from them.
        assert_eq!(order, [1, 1, 3]);
        assert_eq!(
            out,
            [b::do_loop("i", b::c(1), b::c(2), vec![leaf.clone(), leaf])]
        );
    }
}
