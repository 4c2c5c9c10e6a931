//! Pretty-printer emitting the paper's concrete notation.
//!
//! Round-trips with the `xdp-lang` parser; every example prints programs
//! through this module so derivation stages can be compared against the
//! paper's listings.

use crate::expr::{BoolExpr, ElemBinOp, ElemExpr, IntBinOp, IntExpr, SectionRef, Subscript};
use crate::stmt::{Block, DestSet, Program, Stmt, TransferKind};
use std::fmt::Write;

/// Pretty-print a whole program, declarations included.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.decls {
        let bounds: Vec<String> = d.bounds.iter().map(|t| t.to_string()).collect();
        let dims = if bounds.is_empty() {
            String::new()
        } else {
            format!("[{}]", bounds.join(","))
        };
        let _ = write!(out, "{} {}{}", d.elem, d.name, dims);
        match (&d.dist, d.ownership) {
            (Some(dist), _) => {
                let _ = write!(out, " distribute {dist}");
            }
            (None, crate::stmt::Ownership::Universal) => {
                let _ = write!(out, " universal");
            }
            _ => {}
        }
        if let Some(seg) = &d.segment_shape {
            let s: Vec<String> = seg.iter().map(|x| x.to_string()).collect();
            let _ = write!(out, " segment ({})", s.join(","));
        }
        out.push('\n');
    }
    if !p.decls.is_empty() {
        out.push('\n');
    }
    write_block(&mut out, p, &p.body, 0);
    out
}

// Every printer below appends to one caller-owned buffer; the public
// `String`-returning functions are thin wrappers. Writing to a `String`
// cannot fail, so the `fmt::Result`s are dropped.

fn rendered(f: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    f(&mut out);
    out
}

/// Pretty-print a statement block at the given indent level.
pub fn block(p: &Program, b: &Block, indent: usize) -> String {
    rendered(|out| write_block(out, p, b, indent))
}

/// Pretty-print one statement.
pub fn stmt(p: &Program, s: &Stmt, indent: usize) -> String {
    rendered(|out| write_stmt(out, p, s, indent))
}

fn write_block(out: &mut String, p: &Program, b: &Block, indent: usize) {
    for s in b {
        write_stmt(out, p, s, indent);
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_stmt(out: &mut String, p: &Program, s: &Stmt, indent: usize) {
    pad(out, indent);
    write_stmt_head(out, p, s);
    out.push('\n');
    if let Stmt::Guarded { body, .. } | Stmt::DoLoop { body, .. } = s {
        write_block(out, p, body, indent + 1);
        pad(out, indent);
        out.push_str("}\n");
    }
}

fn write_salt(out: &mut String, p: &Program, salt: &Option<IntExpr>) {
    if let Some(e) = salt {
        out.push_str(" #");
        write_int_expr(out, p, e);
    }
}

/// The first line of a statement's pretty form, without indent or
/// newline: the whole statement for a simple one, the header (up to the
/// opening brace) for a compound one.
fn write_stmt_head(out: &mut String, p: &Program, s: &Stmt) {
    match s {
        Stmt::Assign { target, rhs } => {
            write_section_ref(out, p, target);
            out.push_str(" = ");
            write_elem_expr(out, p, rhs);
        }
        Stmt::ScalarAssign { var, value } => {
            out.push_str(var);
            out.push_str(" = ");
            write_int_expr(out, p, value);
        }
        Stmt::Kernel {
            name,
            args,
            int_args,
        } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_section_ref(out, p, a);
            }
            for (i, e) in int_args.iter().enumerate() {
                if i > 0 || !args.is_empty() {
                    out.push_str(", ");
                }
                write_int_expr(out, p, e);
            }
            out.push(')');
        }
        Stmt::Send {
            sec,
            kind,
            dest,
            salt,
        } => {
            write_section_ref(out, p, sec);
            out.push_str(match kind {
                TransferKind::Value => " ->",
                TransferKind::Ownership => " =>",
                TransferKind::OwnershipValue => " -=>",
            });
            if let DestSet::Pids(pids) = dest {
                out.push_str(" {");
                for (i, e) in pids.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_int_expr(out, p, e);
                }
                out.push('}');
            }
            write_salt(out, p, salt);
        }
        Stmt::Recv {
            target,
            kind,
            name,
            salt,
        } => {
            write_section_ref(out, p, target);
            match kind {
                TransferKind::Value => {
                    out.push_str(" <- ");
                    write_section_ref(out, p, &Stmt::recv_match_name(target, name));
                }
                TransferKind::Ownership => out.push_str(" <="),
                TransferKind::OwnershipValue => out.push_str(" <=-"),
            }
            write_salt(out, p, salt);
        }
        Stmt::Guarded { rule, .. } => {
            write_bool_expr(out, p, rule);
            out.push_str(" : {");
        }
        Stmt::DoLoop {
            var, lo, hi, step, ..
        } => {
            let _ = write!(out, "do {var} = ");
            write_int_expr(out, p, lo);
            out.push_str(", ");
            write_int_expr(out, p, hi);
            if step.as_const() != Some(1) {
                out.push_str(", ");
                write_int_expr(out, p, step);
            }
            out.push_str(" {");
        }
        Stmt::Barrier => out.push_str("barrier"),
        Stmt::Redistribute { var, dist } => {
            let _ = write!(out, "redistribute {} {dist}", p.decl(*var).name);
        }
    }
}

/// One-line summary of a statement: the first line of its pretty form
/// (compound statements show their header, e.g. `do i = 1, 16 {`).
pub fn stmt_summary(p: &Program, s: &Stmt) -> String {
    rendered(|out| write_stmt_head(out, p, s))
}

/// `(preorder id, one-line summary)` for every statement of the program,
/// in id order. The ids match `crate::stmt::block_stmt_ids` and are what
/// executors stamp on trace events, so this table labels trace reports.
pub fn stmt_table(p: &Program) -> Vec<(u32, String)> {
    // Each summary is written into `line` (grown once, reused) and copied
    // out at its exact length; a compound statement renders its header
    // only, never its body.
    fn walk(
        p: &Program,
        block: &[Stmt],
        base: u32,
        line: &mut String,
        out: &mut Vec<(u32, String)>,
    ) {
        for (s, sid) in block.iter().zip(crate::stmt::block_stmt_ids(base, block)) {
            line.clear();
            write_stmt_head(line, p, s);
            out.push((sid, line.clone()));
            walk(p, s.body(), sid + 1, line, out);
        }
    }
    let mut out = Vec::new();
    walk(p, &p.body, 0, &mut String::new(), &mut out);
    out
}

/// Pretty-print a section reference, e.g. `A[i,*,1:4:2]`.
pub fn section_ref(p: &Program, r: &SectionRef) -> String {
    rendered(|out| write_section_ref(out, p, r))
}

fn write_section_ref(out: &mut String, p: &Program, r: &SectionRef) {
    out.push_str(&p.decl(r.var).name);
    if r.subs.is_empty() {
        return;
    }
    out.push('[');
    for (i, s) in r.subs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match s {
            Subscript::Point(e) => write_int_expr(out, p, e),
            Subscript::All => out.push('*'),
            Subscript::Range(t) => {
                write_int_expr(out, p, &t.lb);
                out.push(':');
                write_int_expr(out, p, &t.ub);
                if t.st.as_const() != Some(1) {
                    out.push(':');
                    write_int_expr(out, p, &t.st);
                }
            }
        }
    }
    out.push(']');
}

/// Pretty-print an integer expression.
pub fn int_expr(p: &Program, e: &IntExpr) -> String {
    rendered(|out| write_int_expr(out, p, e))
}

/// `open a sep b close` — the shape of every binary form below.
fn write_pair<T>(
    out: &mut String,
    [open, sep, close]: [&str; 3],
    (a, b): (&T, &T),
    mut operand: impl FnMut(&mut String, &T),
) {
    out.push_str(open);
    operand(out, a);
    out.push_str(sep);
    operand(out, b);
    out.push_str(close);
}

fn write_int_expr(out: &mut String, p: &Program, e: &IntExpr) {
    match e {
        IntExpr::Const(v) => {
            let _ = write!(out, "{v}");
        }
        IntExpr::Var(v) => out.push_str(v),
        IntExpr::MyPid => out.push_str("mypid"),
        IntExpr::MyLb(s, d) | IntExpr::MyUb(s, d) => {
            let name = if matches!(e, IntExpr::MyLb(..)) {
                "mylb"
            } else {
                "myub"
            };
            let _ = write!(out, "{name}(");
            write_section_ref(out, p, s);
            let _ = write!(out, ", {d})");
        }
        IntExpr::Neg(a) => {
            out.push_str("(-");
            write_int_expr(out, p, a);
            out.push(')');
        }
        IntExpr::Bin(op, a, b) => {
            let shape = match op {
                IntBinOp::Add => ["(", " + ", ")"],
                IntBinOp::Sub => ["(", " - ", ")"],
                IntBinOp::Mul => ["(", " * ", ")"],
                IntBinOp::Div => ["(", " / ", ")"],
                IntBinOp::Mod => ["(", " % ", ")"],
                IntBinOp::Min => ["min(", ", ", ")"],
                IntBinOp::Max => ["max(", ", ", ")"],
            };
            write_pair(out, shape, (&**a, &**b), |out, x| write_int_expr(out, p, x));
        }
    }
}

/// Pretty-print a compute rule.
pub fn bool_expr(p: &Program, e: &BoolExpr) -> String {
    rendered(|out| write_bool_expr(out, p, e))
}

fn write_bool_expr(out: &mut String, p: &Program, e: &BoolExpr) {
    let mut query = |name: &str, s: &SectionRef| {
        out.push_str(name);
        write_section_ref(out, p, s);
        out.push(')');
    };
    match e {
        BoolExpr::True => out.push_str("true"),
        BoolExpr::False => out.push_str("false"),
        BoolExpr::Iown(s) => query("iown(", s),
        BoolExpr::Accessible(s) => query("accessible(", s),
        BoolExpr::Await(s) => query("await(", s),
        BoolExpr::Cmp(op, a, b) => {
            write_int_expr(out, p, a);
            let _ = write!(out, " {op} ");
            write_int_expr(out, p, b);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            let sep = if matches!(e, BoolExpr::And(..)) {
                " && "
            } else {
                " || "
            };
            write_pair(out, ["(", sep, ")"], (&**a, &**b), |out, x| {
                write_bool_expr(out, p, x)
            });
        }
        BoolExpr::Not(a) => {
            out.push('!');
            write_bool_expr(out, p, a);
        }
    }
}

/// Pretty-print an element expression.
pub fn elem_expr(p: &Program, e: &ElemExpr) -> String {
    rendered(|out| write_elem_expr(out, p, e))
}

fn write_elem_expr(out: &mut String, p: &Program, e: &ElemExpr) {
    match e {
        ElemExpr::Ref(r) => write_section_ref(out, p, r),
        ElemExpr::LitF(v) => {
            let _ = write!(out, "{v:?}");
        }
        ElemExpr::LitI(v) => {
            let _ = write!(out, "{v}");
        }
        ElemExpr::FromInt(i) => write_int_expr(out, p, i),
        ElemExpr::Neg(a) => {
            out.push_str("(-");
            write_elem_expr(out, p, a);
            out.push(')');
        }
        ElemExpr::Bin(op, a, b) => {
            let sep = match op {
                ElemBinOp::Add => " + ",
                ElemBinOp::Sub => " - ",
                ElemBinOp::Mul => " * ",
                ElemBinOp::Div => " / ",
            };
            write_pair(out, ["(", sep, ")"], (&**a, &**b), |out, x| {
                write_elem_expr(out, p, x)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build as b;
    use crate::dist::DimDist;
    use crate::grid::ProcGrid;
    use crate::stmt::Program;
    use crate::types::ElemType;

    #[test]
    fn prints_paper_notation() {
        let mut p = Program::new();
        let grid = ProcGrid::linear(4);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(16),
            vec![
                b::guarded(b::iown(ai.clone()), vec![b::send_own_val(ai.clone())]),
                b::recv_own_val(ai.clone()),
            ],
        )];
        let s = program(&p);
        assert!(s.contains("real A[1:16] distribute (BLOCK) onto 4"), "{s}");
        assert!(s.contains("do i = 1, 16 {"), "{s}");
        assert!(s.contains("iown(A[i]) : {"), "{s}");
        assert!(s.contains("A[i] -=>"), "{s}");
        assert!(s.contains("A[i] <=-"), "{s}");
    }

    #[test]
    fn prints_sends_and_ranges() {
        let mut p = Program::new();
        let grid = ProcGrid::linear(2);
        let a = p.declare(b::array(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 8)],
            vec![DimDist::Star, DimDist::Block],
            grid,
        ));
        let sec = b::sref(a, vec![b::all(), b::span_st(b::c(1), b::iv("n"), b::c(2))]);
        p.body = vec![
            b::send_to(sec.clone(), vec![b::c(0), b::mypid()]),
            b::recv_val(sec.clone(), sec.clone()),
            Stmt::Barrier,
        ];
        let s = program(&p);
        assert!(s.contains("A[*,1:n:2] -> {0,mypid}"), "{s}");
        assert!(s.contains("A[*,1:n:2] <- A[*,1:n:2]"), "{s}");
        assert!(s.contains("barrier"), "{s}");
    }

    #[test]
    fn prints_redistribute_including_aligned_form() {
        use crate::dist::Distribution;
        use crate::triplet::Triplet;
        let mut p = Program::new();
        let grid = ProcGrid::linear(4);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let t = p.declare(b::array(
            "T",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let cyc = Distribution::new(vec![DimDist::Cyclic], grid);
        p.body = vec![
            b::redistribute(a, cyc.clone()),
            b::redistribute(
                t,
                Distribution::aligned(cyc, vec![Triplet::range(1, 16)], vec![2]),
            ),
        ];
        let s = program(&p);
        assert!(s.contains("redistribute A (CYCLIC) onto 4"), "{s}");
        assert!(
            s.contains("redistribute T align (CYCLIC) onto 4 bounds [1:16] map (d0+2)"),
            "{s}"
        );
    }

    #[test]
    fn stmt_table_numbers_preorder() {
        let mut p = Program::new();
        let grid = ProcGrid::linear(4);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 16)],
            vec![DimDist::Block],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![
            b::do_loop(
                "i",
                b::c(1),
                b::c(16),
                vec![
                    b::guarded(b::iown(ai.clone()), vec![b::send_own_val(ai.clone())]),
                    b::recv_own_val(ai.clone()),
                ],
            ),
            Stmt::Barrier,
        ];
        let t = stmt_table(&p);
        let ids: Vec<u32> = t.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(t[0].1, "do i = 1, 16 {");
        assert_eq!(t[1].1, "iown(A[i]) : {");
        assert_eq!(t[2].1, "A[i] -=>");
        assert_eq!(t[3].1, "A[i] <=-");
        assert_eq!(t[4].1, "barrier");
    }

    #[test]
    fn prints_rules() {
        let mut p = Program::new();
        let grid = ProcGrid::linear(2);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            grid,
        ));
        let s = b::sref(a, vec![b::at(b::c(1))]);
        let rule = b::iown(s.clone()).and(b::cmp(crate::expr::CmpOp::Le, b::iv("i"), b::c(4)));
        assert_eq!(bool_expr(&p, &rule), "(iown(A[1]) && i <= 4)");
        assert_eq!(
            bool_expr(&p, &BoolExpr::Not(Box::new(b::accessible(s.clone())))),
            "!accessible(A[1])"
        );
        assert_eq!(int_expr(&p, &b::mylb(s, 1)), "mylb(A[1], 1)");
    }
}
