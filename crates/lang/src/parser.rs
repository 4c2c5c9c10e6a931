//! Recursive-descent parser with local backtracking.
//!
//! Statements terminate at newlines (or `}`), which keeps the receive form
//! `U <=` unambiguous against `<=` comparisons in compute rules.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;
use xdp_ir::{
    BoolExpr, CmpOp, Decl, DestSet, DimDist, Distribution, ElemBinOp, ElemExpr, ElemType, IntBinOp,
    IntExpr, Ownership, ProcGrid, Program, SectionRef, Stmt, Subscript, TransferKind, Triplet,
    TripletExpr,
};

/// A parse error with its source line.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// How deep a program's tree may nest, counting one level for each block
/// and each primary (so each parenthesis, unary operator and intrinsic
/// argument nests one more), and one for each operator of a chain
/// (`a + b + c` nests to the left). Every later walk of the tree recurses
/// this deep, so the bound is what keeps them on the stack; the corpus and
/// the generators stay under twenty.
pub const MAX_DEPTH: usize = 256;

/// How the error for a program past [`MAX_DEPTH`] begins.
const TOO_DEEP: &str = "nested deeper than";

/// Parse a whole program: declarations, then statements.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        program: Program::new(),
    };
    p.skip_newlines();
    while p.peek_type_keyword() {
        let d = p.decl()?;
        p.program.declare(d);
        p.end_of_stmt()?;
        p.skip_newlines();
    }
    let body = p.stmts_until(&TokenKind::Eof)?;
    p.program.body = body;
    Ok(p.program)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Levels of the tree around the node being parsed ([`MAX_DEPTH`]).
    depth: usize,
    program: Program,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    /// Enter one more level of the tree. A chain of operators enters one
    /// per operator and restores `depth` when the chain ends.
    fn deeper(&mut self) -> PResult<()> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("{TOO_DEEP} {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse with `parse` one level deeper into the tree.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let at = self.depth;
        self.deeper()?;
        let out = parse(self)?;
        self.depth = at;
        Ok(out)
    }

    /// Try `parse`, rewinding to where it started when it fails. The
    /// error comes back only if it was [`MAX_DEPTH`]'s: the caller reports
    /// it should the other reading of the input fail as well.
    fn attempt<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> PResult<T>,
    ) -> Result<T, Option<ParseError>> {
        let (pos, depth) = (self.pos, self.depth);
        parse(self).map_err(|e| {
            (self.pos, self.depth) = (pos, depth);
            e.message.starts_with(TOO_DEEP).then_some(e)
        })
    }

    fn expect(&mut self, k: &TokenKind) -> PResult<()> {
        if self.peek() == k {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected {}, found {}",
                k.name(),
                self.peek().name()
            ))
        }
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {}", other.name())),
        }
    }

    fn int_lit(&mut self) -> PResult<i64> {
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {}", other.name())),
        }
    }

    fn peek_ident(&self, s: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(x) if x == s)
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.peek_ident(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn peek_type_keyword(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(s)
            if s == "real" || s == "integer" || s == "complex")
    }

    fn end_of_stmt(&mut self) -> PResult<()> {
        match self.peek() {
            TokenKind::Newline | TokenKind::Semi => {
                self.bump();
                Ok(())
            }
            TokenKind::Eof | TokenKind::RBrace => Ok(()),
            other => self.err(format!("expected end of statement, found {}", other.name())),
        }
    }

    // ----- declarations ---------------------------------------------------

    fn decl(&mut self) -> PResult<Decl> {
        let ty = self.ident()?;
        let elem = match ty.as_str() {
            "real" => ElemType::F64,
            "integer" => ElemType::I64,
            "complex" => ElemType::C64,
            other => return self.err(format!("unknown type `{other}`")),
        };
        let name = self.ident()?;
        let mut bounds = Vec::new();
        if self.eat(&TokenKind::LBracket) {
            loop {
                let lb = self.int_lit()?;
                let ub = if self.eat(&TokenKind::Colon) {
                    self.int_lit()?
                } else {
                    lb
                };
                bounds.push(Triplet::range(lb, ub));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBracket)?;
        }
        let mut ownership = Ownership::Exclusive;
        let mut dist = None;
        if self.eat_ident("universal") {
            ownership = Ownership::Universal;
        } else if self.eat_ident("distribute") {
            dist = Some(self.distribution()?);
        } else {
            return self.err("declaration needs `distribute (...) onto ...` or `universal`");
        }
        if let Some(d) = &dist {
            if d.rank() != bounds.len() {
                return self.err(format!(
                    "distribution rank mismatch for `{name}`: {} bounds but {} dimensions",
                    bounds.len(),
                    d.rank()
                ));
            }
        }
        let mut segment_shape = None;
        if self.eat_ident("segment") {
            self.expect(&TokenKind::LParen)?;
            let mut shape = Vec::new();
            loop {
                shape.push(self.int_lit()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            segment_shape = Some(shape);
        }
        Ok(Decl {
            name,
            elem,
            bounds,
            ownership,
            dist,
            segment_shape,
        })
    }

    /// `(BLOCK,CYCLIC) onto 2x2` or an `align ...` clause.
    fn distribution(&mut self) -> PResult<Distribution> {
        if self.peek_ident("align") {
            return self.aligned_dist();
        }
        self.expect(&TokenKind::LParen)?;
        let mut dims = Vec::new();
        loop {
            dims.push(self.dim_dist()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        if !self.eat_ident("onto") {
            return self.err("expected `onto` after distribution dims");
        }
        let grid = self.grid()?;
        self.check_dist_grid(&dims, &grid)?;
        Ok(Distribution::new(dims, grid))
    }

    /// Pre-validate the invariants [`Distribution::new`] asserts, so
    /// malformed source surfaces as a parse error rather than a panic.
    fn check_dist_grid(&self, dims: &[DimDist], grid: &ProcGrid) -> PResult<()> {
        let ndist = dims.iter().filter(|d| d.is_distributed()).count();
        if !(ndist == grid.rank() || (ndist == 0 && grid.rank() == 1)) {
            return self.err(format!(
                "distribution has {ndist} distributed dims but grid {grid} has rank {}",
                grid.rank()
            ));
        }
        Ok(())
    }

    /// `align (BLOCK) onto 4 bounds [1:16] map (d0+1,*)` — ownership
    /// delegated to a base distribution through a dimension map.
    fn aligned_dist(&mut self) -> PResult<Distribution> {
        self.bump(); // align
        self.expect(&TokenKind::LParen)?;
        let mut dims = Vec::new();
        loop {
            dims.push(self.dim_dist()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        if !self.eat_ident("onto") {
            return self.err("expected `onto` in align clause");
        }
        let grid = self.grid()?;
        if !self.eat_ident("bounds") {
            return self.err("expected `bounds` in align clause");
        }
        self.expect(&TokenKind::LBracket)?;
        let mut bounds = Vec::new();
        loop {
            let lb = self.int_lit()?;
            let ub = if self.eat(&TokenKind::Colon) {
                self.int_lit()?
            } else {
                lb
            };
            bounds.push(Triplet::range(lb, ub));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBracket)?;
        if !self.eat_ident("map") {
            return self.err("expected `map` in align clause");
        }
        self.expect(&TokenKind::LParen)?;
        let mut map = Vec::new();
        loop {
            if self.eat(&TokenKind::Star) {
                map.push(None);
            } else {
                let name = self.ident()?;
                let Some(bd) = name.strip_prefix('d').and_then(|x| x.parse::<usize>().ok()) else {
                    return self.err(format!("expected `d<k>` in align map, got `{name}`"));
                };
                let off = if self.eat(&TokenKind::Plus) {
                    self.int_lit()?
                } else if self.eat(&TokenKind::Minus) {
                    -self.int_lit()?
                } else {
                    0
                };
                map.push(Some((bd, off)));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.check_dist_grid(&dims, &grid)?;
        let base = Distribution::new(dims, grid);
        if bounds.len() != base.rank() {
            return self.err(format!(
                "align clause has {} bounds but the base distribution has rank {}",
                bounds.len(),
                base.rank()
            ));
        }
        for &(bd, _) in map.iter().flatten() {
            if bd >= base.rank() {
                return self.err(format!(
                    "align map refers to base dim d{bd} but the base has rank {}",
                    base.rank()
                ));
            }
        }
        for (bd, dd) in base.dims().iter().enumerate() {
            if dd.is_distributed() && !map.iter().flatten().any(|&(d, _)| d == bd) {
                return self.err(format!(
                    "distributed base dim {bd} is not mapped in the align clause"
                ));
            }
        }
        Ok(Distribution::aligned_map(base, bounds, map))
    }

    fn dim_dist(&mut self) -> PResult<DimDist> {
        if self.eat(&TokenKind::Star) {
            return Ok(DimDist::Star);
        }
        let name = self.ident()?;
        match name.as_str() {
            "BLOCK" => Ok(DimDist::Block),
            "CYCLIC" => {
                if self.eat(&TokenKind::LParen) {
                    let b = self.int_lit()?;
                    self.expect(&TokenKind::RParen)?;
                    if b < 1 {
                        return self.err(format!("CYCLIC({b}) block size must be >= 1"));
                    }
                    Ok(DimDist::BlockCyclic(b))
                } else {
                    Ok(DimDist::Cyclic)
                }
            }
            other => self.err(format!("unknown distribution `{other}`")),
        }
    }

    /// Grid syntax `4` or `2x2` or `2x2x4` (the `x` glues to the following
    /// digits during lexing, so split identifiers like `x2x4`).
    fn grid(&mut self) -> PResult<ProcGrid> {
        let first = self.int_lit()?;
        if first < 1 {
            return self.err(format!("grid extent {first} must be >= 1"));
        }
        let mut dims = vec![first as usize];
        if let TokenKind::Ident(s) = self.peek().clone() {
            if s.starts_with('x') {
                let parts: Vec<&str> = s.split('x').collect();
                if parts[0].is_empty() && parts[1..].iter().all(|p| p.parse::<usize>().is_ok()) {
                    self.bump();
                    for p in &parts[1..] {
                        dims.push(p.parse().unwrap());
                    }
                }
            }
        }
        if let Some(bad) = dims.iter().find(|&&e| e < 1) {
            return self.err(format!("grid extent {bad} must be >= 1"));
        }
        Ok(ProcGrid::new(dims))
    }

    // ----- statements -----------------------------------------------------

    fn stmts_until(&mut self, end: &TokenKind) -> PResult<Vec<Stmt>> {
        self.nested(|p| {
            let mut out = Vec::new();
            p.skip_newlines();
            while p.peek() != end {
                out.push(p.stmt()?);
                p.skip_newlines();
            }
            Ok(out)
        })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        if self.peek_ident("do") {
            return self.do_loop();
        }
        if self.eat_ident("barrier") {
            self.end_of_stmt()?;
            return Ok(Stmt::Barrier);
        }
        if self.eat_ident("redistribute") {
            let name = self.ident()?;
            let Some(var) = self.program.lookup(&name) else {
                return self.err(format!("redistribute of undeclared array `{name}`"));
            };
            let dist = self.distribution()?;
            let rank = self.program.decl(var).bounds.len();
            if dist.rank() != rank {
                return self.err(format!(
                    "redistribute of `{name}`: array has rank {rank} but distribution has rank {}",
                    dist.rank()
                ));
            }
            self.end_of_stmt()?;
            return Ok(Stmt::Redistribute { var, dist });
        }
        // Guarded statement: `<rule> : { ... }` — try with backtracking.
        let rule = self.attempt(|p| {
            let rule = p.bool_expr()?;
            p.expect(&TokenKind::Colon)?;
            Ok(rule)
        });
        match rule {
            Ok(rule) => {
                self.expect(&TokenKind::LBrace)?;
                let body = self.stmts_until(&TokenKind::RBrace)?;
                self.expect(&TokenKind::RBrace)?;
                self.end_of_stmt()?;
                Ok(Stmt::Guarded { rule, body })
            }
            Err(too_deep) => self.unguarded_stmt().map_err(|e| too_deep.unwrap_or(e)),
        }
    }

    /// A statement that is not a loop, a guard, a barrier or a
    /// redistribution.
    fn unguarded_stmt(&mut self) -> PResult<Stmt> {
        // Kernel call / scalar assign dispatch on a leading identifier.
        if let TokenKind::Ident(name) = self.peek().clone() {
            let next = &self.toks[self.pos + 1].kind;
            if *next == TokenKind::LParen {
                return self.kernel_call(&name);
            }
            if *next == TokenKind::Eq && self.program.lookup(&name).is_none() {
                self.bump();
                self.bump();
                let value = self.int_expr()?;
                self.end_of_stmt()?;
                return Ok(Stmt::ScalarAssign { var: name, value });
            }
        }

        // Section-reference statements: send, receive, assignment.
        let sec = self.section_ref()?;
        let kind_tok = self.bump();
        match kind_tok {
            TokenKind::Arrow | TokenKind::OwnArrow | TokenKind::OwnValArrow => {
                let kind = match kind_tok {
                    TokenKind::Arrow => TransferKind::Value,
                    TokenKind::OwnArrow => TransferKind::Ownership,
                    _ => TransferKind::OwnershipValue,
                };
                let mut dest = DestSet::Unspecified;
                if self.eat(&TokenKind::LBrace) {
                    let mut pids = Vec::new();
                    loop {
                        pids.push(self.int_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBrace)?;
                    dest = DestSet::Pids(pids);
                }
                let salt = if self.eat(&TokenKind::Hash) {
                    Some(self.int_expr()?)
                } else {
                    None
                };
                self.end_of_stmt()?;
                Ok(Stmt::Send {
                    sec,
                    kind,
                    dest,
                    salt,
                })
            }
            TokenKind::RecvArrow => {
                let name = self.section_ref()?;
                let salt = if self.eat(&TokenKind::Hash) {
                    Some(self.int_expr()?)
                } else {
                    None
                };
                self.end_of_stmt()?;
                Ok(Stmt::Recv {
                    target: sec,
                    kind: TransferKind::Value,
                    name: Some(name),
                    salt,
                })
            }
            TokenKind::RecvOwnArrow | TokenKind::RecvOwnValArrow => {
                let kind = if kind_tok == TokenKind::RecvOwnArrow {
                    TransferKind::Ownership
                } else {
                    TransferKind::OwnershipValue
                };
                let salt = if self.eat(&TokenKind::Hash) {
                    Some(self.int_expr()?)
                } else {
                    None
                };
                self.end_of_stmt()?;
                Ok(Stmt::Recv {
                    target: sec,
                    kind,
                    name: None,
                    salt,
                })
            }
            TokenKind::Eq => {
                let rhs = self.elem_expr()?;
                self.end_of_stmt()?;
                Ok(Stmt::Assign { target: sec, rhs })
            }
            other => self.err(format!(
                "expected `->`, `=>`, `-=>`, `<-`, `<=`, `<=-` or `=`, found {}",
                other.name()
            )),
        }
    }

    fn do_loop(&mut self) -> PResult<Stmt> {
        self.bump(); // do
        let var = self.ident()?;
        self.expect(&TokenKind::Eq)?;
        let lo = self.int_expr()?;
        self.expect(&TokenKind::Comma)?;
        let hi = self.int_expr()?;
        let step = if self.eat(&TokenKind::Comma) {
            self.int_expr()?
        } else {
            IntExpr::Const(1)
        };
        let body = if self.eat(&TokenKind::LBrace) {
            let b = self.stmts_until(&TokenKind::RBrace)?;
            self.expect(&TokenKind::RBrace)?;
            b
        } else {
            // Fortran style: statements until `enddo`.
            self.end_of_stmt()?;
            self.nested(|p| {
                let mut b = Vec::new();
                p.skip_newlines();
                while !p.peek_ident("enddo") {
                    if matches!(p.peek(), TokenKind::Eof) {
                        return p.err("unterminated do-loop (missing `enddo`)");
                    }
                    b.push(p.stmt()?);
                    p.skip_newlines();
                }
                p.bump(); // enddo
                Ok(b)
            })?
        };
        self.end_of_stmt()?;
        Ok(Stmt::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
        })
    }

    fn kernel_call(&mut self, name: &str) -> PResult<Stmt> {
        let name = name.to_string();
        self.bump(); // ident
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        let mut int_args = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                // A declared variable begins a section argument; anything
                // else is a scalar parameter.
                let is_section = matches!(self.peek(), TokenKind::Ident(s)
                    if self.program.lookup(s).is_some());
                if is_section {
                    args.push(self.section_ref()?);
                } else {
                    int_args.push(self.int_expr()?);
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.end_of_stmt()?;
        Ok(Stmt::Kernel {
            name,
            args,
            int_args,
        })
    }

    // ----- section references ----------------------------------------------

    fn section_ref(&mut self) -> PResult<SectionRef> {
        let line = self.line();
        let name = self.ident()?;
        let var = self.program.lookup(&name).ok_or(ParseError {
            line,
            message: format!("undeclared variable `{name}`"),
        })?;
        let mut subs = Vec::new();
        if self.eat(&TokenKind::LBracket) {
            loop {
                subs.push(self.subscript()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBracket)?;
        }
        Ok(SectionRef::new(var, subs))
    }

    fn subscript(&mut self) -> PResult<Subscript> {
        if self.eat(&TokenKind::Star) {
            return Ok(Subscript::All);
        }
        let lb = self.int_expr()?;
        if self.eat(&TokenKind::Colon) {
            let ub = self.int_expr()?;
            let st = if self.eat(&TokenKind::Colon) {
                self.int_expr()?
            } else {
                IntExpr::Const(1)
            };
            Ok(Subscript::Range(TripletExpr { lb, ub, st }))
        } else {
            Ok(Subscript::Point(lb))
        }
    }

    // ----- integer expressions ----------------------------------------------

    fn int_expr(&mut self) -> PResult<IntExpr> {
        self.int_additive()
    }

    fn int_additive(&mut self) -> PResult<IntExpr> {
        let at = self.depth;
        let mut lhs = self.int_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => IntBinOp::Add,
                TokenKind::Minus => IntBinOp::Sub,
                _ => break,
            };
            self.bump();
            self.deeper()?;
            let rhs = self.int_multiplicative()?;
            lhs = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    fn int_multiplicative(&mut self) -> PResult<IntExpr> {
        let at = self.depth;
        let mut lhs = self.int_primary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => IntBinOp::Mul,
                TokenKind::Slash => IntBinOp::Div,
                TokenKind::Percent => IntBinOp::Mod,
                _ => break,
            };
            self.bump();
            self.deeper()?;
            let rhs = self.int_primary()?;
            lhs = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    /// An integer primary, one level below what encloses it.
    fn int_primary(&mut self) -> PResult<IntExpr> {
        self.nested(Self::int_atom)
    }

    fn int_atom(&mut self) -> PResult<IntExpr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(IntExpr::Const(v))
            }
            TokenKind::Minus => {
                self.bump();
                Ok(IntExpr::Neg(Box::new(self.int_primary()?)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.int_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => match name.as_str() {
                "mypid" => {
                    self.bump();
                    Ok(IntExpr::MyPid)
                }
                "mylb" | "myub" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let sec = self.section_ref()?;
                    self.expect(&TokenKind::Comma)?;
                    let d = self.int_lit()? as u32;
                    self.expect(&TokenKind::RParen)?;
                    Ok(if name == "mylb" {
                        IntExpr::MyLb(Box::new(sec), d)
                    } else {
                        IntExpr::MyUb(Box::new(sec), d)
                    })
                }
                "min" | "max" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let a = self.int_expr()?;
                    self.expect(&TokenKind::Comma)?;
                    let b = self.int_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let op = if name == "min" {
                        IntBinOp::Min
                    } else {
                        IntBinOp::Max
                    };
                    Ok(IntExpr::Bin(op, Box::new(a), Box::new(b)))
                }
                _ => {
                    self.bump();
                    Ok(IntExpr::Var(name))
                }
            },
            other => self.err(format!(
                "expected integer expression, found {}",
                other.name()
            )),
        }
    }

    // ----- compute rules ------------------------------------------------------

    fn bool_expr(&mut self) -> PResult<BoolExpr> {
        let at = self.depth;
        let mut lhs = self.bool_and()?;
        while self.eat(&TokenKind::OrOr) {
            self.deeper()?;
            let rhs = self.bool_and()?;
            lhs = BoolExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    fn bool_and(&mut self) -> PResult<BoolExpr> {
        let at = self.depth;
        let mut lhs = self.bool_atom()?;
        while self.eat(&TokenKind::AndAnd) {
            self.deeper()?;
            let rhs = self.bool_atom()?;
            lhs = BoolExpr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    /// A rule atom, one level below what encloses it.
    fn bool_atom(&mut self) -> PResult<BoolExpr> {
        self.nested(Self::bool_term)
    }

    fn bool_term(&mut self) -> PResult<BoolExpr> {
        match self.peek().clone() {
            TokenKind::Bang => {
                self.bump();
                Ok(BoolExpr::Not(Box::new(self.bool_atom()?)))
            }
            TokenKind::Ident(name) if name == "iown" || name == "accessible" || name == "await" => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let sec = self.section_ref()?;
                self.expect(&TokenKind::RParen)?;
                Ok(match name.as_str() {
                    "iown" => BoolExpr::Iown(sec),
                    "accessible" => BoolExpr::Accessible(sec),
                    _ => BoolExpr::Await(sec),
                })
            }
            TokenKind::Ident(name) if name == "true" => {
                self.bump();
                Ok(BoolExpr::True)
            }
            TokenKind::Ident(name) if name == "false" => {
                self.bump();
                Ok(BoolExpr::False)
            }
            TokenKind::LParen => {
                // Either a parenthesized rule or a parenthesized integer
                // expression beginning a comparison — backtrack to decide.
                let inner = self.attempt(|p| {
                    p.bump();
                    let inner = p.bool_expr()?;
                    p.expect(&TokenKind::RParen)?;
                    Ok(inner)
                });
                inner.or_else(|too_deep| self.comparison().map_err(|e| too_deep.unwrap_or(e)))
            }
            _ => self.comparison(),
        }
    }

    fn comparison(&mut self) -> PResult<BoolExpr> {
        let lhs = self.int_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::NotEq => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::RecvOwnArrow => CmpOp::Le, // `<=` in rule position
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::GtEq => CmpOp::Ge,
            other => {
                return self.err(format!(
                    "expected comparison operator, found {}",
                    other.name()
                ))
            }
        };
        self.bump();
        let rhs = self.int_expr()?;
        Ok(BoolExpr::Cmp(op, lhs, rhs))
    }

    // ----- element expressions -------------------------------------------------

    fn elem_expr(&mut self) -> PResult<ElemExpr> {
        let at = self.depth;
        let mut lhs = self.elem_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ElemBinOp::Add,
                TokenKind::Minus => ElemBinOp::Sub,
                _ => break,
            };
            self.bump();
            self.deeper()?;
            let rhs = self.elem_multiplicative()?;
            lhs = ElemExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    fn elem_multiplicative(&mut self) -> PResult<ElemExpr> {
        let at = self.depth;
        let mut lhs = self.elem_primary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ElemBinOp::Mul,
                TokenKind::Slash => ElemBinOp::Div,
                _ => break,
            };
            self.bump();
            self.deeper()?;
            let rhs = self.elem_primary()?;
            lhs = ElemExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = at;
        Ok(lhs)
    }

    /// An element primary, one level below what encloses it.
    fn elem_primary(&mut self) -> PResult<ElemExpr> {
        self.nested(Self::elem_atom)
    }

    fn elem_atom(&mut self) -> PResult<ElemExpr> {
        match self.peek().clone() {
            TokenKind::Float(v) => {
                self.bump();
                Ok(ElemExpr::LitF(v))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(ElemExpr::LitI(v))
            }
            TokenKind::Minus => {
                self.bump();
                Ok(ElemExpr::Neg(Box::new(self.elem_primary()?)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.elem_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.program.lookup(&name).is_some() {
                    Ok(ElemExpr::Ref(self.section_ref()?))
                } else {
                    // mypid / loop variables / mylb-style intrinsics: an
                    // integer *primary* broadcast element-wise. (Only a
                    // primary — `mypid + A[i]` must combine at the element
                    // level, where `A` is an array reference.)
                    Ok(ElemExpr::FromInt(self.int_primary()?))
                }
            }
            other => self.err(format!(
                "expected element expression, found {}",
                other.name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::pretty;

    /// Pretty-print, reparse, pretty-print again: text fixpoint.
    fn roundtrip(src: &str) -> String {
        let p1 = parse_program(src).expect("first parse");
        let text1 = pretty::program(&p1);
        let p2 = parse_program(&text1).expect("reparse");
        let text2 = pretty::program(&p2);
        assert_eq!(text1, text2, "pretty/parse not a fixpoint");
        text1
    }

    #[test]
    fn parses_paper_simple_example() {
        let src = r#"
real A[1:16] distribute (BLOCK) onto 4
real B[1:16] distribute (BLOCK) onto 4
real T[0:3] distribute (BLOCK) onto 4 segment (1)

do i = 1, 16 {
  iown(B[i]) : { B[i] -> }
  iown(A[i]) : {
    T[mypid] <- B[i]
    await(T[mypid]) : { A[i] = A[i] + T[mypid] }
  }
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 3);
        let c = p.stmt_census();
        assert_eq!(c.loops, 1);
        assert_eq!(c.guards, 3);
        assert_eq!(c.sends, 1);
        assert_eq!(c.recvs, 1);
        roundtrip(src);
    }

    #[test]
    fn parses_redistribute() {
        let src = r#"
real A[1:16,1:16] distribute (BLOCK,*) onto 4

redistribute A (*,CYCLIC) onto 4
redistribute A (BLOCK,BLOCK) onto 2x2
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.stmt_census().redistributes, 2);
        let Stmt::Redistribute { var, dist } = &p.body[0] else {
            panic!("expected redistribute, got {:?}", p.body[0]);
        };
        assert_eq!(p.decl(*var).name, "A");
        assert_eq!(dist.to_string(), "(*,CYCLIC) onto 4");
        assert!(xdp_ir::validate(&p).is_empty());
        roundtrip(src);

        let bad = parse_program("redistribute Z (BLOCK) onto 4\n");
        assert!(bad.unwrap_err().to_string().contains("undeclared"));
    }

    #[test]
    fn rank_mismatched_declaration_is_a_parse_error() {
        // Must surface as a named error, not a downstream declare panic.
        let bad = parse_program("real A[1:8,1:8] distribute (BLOCK) onto 4\n");
        let msg = bad.unwrap_err().to_string();
        assert!(msg.contains("rank mismatch"), "{msg}");
        assert!(msg.contains("2 bounds but 1 dimensions"), "{msg}");
    }

    #[test]
    fn parses_paper_fft_fragment_with_enddo() {
        // §4's Loop3 verbatim (Fortran-style loops).
        let src = r#"
complex A[1:4,1:4,1:4] distribute (*,*,BLOCK) onto 4 segment (4,1,1)

do p = 1, 4
  iown(A[*,*,p]) : {
    do n = 1, 4
      A[*,n,p] -=>
    enddo
    do n = 1, 4
      A[*,p,n] <=-
    enddo
  }
enddo
"#;
        let p = parse_program(src).unwrap();
        let c = p.stmt_census();
        assert_eq!(c.loops, 3);
        assert_eq!(c.sends, 1);
        assert_eq!(c.recvs, 1);
        let text = pretty::program(&p);
        assert!(text.contains("A[*,n,p] -=>"), "{text}");
        assert!(text.contains("A[*,p,n] <=-"), "{text}");
    }

    #[test]
    fn parses_ownership_migration_fragment() {
        let src = r#"
real A[1:16] distribute (BLOCK) onto 4 segment (1)
real B[1:16] distribute (CYCLIC) onto 4

do i = 1, 16 {
  iown(A[i]) : { A[i] -=> }
  iown(B[i]) : { A[i] <=- }
  await(A[i]) : { A[i] = A[i] + B[i] }
}
"#;
        let text = roundtrip(src);
        assert!(text.contains("A[i] -=>"));
        assert!(text.contains("A[i] <=-"));
        assert!(text.contains("await(A[i]) : {"));
    }

    #[test]
    fn parses_rules_and_expressions() {
        let src = r#"
real A[1:8] distribute (BLOCK) onto 2

(iown(A[1:4]) && !(mypid == 0)) : {
  A[2] = 0.5 * (A[1] + A[3])
}
i = mypid + 1
do k = mylb(A[*], 1), myub(A[*], 1), 2 {
  A[k] = 2.0
}
"#;
        let p = parse_program(src).unwrap();
        let text = pretty::program(&p);
        assert!(text.contains("&& !mypid == 0"), "{text}");
        assert!(text.contains("mylb(A[*], 1)"), "{text}");
        assert!(text.contains(", 2 {"), "{text}");
        roundtrip(src);
    }

    #[test]
    fn parses_2d_grid_and_cyclic_block() {
        let src = "real B[1:16,1:16] distribute (BLOCK,CYCLIC) onto 2x2 segment (4,2)\n";
        let p = parse_program(src).unwrap();
        let d = p.decl(p.lookup("B").unwrap());
        assert_eq!(d.dist.as_ref().unwrap().grid().dims(), &[2, 2]);
        assert_eq!(d.segment_shape, Some(vec![4, 2]));
        let src2 = "real C[1:8] distribute (CYCLIC(2)) onto 4\n";
        let p2 = parse_program(src2).unwrap();
        let d2 = p2.decl(p2.lookup("C").unwrap());
        assert_eq!(d2.dist.as_ref().unwrap().dims()[0], DimDist::BlockCyclic(2));
    }

    #[test]
    fn parses_sends_with_dest_and_salt() {
        let src = r#"
real B[1:8] distribute (BLOCK) onto 2
real T[0:1] distribute (BLOCK) onto 2

B[1:4] -> {1} #7
T[mypid] <- B[1:4] #7
B[5:8] =>
barrier
"#;
        let p = parse_program(src).unwrap();
        let text = pretty::program(&p);
        assert!(text.contains("B[1:4] -> {1} #7"), "{text}");
        assert!(text.contains("T[mypid] <- B[1:4] #7"), "{text}");
        assert!(text.contains("B[5:8] =>"), "{text}");
        assert!(text.contains("barrier"), "{text}");
        roundtrip(src);
    }

    #[test]
    fn kernel_calls_with_mixed_args() {
        let src = r#"
complex A[1:4,1:4] distribute (*,BLOCK) onto 4

do k = 1, 4 {
  fft1d(A[*,k])
  work_data(A[*,k], 100)
}
"#;
        let p = parse_program(src).unwrap();
        let mut kernels = 0;
        p.visit(&mut |s| {
            if let Stmt::Kernel {
                name,
                args,
                int_args,
            } = s
            {
                kernels += 1;
                if name == "work_data" {
                    assert_eq!(args.len(), 1);
                    assert_eq!(int_args.len(), 1);
                }
            }
        });
        assert_eq!(kernels, 2);
        roundtrip(src);
    }

    #[test]
    fn error_reporting() {
        let e = parse_program("real A[1:4] distribute (BLOCK) onto 2\nA[1] <~\n").unwrap_err();
        assert!(e.line >= 2, "{e}");
        let e2 = parse_program("whatever ->\n").unwrap_err();
        assert!(
            e2.message.contains("undeclared") || e2.message.contains("expected"),
            "{e2}"
        );
        let e3 = parse_program("real A distribute (BLOCK) onto\n").unwrap_err();
        assert!(e3.line == 1, "{e3}");
    }

    /// The depth bound counts a statement's block, each primary, each
    /// operator of a chain and each nested block, in every kind of
    /// expression, and a backtracking alternative does not hide it.
    #[test]
    fn nesting_past_max_depth_is_a_parse_error() {
        let decl = "real A[1:4] distribute (BLOCK) onto 4\n";
        // A statement and its first primary take two levels.
        let room = MAX_DEPTH - 2;
        let deep = |n: usize| -> [String; 5] {
            [
                format!("{decl}A[1] = 1.0{}\n", " + 1.0".repeat(n)),
                format!("{decl}A[1] = {}1.0{}\n", "(".repeat(n), ")".repeat(n)),
                format!("{decl}A[{}1] = 1.0\n", "-".repeat(n)),
                format!(
                    "{decl}{} : {{ barrier }}\n",
                    vec!["true"; n + 1].join(" && ")
                ),
                format!("{decl}{}A[1] = 1.0\n", "true : {\n".repeat(n)) + &"}\n".repeat(n),
            ]
        };
        for (shape, (fits, over)) in deep(room).iter().zip(&deep(room + 1)).enumerate() {
            if let Err(e) = parse_program(fits) {
                panic!("shape {shape} at the bound: {e}");
            }
            let e = parse_program(over).unwrap_err();
            assert_eq!(e.message, "nested deeper than 256 levels", "shape {shape}");
        }
        // Inside the rule a guarded statement first tries, then abandons.
        let rule = format!(
            "{decl}{}1 < 2{} : {{ barrier }}\n",
            "(".repeat(300),
            ")".repeat(300)
        );
        let e = parse_program(&rule).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "nested deeper than 256 levels")
        );
    }

    #[test]
    fn malformed_distributions_err_instead_of_panicking() {
        // Distributed-dims vs grid-rank mismatch.
        let e = parse_program("real A[1:4,1:4] distribute (BLOCK,BLOCK) onto 4\n").unwrap_err();
        assert!(e.message.contains("distributed dims"), "{e}");
        // Zero block size.
        let e = parse_program("real A[1:4] distribute (CYCLIC(0)) onto 2\n").unwrap_err();
        assert!(e.message.contains("block size"), "{e}");
        // Zero grid extent.
        let e = parse_program("real A[1:4] distribute (BLOCK) onto 0\n").unwrap_err();
        assert!(e.message.contains("grid extent"), "{e}");
        // Align clause: bounds arity mismatch.
        let e = parse_program(
            "real A[1:4] distribute align (BLOCK) onto 2 bounds [1:4,1:4] map (d0)\n",
        )
        .unwrap_err();
        assert!(e.message.contains("bounds"), "{e}");
        // Align clause: out-of-range base dim.
        let e =
            parse_program("real A[1:4] distribute align (BLOCK) onto 2 bounds [1:4] map (d3)\n")
                .unwrap_err();
        assert!(e.message.contains("d3"), "{e}");
        // Align clause: distributed base dim left unmapped.
        let e = parse_program("real A[1:4] distribute align (BLOCK) onto 2 bounds [1:4] map (*)\n")
            .unwrap_err();
        assert!(e.message.contains("not mapped"), "{e}");
        // Redistribute rank mismatch against the declared array.
        let e = parse_program(
            "real A[1:4] distribute (BLOCK) onto 2\nredistribute A (BLOCK,BLOCK) onto 2x2\n",
        )
        .unwrap_err();
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn le_comparison_vs_ownership_recv() {
        let src = r#"
real A[1:8] distribute (BLOCK) onto 2
integer U[1:8] distribute (BLOCK) onto 2

(mypid <= 1) : {
  A[1:4] <=
}
"#;
        let p = parse_program(src).unwrap();
        let text = pretty::program(&p);
        assert!(text.contains("mypid <= 1 : {"), "{text}");
        assert!(text.contains("A[1:4] <="), "{text}");
        roundtrip(src);
    }
}
