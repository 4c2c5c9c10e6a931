//! # xdp-lang — concrete syntax for IL+XDP
//!
//! A lexer and recursive-descent parser for the paper's notation, so its
//! listings can be fed to the system verbatim (modulo 0-based processor
//! ids). The grammar covers everything the pretty-printer
//! (`xdp_ir::pretty`) emits, and round-trips with it:
//!
//! ```text
//! real A[1:16] distribute (BLOCK) onto 4
//! real B[1:16] distribute (CYCLIC) onto 4
//!
//! do i = 1, 16 {
//!   iown(B[i]) : { B[i] -> }
//!   iown(A[i]) : {
//!     A[i] <- B[i]
//!     await(A[i]) : { A[i] = (A[i] + B[i]) }
//!   }
//! }
//! ```
//!
//! Fortran-style `do ... enddo` loop bodies are accepted as well as braced
//! ones, and `//` comments are skipped, so the paper's program fragments
//! parse directly. A program nests at most [`MAX_DEPTH`] levels deep;
//! deeper input is a parse error rather than a tree no later walk can
//! recurse through.

//! ```
//! let src = "real A[1:8] distribute (BLOCK) onto 2\n\nA[1:4] ->\n";
//! let program = xdp_lang::parse_program(src).unwrap();
//! assert_eq!(program.decls.len(), 1);
//! assert_eq!(program.stmt_census().sends, 1);
//! ```

pub mod lexer;
pub mod parser;

pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse_program, ParseError, MAX_DEPTH};
