#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # minisql — the SQL subset behind the R-GMA virtual database
//!
//! R-GMA presents the Grid as one large relational database: producers
//! `INSERT`, consumers `SELECT`, and the middleware mediates. This crate
//! implements the SQL surface the paper's tests exercise:
//!
//! * `CREATE TABLE` with `INTEGER` (`INT`), `DOUBLE PRECISION` (`DOUBLE`)
//!   and `CHAR(n)` columns, the types of the paper's table,
//! * `INSERT INTO … VALUES …` with validation, coercion and width checks
//!   ([`TableSchema::normalize_insert`]), and the check that a row a
//!   publisher sends is already in that normal form
//!   ([`TableSchema::check_row`]),
//! * `SELECT cols FROM t WHERE …` with three-valued predicates:
//!   `column op literal` comparisons under `AND` / `OR` / `NOT` and
//!   parentheses, evaluated over a row or, through [`Lookup`], over a
//!   message's properties. [`parse_predicate`] reads the bare condition,
//!   and `jms::Selector` is this predicate: one condition language for
//!   both contenders,
//! * the writer of the literals an `INSERT` wraps ([`write_fixed`], and
//!   `simcore::write_uint` for integers), beside the lexer that reads
//!   them back, and [`fixed_literal`]: such a literal's length and value
//!   without the text.
//!
//! (Joins and aggregate functions are outside the study's workload and are
//! deliberately not implemented; R-GMA query *types* — latest, history,
//! continuous — are API-level concepts implemented in the `rgma` crate.)

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod schema;

pub use ast::{CmpOp, ColumnDef, Predicate, SqlType, Statement};
pub use eval::{eval_predicate, Lookup};
pub use lexer::{fixed_literal, lex, write_fixed, LexError, Lexer, Token};
pub use parser::{parse, parse_predicate, ParseError};
pub use schema::{Catalog, SchemaError, TableSchema};
