#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # jms — Java Message Service API layer
//!
//! The vendor-neutral messaging abstractions the paper's Narada tests are
//! written against:
//!
//! * [`selector`] — the complete JMS message-selector language (SQL-92
//!   conditional subset): lexer, parser, AST, three-valued evaluator with
//!   `LIKE`/`BETWEEN`/`IN`/`IS NULL`.
//! * [`Selector`] — compiled selectors with a per-evaluation CPU cost
//!   model charged to broker nodes.
//! * [`AckMode`] — the acknowledge mode the study varies (AUTO vs
//!   CLIENT).

pub mod api;
pub mod selector;

pub use api::{AckMode, Selector};
pub use selector::{Expr, ParseError};
