#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # jms — Java Message Service API layer
//!
//! The vendor-neutral messaging abstractions the paper's Narada tests are
//! written against:
//!
//! * [`Selector`] — a compiled message selector with a per-evaluation CPU
//!   cost model charged to broker nodes. JMS defines a selector as a
//!   subset of the SQL-92 conditional expression, so it is minisql's
//!   `WHERE` predicate ([`minisql::parse_predicate`]), evaluated over a
//!   message's properties with SQL's three-valued logic: `column op
//!   literal` comparisons under `AND` / `OR` / `NOT` and parentheses.
//! * [`AckMode`] — the acknowledge mode the study varies (AUTO vs
//!   CLIENT).

pub mod api;
#[path = "tests.rs"]
#[cfg(test)]
mod selector;

pub use api::{AckMode, Selector};
