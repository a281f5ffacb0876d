#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # harness — regenerating the paper's tables and figures
//!
//! A [`Campaign`] runs the experiment specs (once each, in parallel,
//! memoized by name) and the `artifacts` module turns results into the
//! exact rows/series each paper artifact reports.

pub mod artifacts;
pub mod campaign;

pub use campaign::Campaign;
