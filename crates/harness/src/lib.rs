#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # harness — regenerating the paper's tables and figures
//!
//! Three tables: [`artifacts::ARTIFACTS`] names every table and figure
//! once, with the builder that turns results into its rows/series;
//! [`campaign::PLANES`] does the same for the observation planes, and
//! [`claims::CLAIMS`] states every finding of the paper once, with the
//! bands its numbers must lie in. A
//! [`Campaign`] runs the experiment specs (once each, in parallel,
//! memoized by name) and writes each plane's files as runs finish.

pub mod artifacts;
pub mod campaign;
pub mod claims;

pub use campaign::Campaign;
