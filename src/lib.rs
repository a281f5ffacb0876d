#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # gridmon — umbrella crate
//!
//! Re-exports the full public API of the IPPS 2007 pub/sub study
//! reproduction. See the workspace README for the architecture overview.

pub use gridmon_core as core;
pub use jms;
pub use minisql;
pub use narada;
pub use powergrid;
pub use rgma;
pub use simcore;
pub use simfault;
pub use simnet;
pub use simos;
pub use simprof;
pub use simtrace;
pub use telemetry;
pub use wire;
