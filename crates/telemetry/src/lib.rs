#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # telemetry — measurement and reporting
//!
//! Implements the paper's metrics (§III.C): mean RTT, RTT standard
//! deviation, percentile-of-RTT, loss rate, the decomposition
//! `RTT = PRT + PT + SRT` (fig 15), and table/figure rendering for the
//! reproduction harness.
//!
//! * [`Welford`] — streaming moments (mergeable for parallel sweeps).
//! * [`LatencyHistogram`] — log-bucketed, <1.6 % relative quantile error.
//! * [`RttCollector`] — the kernel service middleware code reports
//!   instrumentation points to.
//! * [`ProbeTable`] — a reading's record keyed by its [`ProbeId`],
//!   stored per publisher lane in `seq`-indexed chunks; what the RTT and
//!   SLO recorders keep their records in, each instant a 40-bit [`Stamp`].
//! * [`slo::SloReport`] — the freshness / deadline-SLO view of the
//!   [`RttCollector`] record (module [`slo`]).
//! * [`MetricsRegistry`] — the time-series metrics plane: named
//!   counters/gauges/histograms sampled on the vmstat cadence, exported
//!   as Prometheus text format and deterministic CSV.
//! * [`Table`] / [`Figure`] — paper-style text and CSV rendering.

pub mod histogram;
pub mod metrics;
pub mod probe_table;
pub mod report;
pub mod rtt;
pub mod slo;
pub mod stats;

pub use histogram::{HistogramSummary, LatencyHistogram};
pub use metrics::{with_metrics, MetricsRegistry};
pub use probe_table::{ProbeTable, Slot, Stamp};
pub use report::{degradation_table, trim_float, Figure, Series, Table};
pub use rtt::{Conservation, ProbeId, ProbeInstants, RttCollector, RttSummary};
pub use stats::Welford;

#[cfg(test)]
mod tests;
