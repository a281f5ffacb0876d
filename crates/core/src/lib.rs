#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # gridmon-core — the study itself, as a library
//!
//! Ties the substrates together into reproducible experiments:
//!
//! * [`calibration`] — every constant pinned to the paper's testbed
//!   (Table I hardware, JVM flags, observed scalability cliffs).
//! * [`experiment`] — deploy a system (Narada single/DBN, R-GMA
//!   single/distributed/secondary) on a simulated Hydra cluster, run the
//!   paper's workload, and collect RTT/percentile/loss/CPU/memory data.
//! * [`scenarios`] — the catalogue: one spec set per table/figure.
//! * [`sweep`] — run many experiments in parallel across OS threads
//!   (each experiment is an independent deterministic simulation).
//! * [`report`] — the `gridmon-hotpath/1` report a scoped run makes of
//!   the kernel's wall-clock site table.

pub mod calibration;
pub mod experiment;
pub mod report;
pub mod scenarios;
pub mod sweep;

pub use experiment::{
    run_experiment, ExperimentResult, ExperimentSpec, Observe, ProfileArtifacts, ScopeArtifacts,
    SloArtifacts, SystemUnderTest, TraceArtifacts,
};
pub use report::HotpathReport;
pub use simfault::{FaultKind, FaultSchedule, FaultStats};
pub use sweep::run_all;
pub use telemetry::slo::{SloReport, SloSpec};

#[cfg(test)]
mod tests {
    use super::report::calibrate_probe_ns;

    #[test]
    fn calibration_returns_small_positive_overhead() {
        let ns = calibrate_probe_ns();
        // A clock-read pair costs somewhere between sub-ns (aggressively
        // optimized) and a few microseconds (VM with slow vDSO).
        assert!(ns < 100_000, "probe overhead implausibly large: {ns}ns");
    }
}
