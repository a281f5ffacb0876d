#![forbid(unsafe_code)]
//! `simtrace`: deterministic tracing and live metrics for the gridmon
//! simulation stack.
//!
//! The paper's headline artifact is a *decomposition* — RTT = PRT + PT +
//! SRT (fig 15) — but end-of-run aggregates can't say where inside the
//! middleware a given message spent its time. This crate records every
//! message's lifecycle as timestamped events keyed on [`simcore::SimTime`]
//! (never `std::time`), so a run can be replayed hop by hop:
//! publish → broker → selector match → delivery for NaradaBrokering,
//! INSERT → storage → continuous SELECT → delivery for R-GMA.
//!
//! Pieces:
//!
//! * [`TraceId`] — causal id carried in `wire::Message` headers and
//!   mirrored from `telemetry::ProbeId` for probe traffic.
//! * [`TraceCollector`] — the newest `capacity` [`TraceEvent`]s by key,
//!   in one ring in key order beside a min-heap of the records stamped
//!   ahead of the clock, registered as a kernel service.
//! * [`hop`] — the one call an instrumentation site makes: records the
//!   event when the collector is registered and adds the counters its
//!   kind moves ([`EventKind::counters`]) to `telemetry::MetricsRegistry`
//!   when that is. A plane that is off costs one scan of the kernel's few
//!   service slots and no allocation; [`hops`] makes several events and
//!   the site's own registry writes for the same two scans.
//! * [`export`] — JSONL and Chrome `trace_event` (Perfetto-loadable)
//!   exporters, all byte-deterministic for a given event stream, with
//!   counter rows read from `telemetry::MetricsRegistry`.
//! * [`TraceSummary`] — per-message PRT/PT/SRT reconstruction from the
//!   lifecycle events `simnet::probe` writes beside the `RttCollector`
//!   record, with each hop counted between them.

mod collector;
mod event;
pub mod export;
mod summary;

pub use collector::{hop, hops, TraceCollector, DEFAULT_CAPACITY};
pub use event::{EventKind, TraceEvent, TraceId};
pub use summary::{ProbeBreakdown, TraceSummary};
