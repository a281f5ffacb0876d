//! The machine-readable perf baseline (`repro --bench-json FILE`).
//!
//! A [`BenchReport`] captures one run of the `bench` artifact suite:
//! per-experiment wall time, kernel event throughput, RTT percentiles
//! and the peak-RSS analogue (simulated server memory), plus harness
//! totals. Since schema `gridmon-bench/2` each row also embeds the
//! kernel's event accounting ([`KernelRow`]): per-event-type
//! scheduled/executed counts, the timer vs. message mix, and the
//! queue-depth high-watermark — so a wall-time regression can be
//! attributed, not just detected. Since schema `gridmon-bench/3` each
//! row also embeds the freshness/SLO accounting ([`SloRow`]): deadline
//! compliance, worst error-budget burn and the delivery-latency
//! p50/p99 — all deterministic for a given build and seed, so [`gate`]
//! can fail on a latency-percentile regression exactly, not just on
//! noisy wall time. It serializes to a schema-versioned JSON file that
//! is committed at the repo root (`BENCH_PR10.json`;
//! [`BenchReport::parse`] also reads the v1 and v2 schemas of the
//! reports that preceded it) and re-generated by CI, where [`gate`] fails the build on a wall-time
//! regression beyond the tolerance.
//!
//! The emitter keeps every *wall-time-derived* field on its own line so
//! a regenerated file is byte-identical to the committed one modulo
//! those lines — the simulation itself is deterministic, only host
//! timing varies.

use gridmon_core::ExperimentResult;
use std::fmt::Write as _;

/// Current schema tag; bump on any incompatible layout change.
pub const SCHEMA: &str = "gridmon-bench/3";

/// Previous schema (no per-row freshness/SLO accounting); still
/// parseable.
pub const SCHEMA_V2: &str = "gridmon-bench/2";

/// Oldest schema (no per-row kernel accounting either); still
/// parseable.
pub const SCHEMA_V1: &str = "gridmon-bench/1";

/// Default regression tolerance: fail when the candidate's total wall
/// time exceeds the baseline by more than 15 %.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Per-event-type counters embedded in a v2 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTypeRow {
    /// Short payload type name (`Delivery`, `Tick`, …).
    pub name: String,
    /// Events of this type scheduled.
    pub scheduled: u64,
    /// Events of this type dispatched to a live actor.
    pub executed: u64,
    /// Events of this type dropped.
    pub dropped: u64,
    /// Of `scheduled`, timer self-sends.
    pub timers: u64,
}

/// Kernel event accounting for one experiment (schema v2; deterministic
/// for a given build and seed).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelRow {
    /// Queue-depth high-watermark.
    pub peak_queue_depth: u64,
    /// Total events ever scheduled.
    pub scheduled_total: u64,
    /// Timer self-sends scheduled.
    pub timer_scheduled: u64,
    /// Ordinary messages scheduled.
    pub message_scheduled: u64,
    /// Per-type counters, sorted by scheduled count descending.
    pub event_types: Vec<EventTypeRow>,
}

/// Freshness/SLO accounting for one experiment (schema v3;
/// deterministic for a given build and seed — the simulation's virtual
/// clock, not the host's). Key names are all `slo_`-prefixed so the
/// line-oriented parser can dispatch on them unambiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Deadline the run was measured against, milliseconds.
    pub deadline_ms: f64,
    /// On-time target fraction (0..=1).
    pub target: f64,
    /// Readings delivered within the deadline.
    pub on_time: u64,
    /// Readings delivered, but only after the deadline.
    pub late: u64,
    /// Readings never delivered at all.
    pub lost: u64,
    /// on_time / published (1.0 for an empty run).
    pub compliance: f64,
    /// Worst windowed error-budget burn rate.
    pub worst_burn: f64,
    /// Whole-run delivery-latency median, milliseconds.
    pub delivery_p50_ms: f64,
    /// Whole-run delivery-latency 99th percentile, milliseconds — the
    /// gate's deterministic latency-regression check.
    pub delivery_p99_ms: f64,
}

/// One experiment's row in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Spec name (`bench/narada-tcp`, …).
    pub name: String,
    /// Requested generator count.
    pub generators: u64,
    /// Messages published / delivered (deterministic).
    pub sent: u64,
    /// Messages received.
    pub received: u64,
    /// Kernel events processed (deterministic cost measure).
    pub events: u64,
    /// Virtual seconds the run covered.
    pub sim_secs: f64,
    /// RTT mean, milliseconds.
    pub rtt_mean_ms: f64,
    /// RTT 95th percentile, milliseconds.
    pub rtt_p95_ms: f64,
    /// RTT 99th percentile, milliseconds.
    pub rtt_p99_ms: f64,
    /// RTT maximum, milliseconds.
    pub rtt_max_ms: f64,
    /// Peak simulated server memory, MB (the model's RSS analogue).
    pub peak_rss_mb: f64,
    /// Kernel event accounting (`None` when parsed from a v1 file).
    pub kernel: Option<KernelRow>,
    /// Freshness/SLO accounting (`None` when parsed from a v1/v2 file
    /// or when the run carried no SLO spec).
    pub slo: Option<SloRow>,
    /// Host wall-clock seconds for this experiment (non-deterministic).
    pub wall_secs: f64,
}

impl BenchRow {
    /// Kernel events per host wall second (non-deterministic).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// A full baseline: metadata + one row per bench experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema tag ([`SCHEMA`] or [`SCHEMA_V1`]).
    pub schema: String,
    /// `--scale` the suite ran at.
    pub scale: u32,
    /// Worker threads used.
    pub threads: usize,
    /// Conservative-parallel shards per experiment (`--shards`; 1 = the
    /// serial event loop; files written before the field existed parse
    /// as 1). Results are byte-identical across shard counts, so the
    /// gate's workload-drift checks stay comparable across shard
    /// settings — only the wall-time split changes.
    pub shards: usize,
    /// Rows, in suite order.
    pub experiments: Vec<BenchRow>,
    /// End-to-end wall seconds for the whole suite, including harness
    /// overhead around the worker pool (non-deterministic).
    pub total_wall_secs: f64,
}

fn pct(summary: &telemetry::RttSummary, p: u32) -> f64 {
    summary
        .percentiles_ms
        .iter()
        .find(|(q, _)| *q == p)
        .map_or(0.0, |(_, ms)| *ms)
}

impl BenchReport {
    /// Build a report from finished experiment results.
    pub fn from_results(
        results: &[ExperimentResult],
        scale: u32,
        threads: usize,
        shards: usize,
        total_wall_secs: f64,
    ) -> Self {
        let experiments = results
            .iter()
            .map(|r| BenchRow {
                name: r.name.clone(),
                generators: r.generators as u64,
                sent: r.summary.sent,
                received: r.summary.received,
                events: r.events,
                sim_secs: r.sim_time.as_secs_f64(),
                rtt_mean_ms: r.summary.rtt_mean_ms,
                rtt_p95_ms: pct(&r.summary, 95),
                rtt_p99_ms: pct(&r.summary, 99),
                rtt_max_ms: pct(&r.summary, 100),
                peak_rss_mb: r.server_mem_mb,
                kernel: Some(KernelRow {
                    peak_queue_depth: r.kernel.peak_queue_depth,
                    scheduled_total: r.kernel.scheduled_total,
                    timer_scheduled: r.kernel.timer_scheduled,
                    message_scheduled: r.kernel.message_scheduled,
                    event_types: r
                        .kernel
                        .by_type
                        .iter()
                        .map(|t| EventTypeRow {
                            name: t.name.clone(),
                            scheduled: t.scheduled,
                            executed: t.executed,
                            dropped: t.dropped,
                            timers: t.timers,
                        })
                        .collect(),
                }),
                slo: r.slo.as_ref().map(|s| {
                    let rep = &s.report;
                    let (p50, p99) = rep.age_us.map_or((0.0, 0.0), |h| {
                        (h.p50 as f64 / 1000.0, h.p99 as f64 / 1000.0)
                    });
                    SloRow {
                        deadline_ms: rep.spec.deadline.as_millis_f64(),
                        target: rep.spec.target_fraction,
                        on_time: rep.on_time,
                        late: rep.late,
                        lost: rep.lost,
                        compliance: rep.compliance,
                        worst_burn: rep.worst_burn,
                        delivery_p50_ms: p50,
                        delivery_p99_ms: p99,
                    }
                }),
                wall_secs: r.wall_secs,
            })
            .collect();
        BenchReport {
            schema: SCHEMA.to_owned(),
            scale,
            threads,
            shards: shards.max(1),
            experiments,
            total_wall_secs,
        }
    }

    /// Serialize. Wall-time-derived fields (`wall_secs`,
    /// `events_per_sec`, `total_wall_secs`) each sit on their own line;
    /// everything else is deterministic for a given build and seed.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        // Written only for sharded runs, so every pre-shards report (and
        // fixture) stays byte-identical under a parse→emit round trip.
        if self.shards > 1 {
            let _ = writeln!(out, "  \"shards\": {},", self.shards);
        }
        let _ = writeln!(out, "  \"experiments\": [");
        for (i, e) in self.experiments.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", e.name);
            let _ = writeln!(out, "      \"generators\": {},", e.generators);
            let _ = writeln!(out, "      \"sent\": {},", e.sent);
            let _ = writeln!(out, "      \"received\": {},", e.received);
            let _ = writeln!(out, "      \"events\": {},", e.events);
            let _ = writeln!(out, "      \"sim_secs\": {:.6},", e.sim_secs);
            let _ = writeln!(out, "      \"rtt_mean_ms\": {:.6},", e.rtt_mean_ms);
            let _ = writeln!(out, "      \"rtt_p95_ms\": {:.6},", e.rtt_p95_ms);
            let _ = writeln!(out, "      \"rtt_p99_ms\": {:.6},", e.rtt_p99_ms);
            let _ = writeln!(out, "      \"rtt_max_ms\": {:.6},", e.rtt_max_ms);
            let _ = writeln!(out, "      \"peak_rss_mb\": {:.6},", e.peak_rss_mb);
            if let Some(s) = &e.slo {
                let _ = writeln!(out, "      \"slo_deadline_ms\": {:.6},", s.deadline_ms);
                let _ = writeln!(out, "      \"slo_target\": {:.6},", s.target);
                let _ = writeln!(out, "      \"slo_on_time\": {},", s.on_time);
                let _ = writeln!(out, "      \"slo_late\": {},", s.late);
                let _ = writeln!(out, "      \"slo_lost\": {},", s.lost);
                let _ = writeln!(out, "      \"slo_compliance\": {:.6},", s.compliance);
                let _ = writeln!(out, "      \"slo_worst_burn\": {:.6},", s.worst_burn);
                let _ = writeln!(
                    out,
                    "      \"slo_delivery_p50_ms\": {:.6},",
                    s.delivery_p50_ms
                );
                let _ = writeln!(
                    out,
                    "      \"slo_delivery_p99_ms\": {:.6},",
                    s.delivery_p99_ms
                );
            }
            if let Some(k) = &e.kernel {
                let _ = writeln!(out, "      \"kernel\": {{");
                let _ = writeln!(out, "        \"peak_queue_depth\": {},", k.peak_queue_depth);
                let _ = writeln!(out, "        \"scheduled_total\": {},", k.scheduled_total);
                let _ = writeln!(out, "        \"timer_scheduled\": {},", k.timer_scheduled);
                let _ = writeln!(
                    out,
                    "        \"message_scheduled\": {},",
                    k.message_scheduled
                );
                let _ = writeln!(out, "        \"event_types\": [");
                for (j, t) in k.event_types.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "          {{ \"type\": \"{}\", \"scheduled\": {}, \"executed\": {}, \"dropped\": {}, \"timers\": {} }}{}",
                        t.name,
                        t.scheduled,
                        t.executed,
                        t.dropped,
                        t.timers,
                        if j + 1 < k.event_types.len() { "," } else { "" }
                    );
                }
                let _ = writeln!(out, "        ]");
                let _ = writeln!(out, "      }},");
            }
            let _ = writeln!(out, "      \"wall_secs\": {:.6},", e.wall_secs);
            let _ = writeln!(out, "      \"events_per_sec\": {:.1}", e.events_per_sec());
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"total_wall_secs\": {:.6}", self.total_wall_secs);
        let _ = writeln!(out, "}}");
        out
    }

    /// Parse a file produced by [`Self::to_json`] — either schema
    /// version (v1 rows get `kernel: None`). Line-oriented on the
    /// emitter's own fixed layout — not a general JSON parser (the repo
    /// has no JSON dependency by design).
    pub fn parse(text: &str) -> Result<Self, String> {
        fn unquote(v: &str) -> String {
            v.trim().trim_matches(|c| c == '"' || c == ',').to_owned()
        }
        fn num(v: &str) -> Result<f64, String> {
            let v = v.trim().trim_end_matches(',');
            v.parse().map_err(|e| format!("bad number {v:?}: {e}"))
        }
        fn inline_str(line: &str, key: &str) -> Option<String> {
            let marker = format!("\"{key}\": \"");
            let start = line.find(&marker)? + marker.len();
            let end = line[start..].find('"')? + start;
            Some(line[start..end].to_owned())
        }
        fn inline_num(line: &str, key: &str) -> Result<u64, String> {
            let marker = format!("\"{key}\": ");
            let start = line
                .find(&marker)
                .ok_or_else(|| format!("missing {key:?} in {line:?}"))?
                + marker.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse()
                .map_err(|e| format!("bad number for {key:?} in {line:?}: {e}"))
        }
        let mut schema = String::new();
        let mut scale = 0u32;
        let mut threads = 0usize;
        let mut shards = 1usize;
        let mut total_wall_secs = 0.0;
        let mut experiments: Vec<BenchRow> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            // v2 per-type rows are whole inline objects, not key:value
            // lines.
            if line.starts_with("{ \"type\":") {
                let row = experiments
                    .last_mut()
                    .ok_or("event_types entry before any experiment row")?;
                let kernel = row.kernel.get_or_insert_with(KernelRow::default);
                kernel.event_types.push(EventTypeRow {
                    name: inline_str(line, "type")
                        .ok_or_else(|| format!("bad event_types line {line:?}"))?,
                    scheduled: inline_num(line, "scheduled")?,
                    executed: inline_num(line, "executed")?,
                    dropped: inline_num(line, "dropped")?,
                    timers: inline_num(line, "timers")?,
                });
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "schema" => schema = unquote(value),
                "scale" => scale = num(value)? as u32,
                "threads" => threads = num(value)? as usize,
                "shards" => shards = (num(value)? as usize).max(1),
                "total_wall_secs" => total_wall_secs = num(value)?,
                "name" => experiments.push(BenchRow {
                    name: unquote(value),
                    generators: 0,
                    sent: 0,
                    received: 0,
                    events: 0,
                    sim_secs: 0.0,
                    rtt_mean_ms: 0.0,
                    rtt_p95_ms: 0.0,
                    rtt_p99_ms: 0.0,
                    rtt_max_ms: 0.0,
                    peak_rss_mb: 0.0,
                    kernel: None,
                    slo: None,
                    wall_secs: 0.0,
                }),
                "peak_queue_depth" | "scheduled_total" | "timer_scheduled"
                | "message_scheduled" => {
                    let Some(row) = experiments.last_mut() else {
                        continue;
                    };
                    let kernel = row.kernel.get_or_insert_with(KernelRow::default);
                    let v = num(value)? as u64;
                    match key {
                        "peak_queue_depth" => kernel.peak_queue_depth = v,
                        "scheduled_total" => kernel.scheduled_total = v,
                        "timer_scheduled" => kernel.timer_scheduled = v,
                        "message_scheduled" => kernel.message_scheduled = v,
                        _ => unreachable!(),
                    }
                }
                key if key.starts_with("slo_") => {
                    let Some(row) = experiments.last_mut() else {
                        continue;
                    };
                    let slo = row.slo.get_or_insert(SloRow {
                        deadline_ms: 0.0,
                        target: 0.0,
                        on_time: 0,
                        late: 0,
                        lost: 0,
                        compliance: 0.0,
                        worst_burn: 0.0,
                        delivery_p50_ms: 0.0,
                        delivery_p99_ms: 0.0,
                    });
                    let v = num(value)?;
                    match key {
                        "slo_deadline_ms" => slo.deadline_ms = v,
                        "slo_target" => slo.target = v,
                        "slo_on_time" => slo.on_time = v as u64,
                        "slo_late" => slo.late = v as u64,
                        "slo_lost" => slo.lost = v as u64,
                        "slo_compliance" => slo.compliance = v,
                        "slo_worst_burn" => slo.worst_burn = v,
                        "slo_delivery_p50_ms" => slo.delivery_p50_ms = v,
                        "slo_delivery_p99_ms" => slo.delivery_p99_ms = v,
                        _ => {}
                    }
                }
                _ => {
                    let Some(row) = experiments.last_mut() else {
                        continue;
                    };
                    match key {
                        "generators" => row.generators = num(value)? as u64,
                        "sent" => row.sent = num(value)? as u64,
                        "received" => row.received = num(value)? as u64,
                        "events" => row.events = num(value)? as u64,
                        "sim_secs" => row.sim_secs = num(value)?,
                        "rtt_mean_ms" => row.rtt_mean_ms = num(value)?,
                        "rtt_p95_ms" => row.rtt_p95_ms = num(value)?,
                        "rtt_p99_ms" => row.rtt_p99_ms = num(value)?,
                        "rtt_max_ms" => row.rtt_max_ms = num(value)?,
                        "peak_rss_mb" => row.peak_rss_mb = num(value)?,
                        "wall_secs" => row.wall_secs = num(value)?,
                        _ => {}
                    }
                }
            }
        }
        if schema.is_empty() {
            return Err("no \"schema\" field — not a gridmon-bench file".into());
        }
        if schema != SCHEMA && schema != SCHEMA_V2 && schema != SCHEMA_V1 {
            return Err(format!(
                "schema {schema:?}, expected {SCHEMA:?}, {SCHEMA_V2:?} or {SCHEMA_V1:?}"
            ));
        }
        Ok(BenchReport {
            schema,
            scale,
            threads,
            shards,
            experiments,
            total_wall_secs,
        })
    }
}

/// Compare a fresh run against the committed baseline. Returns
/// `Ok(report)` with a human-readable comparison on success and
/// `Err(failures)` when the candidate regresses: total wall time beyond
/// `tolerance` (fractional, e.g. `0.15`), a missing experiment, a
/// deterministic-count mismatch (which means the candidate measured a
/// different workload, not a slower one), a p99 delivery-latency
/// regression beyond the same tolerance, or any drop in SLO compliance
/// (both virtual-clock metrics, so these checks are exact — no host
/// noise). SLO checks only fire when both sides carry the v3 rows, so
/// a v2 baseline still gates wall time. Failure messages name the
/// breaching scenario and metric; on a total-wall breach the worst
/// per-scenario offenders are listed so the regression is actionable
/// without manual JSON diffing.
pub fn gate(
    baseline: &BenchReport,
    candidate: &BenchReport,
    tolerance: f64,
) -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    let mut report = String::new();
    if baseline.scale != candidate.scale {
        failures.push(format!(
            "scale mismatch: baseline {} vs candidate {} — not comparable",
            baseline.scale, candidate.scale
        ));
    }
    // (name, wall delta secs, wall delta percent) per scenario, for the
    // worst-offender attribution on a total breach.
    let mut deltas: Vec<(String, f64, f64)> = Vec::new();
    for b in &baseline.experiments {
        let Some(c) = candidate.experiments.iter().find(|c| c.name == b.name) else {
            failures.push(format!("experiment {:?} missing from candidate", b.name));
            continue;
        };
        if b.sent != c.sent {
            failures.push(format!(
                "{}: workload drift on metric \"sent\" — {} vs baseline {}",
                b.name, c.sent, b.sent
            ));
        }
        if b.received != c.received {
            failures.push(format!(
                "{}: workload drift on metric \"received\" — {} vs baseline {}",
                b.name, c.received, b.received
            ));
        }
        if let (Some(bs), Some(cs)) = (&b.slo, &c.slo) {
            // Virtual-clock latency: deterministic, so the tolerance
            // only allows for intentional behavior changes, not noise.
            if cs.delivery_p99_ms > bs.delivery_p99_ms * (1.0 + tolerance) {
                failures.push(format!(
                    "{}: p99 delivery latency (metric \"slo_delivery_p99_ms\") regressed \
                     {:.1}% (limit +{:.0}%): {:.3} ms vs baseline {:.3} ms",
                    b.name,
                    (cs.delivery_p99_ms / bs.delivery_p99_ms - 1.0) * 100.0,
                    tolerance * 100.0,
                    cs.delivery_p99_ms,
                    bs.delivery_p99_ms
                ));
            }
            // Any compliance drop means readings newly missed their
            // deadline — always a regression (epsilon covers the 6-digit
            // serialization).
            if cs.compliance + 1e-6 < bs.compliance {
                failures.push(format!(
                    "{}: SLO compliance (metric \"slo_compliance\") dropped: {:.4} vs \
                     baseline {:.4} ({} late / {} lost, was {} / {})",
                    b.name, cs.compliance, bs.compliance, cs.late, cs.lost, bs.late, bs.lost
                ));
            }
        }
        let ratio = if b.wall_secs > 0.0 {
            c.wall_secs / b.wall_secs
        } else {
            1.0
        };
        deltas.push((
            b.name.clone(),
            c.wall_secs - b.wall_secs,
            (ratio - 1.0) * 100.0,
        ));
        let _ = writeln!(
            report,
            "{:<24} {:>8.3}s vs {:>8.3}s  ({:+.1}%)",
            b.name,
            c.wall_secs,
            b.wall_secs,
            (ratio - 1.0) * 100.0
        );
    }
    let total_ratio = if baseline.total_wall_secs > 0.0 {
        candidate.total_wall_secs / baseline.total_wall_secs
    } else {
        1.0
    };
    let _ = writeln!(
        report,
        "{:<24} {:>8.3}s vs {:>8.3}s  ({:+.1}%, tolerance +{:.0}%)",
        "TOTAL",
        candidate.total_wall_secs,
        baseline.total_wall_secs,
        (total_ratio - 1.0) * 100.0,
        tolerance * 100.0
    );
    if total_ratio > 1.0 + tolerance {
        failures.push(format!(
            "total wall time (metric \"total_wall_secs\") regressed {:.1}% (limit +{:.0}%): {:.3}s vs baseline {:.3}s",
            (total_ratio - 1.0) * 100.0,
            tolerance * 100.0,
            candidate.total_wall_secs,
            baseline.total_wall_secs
        ));
        deltas.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let offenders: Vec<String> = deltas
            .iter()
            .take(3)
            .filter(|(_, dsecs, _)| *dsecs > 0.0)
            .map(|(name, dsecs, dpct)| format!("{name} {dsecs:+.3}s ({dpct:+.1}%)"))
            .collect();
        if !offenders.is_empty() {
            failures.push(format!(
                "worst wall_secs offenders: {}",
                offenders.join(", ")
            ));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, wall: f64) -> BenchRow {
        BenchRow {
            name: name.into(),
            generators: 800,
            sent: 16000,
            received: 16000,
            events: 1_000_000,
            sim_secs: 600.5,
            rtt_mean_ms: 1.25,
            rtt_p95_ms: 3.5,
            rtt_p99_ms: 7.25,
            rtt_max_ms: 42.0,
            peak_rss_mb: 55.125,
            kernel: Some(KernelRow {
                peak_queue_depth: 900,
                scheduled_total: 1_000_100,
                timer_scheduled: 200_000,
                message_scheduled: 800_100,
                event_types: vec![
                    EventTypeRow {
                        name: "Delivery".into(),
                        scheduled: 700_000,
                        executed: 699_900,
                        dropped: 100,
                        timers: 0,
                    },
                    EventTypeRow {
                        name: "Tick".into(),
                        scheduled: 300_100,
                        executed: 300_100,
                        dropped: 0,
                        timers: 200_000,
                    },
                ],
            }),
            slo: Some(SloRow {
                deadline_ms: 5000.0,
                target: 0.99,
                on_time: 15990,
                late: 8,
                lost: 2,
                compliance: 0.999375,
                worst_burn: 0.2,
                delivery_p50_ms: 1.25,
                delivery_p99_ms: 7.5,
            }),
            wall_secs: wall,
        }
    }

    fn report(walls: &[f64]) -> BenchReport {
        BenchReport {
            schema: SCHEMA.into(),
            scale: 20,
            threads: 2,
            shards: 1,
            experiments: walls
                .iter()
                .enumerate()
                .map(|(i, &w)| row(&format!("bench/x{i}"), w))
                .collect(),
            total_wall_secs: walls.iter().sum(),
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let r = report(&[1.5, 2.25]);
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And re-serialization is byte-identical (the "modulo wall-time
        // lines" guarantee reduces to full identity when wall matches).
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn shard_count_roundtrips_and_stays_gate_comparable() {
        let mut r = report(&[1.5]);
        r.shards = 4;
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
        // shards=1 reports omit the line entirely (pre-shards layout).
        let serial = report(&[1.5]);
        assert!(!serial.to_json().contains("\"shards\""));
        assert_eq!(BenchReport::parse(&serial.to_json()).unwrap().shards, 1);
        // The gate compares a sharded candidate against a serial
        // baseline: sharding never shifts the deterministic workload
        // counters, so only wall time may differ.
        assert!(gate(&serial, &r, DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn v1_files_parse_without_kernel_rows() {
        let mut r = report(&[1.5]);
        r.schema = SCHEMA_V1.into();
        for e in &mut r.experiments {
            e.kernel = None;
            e.slo = None;
        }
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.experiments[0].kernel, None);
        assert_eq!(parsed.experiments[0].slo, None);
    }

    #[test]
    fn v2_files_parse_without_slo_rows() {
        let mut r = report(&[1.5]);
        r.schema = SCHEMA_V2.into();
        for e in &mut r.experiments {
            e.slo = None;
        }
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.experiments[0].kernel.is_some());
        assert_eq!(parsed.experiments[0].slo, None);
        // A v2 baseline still gates a v3 candidate on wall time: the SLO
        // checks simply don't fire without both sides.
        let candidate = report(&[1.5]);
        assert!(gate(&r, &candidate, DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn gate_fails_on_p99_delivery_regression_and_compliance_drop() {
        let base = report(&[1.0, 1.0]);
        // Injected p99 delivery-latency regression: +60% on one row,
        // wall time unchanged — only the new deterministic check fires.
        let mut slow_tail = report(&[1.0, 1.0]);
        slow_tail.experiments[1]
            .slo
            .as_mut()
            .unwrap()
            .delivery_p99_ms = 12.0;
        let errs = gate(&base, &slow_tail, DEFAULT_TOLERANCE).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("slo_delivery_p99_ms") && e.contains("bench/x1")),
            "{errs:?}"
        );
        // Compliance drop: one reading newly lost.
        let mut lossy = report(&[1.0, 1.0]);
        {
            let s = lossy.experiments[0].slo.as_mut().unwrap();
            s.on_time -= 3;
            s.lost += 3;
            s.compliance = 0.999_187_5;
        }
        let errs = gate(&base, &lossy, DEFAULT_TOLERANCE).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("slo_compliance") && e.contains("bench/x0")),
            "{errs:?}"
        );
        // An improvement passes.
        let mut faster = report(&[1.0, 1.0]);
        faster.experiments[0].slo.as_mut().unwrap().delivery_p99_ms = 5.0;
        assert!(gate(&base, &faster, DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn wall_fields_sit_on_their_own_lines() {
        let a = report(&[1.5, 2.25]);
        let mut b = a.clone();
        for e in &mut b.experiments {
            e.wall_secs *= 3.0;
        }
        b.total_wall_secs *= 3.0;
        let (ja, jb) = (a.to_json(), b.to_json());
        let differing: Vec<&str> = ja
            .lines()
            .zip(jb.lines())
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.trim_start().split(':').next().unwrap())
            .collect();
        assert_eq!(
            differing,
            vec![
                "\"wall_secs\"",
                "\"events_per_sec\"",
                "\"wall_secs\"",
                "\"events_per_sec\"",
                "\"total_wall_secs\""
            ]
        );
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = report(&[1.0, 1.0]);
        let ok = report(&[1.1, 1.1]);
        assert!(gate(&base, &ok, DEFAULT_TOLERANCE).is_ok());
        let slow = report(&[1.5, 1.5]);
        let errs = gate(&base, &slow, DEFAULT_TOLERANCE).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("regressed")), "{errs:?}");
        // The failure names the breaching scenarios, not just the total.
        assert!(
            errs.iter()
                .any(|e| e.contains("worst wall_secs offenders") && e.contains("bench/x0")),
            "{errs:?}"
        );
    }

    #[test]
    fn gate_catches_workload_drift_and_missing_rows() {
        let base = report(&[1.0, 1.0]);
        let mut drift = report(&[1.0, 1.0]);
        drift.experiments[0].sent += 1;
        let errs = gate(&base, &drift, DEFAULT_TOLERANCE).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.contains("workload drift") && e.contains("bench/x0") && e.contains("sent")));
        let missing = report(&[1.0]);
        let errs = gate(&base, &missing, DEFAULT_TOLERANCE).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing")));
    }

    #[test]
    fn parse_rejects_foreign_schema() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("\"schema\": \"other/9\"").is_err());
    }
}
