//! Data freshness (Age-of-Information) and the deadline/SLO plane.
//!
//! The planes built so far measure *mechanism* (RTT probes, self-time,
//! hot paths). This one measures the monitoring-level outcome the paper
//! actually asks about: how **stale** is the freshest reading each
//! subscriber holds, and what fraction of readings beat a deadline.
//!
//! * [`SloSpec`] — a declarative objective `{ deadline, target_fraction }`;
//!   every run measures the paper's, [`SloSpec::grid_default`].
//! * [`SloReport`] — Age-of-Information sawtooth samples on the vmstat
//!   cadence, windowed delivery-latency percentiles, deadline-miss
//!   counters, compliance, and windowed error-budget burn.
//!
//! The plane records nothing of its own. A run with the SLO plane builds its
//! [`RttCollector`] `with_freshness`, so the one lifecycle
//! record of a reading also keeps its topic and each subscriber's first
//! copy; [`SloReport::from_collector`] is a pure function of that
//! collector once the shards are merged, so sharded runs report
//! bit-identically. A reading's publish instant is its `before_sending`;
//! its first delivery across subscribers is its `after_receiving`.
//!
//! ## Accounting semantics
//!
//! The unit of SLO accounting is the **published reading**. A reading
//! is *on time* when its earliest delivery age (virtual delivery time −
//! virtual publish time, minimized across subscribers) is within the
//! deadline; *late* when delivered only after it; *lost* when never
//! delivered. Deadline misses = late + lost, so a broker crash burns
//! error budget instead of vanishing from a delivered-only denominator.

use crate::{trim_float, HistogramSummary, LatencyHistogram, RttCollector};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A declarative service-level objective for one scenario: the fraction
/// of published readings that must be delivered within the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Maximum acceptable delivery age (publish → subscriber delivery).
    pub deadline: SimDuration,
    /// Fraction of published readings that must beat the deadline,
    /// in `[0, 1]` (e.g. `0.99`).
    pub target_fraction: f64,
}

impl SloSpec {
    /// An SLO with the given deadline and target fraction.
    pub fn new(deadline: SimDuration, target_fraction: f64) -> SloSpec {
        SloSpec {
            deadline,
            target_fraction: target_fraction.clamp(0.0, 1.0),
        }
    }

    /// The paper's §I soft real-time budget: 99 % of readings within 5 s.
    pub fn grid_default() -> SloSpec {
        SloSpec::new(SimDuration::from_secs(5), 0.99)
    }
}

/// Window length for burn / windowed-percentile accounting: three
/// publish periods of the paper workload, so every generator
/// contributes a few readings per window.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(30);

/// The sawtooth sampling cadence — the existing vmstat cadence, so the
/// staleness series lines up with the CPU/memory series sample for
/// sample.
pub const SAMPLE_CADENCE: SimDuration = SimDuration::from_secs(1);

/// A named metric series: `(sample instant, value)` on the cadence.
type MetricSeries = (String, Vec<(SimTime, f64)>);

/// Per-`(subscriber lane, topic)` streams of `(delivered at, published
/// at)`, sorted by delivery time.
type PairStreams<'a> = BTreeMap<(u32, &'a str), Vec<(SimTime, SimTime)>>;

/// One sample of the aggregated Age-of-Information sawtooth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AoiSample {
    /// Sample instant (multiples of the cadence).
    pub at: SimTime,
    /// Mean staleness across live `(subscriber, topic)` pairs, ms.
    pub mean_ms: f64,
    /// Worst staleness across live pairs, ms.
    pub peak_ms: f64,
    /// Pairs that had received at least one reading by this instant.
    pub pairs: u64,
}

/// One burn/percentile window of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    /// Window start (multiples of the window length).
    pub start: SimTime,
    /// Readings published in this window.
    pub published: u64,
    /// Of those, readings that missed the deadline (late or lost).
    pub missed: u64,
    /// Error-budget burn: window miss fraction ÷ (1 − target). 1.0
    /// means this window consumed its budget exactly; >1 overspent.
    pub burn: f64,
    /// Deliveries landing in this window (by delivery time).
    pub delivered: u64,
    /// Delivery-age distribution of those deliveries, µs.
    pub age_us: Option<HistogramSummary>,
}

/// End-of-run freshness/SLO report for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The objective this report was evaluated against.
    pub spec: SloSpec,
    /// Readings published.
    pub published: u64,
    /// Deliveries (unique per subscriber × reading).
    pub delivered: u64,
    /// Readings whose earliest delivery beat the deadline.
    pub on_time: u64,
    /// Readings delivered only after the deadline.
    pub late: u64,
    /// Readings never delivered.
    pub lost: u64,
    /// `on_time / published` (1.0 when nothing was published).
    pub compliance: f64,
    /// `compliance >= target_fraction`.
    pub compliant: bool,
    /// Whole-run delivery-age distribution, µs.
    pub age_us: Option<HistogramSummary>,
    /// Aggregated AoI sawtooth samples on the vmstat cadence.
    pub aoi: Vec<AoiSample>,
    /// Derived metric series for the `MetricsRegistry` plane, on the same
    /// cadence and sorted by name: aggregate + per-subscriber
    /// `freshness_age_ms` gauges (a subscriber's gauge is its stalest
    /// topic's age) and cumulative `deadline_miss_total` counters (late
    /// deliveries, attributed to the subscriber that received them
    /// late). Added to the merged metrics registry by the experiment
    /// merge exactly like `probes_in_flight`.
    pub series: Vec<MetricSeries>,
    /// Burn/percentile windows.
    pub windows: Vec<SloWindow>,
    /// The worst single-window burn (the fault-campaign headline).
    pub worst_burn: f64,
    /// Always 0: there is one record of a reading, so nothing to
    /// disagree with. Kept because gridbench reads it (ROADMAP item 1
    /// deletes it).
    pub stamp_disagreements: u64,
}

impl SloReport {
    /// The report on the readings in `rtt`, a collector built
    /// `with_freshness` and merged across shards. A pure function of it
    /// (iteration in key order, no clocks, no RNG): any partition of the
    /// same run reports bit-identically.
    ///
    /// `horizon` bounds the sawtooth sampling (use the run's final
    /// virtual time); `cadence` is the sample period
    /// ([`SAMPLE_CADENCE`] in the experiment driver); `window` the burn
    /// window ([`DEFAULT_WINDOW`]).
    pub fn from_collector(
        rtt: &RttCollector,
        spec: &SloSpec,
        horizon: SimTime,
        cadence: SimDuration,
        window: SimDuration,
    ) -> SloReport {
        let deadline = spec.deadline;
        let w_us = window.as_micros().max(1);

        // Every subscriber's copy, in `(subscriber lane, probe)` order:
        // its age, whole-run and in the window it landed in, and the
        // per-pair streams the sawtooth walks. A copy whose publish is
        // not on record is counted and otherwise skipped.
        let mut delivered = 0u64;
        let mut age_hist = LatencyHistogram::new();
        let mut delivery_windows: BTreeMap<u64, LatencyHistogram> = BTreeMap::new();
        let mut streams: PairStreams = BTreeMap::new();
        for (lane, probe, rx) in rtt.deliveries() {
            delivered += 1;
            let Some(pub_at) = rtt.instants(probe).map(|i| i.before_sending) else {
                continue;
            };
            let age = rx.saturating_since(pub_at).as_micros();
            age_hist.record(age);
            delivery_windows
                .entry(rx.as_micros() / w_us)
                .or_default()
                .record(age);
            if let Some(topic) = rtt.topic(probe) {
                streams.entry((lane, topic)).or_default().push((rx, pub_at));
            }
        }
        for stream in streams.values_mut() {
            stream.sort_unstable();
        }

        // Per-reading outcome by its first delivery across subscribers.
        let mut published = 0u64;
        let mut on_time = 0u64;
        let mut late = 0u64;
        let mut lost = 0u64;
        // Burn windows keyed by the *publish* instant: a reading that a
        // crash window swallowed burns the budget of the window it was
        // published in.
        let mut burn_windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // (published, missed)
        for (_, r) in rtt.records() {
            published += 1;
            let slot = burn_windows
                .entry(r.before_sending.as_micros() / w_us)
                .or_insert((0, 0));
            slot.0 += 1;
            match r.after_receiving {
                Some(rx) if rx.saturating_since(r.before_sending) <= deadline => on_time += 1,
                Some(_) => {
                    late += 1;
                    slot.1 += 1;
                }
                None => {
                    lost += 1;
                    slot.1 += 1;
                }
            }
        }
        let compliance = if published == 0 {
            1.0
        } else {
            on_time as f64 / published as f64
        };
        let budget = (1.0 - spec.target_fraction).max(1e-9);

        // Assemble windows: burn (publish-keyed) + delivery percentiles
        // (delivery-keyed) on the same window grid.
        let mut keys: Vec<u64> = burn_windows
            .keys()
            .chain(delivery_windows.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut worst_burn = 0.0f64;
        let windows: Vec<SloWindow> = keys
            .into_iter()
            .map(|k| {
                let (published, missed) = burn_windows.get(&k).copied().unwrap_or((0, 0));
                let burn = if published == 0 {
                    0.0
                } else {
                    (missed as f64 / published as f64) / budget
                };
                worst_burn = worst_burn.max(burn);
                let hist = delivery_windows.get(&k);
                SloWindow {
                    start: SimTime::from_micros(k.saturating_mul(w_us)),
                    published,
                    missed,
                    burn,
                    delivered: hist.map_or(0, LatencyHistogram::count),
                    age_us: hist.and_then(LatencyHistogram::summary),
                }
            })
            .collect();
        let (aoi, series) = sample(&streams, deadline, horizon, cadence);

        SloReport {
            spec: spec.clone(),
            published,
            delivered,
            on_time,
            late,
            lost,
            compliance,
            compliant: compliance >= spec.target_fraction,
            age_us: age_hist.summary(),
            aoi,
            series,
            windows,
            worst_burn,
            stamp_disagreements: 0,
        }
    }

    /// Render `slo.csv`: `t_s,metric,value` rows (the metrics-CSV
    /// shape), AoI sawtooth first, then the window series. Deterministic
    /// byte-for-byte for a given report.
    pub fn csv(&self) -> String {
        let mut out = String::from("t_s,metric,value\n");
        use std::fmt::Write as _;
        for s in &self.aoi {
            let t = trim_float(s.at.as_secs_f64());
            let _ = writeln!(out, "{t},aoi_mean_ms,{}", trim_float(s.mean_ms));
            let _ = writeln!(out, "{t},aoi_peak_ms,{}", trim_float(s.peak_ms));
        }
        for w in &self.windows {
            let t = trim_float(w.start.as_secs_f64());
            let _ = writeln!(out, "{t},window_published,{}", w.published);
            let _ = writeln!(out, "{t},window_missed,{}", w.missed);
            let _ = writeln!(out, "{t},window_burn,{}", trim_float(w.burn));
            let _ = writeln!(out, "{t},window_delivered,{}", w.delivered);
            if let Some(a) = &w.age_us {
                let _ = writeln!(
                    out,
                    "{t},window_age_p50_ms,{}",
                    trim_float(a.p50 as f64 / 1000.0)
                );
                let _ = writeln!(
                    out,
                    "{t},window_age_p99_ms,{}",
                    trim_float(a.p99 as f64 / 1000.0)
                );
            }
        }
        out
    }

    /// One row of the per-contender compliance table; pair with
    /// [`SloReport::table_columns`].
    pub fn table_row(&self, name: &str) -> Vec<String> {
        let (p50, p99) = self
            .age_us
            .map(|a| (a.p50 as f64 / 1000.0, a.p99 as f64 / 1000.0))
            .unwrap_or((0.0, 0.0));
        vec![
            name.to_owned(),
            format!("{}", self.spec.deadline),
            format!("{:.1}%", self.spec.target_fraction * 100.0),
            self.published.to_string(),
            self.on_time.to_string(),
            self.late.to_string(),
            self.lost.to_string(),
            format!("{:.2}%", self.compliance * 100.0),
            trim_float(p50),
            trim_float(p99),
            trim_float(self.worst_burn),
            if self.compliant { "PASS" } else { "FAIL" }.to_owned(),
        ]
    }

    /// Column headers matching [`SloReport::table_row`].
    pub fn table_columns() -> &'static [&'static str] {
        &[
            "scenario",
            "deadline",
            "target",
            "published",
            "on-time",
            "late",
            "lost",
            "compliance",
            "age p50 ms",
            "age p99 ms",
            "worst burn",
            "slo",
        ]
    }
}

/// Sample every `(subscriber, topic)` pair's Age-of-Information on
/// `cadence` up to `horizon`, in one walk of the pair streams. At
/// instant `t` a pair's age is `t − max{publish_at : delivered_at ≤
/// t}` — the staleness of the freshest reading the subscriber holds.
/// Pairs that have not yet received anything are excluded (age
/// undefined). Returns the sawtooth (mean and peak across pairs) and
/// [`SloReport::series`]; accumulation order is the `(lane, topic)`
/// key order, never event interleaving.
fn sample(
    streams: &PairStreams,
    deadline: SimDuration,
    horizon: SimTime,
    cadence: SimDuration,
) -> (Vec<AoiSample>, Vec<MetricSeries>) {
    let step = cadence.as_micros().max(1);
    let n = (horizon.as_micros() / step) as usize;
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let ts = |s: usize| SimTime::from_micros((s as u64 + 1) * step);
    let mut sum = vec![0.0f64; n];
    let mut peak = vec![0.0f64; n];
    let mut live = vec![0u64; n];
    // Per lane: the stalest topic's age and cumulative late deliveries.
    let mut lanes: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (&(lane, _topic), stream) in streams {
        let (age, miss) = lanes
            .entry(lane)
            .or_insert_with(|| (vec![0.0; n], vec![0.0; n]));
        let mut i = 0usize;
        let mut freshest: Option<SimTime> = None;
        let mut late_so_far = 0u64;
        for s in 0..n {
            let t = ts(s);
            while i < stream.len() && stream[i].0 <= t {
                let (rx, pub_at) = stream[i];
                freshest = Some(freshest.map_or(pub_at, |f| f.max(pub_at)));
                if rx.saturating_since(pub_at) > deadline {
                    late_so_far += 1;
                }
                i += 1;
            }
            if let Some(f) = freshest {
                let a = t.saturating_since(f).as_millis_f64();
                sum[s] += a;
                peak[s] = peak[s].max(a);
                live[s] += 1;
                age[s] = age[s].max(a);
            }
            miss[s] += late_so_far as f64;
        }
    }
    let aoi = (0..n)
        .map(|s| AoiSample {
            at: ts(s),
            mean_ms: if live[s] == 0 {
                0.0
            } else {
                sum[s] / live[s] as f64
            },
            peak_ms: peak[s],
            pairs: live[s],
        })
        .collect();

    let mut series: Vec<MetricSeries> = Vec::new();
    let timed = |vals: &[f64]| -> Vec<(SimTime, f64)> {
        vals.iter().enumerate().map(|(s, &v)| (ts(s), v)).collect()
    };
    let mut total_miss = vec![0.0f64; n];
    let mut peak_age = vec![0.0f64; n];
    for (lane, (age, miss)) in &lanes {
        for s in 0..n {
            peak_age[s] = peak_age[s].max(age[s]);
            total_miss[s] += miss[s];
        }
        series.push((format!("freshness_age_ms/lane{lane}"), timed(age)));
        series.push((format!("deadline_miss_total/lane{lane}"), timed(miss)));
    }
    series.push(("freshness_age_ms/peak".into(), timed(&peak_age)));
    series.push(("deadline_miss_total".into(), timed(&total_miss)));
    series.sort_by(|a, b| a.0.cmp(&b.0));
    (aoi, series)
}
