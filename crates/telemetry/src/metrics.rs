//! Time-series metrics plane: named counters, gauges, and latency
//! histograms sampled on the vmstat cadence.
//!
//! The paper's resource story is told in 1 s vmstat rows (CPU idle,
//! memory); the metrics plane generalizes that cadence to middleware
//! internals — per-broker queue depth, per-servlet backlog, in-flight
//! count, reconnect attempts, the trace's counters — and exports both
//! Prometheus text-exposition format (end-of-run snapshot) and a
//! deterministic long-format time-series CSV. Registered as a kernel
//! service only when the trace or the profile plane is on; sites go
//! through [`with_metrics`], one failed type-map probe without it.

use crate::histogram::LatencyHistogram;
use crate::report::{push_trimmed, trim_float};
use simcore::{Context, FastMap, SimTime};

/// One `set_gauge`. Of the writes at or before a snapshot instant, the
/// one with the highest `(at, lane, seq)` key is the level there.
#[derive(Debug, Clone, Copy)]
struct GaugeWrite {
    at: SimTime,
    seq: u64,
    lane: u32,
    value: f64,
}

impl GaugeWrite {
    /// Replay order. The value decides between writes under one key,
    /// which only replicas of a replicated recorder make, each writing a
    /// level of its own.
    fn key(&self) -> (SimTime, u32, u64, u64) {
        (self.at, self.lane, self.seq, self.value.to_bits())
    }
}

/// One `observe`, `(at, lane, seq, name id, micros)`: the histograms'
/// Welford means are rebuilt from the log in this order. Its content part
/// decides between replicas' observations under one key; name ids compare
/// like the names once [`merged`](MetricsRegistry::merged) renumbered them.
type Observation = (SimTime, u32, u64, u32, u64);

/// One name's live values and series.
#[derive(Debug, Default)]
struct Metric {
    /// Live counter value; `None` until the first add.
    counter: Option<u64>,
    /// The counter at each tick from `first` on.
    counts: Vec<u64>,
    first: usize,
    /// Each tick interval's max-key write, in interval order, which is
    /// key order. Interval `i` ends at tick `i`'s instant, inclusive; the
    /// one after the last tick is open.
    writes: Vec<GaugeWrite>,
    hist: Option<LatencyHistogram>,
}

impl Metric {
    /// Extend the counter's column, which starts at `tick` with room for
    /// `room` values when this is its first.
    fn push_count(&mut self, tick: usize, value: u64, room: usize) {
        if self.counts.is_empty() {
            self.first = tick;
            self.counts.reserve_exact(room);
        }
        self.counts.push(value);
    }

    /// The counter in the row of tick `tick`; `None` before its first.
    fn count_at(&self, tick: usize) -> Option<u64> {
        let j = tick.checked_sub(self.first)?;
        self.counts.get(j).copied()
    }

    /// The gauge's level at `at`: its max-key write at or before it.
    fn level_at(&self, at: SimTime) -> Option<f64> {
        let read = self.writes.partition_point(|w| w.at <= at);
        read.checked_sub(1).map(|w| self.writes[w].value)
    }
}

/// Registry of named metrics plus the sampled time series: the one store
/// of counters and gauges (the trace's counter rows are read from it).
///
/// Names are dotted (`narada.broker0.queue_depth`) and interned once; an
/// op hashes its name to an id. Exports list metrics in name order.
/// Each name keeps a live value, which [`sample`](Self::sample) (the
/// vmstat tick) snapshots. A row holds every write at or before its
/// instant: a write stamped at the last snapshot's instant, made after
/// it, is folded into it. A gauge keeps, per tick interval, its write with
/// the highest key `(time, recorder lane, per-lane seq)`, which no shard
/// layout changes. Observations keep their ordered log.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Interned metric names, by id; ids are per registry until merged.
    names: Vec<String>,
    ids: FastMap<String, u32>,
    /// Every id, in name order: the order snapshots and exports list
    /// metrics in.
    by_name: Vec<u32>,
    metrics: Vec<Metric>,
    /// Snapshot instants, in time order.
    ticks: Vec<SimTime>,
    observations: Vec<Observation>,
    lane_seqs: FastMap<u32, u64>,
    cur_lane: u32,
    cur_at: SimTime,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry sized for `ticks` snapshots: each series reserves
    /// room for the rest at its first value, so none reallocates mid-run.
    pub fn with_ticks(ticks: usize) -> Self {
        MetricsRegistry {
            ticks: Vec::with_capacity(ticks),
            ..Self::default()
        }
    }

    /// Set the recording context (acting actor's lane, kernel clock) for
    /// subsequent ops; called by [`with_metrics`].
    pub fn set_recorder(&mut self, lane: u32, at: SimTime) {
        self.cur_lane = lane;
        self.cur_at = at;
    }

    /// The id of `name`, interning it on first use.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id as usize;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 metric names");
        let at = self
            .by_name
            .partition_point(|&other| self.names[other as usize].as_str() < name);
        self.by_name.insert(at, id);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        self.metrics.push(Metric::default());
        id as usize
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.lane_seqs.entry(self.cur_lane).or_insert(0);
        *seq += 1;
        *seq - 1
    }

    /// True when the recorder clock (never behind the last snapshot)
    /// stands at its instant: a write made now belongs to it.
    fn at_last_tick(&self) -> bool {
        debug_assert!(self.ticks.last().is_none_or(|&t| t <= self.cur_at));
        self.ticks.last() == Some(&self.cur_at)
    }

    /// Room for a series that starts at tick `from`: through every tick
    /// the registry is sized for, and the open interval after them.
    fn room(&self, from: usize) -> usize {
        self.ticks.capacity() + 1 - from
    }

    /// Add `delta` to a monotonic counter (created at 0 on first use).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        let id = self.intern(name);
        let last = self.at_last_tick().then(|| self.ticks.len() - 1);
        let room = last.map_or(0, |tick| self.room(tick));
        let m = &mut self.metrics[id];
        *m.counter.get_or_insert(0) += delta;
        // A live counter is in every snapshot since its first.
        match (last, m.counts.last_mut()) {
            (Some(_), Some(v)) => *v += delta,
            (Some(tick), None) => m.push_count(tick, delta, room),
            (None, _) => {}
        }
    }

    /// Set an instantaneous gauge level.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.intern(name);
        // The tick interval the write falls in, and the tick opening it.
        let interval = self.ticks.len() - usize::from(self.at_last_tick());
        let opened = interval.checked_sub(1).map(|tick| self.ticks[tick]);
        let w = GaugeWrite {
            at: self.cur_at,
            seq: self.next_seq(),
            lane: self.cur_lane,
            value,
        };
        let room = self.room(interval);
        let writes = &mut self.metrics[id].writes;
        match writes.last_mut() {
            Some(last) if opened.is_none_or(|t| last.at > t) => {
                if last.key() < w.key() {
                    *last = w;
                }
            }
            _ => {
                if writes.capacity() == 0 {
                    writes.reserve_exact(room);
                }
                writes.push(w);
            }
        }
    }

    /// Record one observation (microseconds) into a latency histogram.
    pub fn observe(&mut self, name: &str, micros: u64) {
        let id = self.intern(name);
        self.metrics[id]
            .hist
            .get_or_insert_with(LatencyHistogram::new)
            .record(micros);
        let seq = self.next_seq();
        let rec = (self.cur_at, self.cur_lane, seq, id as u32, micros);
        self.observations.push(rec);
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.ids.get(name).map(|&id| &self.metrics[id as usize])
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metric(name).and_then(|m| m.counter).unwrap_or(0)
    }

    /// Current level of a gauge: its max-key write.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        Some(self.metric(name)?.writes.last()?.value)
    }

    /// Borrow a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.metric(name).and_then(|m| m.hist.as_ref())
    }

    /// The snapshot instants, in time order.
    pub fn ticks(&self) -> &[SimTime] {
        &self.ticks
    }

    /// A counter's value in the row of tick `tick`; `None` before its
    /// first add.
    pub fn counter_at(&self, name: &str, tick: usize) -> Option<u64> {
        self.metric(name)?.count_at(tick)
    }

    /// A gauge's level in the row of tick `tick`; `None` before its first
    /// write.
    pub fn gauge_at(&self, name: &str, tick: usize) -> Option<f64> {
        self.metric(name)?.level_at(self.ticks[tick])
    }

    /// Snapshot every live counter at `at` (called by the vmstat sampler
    /// on its cadence, once an instant). Gauges need no snapshot: their
    /// writes are kept by interval.
    pub fn sample(&mut self, at: SimTime) {
        debug_assert!(self.ticks.last().is_none_or(|&t| t < at));
        self.ticks.push(at);
        let tick = self.ticks.len() - 1;
        let room = self.room(tick);
        for m in &mut self.metrics {
            if let Some(v) = m.counter {
                m.push_count(tick, v, room);
            }
        }
    }

    /// Merge per-shard registries, so that any sharding of a run exports
    /// the same bytes. Every shard snapshots at the same instants (the
    /// vmstat sampler is replicated), so counter snapshots add up tick by
    /// tick: a counter is bumped on one shard only (a replicated actor
    /// counts on `ctx.accounting_primary()`). Gauge writes and
    /// observations replay in key order; replicas' identical observations
    /// collapse to one.
    pub fn merged(parts: impl IntoIterator<Item = MetricsRegistry>) -> MetricsRegistry {
        let parts: Vec<MetricsRegistry> = parts.into_iter().collect();
        // Interned in name order, so ids compare like the names do.
        let mut names: Vec<&str> = parts
            .iter()
            .flat_map(|p| p.names.iter())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut out = MetricsRegistry::new();
        for name in names {
            out.intern(name);
        }
        let mut observations: Vec<Observation> = Vec::new();
        for p in parts {
            debug_assert!(out.ticks.is_empty() || p.ticks.is_empty() || out.ticks == p.ticks);
            if out.ticks.is_empty() {
                out.ticks = p.ticks;
            }
            let rank: Vec<u32> = p.names.iter().map(|name| out.ids[name]).collect();
            for (&id, mut m) in rank.iter().zip(p.metrics) {
                let o = &mut out.metrics[id as usize];
                if let Some(v) = m.counter {
                    *o.counter.get_or_insert(0) += v;
                }
                // Both columns end at the last tick: add the shorter into
                // the longer's tail.
                if o.counts.len() < m.counts.len() {
                    std::mem::swap(&mut o.counts, &mut m.counts);
                    o.first = m.first;
                }
                let skip = o.counts.len() - m.counts.len();
                for (sum, v) in o.counts[skip..].iter_mut().zip(m.counts) {
                    *sum += v;
                }
                o.writes.extend(m.writes);
            }
            let from = observations.len();
            if observations.is_empty() {
                observations = p.observations;
            } else {
                observations.extend(p.observations);
            }
            for rec in &mut observations[from..] {
                rec.3 = rank[rec.3 as usize];
            }
        }
        for m in &mut out.metrics {
            m.writes.sort_unstable_by_key(GaugeWrite::key);
        }
        // The observations are in record order, nearly key order, which
        // the run-merging sort is quick on.
        observations.sort();
        observations.dedup();
        for (_, _, _, id, micros) in observations {
            out.metrics[id as usize]
                .hist
                .get_or_insert_with(LatencyHistogram::new)
                .record(micros);
        }
        out
    }

    /// Add a whole-run gauge that no single shard can compute (e.g.
    /// `probes_in_flight`, which needs the merged RTT record set) to a
    /// merged registry: a time-ordered series whose point at an instant
    /// is read by that instant's row, after every write of the instant.
    pub fn add_derived_gauge(&mut self, name: &str, points: &[(SimTime, f64)]) {
        let id = self.intern(name);
        let writes = &mut self.metrics[id].writes;
        writes.extend(
            points
                .iter()
                .zip(0..)
                .map(|(&(at, value), seq)| GaugeWrite {
                    at,
                    seq,
                    lane: u32::MAX,
                    value,
                }),
        );
        writes.sort_by_key(GaugeWrite::key);
    }

    /// Every metric with its name, in name order.
    fn named(&self) -> impl Iterator<Item = (&str, &Metric)> {
        let metric = |&id: &u32| (self.names[id as usize].as_str(), &self.metrics[id as usize]);
        self.by_name.iter().map(metric)
    }

    /// Deterministic long-format CSV: `t_s,metric,value`, one row per
    /// metric per sample instant, counters before gauges.
    pub fn csv(&self) -> String {
        let mut out = String::from("t_s,metric,value\n");
        let mut t = String::new();
        for (tick, &at) in self.ticks.iter().enumerate() {
            t.clear();
            push_trimmed(&mut t, at.as_micros() as f64 / 1e6);
            for (name, m) in self.named() {
                if let Some(v) = m.count_at(tick) {
                    row(&mut out, &t, name, v as f64);
                }
            }
            for (name, m) in self.named() {
                if let Some(v) = m.level_at(at) {
                    row(&mut out, &t, name, v);
                }
            }
        }
        out
    }

    /// End-of-run snapshot in Prometheus text exposition format.
    /// Counters and gauges export their final value; histograms export
    /// as summaries (p50/p95/p99 + `_sum`/`_count`, the sum backed by
    /// the histogram's exact Welford mean).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, m) in self.named() {
            if let Some(v) = m.counter {
                let n = sanitize(name);
                out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
            }
        }
        for (name, m) in self.named() {
            if let Some(w) = m.writes.last() {
                let n = sanitize(name);
                let v = trim_float(w.value);
                out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
            }
        }
        for (name, m) in self.named() {
            let Some(h) = &m.hist else { continue };
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("{n}{{quantile=\"{label}\"}} {v}\n"));
                }
            }
            let sum = (h.mean() * h.count() as f64).round() as u64;
            out.push_str(&format!("{n}_sum {sum}\n{n}_count {}\n", h.count()));
        }
        out
    }
}

/// Append one CSV row.
fn row(out: &mut String, t: &str, name: &str, v: f64) {
    out.push_str(t);
    out.push(',');
    out.push_str(name);
    out.push(',');
    push_trimmed(out, v);
    out.push('\n');
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]` only.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Run `f` against the metrics registry if one is registered; no-op
/// (one failed type-map probe) otherwise, so metrics-off runs stay
/// byte-identical. A hop's counters go through `simtrace::hop` instead.
#[inline]
pub fn with_metrics(ctx: &mut Context<'_>, f: impl FnOnce(&mut MetricsRegistry, SimTime)) {
    let now = ctx.now();
    let lane = ctx.self_id().lane();
    if let Some(m) = ctx.try_service_mut::<MetricsRegistry>() {
        m.set_recorder(lane, now);
        f(m, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.add_counter("a.x", 2);
        m.add_counter("a.x", 3);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        m.observe("h_us", 100);
        m.observe("h_us", 300);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("untouched"), 0);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.histogram("h_us").unwrap().count(), 2);
        assert!((m.histogram("h_us").unwrap().mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn log_folds_writes_and_keeps_observations_small() {
        assert_eq!(std::mem::size_of::<GaugeWrite>(), 32);
        assert_eq!(std::mem::size_of::<Observation>(), 32);
        let mut m = MetricsRegistry::with_ticks(10);
        for tick in 1..=10u64 {
            for n in 0..1000u64 {
                m.set_recorder(
                    (n % 3) as u32,
                    SimTime::from_micros(tick * 1_000_000 - 1000 + n),
                );
                m.add_counter("c", 1);
                m.set_gauge("g", n as f64);
            }
            m.sample(SimTime::from_secs(tick));
        }
        // One write an interval, not 10 000, and a counter snapshot a tick.
        let g = &m.metrics[m.ids["g"] as usize];
        assert_eq!(g.writes.len(), 10);
        assert_eq!(m.metrics[m.ids["c"] as usize].counts.len(), 10);
        let merged = MetricsRegistry::merged([m]);
        assert_eq!(merged.counter("c"), 10_000);
        assert!(merged.csv().ends_with("10,c,10000\n10,g,999\n"));
    }

    #[test]
    fn a_write_at_a_snapshot_instant_lands_in_that_snapshot() {
        let t = SimTime::from_secs;
        let mut m = MetricsRegistry::new();
        m.set_recorder(5, t(1));
        m.set_gauge("g", 1.0);
        m.sample(t(1));
        // Made after the snapshot, stamped at its instant: a lower lane
        // than the write before, so that one stays the level.
        m.set_recorder(2, t(1));
        m.add_counter("c", 3);
        m.add_counter("c", 4);
        m.set_gauge("g", 2.0);
        m.set_gauge("h", 5.0);
        m.set_recorder(2, t(2));
        m.add_counter("c", 1);
        m.set_gauge("g", 3.0);
        m.sample(t(2));
        assert_eq!(
            m.csv(),
            "t_s,metric,value\n1,c,7\n1,g,1\n1,h,5\n2,c,8\n2,g,3\n2,h,5\n"
        );
    }

    #[test]
    fn csv_is_long_format_and_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add_counter("z.count", 1);
            m.set_gauge("a.level", 3.0);
            m.sample(SimTime::from_secs(1));
            m.set_recorder(0, SimTime::from_millis(1_500));
            m.add_counter("z.count", 1);
            m.sample(SimTime::from_secs(2));
            m.csv()
        };
        let csv = build();
        assert_eq!(build(), csv, "byte-deterministic");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,metric,value");
        assert_eq!(lines[1], "1,z.count,1");
        assert_eq!(lines[2], "1,a.level,3");
        assert_eq!(lines[3], "2,z.count,2");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn merged_replay_matches_serial_and_splices_derived_gauges() {
        let t = SimTime::from_secs;
        // Serial world: lanes 2 and 5 both write; the sampler snapshots
        // at 1 s and 2 s.
        let serial_ops = |m: &mut MetricsRegistry| {
            m.set_recorder(2, t(0));
            m.add_counter("a.sent", 1);
            m.set_recorder(5, t(0));
            m.add_counter("b.sent", 2);
            m.sample(t(1));
            m.set_recorder(2, t(1));
            m.add_counter("a.sent", 4);
            m.observe("a.cost_us", 300);
            m.sample(t(2));
        };
        let mut serial = MetricsRegistry::new();
        serial_ops(&mut serial);

        // Sharded world: lane 2 on shard A, lane 5 on shard B, the
        // sampler replicated on both.
        let mut a = MetricsRegistry::new();
        a.set_recorder(2, t(0));
        a.add_counter("a.sent", 1);
        a.sample(t(1));
        a.set_recorder(2, t(1));
        a.add_counter("a.sent", 4);
        a.observe("a.cost_us", 300);
        a.sample(t(2));
        let mut b = MetricsRegistry::new();
        b.set_recorder(5, t(0));
        b.add_counter("b.sent", 2);
        b.sample(t(1));
        b.sample(t(2));

        let derived = |mut m: MetricsRegistry| {
            m.add_derived_gauge("probes_in_flight", &[(t(1), 3.0), (t(2), 0.0)]);
            m
        };
        let merged = derived(MetricsRegistry::merged([a, b]));
        let reference = derived(MetricsRegistry::merged([serial]));
        assert_eq!(merged.csv(), reference.csv(), "byte-identical series");
        assert_eq!(merged.prometheus(), reference.prometheus());
        assert_eq!(merged.counter("a.sent"), 5);
        assert_eq!(merged.counter("b.sent"), 2);
        assert_eq!(merged.gauge("probes_in_flight"), Some(0.0));
        assert!(
            merged.csv().contains("1,probes_in_flight,3"),
            "{}",
            merged.csv()
        );
        assert_eq!(merged.histogram("a.cost_us").unwrap().count(), 1);
    }

    #[test]
    fn prometheus_format_shape() {
        let mut m = MetricsRegistry::new();
        m.add_counter("narada.broker0.publishes", 7);
        m.set_gauge("probes_in_flight", 4.0);
        for v in 1..=100u64 {
            m.observe("insert_us", v * 10);
        }
        let p = m.prometheus();
        assert!(
            p.contains("# TYPE narada_broker0_publishes counter\n"),
            "{p}"
        );
        assert!(p.contains("narada_broker0_publishes 7\n"));
        assert!(p.contains("# TYPE probes_in_flight gauge\nprobes_in_flight 4\n"));
        assert!(p.contains("# TYPE insert_us summary\n"));
        assert!(p.contains("insert_us{quantile=\"0.5\"}"));
        assert!(p.contains("insert_us_count 100\n"));
        // sum = mean * count = 505 * 100.
        assert!(p.contains("insert_us_sum 50500\n"), "{p}");
    }
}
