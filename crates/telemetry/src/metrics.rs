//! Time-series metrics plane: named counters, gauges, and latency
//! histograms sampled on the vmstat cadence.
//!
//! The paper's resource story is told in 1 s vmstat rows (CPU idle,
//! memory); the metrics plane generalizes that cadence to middleware
//! internals — per-broker queue depth, per-servlet backlog, in-flight
//! count, reconnect attempts — and exports both Prometheus
//! text-exposition format (end-of-run snapshot) and a deterministic
//! long-format time-series CSV that lands next to the fig CSVs.
//!
//! Registered as a kernel service only when profiling/metrics are on;
//! instrumentation sites go through [`with_metrics`] which reduces to a
//! single failed type-map probe when the service is absent.

use crate::histogram::LatencyHistogram;
use crate::report::trim_float;
use simcore::{Context, FastMap, SimTime};

/// One recorded mutation of the registry, replayable at merge time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpKind {
    /// `add_counter(name, delta)`.
    CounterAdd(u64),
    /// `set_gauge(name, value)`.
    GaugeSet(f64),
    /// `observe(name, micros)`.
    Observe(u64),
    /// `sample(at)` — snapshot the live maps into the series.
    Sample,
}

/// 40 bytes, `Copy`: the metric name is an interned id.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    at: SimTime,
    seq: u64,
    lane: u32,
    name: u32,
    kind: OpKind,
}

impl OpRec {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.lane, self.seq)
    }

    /// Total order of the merged replay. The content part orders ops
    /// sharing a (time, lane, seq) key — only replicated recorders
    /// produce such ties, and only when their replicas record
    /// *different* content (e.g. each shard's vmstat replica gauging its
    /// own nodes). Name ids compare like the names once
    /// [`merged`](MetricsRegistry::merged) has renumbered them.
    fn sort_key(&self) -> (SimTime, u32, u64, u8, u32, u64) {
        let (tag, raw) = match self.kind {
            OpKind::CounterAdd(v) => (0, v),
            OpKind::GaugeSet(v) => (1, v.to_bits()),
            OpKind::Observe(v) => (2, v),
            OpKind::Sample => (3, 0),
        };
        (self.at, self.lane, self.seq, tag, self.name, raw)
    }
}

/// Registry of named metrics plus the sampled time series.
///
/// Names are dotted (`narada.broker0.queue_depth`); exporters sanitize
/// them where the target format requires it. Each name is interned once:
/// an op hashes its name to an id and everything after (the live
/// counters, gauges and histograms, the op log, the series) is keyed by
/// that id. Exports list metrics in name order, so every export is
/// deterministic.
///
/// Every mutation is also logged under the key `(time, recorder lane,
/// per-lane seq)` — interleaving-invariant, since each lane's op stream
/// is a function of that actor's own deterministic execution (a lane
/// recorded on several shards records the same stream on each).
/// [`merged`](Self::merged) replays the union of per-shard logs in key
/// order, so any sharding of the same run rebuilds byte-identical
/// counters, gauges, histograms, and time series. The log holds what
/// that replay can still tell apart: every observation in order (they
/// feed a Welford mean), but one op per (lane, counter or gauge, sample
/// interval) — a snapshot reads only the sum of a counter's deltas and
/// the max-key write of a gauge, and a lane writes in key order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Interned metric names, by id; ids are per registry until merged.
    names: Vec<String>,
    ids: FastMap<String, u32>,
    /// Every id, in name order: the order snapshots and exports list
    /// metrics in.
    by_name: Vec<u32>,
    /// Live state, by id; `None` where the name was never used so.
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    hists: Vec<Option<LatencyHistogram>>,
    /// Long-format samples: (instant, metric id, value).
    series: Vec<(SimTime, u32, f64)>,
    observes: Vec<OpRec>,
    marks: Vec<OpRec>,
    /// (sample interval, lane, name, is gauge) → that interval's folded
    /// op, carrying the key of the lane's last write in it.
    folded: FastMap<(usize, u32, u32, bool), OpRec>,
    lane_seqs: FastMap<u32, u64>,
    cur_lane: u32,
    cur_at: SimTime,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the recording context for subsequent ops; called by
    /// [`with_metrics`] with the acting actor's lane and the kernel
    /// clock so op keys are shard-invariant.
    pub fn set_recorder(&mut self, lane: u32, at: SimTime) {
        self.cur_lane = lane;
        self.cur_at = at;
    }

    /// The id of `name`, interning it on first use.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 metric names");
        let at = self
            .by_name
            .partition_point(|&other| self.names[other as usize].as_str() < name);
        self.by_name.insert(at, id);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        self.counters.push(None);
        self.gauges.push(None);
        self.hists.push(None);
        id
    }

    fn record(&mut self, at: SimTime, name: u32, kind: OpKind) {
        let seq = self.lane_seqs.entry(self.cur_lane).or_insert(0);
        let rec = OpRec {
            at,
            seq: *seq,
            lane: self.cur_lane,
            name,
            kind,
        };
        *seq += 1;
        match kind {
            OpKind::Observe(_) => self.observes.push(rec),
            OpKind::Sample => {
                debug_assert!(
                    self.folded.values().all(|op| op.key() < rec.key()),
                    "a snapshot mark sorts after every counter and gauge op made before it"
                );
                self.marks.push(rec);
            }
            OpKind::CounterAdd(_) | OpKind::GaugeSet(_) => {
                // The clock never runs behind the last snapshot, but an op
                // stamped at its instant on a lower lane is made after it
                // and replays before it: the key decides, not call order.
                let closed = self.marks.last().is_some_and(|m| rec.key() < m.key());
                let interval = self.marks.len() - usize::from(closed);
                let is_gauge = matches!(kind, OpKind::GaugeSet(_));
                self.folded
                    .entry((interval, rec.lane, name, is_gauge))
                    .and_modify(|old| {
                        let kind = match (old.kind, kind) {
                            (OpKind::CounterAdd(sum), OpKind::CounterAdd(d)) => {
                                OpKind::CounterAdd(sum + d)
                            }
                            _ => kind,
                        };
                        *old = OpRec { kind, ..rec };
                    })
                    .or_insert(rec);
            }
        }
    }

    fn apply_counter(&mut self, id: u32, delta: u64) {
        *self.counters[id as usize].get_or_insert(0) += delta;
    }

    fn apply_gauge(&mut self, id: u32, value: f64) {
        self.gauges[id as usize] = Some(value);
    }

    fn apply_observe(&mut self, id: u32, micros: u64) {
        self.hists[id as usize]
            .get_or_insert_with(LatencyHistogram::new)
            .record(micros);
    }

    fn apply_sample(&mut self, at: SimTime) {
        for &id in &self.by_name {
            if let Some(v) = self.counters[id as usize] {
                self.series.push((at, id, v as f64));
            }
        }
        for &id in &self.by_name {
            if let Some(v) = self.gauges[id as usize] {
                self.series.push((at, id, v));
            }
        }
    }

    /// Add `delta` to a monotonic counter (created at 0 on first use).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        let id = self.intern(name);
        self.apply_counter(id, delta);
        self.record(self.cur_at, id, OpKind::CounterAdd(delta));
    }

    /// Set an instantaneous gauge level.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.intern(name);
        self.apply_gauge(id, value);
        self.record(self.cur_at, id, OpKind::GaugeSet(value));
    }

    /// Record one observation (microseconds) into a latency histogram.
    pub fn observe(&mut self, name: &str, micros: u64) {
        let id = self.intern(name);
        self.apply_observe(id, micros);
        self.record(self.cur_at, id, OpKind::Observe(micros));
    }

    fn id(&self, name: &str) -> Option<usize> {
        self.ids.get(name).map(|&id| id as usize)
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.id(name).and_then(|id| self.counters[id]).unwrap_or(0)
    }

    /// Current level of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.id(name).and_then(|id| self.gauges[id])
    }

    /// Borrow a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.id(name).and_then(|id| self.hists[id].as_ref())
    }

    /// Snapshot every counter and gauge into the time series at `at`
    /// (called by the vmstat sampler on its cadence). The mark must ride
    /// a lane that sorts after every op already made, as the sampler's
    /// does: the merged replay snapshots in key order.
    pub fn sample(&mut self, at: SimTime) {
        self.apply_sample(at);
        self.record(at, 0, OpKind::Sample);
    }

    /// Merge per-shard registries by replaying the union of their op
    /// logs in `(time, lane, seq, content)` order. Exact duplicates
    /// (the same op recorded by two replicas of a replicated actor, e.g.
    /// the per-shard vmstat samplers' `Sample` marks) collapse to one.
    /// The replayed log is not retained.
    ///
    /// `derived_gauges` are whole-run gauges that no single shard can
    /// compute (e.g. `probes_in_flight`, which needs the merged RTT
    /// record set): each is a time-ordered series spliced in just before
    /// every `Sample` snapshot, exactly where the serial sampler used to
    /// refresh them. Names are owned because some series are minted per
    /// subscriber lane (`freshness_age_ms/lane3`) rather than static.
    pub fn merged(
        parts: impl IntoIterator<Item = MetricsRegistry>,
        derived_gauges: &[(String, Vec<(SimTime, f64)>)],
    ) -> MetricsRegistry {
        let parts: Vec<MetricsRegistry> = parts.into_iter().collect();
        // Interned in name order, so ids compare like the names do.
        let mut names: Vec<&str> = parts
            .iter()
            .flat_map(|p| p.names.iter())
            .chain(derived_gauges.iter().map(|(name, _)| name))
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut out = MetricsRegistry::new();
        for name in names {
            out.intern(name);
        }
        let mut ops: Vec<OpRec> = Vec::new();
        for p in parts {
            let rank: Vec<u32> = p.names.iter().map(|name| out.ids[name]).collect();
            let from = ops.len();
            if ops.is_empty() {
                ops = p.observes;
            } else {
                ops.extend(p.observes);
            }
            ops.extend(p.folded.into_values());
            ops.extend(p.marks);
            for rec in &mut ops[from..] {
                // A mark names no metric.
                if rec.kind != OpKind::Sample {
                    rec.name = rank[rec.name as usize];
                }
            }
        }
        // The observations are in record order, nearly key order, which
        // the run-merging sort is quick on (two to three times the
        // unstable sort, for a scratch half the size of the log). The
        // content part of the order decides only between replicas' ops
        // under one key: build it for those pairs alone.
        ops.sort_by(|a, b| {
            a.key()
                .cmp(&b.key())
                .then_with(|| a.sort_key().cmp(&b.sort_key()))
        });
        ops.dedup_by_key(|rec| rec.sort_key());
        let derived: Vec<(u32, &[(SimTime, f64)])> = derived_gauges
            .iter()
            .map(|(name, points)| (out.ids[name], points.as_slice()))
            .collect();
        let mut cursors = vec![0usize; derived.len()];
        for rec in ops {
            match rec.kind {
                OpKind::CounterAdd(d) => out.apply_counter(rec.name, d),
                OpKind::GaugeSet(v) => out.apply_gauge(rec.name, v),
                OpKind::Observe(us) => out.apply_observe(rec.name, us),
                OpKind::Sample => {
                    for (&(id, points), cursor) in derived.iter().zip(&mut cursors) {
                        while *cursor < points.len() && points[*cursor].0 <= rec.at {
                            out.apply_gauge(id, points[*cursor].1);
                            *cursor += 1;
                        }
                    }
                    out.apply_sample(rec.at);
                }
            }
        }
        // Late derived points (after the final snapshot) still set the
        // end-of-run gauge level for the Prometheus export.
        for &(id, points) in &derived {
            if let Some(&(_, v)) = points.last() {
                out.apply_gauge(id, v);
            }
        }
        out
    }

    /// Deterministic long-format CSV: `t_s,metric,value`, one row per
    /// metric per sample instant.
    pub fn csv(&self) -> String {
        let mut out = String::from("t_s,metric,value\n");
        for &(at, id, v) in &self.series {
            out.push_str(&trim_float(at.as_micros() as f64 / 1e6));
            out.push(',');
            out.push_str(&self.names[id as usize]);
            out.push(',');
            out.push_str(&trim_float(v));
            out.push('\n');
        }
        out
    }

    /// End-of-run snapshot in Prometheus text exposition format.
    /// Counters and gauges export their final value; histograms export
    /// as summaries (p50/p95/p99 + `_sum`/`_count`, the sum backed by
    /// the histogram's exact Welford mean).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let named = |id: &u32| (self.names[*id as usize].as_str(), *id as usize);
        for (name, id) in self.by_name.iter().map(named) {
            if let Some(v) = self.counters[id] {
                let n = sanitize(name);
                out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
            }
        }
        for (name, id) in self.by_name.iter().map(named) {
            if let Some(v) = self.gauges[id] {
                let n = sanitize(name);
                out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", trim_float(v)));
            }
        }
        for (name, id) in self.by_name.iter().map(named) {
            let Some(h) = &self.hists[id] else { continue };
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
/// (one failed type-map probe) otherwise — the same pattern as
/// `simtrace::with_trace`, so metrics-off runs stay byte-identical.
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
        assert_eq!(std::mem::size_of::<OpRec>(), 40);
        let mut m = MetricsRegistry::new();
        for tick in 1..=10u64 {
            for n in 0..1000u64 {
                m.set_recorder(
                    (n % 3) as u32,
                    SimTime::from_micros(tick * 1_000_000 - 1000 + n),
                );
                m.add_counter("c", 1);
                m.set_gauge("g", n as f64);
            }
            m.set_recorder(u32::MAX, SimTime::from_secs(tick));
            m.sample(SimTime::from_secs(tick));
        }
        // 3 lanes x (counter, gauge) x 10 intervals, not 20 000 ops.
        assert_eq!(m.folded.len(), 60);
        let merged = MetricsRegistry::merged([m], &[]);
        assert_eq!(merged.counter("c"), 10_000);
        assert!(merged.csv().ends_with("10,c,10000\n10,g,999\n"));
    }

    #[test]
    fn csv_is_long_format_and_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add_counter("z.count", 1);
            m.set_gauge("a.level", 3.0);
            m.sample(SimTime::from_secs(1));
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
        // Serial world: lanes 2 and 5 both write; sampler (lane 9) marks
        // snapshots at 1 s and 2 s.
        let serial_ops = |m: &mut MetricsRegistry| {
            m.set_recorder(2, t(0));
            m.add_counter("a.sent", 1);
            m.set_recorder(5, t(0));
            m.add_counter("b.sent", 2);
            m.set_recorder(9, t(1));
            m.sample(t(1));
            m.set_recorder(2, t(1));
            m.add_counter("a.sent", 4);
            m.observe("a.cost_us", 300);
            m.set_recorder(9, t(2));
            m.sample(t(2));
        };
        let mut serial = MetricsRegistry::new();
        serial_ops(&mut serial);

        // Sharded world: lane 2 on shard A, lane 5 on shard B, the
        // sampler replicated on both (identical Sample ops → dedup).
        let mut a = MetricsRegistry::new();
        a.set_recorder(2, t(0));
        a.add_counter("a.sent", 1);
        a.set_recorder(9, t(1));
        a.sample(t(1));
        a.set_recorder(2, t(1));
        a.add_counter("a.sent", 4);
        a.observe("a.cost_us", 300);
        a.set_recorder(9, t(2));
        a.sample(t(2));
        let mut b = MetricsRegistry::new();
        b.set_recorder(5, t(0));
        b.add_counter("b.sent", 2);
        b.set_recorder(9, t(1));
        b.sample(t(1));
        b.set_recorder(9, t(2));
        b.sample(t(2));

        let derived = [(
            "probes_in_flight".to_string(),
            vec![(t(1), 3.0), (t(2), 0.0)],
        )];
        let merged = MetricsRegistry::merged([a, b], &derived);
        let reference = MetricsRegistry::merged([serial], &derived);
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
