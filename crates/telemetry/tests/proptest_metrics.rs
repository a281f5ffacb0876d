//! Property tests for the measurement substrate: histogram quantiles
//! against exact order statistics, Welford against naive moments,
//! collector conservation, and the merged per-shard metrics store against
//! a replay-everything reference.

use proptest::prelude::*;
use simcore::SimTime;
use telemetry::{LatencyHistogram, MetricsRegistry, RttCollector, Welford};

/// The reference's lane for snapshots: it sorts after every other lane,
/// so a snapshot replays after every write of its instant.
const SAMPLE_LANE: u32 = u32::MAX;
/// A replicated lane: every shard records the same gauge writes and
/// observations on it, and only the accounting primary (shard 0) counts.
const REPLICATED_LANE: u32 = 4;
/// A lane whose replicas record *different* gauge content under one key.
const TIE_LANE: u32 = 5;

#[derive(Debug, Clone, Copy)]
enum MetricAction {
    Counter {
        name: usize,
        delta: u64,
    },
    Gauge {
        name: usize,
        value: u32,
    },
    Observe {
        name: usize,
        micros: u64,
    },
    /// Every shard sets the same gauge under the same key to its own value.
    TieGauge {
        value: u32,
    },
    /// The replicated vmstat tick: every shard snapshots.
    Sample,
}

const NAMES: [&str; 3] = ["b.metric", "a.metric", "c.metric"];

fn metric_action() -> impl Strategy<Value = MetricAction> {
    prop_oneof![
        // Deltas include 0: a zero first touch still creates the series row.
        (0usize..3, 0u64..3).prop_map(|(name, delta)| MetricAction::Counter { name, delta }),
        (0usize..3, 0u32..50).prop_map(|(name, value)| MetricAction::Gauge { name, value }),
        (0usize..3, 0u32..50).prop_map(|(name, value)| MetricAction::Gauge { name, value }),
        (0usize..3, 1u64..100_000)
            .prop_map(|(name, micros)| MetricAction::Observe { name, micros }),
        (0u32..50).prop_map(|value| MetricAction::TieGauge { value }),
        Just(MetricAction::Sample),
    ]
}

/// One logged op of the reference: the full replay key, then what to do.
type LoggedOp = ((SimTime, u32, u64, u8, &'static str, u64), MetricAction);

/// The reference: every op of every shard kept, sorted by the full key,
/// exact duplicates dropped, applied one by one to a fresh registry whose
/// exports are then read (no write after a snapshot at its instant, no
/// merge).
fn replay_all(mut log: Vec<LoggedOp>) -> MetricsRegistry {
    log.sort_by_key(|(key, _)| *key);
    log.dedup_by_key(|(key, _)| *key);
    let mut m = MetricsRegistry::new();
    for ((at, lane, _, _, name, _), action) in log {
        m.set_recorder(lane, at);
        match action {
            MetricAction::Counter { delta, .. } => m.add_counter(name, delta),
            MetricAction::Gauge { value, .. } | MetricAction::TieGauge { value } => {
                m.set_gauge(name, f64::from(value))
            }
            MetricAction::Observe { micros, .. } => m.observe(name, micros),
            MetricAction::Sample => m.sample(at),
        }
    }
    m
}

proptest! {
    #[test]
    fn folded_registry_equals_replay_all(
        // (clock advance, lane, action); a zero advance after a `Sample`
        // stamps a write at the snapshot's instant, made after it but
        // replayed before it, and zero advances put writes of several
        // lanes at one instant.
        steps in proptest::collection::vec(
            (prop_oneof![Just(0u64), 0u64..3], 0u32..5, metric_action()),
            0..300,
        ),
        // Where each lane runs (lanes 4 and 5 run everywhere).
        lane_shard in proptest::collection::vec(0usize..4, 4..5),
        shards in 1usize..5,
        // The order the shards are merged in.
        merge_keys in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let mut parts: Vec<MetricsRegistry> = (0..shards).map(|_| MetricsRegistry::new()).collect();
        let mut log: Vec<LoggedOp> = Vec::new();
        let mut seqs = simcore::FastMap::<u32, u64>::default();
        let mut now = SimTime::ZERO;
        let mut last_sample = None;
        for &(dt, lane, action) in &steps {
            now = SimTime::from_micros(now.as_micros() + dt);
            let everywhere: Vec<usize> = (0..shards).collect();
            let (lane, on): (u32, Vec<usize>) = match action {
                MetricAction::Sample if last_sample == Some(now) => continue,
                MetricAction::Sample => (SAMPLE_LANE, everywhere),
                MetricAction::TieGauge { .. } => (TIE_LANE, everywhere),
                MetricAction::Counter { .. } if lane == REPLICATED_LANE => (lane, vec![0]),
                _ if lane == REPLICATED_LANE => (lane, everywhere),
                _ => (lane, vec![lane_shard[lane as usize] % shards]),
            };
            // A counter takes no seq; a gauge write and an observation do.
            let seq = match action {
                MetricAction::Counter { .. } | MetricAction::Sample => 0,
                _ => {
                    let seq = seqs.entry(lane).or_insert(0);
                    *seq += 1;
                    *seq - 1
                }
            };
            for shard in on {
                let m = &mut parts[shard];
                m.set_recorder(lane, now);
                let (tag, name, raw, logged) = match action {
                    MetricAction::Counter { name, delta } => {
                        m.add_counter(NAMES[name], delta);
                        (0, NAMES[name], delta, action)
                    }
                    MetricAction::Gauge { name, value } => {
                        m.set_gauge(NAMES[name], f64::from(value));
                        (1, NAMES[name], f64::from(value).to_bits(), action)
                    }
                    MetricAction::TieGauge { value } => {
                        let value = value + shard as u32;
                        m.set_gauge("tie", f64::from(value));
                        let logged = MetricAction::TieGauge { value };
                        (1, "tie", f64::from(value).to_bits(), logged)
                    }
                    MetricAction::Observe { name, micros } => {
                        m.observe(NAMES[name], micros);
                        (2, NAMES[name], micros, action)
                    }
                    MetricAction::Sample => {
                        m.sample(now);
                        last_sample = Some(now);
                        (3, "", 0, action)
                    }
                };
                // Counter adds are kept apart by a running index: the
                // reference sums every one of them.
                let seq = if tag == 0 { log.len() as u64 } else { seq };
                log.push(((now, lane, seq, tag, name, raw), logged));
            }
        }
        let mut order: Vec<(u64, MetricsRegistry)> = merge_keys.iter().copied().zip(parts).collect();
        order.sort_by_key(|(key, _)| *key);
        let merged = MetricsRegistry::merged(order.into_iter().map(|(_, part)| part));
        let reference = replay_all(log);
        prop_assert_eq!(merged.csv(), reference.csv());
        prop_assert_eq!(merged.prometheus(), reference.prometheus());
        for name in NAMES.into_iter().chain(["tie"]) {
            prop_assert_eq!(merged.counter(name), reference.counter(name));
            prop_assert_eq!(merged.gauge(name), reference.gauge(name));
        }
    }

    #[test]
    fn histogram_quantiles_bounded_relative_error(
        mut values in proptest::collection::vec(1u64..10_000_000, 1..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let approx = h.quantile(q).unwrap();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
        let exact = values[rank];
        // The log-bucketed histogram guarantees the returned value is a
        // lower bound within one bucket (≤ 1/64 relative width) of some
        // order statistic near the rank; allow 5 % + one bucket slack.
        let rel = (approx as f64 - exact as f64).abs() / exact as f64;
        prop_assert!(
            rel < 0.05 || {
                // Accept landing on a neighbouring order statistic when
                // duplicates/rounding shift the rank by one.
                let lo = values[rank.saturating_sub(1)] as f64;
                let hi = values[(rank + 1).min(values.len() - 1)] as f64;
                approx as f64 >= lo * 0.95 && (approx as f64) <= hi * 1.05
            },
            "q={q} approx={approx} exact={exact}"
        );
    }

    #[test]
    fn histogram_count_min_max_exact(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
        prop_assert_eq!(h.quantile(1.0), values.iter().max().copied());
    }

    #[test]
    fn histogram_merge_equals_union(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    #[test]
    fn welford_sharded_merge_equals_sequential(
        values in proptest::collection::vec(-1e6f64..1e6, 1..300),
        shards in 1usize..8,
    ) {
        // Parallel reduction: split the stream into `shards` chunks, fold
        // each into its own accumulator, merge left-to-right — the result
        // must agree with a single sequential accumulator to float
        // tolerance (and exactly on count/min/max).
        let mut whole = Welford::new();
        for &v in &values {
            whole.push(v);
        }
        let per = values.len().div_ceil(shards);
        let mut merged = Welford::new();
        for chunk in values.chunks(per.max(1)) {
            let mut w = Welford::new();
            for &v in chunk {
                w.push(v);
            }
            merged.merge(&w);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (merged.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance().abs())
        );
    }

    #[test]
    fn histogram_sharded_merge_equals_sequential(
        values in proptest::collection::vec(0u64..10_000_000, 1..300),
        shards in 1usize..8,
    ) {
        // Same reduction shape as the parallel sweep uses: chunked shards
        // merged into one histogram must be indistinguishable from
        // recording the whole stream sequentially.
        let mut whole = LatencyHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let per = values.len().div_ceil(shards);
        let mut merged = LatencyHistogram::new();
        for chunk in values.chunks(per.max(1)) {
            let mut h = LatencyHistogram::new();
            for &v in chunk {
                h.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn welford_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut w = Welford::new();
        for &v in &values {
            w.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(w.count(), values.len() as u64);
    }

    #[test]
    fn collector_conservation(
        // (send_at_us, deliver: Option<delay_us>)
        msgs in proptest::collection::vec((0u64..1_000_000, proptest::option::of(1u64..100_000)), 0..200),
    ) {
        let mut c = RttCollector::new();
        let mut expected_received = 0u64;
        for &(at, delivery) in &msgs {
            let id = c.before_sending(0, SimTime::from_micros(at));
            c.after_sending(id, SimTime::from_micros(at + 10));
            if let Some(d) = delivery {
                c.before_receiving(id, SimTime::from_micros(at + 10 + d / 2));
                c.after_receiving(id, SimTime::from_micros(at + 10 + d));
                expected_received += 1;
            }
        }
        let s = c.summary();
        prop_assert_eq!(s.sent, msgs.len() as u64);
        prop_assert_eq!(s.received, expected_received);
        let expected_loss = if msgs.is_empty() {
            0.0
        } else {
            (msgs.len() as u64 - expected_received) as f64 / msgs.len() as f64
        };
        prop_assert!((s.loss_rate - expected_loss).abs() < 1e-12);
        // RTT = PRT + PT + SRT in expectation over complete records.
        if expected_received > 0 {
            let total = s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms;
            prop_assert!((total - s.rtt_mean_ms).abs() < 1e-6,
                "decomposition {total} vs rtt {}", s.rtt_mean_ms);
        }
    }
}
