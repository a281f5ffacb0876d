//! The bounded collector against a record-everything reference model:
//! whatever the store dropped or folded while recording, `merged` must
//! return what sorting and replaying the complete logs would.

use proptest::prelude::*;
use simcore::{FastMap, SimTime};
use simtrace::{
    Counter, CounterSample, EventKind, Gauge, TraceCollector, TraceEvent, TraceId, COUNTER_COUNT,
    GAUGE_COUNT,
};

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Record an event stamped `future` µs ahead of the clock (the
    /// fabric stamps `NetDeliver` at its delivery instant).
    Record {
        future: u64,
    },
    GaugeSet {
        gauge: usize,
        value: u64,
    },
    Count {
        delta: u64,
    },
    /// Replicated sampler mark: every shard snapshots.
    Sample,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..40).prop_map(|future| Action::Record { future }),
        (0u64..40).prop_map(|future| Action::Record { future }),
        Just(Action::Record { future: 0 }),
        (0..GAUGE_COUNT, 0u64..1000).prop_map(|(gauge, value)| Action::GaugeSet { gauge, value }),
        (1u64..5).prop_map(|delta| Action::Count { delta }),
        Just(Action::Sample),
    ]
}

/// Everything ever recorded, unbounded and unfolded.
#[derive(Default)]
struct Reference {
    events: Vec<((SimTime, u32, u64), TraceEvent)>,
    gauge_ops: Vec<((SimTime, u32, u64), usize, u64)>,
    counters: [u64; COUNTER_COUNT],
    samples: Vec<(SimTime, [u64; COUNTER_COUNT])>,
    lane_seqs: FastMap<u32, u64>,
}

impl Reference {
    fn next_seq(&mut self, lane: u32) -> u64 {
        let seq = self.lane_seqs.entry(lane).or_insert(0);
        *seq += 1;
        *seq - 1
    }

    fn gauges_at(&self, upto: Option<SimTime>) -> [u64; GAUGE_COUNT] {
        let mut ops = self.gauge_ops.clone();
        ops.sort();
        let mut levels = [0; GAUGE_COUNT];
        for ((at, _, _), gauge, value) in ops {
            if upto.is_none_or(|t| at <= t) {
                levels[gauge] = value;
            }
        }
        levels
    }
}

proptest! {
    // A trim that must merge same-instant records across the seam of the
    // kept window takes a few hundred cases to draw.
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn bounded_collector_equals_record_everything(
        // (clock advance µs, lane, action)
        steps in proptest::collection::vec((0u64..3, 0u32..6, action()), 0..400),
        lane_shard in proptest::collection::vec(0usize..4, 6..7),
        shards in 1usize..5,
        cap_raw in 1usize..64,
        cap_mode in 0u8..4,
    ) {
        // Capacities exactly at the boundaries the store acts on: the
        // number of records made, and half of it (the 2 × capacity buffer
        // fills on the last record).
        let records = steps.iter().filter(|s| matches!(s.2, Action::Record { .. })).count();
        let capacity = match cap_mode {
            0 => records.max(1),
            1 => (records / 2).max(1),
            _ => cap_raw,
        };
        let mut parts: Vec<TraceCollector> =
            (0..shards).map(|_| TraceCollector::with_capacity(capacity)).collect();
        let mut model = Reference::default();
        let mut now = SimTime::ZERO;
        let mut last_sample = None;
        for (n, &(dt, lane, action)) in steps.iter().enumerate() {
            now = SimTime::from_micros(now.as_micros() + dt);
            let part = &mut parts[lane_shard[lane as usize] % shards];
            part.set_recorder(lane, now);
            match action {
                Action::Record { future } => {
                    let ev = TraceEvent {
                        at: SimTime::from_micros(now.as_micros() + future),
                        trace: Some(TraceId(n as u64)),
                        actor: u64::from(lane),
                        kind: EventKind::NetDeliver { conn: n as u64 },
                    };
                    part.record(ev.at, ev.trace, ev.actor, ev.kind);
                    prop_assert!(part.len() <= 2 * capacity);
                    let seq = model.next_seq(lane);
                    model.events.push(((ev.at, lane, seq), ev));
                }
                Action::GaugeSet { gauge, value } => {
                    part.gauge_set(Gauge::ALL[gauge], value);
                    let seq = model.next_seq(lane);
                    model.gauge_ops.push(((now, lane, seq), gauge, value));
                }
                Action::Count { delta } => {
                    part.count(Counter::NetFramesSent, delta);
                    model.counters[Counter::NetFramesSent as usize] += delta;
                }
                Action::Sample => {
                    // The sampler ticks on a cadence: one mark per instant.
                    if last_sample == Some(now) {
                        continue;
                    }
                    last_sample = Some(now);
                    for p in &mut parts {
                        p.sample(now);
                    }
                    model.samples.push((now, model.counters));
                }
            }
        }

        let merged = TraceCollector::merged(parts);

        model.events.sort_by_key(|(key, _)| *key);
        let evicted = model.events.len().saturating_sub(capacity);
        let expected: Vec<TraceEvent> =
            model.events[evicted..].iter().map(|(_, ev)| *ev).collect();
        prop_assert_eq!(merged.events().copied().collect::<Vec<_>>(), expected);
        prop_assert_eq!(merged.evicted(), evicted as u64);
        prop_assert_eq!(merged.len(), expected.len());

        let expected_samples: Vec<CounterSample> = model
            .samples
            .iter()
            .map(|&(at, counters)| CounterSample {
                at,
                counters,
                gauges: model.gauges_at(Some(at)),
            })
            .collect();
        prop_assert_eq!(merged.samples(), &expected_samples[..]);
        let finals = model.gauges_at(None);
        for g in Gauge::ALL {
            prop_assert_eq!(merged.gauge(g), finals[g as usize]);
        }
        prop_assert_eq!(
            merged.counter(Counter::NetFramesSent),
            model.counters[Counter::NetFramesSent as usize]
        );
    }
}
