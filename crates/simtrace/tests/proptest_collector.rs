//! The bounded collector against a record-everything reference model:
//! whatever the store dropped while recording, `merged` must return what
//! sorting the complete logs would.

use proptest::prelude::*;
use simcore::{FastMap, SimTime};
use simtrace::{EventKind, TraceCollector, TraceEvent, TraceId};

/// Everything ever recorded, unbounded.
#[derive(Default)]
struct Reference {
    events: Vec<((SimTime, u32, u64), TraceEvent)>,
    lane_seqs: FastMap<u32, u64>,
}

impl Reference {
    fn next_seq(&mut self, lane: u32) -> u64 {
        let seq = self.lane_seqs.entry(lane).or_insert(0);
        *seq += 1;
        *seq - 1
    }
}

proptest! {
    // A full store recording a same-instant record that belongs before
    // records of other lanes already in its ring takes a few hundred
    // cases to draw.
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn bounded_collector_equals_record_everything(
        // (clock advance µs, lane, how far ahead of the clock the event
        // is stamped: the fabric stamps `NetDeliver` at its delivery
        // instant)
        steps in proptest::collection::vec(
            (0u64..3, 0u32..6, prop_oneof![0u64..40, Just(0)]),
            0..400,
        ),
        lane_shard in proptest::collection::vec(0usize..4, 6..7),
        shards in 1usize..5,
        cap_raw in 1usize..64,
        cap_mode in 0u8..4,
    ) {
        // Capacities at the boundaries the store acts on: the number of
        // records made (the store fills on the last record), and half of
        // it (a store evicts from halfway on).
        let records = steps.len();
        let capacity = match cap_mode {
            0 => records.max(1),
            1 => (records / 2).max(1),
            _ => cap_raw,
        };
        let mut parts: Vec<TraceCollector> =
            (0..shards).map(|_| TraceCollector::with_capacity(capacity)).collect();
        let mut model = Reference::default();
        let mut now = SimTime::ZERO;
        for (n, &(dt, lane, future)) in steps.iter().enumerate() {
            now = SimTime::from_micros(now.as_micros() + dt);
            let part = &mut parts[lane_shard[lane as usize] % shards];
            part.set_recorder(lane, now);
            let ev = TraceEvent {
                at: SimTime::from_micros(now.as_micros() + future),
                trace: Some(TraceId(n as u64)),
                actor: lane,
                kind: EventKind::NetDeliver { conn: n as u32 },
            };
            part.record(ev.at, ev.trace, ev.actor, ev.kind);
            prop_assert!(part.len() <= capacity);
            let seq = model.next_seq(lane);
            model.events.push(((ev.at, lane, seq), ev));
        }

        let merged = TraceCollector::merged(parts);

        model.events.sort_by_key(|(key, _)| *key);
        let evicted = model.events.len().saturating_sub(capacity);
        let expected: Vec<TraceEvent> =
            model.events[evicted..].iter().map(|(_, ev)| *ev).collect();
        prop_assert_eq!(merged.events().collect::<Vec<_>>(), expected);
        prop_assert_eq!(merged.evicted(), evicted as u64);
        prop_assert_eq!(merged.len(), expected.len());
    }
}
