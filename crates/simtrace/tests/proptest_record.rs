//! A stored record gives back the event it was made from: every
//! `EventKind` with its payload at `0` and `u32::MAX`, the trace id
//! absent, `0` and `u64::MAX`, the instant at `0` and at
//! `telemetry::Stamp::LAST`, whether the record waits in the ring (at the
//! clock) or among the held records (ahead of it).

use proptest::prelude::*;
use simcore::SimTime;
use simtrace::{EventKind, TraceCollector, TraceEvent, TraceId};
use telemetry::Stamp;

/// Every `EventKind`, by variant, its fields `a` and `b` in field order.
fn kind(ix: usize, a: u32, b: u32) -> EventKind {
    match ix % 17 {
        0 => EventKind::PublishBegin,
        1 => EventKind::PublishEnd,
        2 => EventKind::Available,
        3 => EventKind::Delivered,
        4 => EventKind::NetSend { conn: a, bytes: b },
        5 => EventKind::NetDeliver { conn: a },
        6 => EventKind::NetDrop { conn: a },
        7 => EventKind::BrokerRecv { broker: a },
        8 => EventKind::SelectorMatch {
            matched: a,
            missed: b,
        },
        9 => EventKind::BrokerDeliver {
            broker: a,
            fanout: b,
        },
        10 => EventKind::BrokerForward {
            broker: a,
            peers: b,
        },
        11 => EventKind::Retransmit { attempt: a },
        12 => EventKind::StorageInsert { rows: a },
        13 => EventKind::SelectMatch { consumers: a },
        14 => EventKind::BatchEnqueue { occupancy: a },
        15 => EventKind::BatchFlush { tuples: a },
        _ => EventKind::GcPause { micros: a },
    }
}

/// The events `ev` reads back as after one record, on `lane`, with the
/// clock at `ev.at` (`held`: at 0, so a later stamp is held).
fn round_trip(ev: TraceEvent, lane: u32, held: bool) -> Vec<TraceEvent> {
    let mut c = TraceCollector::with_capacity(1);
    let clock = if held { SimTime::ZERO } else { ev.at };
    c.set_recorder(lane, clock);
    c.record(ev.at, ev.trace, ev.actor, ev.kind);
    let stored: Vec<TraceEvent> = c.events().collect();
    let merged: Vec<TraceEvent> = TraceCollector::merged([c]).events().collect();
    assert_eq!(stored, merged, "merging moves a record unchanged");
    merged
}

#[test]
fn every_kind_at_its_edges_reads_back_as_recorded() {
    let payloads = [0, u32::MAX];
    let traces = [None, Some(TraceId(0)), Some(TraceId(u64::MAX))];
    let instants = [SimTime::ZERO, Stamp::LAST];
    for ix in 0..17 {
        for (a, b) in payloads.into_iter().flat_map(|a| payloads.map(|b| (a, b))) {
            for trace in traces {
                for at in instants {
                    for (actor, held) in [(0, false), (u32::MAX, true)] {
                        let ev = TraceEvent {
                            at,
                            trace,
                            actor,
                            kind: kind(ix, a, b),
                        };
                        assert_eq!(round_trip(ev, actor, held), [ev]);
                    }
                }
            }
        }
    }
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn a_record_reads_back_as_the_event_it_was_made_from(
        ix in 0usize..17,
        a in edge_u32(),
        b in edge_u32(),
        trace in prop_oneof![
            Just(None),
            Just(Some(0u64)),
            Just(Some(u64::MAX)),
            any::<u64>().prop_map(Some),
        ],
        at in prop_oneof![
            Just(0u64),
            Just(Stamp::LAST.as_micros()),
            0..=Stamp::LAST.as_micros(),
        ],
        actor in edge_u32(),
        lane in edge_u32(),
        held in any::<bool>(),
    ) {
        let ev = TraceEvent {
            at: SimTime::from_micros(at),
            trace: trace.map(TraceId),
            actor,
            kind: kind(ix, a, b),
        };
        prop_assert_eq!(round_trip(ev, lane, held), [ev]);
    }
}
