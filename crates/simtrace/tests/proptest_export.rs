//! The export writer against the `core::fmt` renderers it replaced.
//!
//! `reference` is the earlier `simtrace::export::{jsonl, chrome_trace,
//! kind_args}` and `TraceSummary::from_collector`, copied verbatim; the
//! proptest feeds both random collectors and requires the same bytes:
//! every `EventKind`, `0` and the widest value each field holds
//! (`Stamp::LAST` for instants, `u32::MAX` for actors and connections,
//! `u64::MAX` for trace ids) beside `None`, fault counters moved or not,
//! and vmstat rows with a fractional `idle`, some at a counter sample's
//! instant. The counters and gauges live in a metrics registry; the
//! reference reads its snapshot rows as the collector's samples. Each export is written through its buffer entry point
//! (`write_jsonl` / `write_chrome_trace`) into a buffer sized by its
//! length function, which it must fill exactly without regrowing.

use proptest::prelude::*;
use simcore::SimTime;
use simtrace::export::{self, ResourceRow};
use simtrace::{EventKind, TraceCollector, TraceId, TraceSummary};
use telemetry::{MetricsRegistry, Stamp};

/// Verbatim but for three edits: a message's track is its trace id + 1
/// *wrapping*, what the release build of this code computed for the id
/// `u64::MAX` (a debug build stops on the overflow); the counter
/// samples are passed in, not read from the collector; and a probe's
/// instants are read through `ProbeBreakdown`'s accessors, the reference
/// breakdown being [`Probe`](reference::Probe), the struct of
/// `Option<SimTime>`s `ProbeBreakdown` was.
#[allow(clippy::all)]
mod reference {
    use simcore::SimTime;
    use simtrace::export::ResourceRow;
    use simtrace::{EventKind, TraceCollector, TraceId, TraceSummary};
    use std::collections::BTreeMap;
    use std::fmt::Write;

    /// One probe's instants and hops.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Probe {
        pub publish_begin: Option<SimTime>,
        pub publish_end: Option<SimTime>,
        pub available: Option<SimTime>,
        pub delivered: Option<SimTime>,
        pub hops: u32,
    }

    /// The trace's counter slots: `(name, only faults move it)`.
    pub const COUNTERS: [(&str, bool); 17] = [
        ("net_frames_sent", false),
        ("net_frames_delivered", false),
        ("net_drops", false),
        ("selector_matches", false),
        ("selector_misses", false),
        ("broker_publishes", false),
        ("broker_deliveries", false),
        ("broker_forwards", false),
        ("retries", false),
        ("tuples_stored", false),
        ("tuples_delivered", false),
        ("batch_flushes", false),
        ("gc_pauses", false),
        ("faults_injected", true),
        ("fault_drops", true),
        ("fault_rejections", true),
        ("fault_recoveries", true),
    ];

    /// The trace's gauge slots: `(name, registry gauge)`.
    pub const GAUGES: [(&str, &str); 2] = [
        ("nic_backlog_us", "nic_backlog_us"),
        ("batch_occupancy", "rgma.secondary.batch_tuples"),
    ];

    /// One snapshot of every counter and gauge.
    pub struct CounterSample {
        pub at: simcore::SimTime,
        pub counters: [u64; 17],
        pub gauges: [u64; 2],
    }

    fn kind_args(out: &mut String, kind: EventKind) {
        match kind {
            EventKind::PublishBegin
            | EventKind::PublishEnd
            | EventKind::Available
            | EventKind::Delivered => {}
            EventKind::NetSend { conn, bytes } => {
                write!(out, ",\"conn\":{conn},\"bytes\":{bytes}").unwrap()
            }
            EventKind::NetDeliver { conn } | EventKind::NetDrop { conn } => {
                write!(out, ",\"conn\":{conn}").unwrap()
            }
            EventKind::BrokerRecv { broker } => write!(out, ",\"broker\":{broker}").unwrap(),
            EventKind::SelectorMatch { matched, missed } => {
                write!(out, ",\"matched\":{matched},\"missed\":{missed}").unwrap()
            }
            EventKind::BrokerDeliver { broker, fanout } => {
                write!(out, ",\"broker\":{broker},\"fanout\":{fanout}").unwrap()
            }
            EventKind::BrokerForward { broker, peers } => {
                write!(out, ",\"broker\":{broker},\"peers\":{peers}").unwrap()
            }
            EventKind::Retransmit { attempt } => write!(out, ",\"attempt\":{attempt}").unwrap(),
            EventKind::StorageInsert { rows } => write!(out, ",\"rows\":{rows}").unwrap(),
            EventKind::SelectMatch { consumers } => {
                write!(out, ",\"consumers\":{consumers}").unwrap()
            }
            EventKind::BatchEnqueue { occupancy } => {
                write!(out, ",\"occupancy\":{occupancy}").unwrap()
            }
            EventKind::BatchFlush { tuples } => write!(out, ",\"tuples\":{tuples}").unwrap(),
            EventKind::GcPause { micros } => write!(out, ",\"micros\":{micros}").unwrap(),
        }
    }

    /// True if any sample shows movement on a fault-only counter. When not,
    /// the fault slots are omitted from exports so no-fault runs stay
    /// byte-identical to builds that predate fault injection.
    fn faults_active(samples: &[CounterSample]) -> bool {
        samples
            .iter()
            .any(|s| (0..17).any(|c| COUNTERS[c].1 && s.counters[c] > 0))
    }

    /// Export the full trace as JSON Lines: every event, every counter
    /// sample, and (merged in time order) the machine resource rows —
    /// the "one unified resource log".
    pub fn jsonl(
        tr: &TraceCollector,
        samples: &[CounterSample],
        resources: &[ResourceRow],
    ) -> String {
        // ~105 B per event line: sized once, not grown by doubling.
        let mut out = String::with_capacity(tr.len() * 112);
        let with_faults = faults_active(samples);
        // Events first (time-ordered by construction).
        for ev in tr.events() {
            write!(out, "{{\"type\":\"event\",\"at_us\":{}", ev.at.as_micros()).unwrap();
            match ev.trace {
                Some(id) => write!(out, ",\"trace\":{}", id.0).unwrap(),
                None => out.push_str(",\"trace\":null"),
            }
            write!(
                out,
                ",\"actor\":{},\"kind\":\"{}\"",
                ev.actor,
                ev.kind.name()
            )
            .unwrap();
            kind_args(&mut out, ev.kind);
            out.push_str("}\n");
        }
        // Unified resource log: counter samples and vmstat rows, merged by
        // instant (counters before vmstat on ties, then node order).
        let mut ci = samples.iter().peekable();
        let mut ri = resources.iter().peekable();
        loop {
            let take_counter = match (ci.peek(), ri.peek()) {
                (Some(c), Some(r)) => c.at <= r.at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_counter {
                let s = ci.next().unwrap();
                write!(
                    out,
                    "{{\"type\":\"counters\",\"at_us\":{}",
                    s.at.as_micros()
                )
                .unwrap();
                for c in 0..17 {
                    if COUNTERS[c].1 && !with_faults {
                        continue;
                    }
                    write!(out, ",\"{}\":{}", COUNTERS[c].0, s.counters[c]).unwrap();
                }
                for g in 0..2 {
                    write!(out, ",\"{}\":{}", GAUGES[g].0, s.gauges[g]).unwrap();
                }
                out.push_str("}\n");
            } else {
                let r = ri.next().unwrap();
                writeln!(
                    out,
                    "{{\"type\":\"vmstat\",\"at_us\":{},\"node\":{},\"idle\":{},\"mem_bytes\":{}}}",
                    r.at.as_micros(),
                    r.node,
                    r.idle,
                    r.mem_bytes
                )
                .unwrap();
            }
        }
        out
    }

    /// Export the trace in Chrome `trace_event` JSON (open in Perfetto or
    /// `chrome://tracing`). Each traced message gets its own track (tid =
    /// trace id + 1); its reconstructed PRT/PT/SRT phases are duration
    /// events and its hops are instants. Counter samples become `ph:"C"`
    /// counter tracks. Anonymous infrastructure events share track 0.
    /// `summary` is [`TraceSummary::from_collector`] of the same `tr`.
    pub fn chrome_trace(
        tr: &TraceCollector,
        samples: &[CounterSample],
        summary: &TraceSummary,
    ) -> String {
        // ~140 B per event, its share of phase rows included.
        let mut out = String::with_capacity(tr.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"gridmon-sim\"}}",
        );
        for ev in tr.events() {
            let tid = ev.trace.map_or(0, |t| t.0.wrapping_add(1));
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":0,\"tid\":{tid},\"args\":{{\"actor\":{}",
                ev.kind.name(),
                ev.at.as_micros(),
                ev.actor
            )
            .unwrap();
            kind_args(&mut out, ev.kind);
            out.push_str("}}");
        }
        for (id, b) in &summary.probes {
            let tid = id.0.wrapping_add(1);
            let phases = [
                ("PRT", b.publish_begin(), b.prt()),
                ("PT", b.publish_end(), b.pt()),
                ("SRT", b.available(), b.srt()),
            ];
            for (name, start, dur) in phases {
                if let (Some(start), Some(dur)) = (start, dur) {
                    write!(
                        out,
                        ",\n{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{dur},\"pid\":0,\"tid\":{tid}}}",
                        start.as_micros()
                    )
                    .unwrap();
                }
            }
        }
        let with_faults = faults_active(samples);
        for s in samples {
            for c in 0..17 {
                if COUNTERS[c].1 && !with_faults {
                    continue;
                }
                write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"args\":{{\"value\":{}}}}}",
                    COUNTERS[c].0,
                    s.at.as_micros(),
                    s.counters[c]
                )
                .unwrap();
            }
            for g in 0..2 {
                write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"args\":{{\"value\":{}}}}}",
                    GAUGES[g].0,
                    s.at.as_micros(),
                    s.gauges[g]
                )
                .unwrap();
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// `TraceSummary::from_collector`'s probes, by `BTreeMap`.
    pub fn probes(tr: &TraceCollector) -> BTreeMap<TraceId, Probe> {
        let mut probes: BTreeMap<TraceId, Probe> = BTreeMap::new();
        for ev in tr.events() {
            let Some(id) = ev.trace else { continue };
            let slot = probes.entry(id).or_default();
            match ev.kind {
                EventKind::PublishBegin => slot.publish_begin = Some(ev.at),
                EventKind::PublishEnd => slot.publish_end = Some(ev.at),
                EventKind::Available => {
                    if slot.available.is_none() {
                        slot.available = Some(ev.at);
                    }
                }
                EventKind::Delivered => {
                    if slot.delivered.is_none() {
                        slot.delivered = Some(ev.at);
                    }
                }
                _ => slot.hops += 1,
            }
        }
        probes
    }
}

/// Every `EventKind`, its fields drawn from `wide` and `narrow`.
fn kind(ix: usize, wide: u64, narrow: u32) -> EventKind {
    let other = wide as u32;
    match ix % 17 {
        0 => EventKind::PublishBegin,
        1 => EventKind::PublishEnd,
        2 => EventKind::Available,
        3 => EventKind::Delivered,
        4 => EventKind::NetSend {
            conn: other,
            bytes: narrow,
        },
        5 => EventKind::NetDeliver { conn: other },
        6 => EventKind::NetDrop { conn: other },
        7 => EventKind::BrokerRecv { broker: narrow },
        8 => EventKind::SelectorMatch {
            matched: narrow,
            missed: other,
        },
        9 => EventKind::BrokerDeliver {
            broker: narrow,
            fanout: other,
        },
        10 => EventKind::BrokerForward {
            broker: narrow,
            peers: other,
        },
        11 => EventKind::Retransmit { attempt: narrow },
        12 => EventKind::StorageInsert { rows: narrow },
        13 => EventKind::SelectMatch { consumers: narrow },
        14 => EventKind::BatchEnqueue { occupancy: narrow },
        15 => EventKind::BatchFlush { tuples: narrow },
        _ => EventKind::GcPause { micros: narrow },
    }
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..2_000_000]
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 0u32..100]
}

/// A few ids shared by several events (so probes get phases), the two
/// ends of the range, or none.
fn trace_id() -> impl Strategy<Value = Option<TraceId>> {
    prop_oneof![
        Just(None),
        Just(Some(TraceId(0))),
        Just(Some(TraceId(u64::MAX))),
        (0u64..12).prop_map(|id| Some(TraceId(id))),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// An event stamped `ahead` µs after the clock, or at an end of time.
    Record {
        kind: usize,
        at: Option<u64>,
        ahead: u64,
        trace: Option<TraceId>,
        actor: u32,
        wide: u64,
        narrow: u32,
    },
    Count {
        counter: usize,
        delta: u64,
    },
    Gauge {
        gauge: usize,
        value: u32,
    },
    Sample,
}

fn step() -> impl Strategy<Value = Step> {
    let record = (
        0usize..17,
        prop_oneof![
            Just(None),
            Just(Some(0u64)),
            Just(Some(Stamp::LAST.as_micros()))
        ],
        0u64..3_000,
        trace_id(),
        edge_u32(),
        edge_u64(),
        edge_u32(),
    )
        .prop_map(
            |(kind, at, ahead, trace, actor, wide, narrow)| Step::Record {
                kind,
                at,
                ahead,
                trace,
                actor,
                wide,
                narrow,
            },
        )
        .boxed();
    // Records twice as likely as each other step.
    prop_oneof![
        record.clone(),
        record,
        (0usize..17, 0u64..1_000).prop_map(|(counter, delta)| Step::Count { counter, delta }),
        (0usize..2, edge_u32()).prop_map(|(gauge, value)| Step::Gauge { gauge, value }),
        Just(Step::Sample),
    ]
}

/// `idle` as `f64`'s `Display` prints it: whole, short and long fractions.
fn idle() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.0),
        Just(1.0 / 3.0),
        Just(0.5),
        0.0f64..1.0
    ]
}

proptest! {
    #[test]
    fn byte_writer_renders_what_core_fmt_rendered(
        steps in proptest::collection::vec((0u64..4, 0u32..5, step()), 0..120),
        faults in any::<bool>(),
        rows in proptest::collection::vec((0usize..8, 0u64..4, idle(), edge_u64()), 0..12),
    ) {
        let mut tr = TraceCollector::new();
        let mut m = MetricsRegistry::new();
        let mut now = 0u64;
        let mut instants = vec![0u64];
        // One event of every kind, then the drawn steps.
        for ix in 0..17 {
            tr.record(SimTime::from_micros(ix as u64), Some(TraceId(ix as u64 % 3)), 1, kind(ix, 9, 4));
        }
        for (dt, lane, step) in steps {
            now += dt;
            tr.set_recorder(lane, SimTime::from_micros(now));
            m.set_recorder(lane, SimTime::from_micros(now));
            match step {
                Step::Record { kind: ix, at, ahead, trace, actor, wide, narrow } => {
                    let at = at.unwrap_or(now + ahead);
                    tr.record(SimTime::from_micros(at), trace, actor, kind(ix, wide, narrow));
                }
                Step::Count { counter, delta } => {
                    let (name, fault_only) = reference::COUNTERS[counter];
                    if faults || !fault_only {
                        m.add_counter(name, delta);
                    }
                }
                Step::Gauge { gauge, value } => {
                    m.set_gauge(reference::GAUGES[gauge].1, f64::from(value))
                }
                Step::Sample => {
                    if instants.last() != Some(&now) {
                        m.sample(SimTime::from_micros(now));
                        instants.push(now);
                    }
                }
            }
        }
        let tr = TraceCollector::merged([tr]);
        let m = MetricsRegistry::merged([m]);
        // The registry's rows, as the collector's samples were.
        let samples: Vec<reference::CounterSample> = m
            .ticks()
            .iter()
            .enumerate()
            .map(|(tick, &at)| reference::CounterSample {
                at,
                counters: reference::COUNTERS.map(|(c, _)| m.counter_at(c, tick).unwrap_or(0)),
                gauges: reference::GAUGES.map(|(_, g)| m.gauge_at(g, tick).map_or(0, |v| v as u64)),
            })
            .collect();
        // vmstat rows at counter-sample instants or between them, in
        // (instant, node) order like the merged vmstat log.
        let mut resources: Vec<ResourceRow> = rows
            .into_iter()
            .map(|(instant, node, idle, mem_bytes)| ResourceRow {
                at: SimTime::from_micros(match instants.get(instant) {
                    Some(&at) => at,
                    None => now + instant as u64,
                }),
                node,
                idle,
                mem_bytes,
            })
            .collect();
        resources.sort_by_key(|r| (r.at, r.node));

        let summary = TraceSummary::from_collector(&tr);
        let probes: Vec<_> = reference::probes(&tr).into_iter().collect();
        let rebuilt: Vec<_> = summary
            .probes
            .iter()
            .map(|&(id, b)| {
                let probe = reference::Probe {
                    publish_begin: b.publish_begin(),
                    publish_end: b.publish_end(),
                    available: b.available(),
                    delivered: b.delivered(),
                    hops: b.hops(),
                };
                (id, probe)
            })
            .collect();
        prop_assert_eq!(&rebuilt, &probes);
        let jsonl = sized(export::jsonl_len(&tr, &m, &resources), |out| {
            export::write_jsonl(out, &tr, &m, &resources)
        });
        prop_assert_eq!(jsonl, reference::jsonl(&tr, &samples, &resources));
        let chrome = sized(export::chrome_trace_len(&tr, &m, &summary), |out| {
            export::write_chrome_trace(out, &tr, &m, &summary)
        });
        prop_assert_eq!(chrome, reference::chrome_trace(&tr, &samples, &summary));
    }
}

/// What a buffer-writing entry point appends to a buffer sized by its
/// length function, which it must fill exactly, without regrowing.
fn sized(len: usize, write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::with_capacity(len);
    write(&mut out);
    assert_eq!((out.len(), out.capacity()), (len, len), "sized exactly");
    String::from_utf8(out).expect("exports are ASCII")
}
