//! Byte-deterministic trace exporters: JSONL and Chrome `trace_event`.
//!
//! Both formats are assembled with plain string formatting over data
//! that is already deterministically ordered (the event ring is in
//! simulation-time order; summaries use `BTreeMap`), so two runs with
//! the same seed produce byte-identical artifacts. No wall-clock value
//! ever enters an export.

use crate::collector::TraceCollector;
use crate::event::{Counter, EventKind, Gauge};
use crate::summary::TraceSummary;
use simcore::SimTime;
use std::fmt::Write;

/// One row of the machine-level resource log (vmstat mirror). The
/// caller converts `simos::VmSample`s into these, keeping this crate
/// free of higher-layer dependencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRow {
    /// Sample instant.
    pub at: SimTime,
    /// Node index.
    pub node: u64,
    /// CPU idle fraction over the last interval.
    pub idle: f64,
    /// Memory consumption in bytes.
    pub mem_bytes: u64,
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
        EventKind::SelectMatch { consumers } => write!(out, ",\"consumers\":{consumers}").unwrap(),
        EventKind::BatchEnqueue { occupancy } => write!(out, ",\"occupancy\":{occupancy}").unwrap(),
        EventKind::BatchFlush { tuples } => write!(out, ",\"tuples\":{tuples}").unwrap(),
        EventKind::GcPause { micros } => write!(out, ",\"micros\":{micros}").unwrap(),
    }
}

/// True if any sample shows movement on a fault-only counter. When not,
/// the fault slots are omitted from exports so no-fault runs stay
/// byte-identical to builds that predate fault injection.
fn faults_active(tr: &TraceCollector) -> bool {
    tr.samples().iter().any(|s| {
        Counter::ALL
            .iter()
            .any(|c| c.fault_only() && s.counter(*c) > 0)
    })
}

/// Export the full trace as JSON Lines: every event, every counter
/// sample, and (merged in time order) the machine resource rows —
/// the "one unified resource log".
pub fn jsonl(tr: &TraceCollector, resources: &[ResourceRow]) -> String {
    // ~105 B per event line: sized once, not grown by doubling.
    let mut out = String::with_capacity(tr.len() * 112);
    let with_faults = faults_active(tr);
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
    let mut ci = tr.samples().iter().peekable();
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
            for c in Counter::ALL {
                if c.fault_only() && !with_faults {
                    continue;
                }
                write!(out, ",\"{}\":{}", c.name(), s.counter(c)).unwrap();
            }
            for g in Gauge::ALL {
                write!(out, ",\"{}\":{}", g.name(), s.gauge(g)).unwrap();
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
pub fn chrome_trace(tr: &TraceCollector, summary: &TraceSummary) -> String {
    // ~140 B per event, its share of phase rows included.
    let mut out = String::with_capacity(tr.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"gridmon-sim\"}}",
    );
    for ev in tr.events() {
        let tid = ev.trace.map_or(0, |t| t.0 + 1);
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
        let tid = id.0 + 1;
        let phases = [
            ("PRT", b.publish_begin, b.prt()),
            ("PT", b.publish_end, b.pt()),
            ("SRT", b.available, b.srt()),
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
    let with_faults = faults_active(tr);
    for s in tr.samples() {
        for c in Counter::ALL {
            if c.fault_only() && !with_faults {
                continue;
            }
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"value\":{}}}}}",
                c.name(),
                s.at.as_micros(),
                s.counter(c)
            )
            .unwrap();
        }
        for g in Gauge::ALL {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"value\":{}}}}}",
                g.name(),
                s.at.as_micros(),
                s.gauge(g)
            )
            .unwrap();
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceId;

    fn sample_collector() -> TraceCollector {
        let mut c = TraceCollector::new();
        let id = Some(TraceId(3));
        c.record(SimTime::from_millis(1), id, 1, EventKind::PublishBegin);
        c.record(SimTime::from_millis(2), id, 1, EventKind::PublishEnd);
        c.record(
            SimTime::from_millis(3),
            None,
            9,
            EventKind::NetSend {
                conn: 4,
                bytes: 512,
            },
        );
        c.record(SimTime::from_millis(5), id, 2, EventKind::Available);
        c.record(SimTime::from_millis(6), id, 2, EventKind::Delivered);
        c.count(Counter::NetFramesSent, 1);
        c.gauge_set(Gauge::NicBacklogUs, 1);
        c.sample(SimTime::from_secs(1));
        c
    }

    #[test]
    fn jsonl_lines_are_parseable_objects() {
        let c = sample_collector();
        let rows = [ResourceRow {
            at: SimTime::from_secs(1),
            node: 0,
            idle: 0.5,
            mem_bytes: 1024,
        }];
        let text = jsonl(&c, &rows);
        assert_eq!(text.lines().count(), 5 + 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Balanced quotes and braces are a cheap JSON sanity check.
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
        assert!(text.contains("\"kind\":\"net_send\",\"conn\":4,\"bytes\":512"));
        assert!(text.contains("\"type\":\"vmstat\""));
        assert!(text.contains("\"net_frames_sent\":1"));
    }

    #[test]
    fn jsonl_is_deterministic() {
        let a = jsonl(&sample_collector(), &[]);
        let b = jsonl(&sample_collector(), &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_trace_has_phases_and_counters() {
        let tr = sample_collector();
        let text = chrome_trace(&tr, &TraceSummary::from_collector(&tr));
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"name\":\"PRT\""));
        assert!(text.contains("\"name\":\"PT\""));
        assert!(text.contains("\"name\":\"SRT\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"tid\":4"), "trace 3 maps to tid 4");
        // Braces balance (no trailing-comma style corruption).
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces"
        );
    }
}
