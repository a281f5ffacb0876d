//! Byte-deterministic trace exporters: JSONL and Chrome `trace_event`.
//!
//! Both formats are rendered over data that is already deterministically
//! ordered (the event ring is in `(time, lane, seq)` order, a summary's
//! probes in id order), so two runs with the same seed produce
//! byte-identical artifacts. No wall-clock value ever enters an export.
//!
//! A run's events are the bulk of both files (tens of MB), so their lines
//! are appended to one byte buffer, sized once, as constant fragments and
//! `simcore::write_uint` numbers; the few hundred counter and vmstat rows
//! go through `write!`.

use crate::collector::TraceCollector;
use crate::event::{Counter, EventKind, Gauge, TraceId};
use crate::summary::TraceSummary;
use simcore::{write_uint, SimTime};
use std::io::Write;

const IN_MEMORY: &str = "writing to memory cannot fail";

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

/// Append `key` (a constant fragment ending in `:`) and `v` in decimal.
#[inline]
fn field(out: &mut Vec<u8>, key: &[u8], v: u64) {
    out.extend_from_slice(key);
    write_uint(out, v, 1);
}

fn kind_args(out: &mut Vec<u8>, kind: EventKind) {
    match kind {
        EventKind::PublishBegin
        | EventKind::PublishEnd
        | EventKind::Available
        | EventKind::Delivered => {}
        EventKind::NetSend { conn, bytes } => {
            field(out, b",\"conn\":", conn);
            field(out, b",\"bytes\":", bytes.into());
        }
        EventKind::NetDeliver { conn } | EventKind::NetDrop { conn } => {
            field(out, b",\"conn\":", conn)
        }
        EventKind::BrokerRecv { broker } => field(out, b",\"broker\":", broker.into()),
        EventKind::SelectorMatch { matched, missed } => {
            field(out, b",\"matched\":", matched.into());
            field(out, b",\"missed\":", missed.into());
        }
        EventKind::BrokerDeliver { broker, fanout } => {
            field(out, b",\"broker\":", broker.into());
            field(out, b",\"fanout\":", fanout.into());
        }
        EventKind::BrokerForward { broker, peers } => {
            field(out, b",\"broker\":", broker.into());
            field(out, b",\"peers\":", peers.into());
        }
        EventKind::Retransmit { attempt } => field(out, b",\"attempt\":", attempt.into()),
        EventKind::StorageInsert { rows } => field(out, b",\"rows\":", rows.into()),
        EventKind::SelectMatch { consumers } => field(out, b",\"consumers\":", consumers.into()),
        EventKind::BatchEnqueue { occupancy } => field(out, b",\"occupancy\":", occupancy.into()),
        EventKind::BatchFlush { tuples } => field(out, b",\"tuples\":", tuples.into()),
        EventKind::GcPause { micros } => field(out, b",\"micros\":", micros.into()),
    }
}

/// A track per traced message: its trace id + 1 (wrapping), 0 for
/// anonymous infrastructure events.
fn track(trace: Option<TraceId>) -> u64 {
    trace.map_or(0, |t| t.0.wrapping_add(1))
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

/// The rendered bytes as the `String` callers keep.
fn into_text(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("exports are ASCII")
}

/// Export the full trace as JSON Lines: every event, every counter
/// sample, and (merged in time order) the machine resource rows —
/// the "one unified resource log".
pub fn jsonl(tr: &TraceCollector, resources: &[ResourceRow]) -> String {
    // ~105 B per event line: sized once, not grown by doubling.
    let mut out = Vec::with_capacity(tr.len() * 112);
    write_jsonl(&mut out, tr, resources);
    into_text(out)
}

fn write_jsonl(out: &mut Vec<u8>, tr: &TraceCollector, resources: &[ResourceRow]) {
    let with_faults = faults_active(tr);
    // Events first (time-ordered by construction).
    for ev in tr.events() {
        field(out, b"{\"type\":\"event\",\"at_us\":", ev.at.as_micros());
        match ev.trace {
            Some(id) => field(out, b",\"trace\":", id.0),
            None => out.extend_from_slice(b",\"trace\":null"),
        }
        field(out, b",\"actor\":", ev.actor);
        out.extend_from_slice(b",\"kind\":\"");
        out.extend_from_slice(ev.kind.name().as_bytes());
        out.push(b'"');
        kind_args(out, ev.kind);
        out.extend_from_slice(b"}\n");
    }
    // Unified resource log: counter samples and vmstat rows, merged by
    // instant (counters before vmstat on ties, then node order). A few
    // hundred rows, so `write!` (and `f64`'s `Display` for `idle`).
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
            .expect(IN_MEMORY);
            for c in Counter::ALL {
                if c.fault_only() && !with_faults {
                    continue;
                }
                write!(out, ",\"{}\":{}", c.name(), s.counter(c)).expect(IN_MEMORY);
            }
            for g in Gauge::ALL {
                write!(out, ",\"{}\":{}", g.name(), s.gauge(g)).expect(IN_MEMORY);
            }
            out.extend_from_slice(b"}\n");
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
            .expect(IN_MEMORY);
        }
    }
}

/// Export the trace in Chrome `trace_event` JSON (open in Perfetto or
/// `chrome://tracing`). Each traced message gets its own track (tid =
/// trace id + 1); its reconstructed PRT/PT/SRT phases are duration
/// events and its hops are instants. Counter samples become `ph:"C"`
/// counter tracks. Anonymous infrastructure events share track 0.
/// `summary` is [`TraceSummary::from_collector`] of the same `tr`.
pub fn chrome_trace(tr: &TraceCollector, summary: &TraceSummary) -> String {
    // ~140 B per event, its share of phase rows included.
    let mut out = Vec::with_capacity(tr.len() * 160);
    write_chrome_trace(&mut out, tr, summary);
    into_text(out)
}

fn write_chrome_trace(out: &mut Vec<u8>, tr: &TraceCollector, summary: &TraceSummary) {
    out.extend_from_slice(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.extend_from_slice(
        b"{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
          \"args\":{\"name\":\"gridmon-sim\"}}",
    );
    for ev in tr.events() {
        out.extend_from_slice(b",\n{\"name\":\"");
        out.extend_from_slice(ev.kind.name().as_bytes());
        field(
            out,
            b"\",\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            ev.at.as_micros(),
        );
        field(out, b",\"pid\":0,\"tid\":", track(ev.trace));
        field(out, b",\"args\":{\"actor\":", ev.actor);
        kind_args(out, ev.kind);
        out.extend_from_slice(b"}}");
    }
    for (id, b) in &summary.probes {
        let tid = track(Some(*id));
        let phases: [(&[u8], _, _); 3] = [
            (b",\n{\"name\":\"PRT\"", b.publish_begin, b.prt()),
            (b",\n{\"name\":\"PT\"", b.publish_end, b.pt()),
            (b",\n{\"name\":\"SRT\"", b.available, b.srt()),
        ];
        for (name, start, dur) in phases {
            if let (Some(start), Some(dur)) = (start, dur) {
                out.extend_from_slice(name);
                field(
                    out,
                    b",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":",
                    start.as_micros(),
                );
                field(out, b",\"dur\":", dur);
                field(out, b",\"pid\":0,\"tid\":", tid);
                out.push(b'}');
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
            .expect(IN_MEMORY);
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
            .expect(IN_MEMORY);
        }
    }
    out.extend_from_slice(b"\n]}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

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
