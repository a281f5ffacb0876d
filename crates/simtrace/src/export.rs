//! Byte-deterministic trace exporters: JSONL and Chrome `trace_event`.
//!
//! Both formats are rendered over data that is already deterministically
//! ordered (the event ring is in `(time, lane, seq)` order, a summary's
//! probes in id order), so two runs with the same seed produce
//! byte-identical artifacts. No wall-clock value ever enters an export.
//!
//! A run's events are the bulk of both files (tens of MB), so each export
//! is appended to one byte buffer the caller sizes from [`jsonl_len`] or
//! [`chrome_trace_len`]: the same renderer run over a sink that only
//! counts, so the buffer holds the export exactly and never regrows (and
//! a thread writing into it allocates nothing). Lines are constant
//! fragments and `simcore::write_uint` numbers; only a vmstat row's
//! `idle` goes through `write!`.

use crate::collector::TraceCollector;
use crate::event::{Counter, EventKind, Gauge, TraceId};
use crate::summary::TraceSummary;
use simcore::{uint_len, write_uint, SimTime};
use std::io::{self, Write};

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

/// Where a renderer's bytes go: the caller's buffer, or [`Len`].
trait Sink: Write {
    fn bytes(&mut self, b: &[u8]);
    fn uint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    #[inline]
    fn uint(&mut self, v: u64) {
        write_uint(self, v, 1);
    }
}

/// Counts the bytes a renderer would append, writing none.
struct Len(usize);

impl Sink for Len {
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }

    #[inline]
    fn uint(&mut self, v: u64) {
        self.0 += uint_len(v);
    }
}

impl Write for Len {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The length of what `render` appends.
fn counted(render: impl FnOnce(&mut Len)) -> usize {
    let mut n = Len(0);
    render(&mut n);
    n.0
}

/// Append `key` (a constant fragment ending in `:`) and `v` in decimal.
#[inline]
fn field(out: &mut impl Sink, key: &[u8], v: u64) {
    out.bytes(key);
    out.uint(v);
}

fn kind_args(out: &mut impl Sink, kind: EventKind) {
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

/// The exact byte length of [`write_jsonl`]'s export.
pub fn jsonl_len(tr: &TraceCollector, resources: &[ResourceRow]) -> usize {
    counted(|n| render_jsonl(n, tr, resources))
}

/// Append the full trace as JSON Lines: every event, every counter
/// sample, and (merged in time order) the machine resource rows —
/// the "one unified resource log". Size `out` with [`jsonl_len`].
pub fn write_jsonl(out: &mut Vec<u8>, tr: &TraceCollector, resources: &[ResourceRow]) {
    render_jsonl(out, tr, resources);
}

fn render_jsonl(out: &mut impl Sink, tr: &TraceCollector, resources: &[ResourceRow]) {
    let with_faults = faults_active(tr);
    // Events first (time-ordered by construction).
    for ev in tr.events() {
        field(out, b"{\"type\":\"event\",\"at_us\":", ev.at.as_micros());
        match ev.trace {
            Some(id) => field(out, b",\"trace\":", id.0),
            None => out.bytes(b",\"trace\":null"),
        }
        field(out, b",\"actor\":", ev.actor);
        out.bytes(b",\"kind\":\"");
        out.bytes(ev.kind.name().as_bytes());
        out.bytes(b"\"");
        kind_args(out, ev.kind);
        out.bytes(b"}\n");
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
            field(out, b"{\"type\":\"counters\",\"at_us\":", s.at.as_micros());
            for c in Counter::ALL {
                if c.fault_only() && !with_faults {
                    continue;
                }
                out.bytes(b",\"");
                out.bytes(c.name().as_bytes());
                field(out, b"\":", s.counter(c));
            }
            for g in Gauge::ALL {
                out.bytes(b",\"");
                out.bytes(g.name().as_bytes());
                field(out, b"\":", s.gauge(g));
            }
            out.bytes(b"}\n");
        } else {
            // `f64`'s `Display` for `idle`.
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

/// The exact byte length of [`write_chrome_trace`]'s export.
pub fn chrome_trace_len(tr: &TraceCollector, summary: &TraceSummary) -> usize {
    counted(|n| render_chrome_trace(n, tr, summary))
}

/// Append the trace in Chrome `trace_event` JSON (open in Perfetto or
/// `chrome://tracing`). Each traced message gets its own track (tid =
/// trace id + 1); its reconstructed PRT/PT/SRT phases are duration
/// events and its hops are instants. Counter samples become `ph:"C"`
/// counter tracks. Anonymous infrastructure events share track 0.
/// `summary` is [`TraceSummary::from_collector`] of the same `tr`; size
/// `out` with [`chrome_trace_len`].
pub fn write_chrome_trace(out: &mut Vec<u8>, tr: &TraceCollector, summary: &TraceSummary) {
    render_chrome_trace(out, tr, summary);
}

fn render_chrome_trace(out: &mut impl Sink, tr: &TraceCollector, summary: &TraceSummary) {
    out.bytes(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.bytes(
        b"{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
          \"args\":{\"name\":\"gridmon-sim\"}}",
    );
    for ev in tr.events() {
        out.bytes(b",\n{\"name\":\"");
        out.bytes(ev.kind.name().as_bytes());
        field(
            out,
            b"\",\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            ev.at.as_micros(),
        );
        field(out, b",\"pid\":0,\"tid\":", track(ev.trace));
        field(out, b",\"args\":{\"actor\":", ev.actor);
        kind_args(out, ev.kind);
        out.bytes(b"}}");
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
                out.bytes(name);
                field(
                    out,
                    b",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":",
                    start.as_micros(),
                );
                field(out, b",\"dur\":", dur);
                field(out, b",\"pid\":0,\"tid\":", tid);
                out.bytes(b"}");
            }
        }
    }
    let with_faults = faults_active(tr);
    for s in tr.samples() {
        let counters = Counter::ALL
            .into_iter()
            .filter(|c| with_faults || !c.fault_only())
            .map(|c| (c.name(), s.counter(c)));
        let gauges = Gauge::ALL.into_iter().map(|g| (g.name(), s.gauge(g)));
        for (name, value) in counters.chain(gauges) {
            out.bytes(b",\n{\"name\":\"");
            out.bytes(name.as_bytes());
            field(out, b"\",\"ph\":\"C\",\"ts\":", s.at.as_micros());
            field(out, b",\"pid\":0,\"args\":{\"value\":", value);
            out.bytes(b"}}");
        }
    }
    out.bytes(b"\n]}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render into a buffer sized by `len`; the buffer must come out
    /// exactly full, never regrown.
    fn rendered(len: usize, write: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::with_capacity(len);
        write(&mut out);
        assert_eq!((out.len(), out.capacity()), (len, len), "sized exactly");
        String::from_utf8(out).expect("exports are ASCII")
    }

    fn jsonl(tr: &TraceCollector, rows: &[ResourceRow]) -> String {
        rendered(jsonl_len(tr, rows), |out| write_jsonl(out, tr, rows))
    }

    fn chrome_trace(tr: &TraceCollector, summary: &TraceSummary) -> String {
        rendered(chrome_trace_len(tr, summary), |out| {
            write_chrome_trace(out, tr, summary)
        })
    }

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

    /// Every kind at its widest: `u64::MAX` instants, actors and
    /// connections, the trace id whose track is `u64::MAX`, `u32::MAX` arguments, fault counters moved, and a
    /// full probe lifecycle so every phase row is written. A fixed
    /// per-event reservation of 112 B (JSONL) or 160 B (Chrome) falls
    /// short here, as the last assertions show.
    #[test]
    fn worst_case_exports_fill_their_sized_buffers_exactly() {
        let max = u32::MAX;
        let kinds = [
            EventKind::NetSend {
                conn: u64::MAX,
                bytes: max,
            },
            EventKind::NetDeliver { conn: u64::MAX },
            EventKind::NetDrop { conn: u64::MAX },
            EventKind::BrokerRecv { broker: max },
            EventKind::SelectorMatch {
                matched: max,
                missed: max,
            },
            EventKind::BrokerDeliver {
                broker: max,
                fanout: max,
            },
            EventKind::BrokerForward {
                broker: max,
                peers: max,
            },
            EventKind::Retransmit { attempt: max },
            EventKind::StorageInsert { rows: max },
            EventKind::SelectMatch { consumers: max },
            EventKind::BatchEnqueue { occupancy: max },
            EventKind::BatchFlush { tuples: max },
            EventKind::GcPause { micros: max },
        ];
        let mut c = TraceCollector::new();
        let (at, id) = (SimTime::MAX, Some(TraceId(u64::MAX - 1)));
        for kind in [
            EventKind::PublishBegin,
            EventKind::PublishEnd,
            EventKind::Available,
            EventKind::Delivered,
        ] {
            c.record(at, id, u64::MAX, kind);
        }
        for _ in 0..64 {
            for kind in kinds {
                c.record(at, id, u64::MAX, kind);
            }
        }
        for counter in Counter::ALL {
            c.count(counter, u64::MAX);
        }
        for g in Gauge::ALL {
            c.gauge_set(g, u64::MAX);
        }
        c.sample(at);
        let rows = [ResourceRow {
            at,
            node: u64::MAX,
            idle: 0.1 + 0.2,
            mem_bytes: u64::MAX,
        }];
        let tr = TraceCollector::merged([c]);
        let per_event = |len: usize| len / tr.len();
        let text = jsonl(&tr, &rows);
        assert!(per_event(text.len()) > 112, "{}", per_event(text.len()));
        let text = chrome_trace(&tr, &TraceSummary::from_collector(&tr));
        assert!(text.contains("\"name\":\"SRT\""));
        assert!(per_event(text.len()) > 160, "{}", per_event(text.len()));
    }
}
