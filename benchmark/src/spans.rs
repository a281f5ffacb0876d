//! The trace pass's own spans: kept in memory, written once at the end
//! as Chrome `trace_event` JSON (open in Perfetto or `chrome://tracing`).
//! Recorded from this crate only, around the calls into the simulator.

use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    dur_us: f64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of a recorded span: what its children name as parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span that began at `start` and took `dur_s`.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        dur_s: f64,
    ) -> SpanId {
        self.spans.push(Span {
            parent: parent.map(|p| p.0),
            name: name.to_owned(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur_s * 1e6,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let start = Instant::now();
        let id = self.add(name, parent, start, 0.0);
        let out = f(self, id);
        self.spans[id.0].dur_us = start.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// One complete (`"ph": "X"`) event per span; `args.id` and
    /// `args.parent` carry the tree (the root's parent is `null`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"gridbench\", \"ph\": \"X\", \"ts\": {:.1}, \"dur\": {:.1}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}{}\n",
                escape(&s.name),
                s.start_us,
                s.dur_us,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
