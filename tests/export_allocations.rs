//! A traced run's Chrome trace is written on a helper thread into a
//! buffer its caller sized (`gridmon_core::experiment`'s merge): the
//! writer itself must make no allocation, so that the helper leaves
//! per-thread allocation counts exact and never touches the allocator.
//! A buffer sized by the export's length function and then regrown would
//! count here as a `realloc`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simtrace::export::{self, ResourceRow};
use gridmon::simtrace::{EventKind, TraceCollector, TraceId, TraceSummary};
use gridmon::telemetry::MetricsRegistry;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Probes published, hopped and delivered on two lanes, with fabric
/// frames stamped ahead of the clock and a counter row a second.
fn recorded() -> (TraceCollector, MetricsRegistry) {
    let mut parts = Vec::new();
    let mut metrics = Vec::new();
    for lane in 0..2u32 {
        let mut tr = TraceCollector::new();
        let mut m = MetricsRegistry::new();
        for ms in 0..5_000u64 {
            let now = SimTime::from_millis(ms);
            tr.set_recorder(lane, now);
            m.set_recorder(lane, now);
            let id = Some(TraceId(ms * 2 + u64::from(lane)));
            tr.record(now, id, 7, EventKind::PublishBegin);
            tr.record(now, id, 7, EventKind::PublishEnd);
            let frame = EventKind::NetSend {
                conn: (ms % 40) as u32,
                bytes: 512,
            };
            tr.record(now + SimDuration::from_micros(150), None, 3, frame);
            tr.record(now, id, 9, EventKind::BrokerRecv { broker: lane });
            tr.record(now, id, 9, EventKind::Available);
            tr.record(now, id, 11, EventKind::Delivered);
            m.add_counter("net_frames_sent", 1);
            m.set_gauge("nic_backlog_us", (ms % 300) as f64);
            if ms % 1_000 == 0 {
                m.sample(now);
            }
        }
        parts.push(tr);
        metrics.push(m);
    }
    (
        TraceCollector::merged(parts),
        MetricsRegistry::merged(metrics),
    )
}

#[test]
fn an_export_written_into_its_sized_buffer_allocates_nothing() {
    let (tr, m) = recorded();
    assert!(tr.len() > 10_000, "{} events", tr.len());
    let summary = TraceSummary::from_collector(&tr);
    let rows: Vec<ResourceRow> = m
        .ticks()
        .iter()
        .map(|&at| ResourceRow {
            at,
            node: 0,
            idle: 1.0 / 3.0,
            mem_bytes: 1 << 30,
        })
        .collect();

    let mut chrome = Vec::with_capacity(export::chrome_trace_len(&tr, &m, &summary));
    let ((), allocs) = allocations(|| export::write_chrome_trace(&mut chrome, &tr, &m, &summary));
    assert_eq!(allocs, 0, "Chrome trace");
    assert_eq!(chrome.len(), chrome.capacity());

    let mut jsonl = Vec::with_capacity(export::jsonl_len(&tr, &m, &rows));
    let ((), allocs) = allocations(|| export::write_jsonl(&mut jsonl, &tr, &m, &rows));
    assert_eq!(allocs, 0, "JSONL");
    assert_eq!(jsonl.len(), jsonl.capacity());
}
