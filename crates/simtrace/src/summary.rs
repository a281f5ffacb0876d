//! Per-message PRT/PT/SRT reconstruction from the event stream.

use crate::collector::TraceCollector;
use crate::event::{EventKind, TraceId};
use simcore::{FastMap, SimTime};
use telemetry::Stamp;

/// The four fig-15 instants of one traced message, rebuilt from spans,
/// plus a count of the hops observed in between: 24 bytes, each instant
/// a [`Stamp`] ([`Stamp::NONE`] until the trace shows it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBreakdown {
    publish_begin: Stamp,
    publish_end: Stamp,
    available: Stamp,
    delivered: Stamp,
    hops: u32,
}

impl Default for ProbeBreakdown {
    fn default() -> Self {
        ProbeBreakdown {
            publish_begin: Stamp::NONE,
            publish_end: Stamp::NONE,
            available: Stamp::NONE,
            delivered: Stamp::NONE,
            hops: 0,
        }
    }
}

impl ProbeBreakdown {
    /// `before_sending`: the application called publish/INSERT.
    pub fn publish_begin(&self) -> Option<SimTime> {
        self.publish_begin.get()
    }

    /// `after_sending`: the synchronous send returned.
    pub fn publish_end(&self) -> Option<SimTime> {
        self.publish_end.get()
    }

    /// `before_receiving`: the middleware made the message available.
    pub fn available(&self) -> Option<SimTime> {
        self.available.get()
    }

    /// `after_receiving`: the receiving application has the message.
    pub fn delivered(&self) -> Option<SimTime> {
        self.delivered.get()
    }

    /// Hop events (broker/storage/network) attributed to this message.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Publishing response time, when both endpoints were traced.
    pub fn prt(&self) -> Option<u64> {
        Some(
            self.publish_end()?
                .saturating_since(self.publish_begin()?)
                .as_micros(),
        )
    }

    /// Middleware process time.
    pub fn pt(&self) -> Option<u64> {
        Some(
            self.available()?
                .saturating_since(self.publish_end()?)
                .as_micros(),
        )
    }

    /// Subscribing response time.
    pub fn srt(&self) -> Option<u64> {
        Some(
            self.delivered()?
                .saturating_since(self.available()?)
                .as_micros(),
        )
    }

    /// End-to-end round trip.
    pub fn rtt(&self) -> Option<u64> {
        Some(
            self.delivered()?
                .saturating_since(self.publish_begin()?)
                .as_micros(),
        )
    }

    /// True when all four instants were observed.
    pub fn complete(&self) -> bool {
        self.publish_begin().is_some()
            && self.publish_end().is_some()
            && self.available().is_some()
            && self.delivered().is_some()
    }
}

/// Everything reconstructed from one run's trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Per-message breakdowns, one per trace id, in trace-id order.
    pub probes: Vec<(TraceId, ProbeBreakdown)>,
    /// Events the summary was built from.
    pub total_events: u64,
    /// Events lost to the ring bound before the summary ran.
    pub evicted_events: u64,
}

impl TraceSummary {
    /// Rebuild per-message lifecycles from the collector's event ring.
    ///
    /// Duplicate `Available`/`Delivered` events (UDP redelivery) keep
    /// the first instant, matching `RttCollector` idempotence.
    pub fn from_collector(tr: &TraceCollector) -> Self {
        let mut probes: Vec<(TraceId, ProbeBreakdown)> = Vec::new();
        let mut slots: FastMap<TraceId, usize> = FastMap::default();
        let mut total = 0u64;
        for ev in tr.events() {
            total += 1;
            let Some(id) = ev.trace else { continue };
            let ix = *slots.entry(id).or_insert_with(|| {
                probes.push((id, ProbeBreakdown::default()));
                probes.len() - 1
            });
            let slot = &mut probes[ix].1;
            let at = Stamp::new(ev.at);
            match ev.kind {
                EventKind::PublishBegin => slot.publish_begin = at,
                EventKind::PublishEnd => slot.publish_end = at,
                EventKind::Available if slot.available == Stamp::NONE => slot.available = at,
                EventKind::Delivered if slot.delivered == Stamp::NONE => slot.delivered = at,
                EventKind::Available | EventKind::Delivered => {}
                _ => slot.hops += 1,
            }
        }
        probes.sort_unstable_by_key(|&(id, _)| id);
        TraceSummary {
            probes,
            total_events: total,
            evicted_events: tr.evicted(),
        }
    }

    /// The breakdown of one traced message, if the trace saw it.
    pub fn probe(&self, id: TraceId) -> Option<&ProbeBreakdown> {
        let ix = self.probes.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(&self.probes[ix].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn collector_with_full_lifecycle() -> TraceCollector {
        let mut c = TraceCollector::new();
        let id = Some(TraceId(7));
        c.record(t(10), id, 1, EventKind::PublishBegin);
        c.record(t(12), id, 1, EventKind::PublishEnd);
        c.record(t(13), id, 2, EventKind::BrokerRecv { broker: 0 });
        c.record(
            t(13),
            id,
            2,
            EventKind::SelectorMatch {
                matched: 1,
                missed: 3,
            },
        );
        c.record(t(40), id, 3, EventKind::Available);
        c.record(t(45), id, 3, EventKind::Delivered);
        c.record(t(50), id, 3, EventKind::Delivered); // duplicate redelivery
        c
    }

    #[test]
    fn a_probe_of_the_summary_is_32_bytes() {
        assert_eq!(std::mem::size_of::<ProbeBreakdown>(), 24);
        assert_eq!(std::mem::size_of::<(TraceId, ProbeBreakdown)>(), 32);
    }

    #[test]
    fn decomposition_telescopes() {
        let c = collector_with_full_lifecycle();
        let s = TraceSummary::from_collector(&c);
        let b = *s.probe(TraceId(7)).expect("traced");
        assert!(b.complete());
        assert_eq!(b.prt(), Some(2_000));
        assert_eq!(b.pt(), Some(28_000));
        assert_eq!(b.srt(), Some(5_000));
        assert_eq!(b.rtt(), Some(35_000));
        assert_eq!(
            b.rtt().unwrap(),
            b.prt().unwrap() + b.pt().unwrap() + b.srt().unwrap()
        );
        assert_eq!(b.hops(), 2);
        assert_eq!(b.delivered(), Some(t(45)), "first delivery wins");
    }

    #[test]
    fn eviction_suppresses_missing_probe_reports() {
        let mut c = TraceCollector::with_capacity(1);
        c.record(t(1), Some(TraceId(0)), 0, EventKind::PublishBegin);
        c.record(t(2), Some(TraceId(1)), 0, EventKind::PublishBegin);
        // The store already dropped the first; the merge every run goes
        // through reports it.
        let c = TraceCollector::merged([c]);
        let s = TraceSummary::from_collector(&c);
        assert_eq!(s.evicted_events, 1);
    }
}
