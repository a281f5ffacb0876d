//! Per-message round-trip records, loss accounting, and the paper's RTT
//! decomposition `RTT = PRT + PT + SRT`.
//!
//! Instrumentation points mirror fig 15:
//!
//! * `before_sending`  — the application calls publish/insert.
//! * `after_sending`   — the synchronous send operation returns.
//! * `before_receiving`— the middleware makes the message available to the
//!   receiving client (notification fired / poll response begins).
//! * `after_receiving` — the receiving application has the message.
//!
//! PRT = after_sending − before_sending (Publishing Response Time),
//! PT = before_receiving − after_sending (Process Time),
//! SRT = after_receiving − before_receiving (Subscribing Response Time).
//!
//! The collector is the run's only record of a reading. A run that
//! measures freshness builds it [`with_freshness`](RttCollector::with_freshness):
//! two more columns, each probe's topic and each subscriber's first copy,
//! from which [`slo`](crate::slo) derives its report.

use crate::histogram::{HistogramSummary, LatencyHistogram};
use crate::probe_table::{ProbeTable, Slot, Stamp};
use crate::stats::Welford;
use simcore::{FastMap, SimTime};
use std::collections::BTreeMap;

/// Handle to one in-flight probe record.
///
/// The id is content-derived, not allocation-order-derived: the high 32
/// bits are the publisher's kernel lane (its actor index) and the low 32
/// bits a per-publisher sequence number. Two shards therefore never mint
/// the same id, and a probe's id is identical no matter how the run is
/// sharded — which is what lets per-shard collectors merge by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeId(pub u64);

impl ProbeId {
    /// Compose an id from the publisher's lane and its own probe count.
    pub fn compose(lane: u32, seq: u32) -> ProbeId {
        ProbeId(u64::from(lane) << 32 | u64::from(seq))
    }

    /// The publisher's lane: the high half [`compose`](Self::compose)
    /// packed. Together with [`seq`](Self::seq) the one place the packing
    /// is decoded.
    pub fn lane(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The publisher's own probe count: the low half.
    pub fn seq(self) -> u32 {
        (self.0 & u64::from(u32::MAX)) as u32
    }
}

/// One probe's four instants, 20 bytes; [`Stamp::NONE`] means "not
/// stamped". A shard that only hosts the subscriber has a partial record
/// (receive side only) until the end-of-run merge folds in the publisher
/// shard's half.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    before_sending: Stamp,
    after_sending: Stamp,
    before_receiving: Stamp,
    after_receiving: Stamp,
}

/// Each instant keeps its earliest stamp. Within one shard calls arrive
/// in time order so this is plain first-wins idempotence (duplicate
/// deliveries keep the first); across shards it makes the merge
/// commutative.
impl Slot for Record {
    const VACANT: Record = Record {
        before_sending: Stamp::NONE,
        after_sending: Stamp::NONE,
        before_receiving: Stamp::NONE,
        after_receiving: Stamp::NONE,
    };

    fn fold(&mut self, other: Record) {
        self.before_sending.fold(other.before_sending);
        self.after_sending.fold(other.after_sending);
        self.before_receiving.fold(other.before_receiving);
        self.after_receiving.fold(other.after_receiving);
    }
}

impl Record {
    fn instants(&self) -> Option<ProbeInstants> {
        Some(ProbeInstants {
            before_sending: self.before_sending.get()?,
            after_sending: self.after_sending.get(),
            before_receiving: self.before_receiving.get(),
            after_receiving: self.after_receiving.get(),
        })
    }
}

/// A topic, as its index in the collector's [`Topics`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Topic(u32);

/// A probe publishes once, so there is one topic per probe to keep.
impl Slot for Topic {
    const VACANT: Topic = Topic(u32::MAX);

    fn fold(&mut self, other: Topic) {
        if *self == Topic::VACANT {
            *self = other;
        }
    }
}

/// The topics one collector has seen, each stored once.
#[derive(Debug, Clone, Default)]
struct Topics {
    names: Vec<Box<str>>,
    ids: FastMap<Box<str>, u32>,
}

impl Topics {
    fn id(&mut self, name: &str) -> Topic {
        if let Some(&id) = self.ids.get(name) {
            return Topic(id);
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 topics");
        self.names.push(name.into());
        self.ids.insert(name.into(), id);
        Topic(id)
    }
}

/// What the freshness plane reads besides the four instants.
#[derive(Debug, Clone, Default)]
struct FreshnessColumns {
    topics: Topics,
    /// Each probe's topic.
    topic: ProbeTable<Topic>,
    /// Per subscriber lane, its first copy of each probe: the same reading
    /// delivered to two subscribers is two records, a redelivery to one
    /// keeps the first instant.
    deliveries: BTreeMap<u32, ProbeTable<Stamp>>,
}

impl FreshnessColumns {
    /// Fold another shard's columns in, renaming its topics into ours.
    fn fold_in(&mut self, mut other: FreshnessColumns) {
        let ids: Vec<Topic> = other
            .topics
            .names
            .iter()
            .map(|n| self.topics.id(n))
            .collect();
        for t in other.topic.values_mut() {
            *t = ids[t.0 as usize];
        }
        self.topic.fold_in(other.topic);
        for (lane, table) in other.deliveries {
            self.deliveries.entry(lane).or_default().fold_in(table);
        }
    }
}

/// The four raw instants of one probe, in fig 15 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInstants {
    /// The application called publish/insert.
    pub before_sending: SimTime,
    /// The synchronous send returned.
    pub after_sending: Option<SimTime>,
    /// The middleware made the message available.
    pub before_receiving: Option<SimTime>,
    /// The receiving application had the message.
    pub after_receiving: Option<SimTime>,
}

/// Summary of a completed experiment's message telemetry.
#[derive(Debug, Clone)]
pub struct RttSummary {
    /// Messages sent.
    pub sent: u64,
    /// Messages fully received.
    pub received: u64,
    /// Loss rate in `[0,1]`.
    pub loss_rate: f64,
    /// Mean round-trip time, milliseconds.
    pub rtt_mean_ms: f64,
    /// RTT standard deviation, milliseconds.
    pub rtt_stddev_ms: f64,
    /// RTT at 95..100 percentiles, milliseconds.
    pub percentiles_ms: Vec<(u32, f64)>,
    /// Full RTT distribution (p50/p90/p95/p99/p99.9 + moments), in
    /// microseconds — so repro tables need not truncate at p95.
    /// `None` when no message completed the round trip.
    pub distribution_us: Option<HistogramSummary>,
    /// Mean PRT (publishing response time), ms.
    pub prt_mean_ms: f64,
    /// Mean PT (middleware process time), ms.
    pub pt_mean_ms: f64,
    /// Mean SRT (subscribing response time), ms.
    pub srt_mean_ms: f64,
    /// Fraction of messages within 100 ms (paper's "99.8 % within 100 ms").
    pub within_100ms: f64,
    /// Fraction within the 5 s soft real-time budget of §I.
    pub within_5s: f64,
}

/// Exhaustive end-of-run classification of every sent message: each is
/// delivered, dropped (with a known cause), or still in flight when the
/// clock stops. Fault-injection campaigns assert [`Conservation::holds`]
/// to prove no message is double-counted or silently lost by the
/// accounting itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Messages the application sent.
    pub sent: u64,
    /// Messages the receiving application got (duplicates counted once).
    pub delivered: u64,
    /// Messages dropped with an attributed cause (link burst, partition,
    /// crash window, …) — supplied by the fault-injection accounting.
    pub dropped: u64,
    /// Messages neither delivered nor attributed-dropped by the end of
    /// the run (queued, buffered offline, or mid-retransmit).
    pub in_flight_at_end: u64,
}

impl Conservation {
    /// The conservation identity `sent == delivered + dropped +
    /// in_flight_at_end`. Fails only when causes are double-counted
    /// (`delivered + dropped > sent`), since `in_flight_at_end` is the
    /// residual class.
    pub fn holds(&self) -> bool {
        self.delivered
            .checked_add(self.dropped)
            .and_then(|v| v.checked_add(self.in_flight_at_end))
            == Some(self.sent)
    }
}

/// The measurement service: middlewares and clients report instants; the
/// experiment reads the summary at the end.
///
/// Raw instants are the only thing stored during the run: one 20-byte
/// slot per probe in a [`ProbeTable`], four 40-bit [`Stamp`]s. All
/// derived statistics (Welford moments, the latency histogram) are
/// computed by [`summary`](Self::summary) from the table in probe-id
/// order, so a merged collector and a serial one produce bit-identical
/// summaries — the accumulation order is a function of the *keys*, never
/// of the event interleaving that produced the records.
pub struct RttCollector {
    records: ProbeTable<Record>,
    lane_seqs: FastMap<u32, u32>,
    /// Allocated only by [`with_freshness`](Self::with_freshness).
    freshness: Option<Box<FreshnessColumns>>,
}

impl Default for RttCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl RttCollector {
    /// Empty collector.
    pub fn new() -> Self {
        RttCollector {
            records: ProbeTable::new(),
            lane_seqs: FastMap::default(),
            freshness: None,
        }
    }

    /// Empty collector that also keeps each probe's topic and each
    /// subscriber's first copy of it: what [`crate::slo`] reports on.
    pub fn with_freshness() -> Self {
        RttCollector {
            freshness: Some(Box::default()),
            ..Self::new()
        }
    }

    /// The application publishes a reading on `topic`:
    /// [`before_sending`](Self::before_sending), and the topic when the
    /// collector keeps freshness.
    pub fn published(&mut self, lane: u32, topic: &str, now: SimTime) -> ProbeId {
        let id = self.before_sending(lane, now);
        if let Some(f) = &mut self.freshness {
            let topic = f.topics.id(topic);
            f.topic.slot_mut(id).fold(topic);
        }
        id
    }

    /// The subscribing application on lane `subscriber` has the reading:
    /// [`after_receiving`](Self::after_receiving), and that subscriber's
    /// first copy when the collector keeps freshness.
    pub fn delivered(&mut self, id: ProbeId, subscriber: u32, now: SimTime) {
        self.after_receiving(id, now);
        if let Some(f) = &mut self.freshness {
            f.deliveries
                .entry(subscriber)
                .or_default()
                .slot_mut(id)
                .stamp(now);
        }
    }

    /// The application is about to send; returns the probe handle.
    /// `lane` is the publishing actor's kernel lane (actor index) — it
    /// keys the id so probe identities are shard-invariant.
    pub fn before_sending(&mut self, lane: u32, now: SimTime) -> ProbeId {
        let seq = self.lane_seqs.entry(lane).or_insert(0);
        let id = ProbeId::compose(lane, *seq);
        *seq = seq.checked_add(1).expect("2^32 probes from one publisher");
        self.records.slot_mut(id).before_sending.stamp(now);
        id
    }

    /// The synchronous send completed.
    pub fn after_sending(&mut self, id: ProbeId, now: SimTime) {
        let r = self.records.slot_mut(id);
        debug_assert!(r.after_sending == Stamp::NONE, "double after_sending");
        r.after_sending.stamp(now);
    }

    /// The middleware made the message available to the subscriber.
    /// Idempotent: with redelivery (UDP retransmit) the first instant
    /// wins. On a shard that does not host the publisher this creates a
    /// partial record, completed by the end-of-run [`merged`](Self::merged).
    pub fn before_receiving(&mut self, id: ProbeId, now: SimTime) {
        self.records.slot_mut(id).before_receiving.stamp(now);
    }

    /// The receiving application has the message. Duplicate deliveries
    /// (UDP retransmission) are counted once — first delivery wins.
    pub fn after_receiving(&mut self, id: ProbeId, now: SimTime) {
        self.records.slot_mut(id).after_receiving.stamp(now);
    }

    /// Union per-shard collectors into the whole-run collector. Records
    /// fold field-wise keeping the earliest instant per phase, so the
    /// publisher shard's send half and the subscriber shard's receive
    /// half combine into the record a serial run would have written.
    /// Merged-of-one is the identity, through the same fold. The
    /// freshness columns fold the same way: a subscriber's copy keeps its
    /// earliest instant.
    pub fn merged(parts: impl IntoIterator<Item = RttCollector>) -> RttCollector {
        let mut out = RttCollector::new();
        for part in parts {
            out.records.fold_in(part.records);
            for (lane, seq) in part.lane_seqs {
                let s = out.lane_seqs.entry(lane).or_insert(0);
                *s = (*s).max(seq);
            }
            if let Some(f) = part.freshness {
                out.freshness.get_or_insert_default().fold_in(*f);
            }
        }
        out
    }

    /// The topic `id` was published on, when the collector keeps
    /// freshness and has the publish.
    pub fn topic(&self, id: ProbeId) -> Option<&str> {
        let f = self.freshness.as_ref()?;
        let t = f.topic.get(id)?;
        Some(&f.topics.names[t.0 as usize])
    }

    /// Every subscriber's first copy of every probe, `(subscriber lane,
    /// probe, instant)` in that order; nothing when the collector does
    /// not keep freshness. A copy whose publish half sits on another shard
    /// is here too: [`instants`](Self::instants) pairs it after the merge.
    pub fn deliveries(&self) -> impl Iterator<Item = (u32, ProbeId, SimTime)> + '_ {
        self.freshness.iter().flat_map(|f| {
            f.deliveries.iter().flat_map(|(&lane, table)| {
                // The walk skips vacant slots, so every `get` is `Some`.
                table
                    .iter()
                    .filter_map(move |(id, at)| Some((lane, id, at.get()?)))
            })
        })
    }

    /// Messages sent so far (records with a publish instant; partial
    /// receive-side records on a subscriber shard don't count until the
    /// merge restores their send half).
    pub fn sent(&self) -> u64 {
        self.records().count() as u64
    }

    /// Messages received so far.
    pub fn received(&self) -> u64 {
        self.records
            .iter()
            .filter(|(_, r)| r.after_receiving != Stamp::NONE)
            .count() as u64
    }

    /// Every probe id with a record, in id order.
    pub fn probe_ids(&self) -> impl Iterator<Item = ProbeId> + '_ {
        self.records.iter().map(|(id, _)| id)
    }

    /// Every probe with a publish instant and its raw instants, in id
    /// order: one walk where `probe_ids` plus [`instants`](Self::instants)
    /// would look each id up again.
    pub fn records(&self) -> impl Iterator<Item = (ProbeId, ProbeInstants)> + '_ {
        self.records
            .iter()
            .filter_map(|(id, r)| Some((id, r.instants()?)))
    }

    /// Raw instants of one probe (`None` if the id was never issued).
    pub fn instants(&self, id: ProbeId) -> Option<ProbeInstants> {
        self.records.get(id)?.instants()
    }

    /// Classify every sent message at end of run. `dropped` is the
    /// cause-attributed drop count from the fault accounting; messages
    /// neither delivered nor attributed fall into `in_flight_at_end`.
    /// The result's [`Conservation::holds`] detects double-counting:
    /// it is violated exactly when `delivered + dropped > sent`.
    pub fn conservation(&self, dropped: u64) -> Conservation {
        let sent = self.sent();
        let delivered = self.received();
        let in_flight_at_end = sent.saturating_sub(delivered).saturating_sub(dropped);
        Conservation {
            sent,
            delivered,
            dropped,
            in_flight_at_end,
        }
    }

    /// Summarize at end of experiment. Statistics accumulate in probe-id
    /// order — a pure function of the probe table — so any partition of
    /// the same run summarizes, after [`merged`](Self::merged), to
    /// bit-identical floats.
    pub fn summary(&self) -> RttSummary {
        let mut rtt = Welford::new();
        let mut prt = Welford::new();
        let mut pt = Welford::new();
        let mut srt = Welford::new();
        let mut hist = LatencyHistogram::new();
        let mut sent = 0u64;
        self.records().for_each(|(_, r)| {
            sent += 1;
            let (sent_at, Some(rx)) = (r.before_sending, r.after_receiving) else {
                return;
            };
            let d = rx.saturating_since(sent_at);
            rtt.push(d.as_millis_f64());
            hist.record(d.as_micros());
            if let Some(aft) = r.after_sending {
                prt.push(aft.saturating_since(sent_at).as_millis_f64());
                if let Some(bef_rx) = r.before_receiving {
                    pt.push(bef_rx.saturating_since(aft).as_millis_f64());
                    srt.push(rx.saturating_since(bef_rx).as_millis_f64());
                }
            }
        });
        let received = rtt.count();
        let loss_rate = if sent == 0 {
            0.0
        } else {
            (sent - received) as f64 / sent as f64
        };
        RttSummary {
            sent,
            received,
            loss_rate,
            rtt_mean_ms: rtt.mean(),
            rtt_stddev_ms: rtt.stddev(),
            percentiles_ms: hist
                .percentile_series()
                .into_iter()
                .map(|(p, us)| (p, us as f64 / 1000.0))
                .collect(),
            distribution_us: hist.summary(),
            prt_mean_ms: prt.mean(),
            pt_mean_ms: pt.mean(),
            srt_mean_ms: srt.mean(),
            within_100ms: hist.fraction_le(100_000),
            within_5s: hist.fraction_le(5_000_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn a_record_is_four_five_byte_stamps() {
        assert_eq!(std::mem::size_of::<Record>(), 20);
    }

    #[test]
    fn lane_and_seq_decode_what_compose_packed() {
        for (lane, seq) in [
            (0, 0),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX, u32::MAX),
            (7, 9),
        ] {
            let id = ProbeId::compose(lane, seq);
            assert_eq!((id.lane(), id.seq()), (lane, seq));
        }
    }

    #[test]
    fn full_lifecycle_decomposition() {
        let mut c = RttCollector::new();
        let id = c.before_sending(0, t(1000));
        c.after_sending(id, t(1010));
        c.before_receiving(id, t(1500));
        c.after_receiving(id, t(1520));
        let s = c.summary();
        assert_eq!(s.sent, 1);
        assert_eq!(s.received, 1);
        assert_eq!(s.loss_rate, 0.0);
        assert!((s.rtt_mean_ms - 520.0).abs() < 1e-9);
        assert!((s.prt_mean_ms - 10.0).abs() < 1e-9);
        assert!((s.pt_mean_ms - 490.0).abs() < 1e-9);
        assert!((s.srt_mean_ms - 20.0).abs() < 1e-9);
        // RTT = PRT + PT + SRT (the paper's equation).
        assert!((s.rtt_mean_ms - (s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms)).abs() < 1e-9);
    }

    #[test]
    fn probe_ids_are_lane_keyed_and_merge_reassembles_split_records() {
        // Serial reference: two publishers (lanes 3 and 9) interleaved.
        let mut serial = RttCollector::new();
        // Sharded: publishers live on shard A, the subscriber on shard B —
        // each record is split into its send half and receive half.
        let mut send_side = RttCollector::new();
        let mut recv_side = RttCollector::new();
        for i in 0..20u64 {
            let lane = if i % 2 == 0 { 3 } else { 9 };
            let sid = serial.before_sending(lane, t(i));
            let aid = send_side.before_sending(lane, t(i));
            assert_eq!(sid, aid, "content-derived ids agree across worlds");
            assert_eq!(sid, ProbeId::compose(lane, (i / 2) as u32));
            serial.after_sending(sid, t(i + 1));
            send_side.after_sending(aid, t(i + 1));
            if i % 5 != 0 {
                serial.before_receiving(sid, t(i + 4));
                serial.after_receiving(sid, t(i + 6));
                recv_side.before_receiving(aid, t(i + 4));
                recv_side.after_receiving(aid, t(i + 6));
            }
        }
        let merged = RttCollector::merged([send_side, recv_side]);
        let (m, s) = (merged.summary(), serial.summary());
        assert_eq!((m.sent, m.received), (s.sent, s.received));
        assert_eq!(m.rtt_mean_ms.to_bits(), s.rtt_mean_ms.to_bits());
        assert_eq!(m.rtt_stddev_ms.to_bits(), s.rtt_stddev_ms.to_bits());
        assert_eq!(m.pt_mean_ms.to_bits(), s.pt_mean_ms.to_bits());
        assert_eq!(m.percentiles_ms, s.percentiles_ms);
        assert_eq!(
            merged.probe_ids().collect::<Vec<_>>(),
            serial.probe_ids().collect::<Vec<_>>()
        );
        // Merged-of-one is the identity.
        let once = RttCollector::merged([serial]);
        let o = once.summary();
        assert_eq!(o.rtt_mean_ms.to_bits(), s.rtt_mean_ms.to_bits());
    }

    #[test]
    fn loss_counts_unreceived() {
        let mut c = RttCollector::new();
        for i in 0..10 {
            let id = c.before_sending(0, t(i));
            c.after_sending(id, t(i + 1));
            if i % 5 != 0 {
                c.after_receiving(id, t(i + 3));
            }
        }
        let s = c.summary();
        assert_eq!(s.sent, 10);
        assert_eq!(s.received, 8);
        assert!((s.loss_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn duplicate_delivery_counted_once() {
        let mut c = RttCollector::new();
        let id = c.before_sending(0, t(0));
        c.after_sending(id, t(1));
        c.after_receiving(id, t(5));
        c.after_receiving(id, t(9)); // retransmitted duplicate
        let s = c.summary();
        assert_eq!(s.received, 1);
        assert!((s.rtt_mean_ms - 5.0).abs() < 1e-9, "first delivery wins");
    }

    #[test]
    fn percentiles_and_budgets() {
        let mut c = RttCollector::new();
        for i in 1..=100u64 {
            let id = c.before_sending(0, t(0));
            c.after_sending(id, t(0));
            c.before_receiving(id, t(i));
            c.after_receiving(id, t(i));
        }
        let s = c.summary();
        assert_eq!(s.percentiles_ms.len(), 6);
        assert_eq!(s.percentiles_ms[5], (100, 100.0));
        assert!(s.within_100ms >= 0.99);
        assert_eq!(s.within_5s, 1.0);
        // The full distribution rides along, below p95 included.
        let d = s.distribution_us.expect("messages completed");
        assert_eq!(d.count, 100);
        assert_eq!(d.max, 100_000);
        assert!(d.p50 <= d.p90 && d.p90 <= d.p99 && d.p999 <= d.max);
    }

    #[test]
    fn stddev_matches_paper_definition() {
        // Two RTTs: 10 and 20 ms → mean 15, population stddev 5.
        let mut c = RttCollector::new();
        for ms in [10u64, 20] {
            let id = c.before_sending(0, t(0));
            c.after_sending(id, t(0));
            c.after_receiving(id, t(ms));
        }
        let s = c.summary();
        assert!((s.rtt_mean_ms - 15.0).abs() < 1e-9);
        assert!((s.rtt_stddev_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_classifies_exhaustively() {
        let mut c = RttCollector::new();
        for i in 0..10 {
            let id = c.before_sending(0, t(i));
            c.after_sending(id, t(i + 1));
            if i < 6 {
                c.after_receiving(id, t(i + 3));
            }
        }
        // 10 sent, 6 delivered, 3 attributed drops → 1 in flight.
        let cons = c.conservation(3);
        assert_eq!(cons.sent, 10);
        assert_eq!(cons.delivered, 6);
        assert_eq!(cons.dropped, 3);
        assert_eq!(cons.in_flight_at_end, 1);
        assert!(cons.holds());
        // Over-attribution (double-counted drops) breaks the identity.
        let over = c.conservation(5);
        assert!(!over.holds(), "delivered + dropped > sent must not hold");
    }

    #[test]
    fn empty_summary() {
        let s = RttCollector::new().summary();
        assert_eq!(s.sent, 0);
        assert_eq!(s.loss_rate, 0.0);
        assert!(s.percentiles_ms.is_empty());
    }
}
