//! Differential property test of the one lifecycle record: the same
//! stamps — on sparse and very large lanes, in any order, restamped,
//! delivered twice or to two subscribers, received before they were
//! sent or never sent at all, at instants up to the last one a 40-bit
//! stamp holds — fed to `RttCollector::with_freshness` (summarized, and reported
//! on by `telemetry::slo::SloReport::from_collector`) and to the two `BTreeMap`
//! collectors it replaced (kept below verbatim as the reference model),
//! serially and split into 1–4 shards merged in any order, must
//! summarize, report and render identically, float bit for float bit.

use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use telemetry::slo::{self, SloReport, SloSpec};
use telemetry::{ProbeId, ProbeInstants, RttCollector, RttSummary, Stamp};

/// The parent's collectors: one `BTreeMap` entry per probe.
mod reference {
    use simcore::{FastMap, SimDuration, SimTime};
    use std::collections::BTreeMap;
    use telemetry::slo::{AoiSample, SloReport, SloSpec, SloWindow};
    use telemetry::{Conservation, LatencyHistogram, ProbeId, ProbeInstants, RttSummary, Welford};

    #[derive(Debug, Clone, Copy, Default)]
    struct Record {
        before_sending: Option<SimTime>,
        after_sending: Option<SimTime>,
        before_receiving: Option<SimTime>,
        after_receiving: Option<SimTime>,
    }

    fn keep_min(slot: &mut Option<SimTime>, now: SimTime) {
        match slot {
            Some(t) if *t <= now => {}
            _ => *slot = Some(now),
        }
    }

    #[derive(Default)]
    pub struct Rtt {
        records: BTreeMap<u64, Record>,
        lane_seqs: FastMap<u32, u32>,
    }

    impl Rtt {
        pub fn before_sending(&mut self, lane: u32, now: SimTime) -> ProbeId {
            let seq = self.lane_seqs.entry(lane).or_insert(0);
            let id = ProbeId::compose(lane, *seq);
            *seq = seq.checked_add(1).expect("2^32 probes from one publisher");
            keep_min(
                &mut self.records.entry(id.0).or_default().before_sending,
                now,
            );
            id
        }

        pub fn after_sending(&mut self, id: ProbeId, now: SimTime) {
            let r = self.records.entry(id.0).or_default();
            assert!(r.after_sending.is_none(), "double after_sending");
            keep_min(&mut r.after_sending, now);
        }

        pub fn before_receiving(&mut self, id: ProbeId, now: SimTime) {
            keep_min(
                &mut self.records.entry(id.0).or_default().before_receiving,
                now,
            );
        }

        pub fn after_receiving(&mut self, id: ProbeId, now: SimTime) {
            keep_min(
                &mut self.records.entry(id.0).or_default().after_receiving,
                now,
            );
        }

        pub fn merged(parts: impl IntoIterator<Item = Rtt>) -> Rtt {
            let mut out = Rtt::default();
            for part in parts {
                for (id, r) in part.records {
                    let dst = out.records.entry(id).or_default();
                    if let Some(t) = r.before_sending {
                        keep_min(&mut dst.before_sending, t);
                    }
                    if let Some(t) = r.after_sending {
                        keep_min(&mut dst.after_sending, t);
                    }
                    if let Some(t) = r.before_receiving {
                        keep_min(&mut dst.before_receiving, t);
                    }
                    if let Some(t) = r.after_receiving {
                        keep_min(&mut dst.after_receiving, t);
                    }
                }
                for (lane, seq) in part.lane_seqs {
                    let s = out.lane_seqs.entry(lane).or_insert(0);
                    *s = (*s).max(seq);
                }
            }
            out
        }

        pub fn sent(&self) -> u64 {
            self.records
                .values()
                .filter(|r| r.before_sending.is_some())
                .count() as u64
        }

        pub fn received(&self) -> u64 {
            self.records
                .values()
                .filter(|r| r.after_receiving.is_some())
                .count() as u64
        }

        pub fn probe_ids(&self) -> impl Iterator<Item = ProbeId> + '_ {
            self.records.keys().map(|&k| ProbeId(k))
        }

        pub fn instants(&self, id: ProbeId) -> Option<ProbeInstants> {
            let r = self.records.get(&id.0)?;
            Some(ProbeInstants {
                before_sending: r.before_sending?,
                after_sending: r.after_sending,
                before_receiving: r.before_receiving,
                after_receiving: r.after_receiving,
            })
        }

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

        pub fn summary(&self) -> RttSummary {
            let mut rtt = Welford::new();
            let mut prt = Welford::new();
            let mut pt = Welford::new();
            let mut srt = Welford::new();
            let mut hist = LatencyHistogram::new();
            for r in self.records.values() {
                let (Some(sent_at), Some(rx)) = (r.before_sending, r.after_receiving) else {
                    continue;
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
            }
            let sent = self.sent();
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

    #[derive(Debug, Clone)]
    struct PublishRec {
        topic: String,
        at: SimTime,
    }

    #[derive(Debug, Clone, Copy)]
    struct DeliveryRec {
        at: SimTime,
        carried: Option<SimTime>,
    }

    #[derive(Debug, Clone, Default)]
    pub struct Slo {
        publishes: BTreeMap<u64, PublishRec>,
        deliveries: BTreeMap<(u32, u64), DeliveryRec>,
    }

    impl Slo {
        pub fn record_publish(&mut self, probe: ProbeId, topic: &str, at: SimTime) {
            self.publishes.entry(probe.0).or_insert_with(|| PublishRec {
                topic: topic.to_owned(),
                at,
            });
        }

        pub fn record_delivery(
            &mut self,
            probe: ProbeId,
            sub_lane: u32,
            at: SimTime,
            carried: Option<SimTime>,
        ) {
            let e = self
                .deliveries
                .entry((sub_lane, probe.0))
                .or_insert(DeliveryRec { at, carried });
            if at < e.at {
                e.at = at;
                e.carried = carried;
            }
        }

        pub fn published(&self) -> u64 {
            self.publishes.len() as u64
        }

        pub fn delivered(&self) -> u64 {
            self.deliveries.len() as u64
        }

        pub fn merged(parts: impl IntoIterator<Item = Slo>) -> Slo {
            let mut out = Slo::default();
            for part in parts {
                for (id, rec) in part.publishes {
                    let e = out.publishes.entry(id).or_insert_with(|| rec.clone());
                    if rec.at < e.at {
                        *e = rec;
                    }
                }
                for (key, rec) in part.deliveries {
                    let e = out.deliveries.entry(key).or_insert(rec);
                    if rec.at < e.at {
                        *e = rec;
                    }
                }
            }
            out
        }

        fn windowed_histograms(&self, window: SimDuration) -> BTreeMap<u64, LatencyHistogram> {
            let w = window.as_micros().max(1);
            let mut out: BTreeMap<u64, LatencyHistogram> = BTreeMap::new();
            for ((_lane, probe), d) in &self.deliveries {
                let Some(p) = self.publishes.get(probe) else {
                    continue;
                };
                let age = d.at.saturating_since(p.at).as_micros();
                out.entry(d.at.as_micros() / w).or_default().record(age);
            }
            out
        }

        pub fn report(
            &self,
            spec: &SloSpec,
            horizon: SimTime,
            cadence: SimDuration,
            window: SimDuration,
        ) -> SloReport {
            let deadline = spec.deadline;
            let w_us = window.as_micros().max(1);
            let mut first_delivery: BTreeMap<u64, SimTime> = BTreeMap::new();
            let mut stamp_disagreements = 0u64;
            let mut age_hist = LatencyHistogram::new();
            for ((_lane, probe), d) in &self.deliveries {
                let Some(p) = self.publishes.get(probe) else {
                    continue;
                };
                if let Some(carried) = d.carried {
                    if carried != p.at {
                        stamp_disagreements += 1;
                    }
                }
                age_hist.record(d.at.saturating_since(p.at).as_micros());
                let e = first_delivery.entry(*probe).or_insert(d.at);
                *e = (*e).min(d.at);
            }
            let mut on_time = 0u64;
            let mut late = 0u64;
            let mut lost = 0u64;
            let mut burn_windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for (probe, p) in &self.publishes {
                let slot = burn_windows
                    .entry(p.at.as_micros() / w_us)
                    .or_insert((0, 0));
                slot.0 += 1;
                match first_delivery.get(probe) {
                    Some(&rx) if rx.saturating_since(p.at) <= deadline => on_time += 1,
                    Some(_) => {
                        late += 1;
                        slot.1 += 1;
                    }
                    None => {
                        lost += 1;
                        slot.1 += 1;
                    }
                }
            }
            let published = self.publishes.len() as u64;
            let compliance = if published == 0 {
                1.0
            } else {
                on_time as f64 / published as f64
            };
            let budget = (1.0 - spec.target_fraction).max(1e-9);
            let delivery_windows = self.windowed_histograms(window);
            let mut keys: Vec<u64> = burn_windows
                .keys()
                .chain(delivery_windows.keys())
                .copied()
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut worst_burn = 0.0f64;
            let windows: Vec<SloWindow> = keys
                .into_iter()
                .map(|k| {
                    let (published, missed) = burn_windows.get(&k).copied().unwrap_or((0, 0));
                    let burn = if published == 0 {
                        0.0
                    } else {
                        (missed as f64 / published as f64) / budget
                    };
                    worst_burn = worst_burn.max(burn);
                    let hist = delivery_windows.get(&k);
                    SloWindow {
                        start: SimTime::from_micros(k.saturating_mul(w_us)),
                        published,
                        missed,
                        burn,
                        delivered: hist.map_or(0, LatencyHistogram::count),
                        age_us: hist.and_then(LatencyHistogram::summary),
                    }
                })
                .collect();
            SloReport {
                spec: spec.clone(),
                published,
                delivered: self.deliveries.len() as u64,
                on_time,
                late,
                lost,
                compliance,
                compliant: compliance >= spec.target_fraction,
                age_us: age_hist.summary(),
                aoi: self.sample_aoi(horizon, cadence),
                series: self.metric_series(deadline, horizon, cadence),
                windows,
                worst_burn,
                stamp_disagreements,
            }
        }

        fn pair_streams(&self) -> BTreeMap<(u32, &str), Vec<(SimTime, SimTime)>> {
            let mut pairs: BTreeMap<(u32, &str), Vec<(SimTime, SimTime)>> = BTreeMap::new();
            for ((lane, probe), d) in &self.deliveries {
                let Some(p) = self.publishes.get(probe) else {
                    continue;
                };
                pairs
                    .entry((*lane, p.topic.as_str()))
                    .or_default()
                    .push((d.at, p.at));
            }
            for stream in pairs.values_mut() {
                stream.sort_unstable();
            }
            pairs
        }

        fn sample_aoi(&self, horizon: SimTime, cadence: SimDuration) -> Vec<AoiSample> {
            let step = cadence.as_micros().max(1);
            let n = (horizon.as_micros() / step) as usize;
            if n == 0 {
                return Vec::new();
            }
            let mut sum = vec![0.0f64; n];
            let mut peak = vec![0.0f64; n];
            let mut live = vec![0u64; n];
            for stream in self.pair_streams().values() {
                let mut i = 0usize;
                let mut freshest: Option<SimTime> = None;
                for s in 0..n {
                    let t = SimTime::from_micros((s as u64 + 1) * step);
                    while i < stream.len() && stream[i].0 <= t {
                        let pub_at = stream[i].1;
                        freshest = Some(freshest.map_or(pub_at, |f| f.max(pub_at)));
                        i += 1;
                    }
                    if let Some(f) = freshest {
                        let age = t.saturating_since(f).as_millis_f64();
                        sum[s] += age;
                        peak[s] = peak[s].max(age);
                        live[s] += 1;
                    }
                }
            }
            (0..n)
                .map(|s| AoiSample {
                    at: SimTime::from_micros((s as u64 + 1) * step),
                    mean_ms: if live[s] == 0 {
                        0.0
                    } else {
                        sum[s] / live[s] as f64
                    },
                    peak_ms: peak[s],
                    pairs: live[s],
                })
                .collect()
        }

        #[allow(clippy::type_complexity)]
        fn metric_series(
            &self,
            deadline: SimDuration,
            horizon: SimTime,
            cadence: SimDuration,
        ) -> Vec<(String, Vec<(SimTime, f64)>)> {
            let step = cadence.as_micros().max(1);
            let n = (horizon.as_micros() / step) as usize;
            if n == 0 {
                return Vec::new();
            }
            let ts = |s: usize| SimTime::from_micros((s as u64 + 1) * step);
            let mut lane_age: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
            let mut lane_miss: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
            for ((lane, _topic), stream) in self.pair_streams() {
                let age = lane_age.entry(lane).or_insert_with(|| vec![0.0; n]);
                let miss = lane_miss.entry(lane).or_insert_with(|| vec![0.0; n]);
                let mut i = 0usize;
                let mut freshest: Option<SimTime> = None;
                let mut late_so_far = 0u64;
                for s in 0..n {
                    let t = ts(s);
                    while i < stream.len() && stream[i].0 <= t {
                        let (rx, pub_at) = stream[i];
                        freshest = Some(freshest.map_or(pub_at, |f| f.max(pub_at)));
                        if rx.saturating_since(pub_at) > deadline {
                            late_so_far += 1;
                        }
                        i += 1;
                    }
                    if let Some(f) = freshest {
                        age[s] = age[s].max(t.saturating_since(f).as_millis_f64());
                    }
                    miss[s] += late_so_far as f64;
                }
            }
            let mut out: Vec<(String, Vec<(SimTime, f64)>)> = Vec::new();
            let series = |vals: &[f64]| -> Vec<(SimTime, f64)> {
                vals.iter().enumerate().map(|(s, &v)| (ts(s), v)).collect()
            };
            let mut total_miss = vec![0.0f64; n];
            let mut peak_age = vec![0.0f64; n];
            for (lane, vals) in &lane_age {
                for s in 0..n {
                    peak_age[s] = peak_age[s].max(vals[s]);
                }
                out.push((format!("freshness_age_ms/lane{lane}"), series(vals)));
            }
            for (lane, vals) in &lane_miss {
                for s in 0..n {
                    total_miss[s] += vals[s];
                }
                out.push((format!("deadline_miss_total/lane{lane}"), series(vals)));
            }
            out.push(("freshness_age_ms/peak".into(), series(&peak_age)));
            out.push(("deadline_miss_total".into(), series(&total_miss)));
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
    }
}

/// Publisher lanes: dense small ones, one past a power of two, and sparse
/// ones up to the top of the `u32` range.
const LANES: [u32; 8] = [0, 1, 3, 64, 4097, 1_000_003, u32::MAX - 1, u32::MAX];
const TOPICS: [&str; 3] = ["grid/b", "grid/a", "grid/c"];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Mint a probe on `LANES[lane]`'s home shard, maybe complete the send.
    Publish {
        lane: usize,
        at_us: u64,
        sent_us: Option<u64>,
        topic: usize,
    },
    /// The receive side, on any shard, of a probe that may not be minted
    /// yet — or ever.
    Available {
        lane: usize,
        seq: u32,
        at_us: u64,
        part: usize,
    },
    /// One of two subscribers has a copy.
    Delivered {
        lane: usize,
        seq: u32,
        at_us: u64,
        part: usize,
        sub: u32,
    },
}

fn lane() -> impl Strategy<Value = usize> {
    // Most stamps land on two lanes, so those grow past the first chunks.
    prop_oneof![0usize..2, 0usize..8]
}

fn seq() -> impl Strategy<Value = u32> {
    // The first range makes restamps of one probe common.
    prop_oneof![0u32..16, 0u32..300, 4000u32..4200, 60_000u32..60_100]
}

/// An instant in µs below `below_s` seconds: on a 50 ms grid, or one of
/// four so that stamps of one probe tie.
fn near_us(below_s: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..below_s * 20).prop_map(|v| v * 50_000),
        (0..4u64).prop_map(move |v| v * 5_000_000 % (below_s * 1_000_000)),
    ]
}

/// An instant within a second of a bound: the longest horizon a run may
/// have (2^39 µs), or the last instant a stamp holds.
fn far_us() -> impl Strategy<Value = u64> {
    let last = Stamp::LAST.as_micros();
    prop_oneof![
        (1u64 << 39) - 1_000_000..(1 << 39) + 1_000_000,
        last - 1_000_000..=last,
    ]
}

/// An instant, one in four within a second of a bound.
fn at_us(below_s: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        near_us(below_s),
        near_us(below_s),
        near_us(below_s),
        far_us()
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            lane(),
            at_us(60),
            proptest::option::of(0u64..500_000),
            0usize..3
        )
            .prop_map(|(lane, at_us, sent, topic)| Op::Publish {
                lane,
                at_us,
                // A send completes no later than the last instant.
                sent_us: sent.map(|d| (at_us + d).min(Stamp::LAST.as_micros())),
                topic,
            }),
        (lane(), seq(), at_us(65), 0usize..4).prop_map(|(lane, seq, at_us, part)| {
            Op::Available {
                lane,
                seq,
                at_us,
                part,
            }
        }),
        (lane(), seq(), at_us(65), 0usize..4, 100u32..102).prop_map(
            |(lane, seq, at_us, part, sub)| Op::Delivered {
                lane,
                seq,
                at_us,
                part,
                sub,
            }
        ),
    ]
}

fn us(v: u64) -> SimTime {
    SimTime::from_micros(v)
}

/// One world: the one record and the two reference collectors.
struct Pair {
    rtt: RttCollector,
    ref_rtt: reference::Rtt,
    ref_slo: reference::Slo,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            rtt: RttCollector::with_freshness(),
            ref_rtt: Default::default(),
            ref_slo: Default::default(),
        }
    }
}

/// Feed `ops` serially and split into `k` shards: publishes to their
/// lane's home shard (a publisher lives on one shard), receive-side
/// stamps to the shard the op names. No stamp rides with a reading, so
/// the reference SLO collector is handed none.
fn run(ops: &[Op], k: usize) -> (Pair, Vec<Pair>) {
    let mut serial = Pair::new();
    let mut parts: Vec<Pair> = (0..k).map(|_| Pair::new()).collect();
    for op in ops {
        match *op {
            Op::Publish {
                lane,
                at_us,
                sent_us,
                topic,
            } => {
                let (lane_id, at) = (LANES[lane], us(at_us));
                let home = lane % k;
                let mut ids = Vec::new();
                for w in [&mut serial, &mut parts[home]] {
                    let id = w.rtt.published(lane_id, TOPICS[topic], at);
                    assert_eq!(id, w.ref_rtt.before_sending(lane_id, at));
                    w.ref_slo.record_publish(id, TOPICS[topic], at);
                    if let Some(s) = sent_us {
                        w.rtt.after_sending(id, us(s));
                        w.ref_rtt.after_sending(id, us(s));
                    }
                    ids.push(id);
                }
                assert_eq!(ids[0], ids[1], "a probe's id is shard-invariant");
            }
            Op::Available {
                lane,
                seq,
                at_us,
                part,
            } => {
                let id = ProbeId::compose(LANES[lane], seq);
                for w in [&mut serial, &mut parts[part % k]] {
                    w.rtt.before_receiving(id, us(at_us));
                    w.ref_rtt.before_receiving(id, us(at_us));
                }
            }
            Op::Delivered {
                lane,
                seq,
                at_us,
                part,
                sub,
            } => {
                let id = ProbeId::compose(LANES[lane], seq);
                for w in [&mut serial, &mut parts[part % k]] {
                    w.rtt.delivered(id, sub, us(at_us));
                    w.ref_rtt.after_receiving(id, us(at_us));
                    w.ref_slo.record_delivery(id, sub, us(at_us), None);
                }
            }
        }
    }
    (serial, parts)
}

/// Merge the shards in the order `order` sorts them into.
fn merged(parts: Vec<Pair>, order: &[u64]) -> Pair {
    let mut parts: Vec<(u64, Pair)> = order.iter().copied().zip(parts).collect();
    parts.sort_by_key(|(key, _)| *key);
    let mut rtts = Vec::new();
    let mut ref_rtts = Vec::new();
    let mut ref_slos = Vec::new();
    for (_, p) in parts {
        rtts.push(p.rtt);
        ref_rtts.push(p.ref_rtt);
        ref_slos.push(p.ref_slo);
    }
    Pair {
        rtt: RttCollector::merged(rtts),
        ref_rtt: reference::Rtt::merged(ref_rtts),
        ref_slo: reference::Slo::merged(ref_slos),
    }
}

/// Every number of a summary, floats as bits.
fn summary_bits(s: &RttSummary) -> Vec<u64> {
    let mut v = vec![
        s.sent,
        s.received,
        s.loss_rate.to_bits(),
        s.rtt_mean_ms.to_bits(),
        s.rtt_stddev_ms.to_bits(),
        s.prt_mean_ms.to_bits(),
        s.pt_mean_ms.to_bits(),
        s.srt_mean_ms.to_bits(),
        s.within_100ms.to_bits(),
        s.within_5s.to_bits(),
    ];
    for &(p, ms) in &s.percentiles_ms {
        v.extend([u64::from(p), ms.to_bits()]);
    }
    if let Some(d) = s.distribution_us {
        v.extend([
            d.count,
            d.mean.to_bits(),
            d.stddev.to_bits(),
            d.p50,
            d.p90,
            d.p95,
            d.p99,
            d.p999,
            d.max,
        ]);
    }
    v
}

fn reports(w: &Pair, spec: &SloSpec) -> (SloReport, SloReport) {
    let (horizon, cadence, window) = (
        SimTime::from_secs(70),
        SimDuration::from_secs(1),
        slo::DEFAULT_WINDOW,
    );
    (
        SloReport::from_collector(&w.rtt, spec, horizon, cadence, window),
        w.ref_slo.report(spec, horizon, cadence, window),
    )
}

fn check(w: &Pair, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        summary_bits(&w.rtt.summary()),
        summary_bits(&w.ref_rtt.summary()),
        "{}: summary",
        what
    );
    let ids: Vec<ProbeId> = w.rtt.probe_ids().collect();
    prop_assert_eq!(
        &ids,
        &w.ref_rtt.probe_ids().collect::<Vec<_>>(),
        "{}: ids",
        what
    );
    let instants: Vec<Option<ProbeInstants>> = ids.iter().map(|&id| w.rtt.instants(id)).collect();
    let ref_instants: Vec<Option<ProbeInstants>> =
        ids.iter().map(|&id| w.ref_rtt.instants(id)).collect();
    prop_assert_eq!(&instants, &ref_instants, "{}: instants", what);
    let walked: Vec<(ProbeId, ProbeInstants)> = w.rtt.records().collect();
    let looked_up: Vec<(ProbeId, ProbeInstants)> = ids
        .iter()
        .zip(&ref_instants)
        .filter_map(|(&id, i)| Some((id, (*i)?)))
        .collect();
    prop_assert_eq!(walked, looked_up, "{}: records()", what);
    for absent in [ProbeId::compose(2, 0), ProbeId::compose(0, 1_000_000)] {
        prop_assert_eq!(w.rtt.instants(absent), w.ref_rtt.instants(absent));
    }
    prop_assert_eq!(w.rtt.sent(), w.ref_rtt.sent(), "{}: sent", what);
    prop_assert_eq!(w.rtt.received(), w.ref_rtt.received(), "{}: received", what);
    for dropped in [0, 3] {
        prop_assert_eq!(
            w.rtt.conservation(dropped),
            w.ref_rtt.conservation(dropped),
            "{}: conservation",
            what
        );
    }

    for spec in [
        SloSpec::new(SimDuration::from_millis(250), 0.9),
        SloSpec::grid_default(),
    ] {
        let (new, old) = reports(w, &spec);
        prop_assert_eq!(new.published, w.ref_slo.published(), "{}: published", what);
        prop_assert_eq!(new.delivered, w.ref_slo.delivered(), "{}: delivered", what);
        prop_assert_eq!(&new.series, &old.series, "{}: metric series", what);
        prop_assert_eq!(new.csv(), old.csv(), "{}: csv", what);
        // Debug prints every float in its shortest round-trip form.
        prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "{}: report", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probe_tables_match_the_btree_collectors(
        ops in proptest::collection::vec(op(), 1..700),
        k in 1usize..5,
        order in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let (serial, parts) = run(&ops, k);
        check(&serial, "serial")?;
        let merged = merged(parts, &order[..k]);
        check(&merged, "merged")?;
        // The minimum per instant is order-free, so the merged record is
        // the serial one, freshness columns and report included.
        prop_assert_eq!(
            summary_bits(&merged.rtt.summary()),
            summary_bits(&serial.rtt.summary())
        );
        prop_assert_eq!(
            merged.rtt.records().collect::<Vec<_>>(),
            serial.rtt.records().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            merged.rtt.deliveries().collect::<Vec<_>>(),
            serial.rtt.deliveries().collect::<Vec<_>>()
        );
        let spec = SloSpec::grid_default();
        prop_assert_eq!(
            format!("{:?}", reports(&merged, &spec).0),
            format!("{:?}", reports(&serial, &spec).0)
        );
    }
}
