//! The crate's unit tests that span its modules: the SLO report
//! ([`crate::slo`]) read off the one lifecycle record it derives from,
//! an [`RttCollector`] built `with_freshness` and stamped by hand.

use crate::slo::{SloReport, SloSpec, DEFAULT_WINDOW};
use crate::RttCollector;
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn report(c: &RttCollector, spec: &SloSpec, horizon: SimTime, window: SimDuration) -> SloReport {
    SloReport::from_collector(c, spec, horizon, SimDuration::from_secs(1), window)
}

#[test]
fn on_time_late_lost_classification() {
    let mut c = RttCollector::with_freshness();
    let spec = SloSpec::new(SimDuration::from_millis(100), 0.9);
    // On time: delivered at +50 ms.
    let p = c.published(1, "a", t(0));
    c.delivered(p, 7, t(50));
    // Late: delivered at +500 ms.
    let p = c.published(1, "a", t(1000));
    c.delivered(p, 7, t(1500));
    // Lost: never delivered.
    c.published(1, "a", t(2000));
    let r = report(&c, &spec, t(3000), SimDuration::from_secs(1));
    assert_eq!((r.published, r.delivered), (3, 2));
    assert_eq!((r.on_time, r.late, r.lost), (1, 1, 1));
    assert!((r.compliance - 1.0 / 3.0).abs() < 1e-12);
    assert!(!r.compliant);
}

#[test]
fn earliest_delivery_wins_and_duplicates_collapse() {
    let mut c = RttCollector::with_freshness();
    let spec = SloSpec::new(SimDuration::from_millis(100), 0.5);
    let p = c.published(1, "a", t(0));
    // Subscriber 7 gets it late, subscriber 8 on time: the reading
    // is on time (earliest delivery), and sub 7's copy still counts
    // as one delivery even if redelivered.
    c.delivered(p, 7, t(400));
    c.delivered(p, 7, t(900)); // dup, ignored
    c.delivered(p, 8, t(60));
    let r = report(&c, &spec, t(1000), SimDuration::from_secs(1));
    assert_eq!(r.delivered, 2);
    assert_eq!(r.on_time, 1);
    assert!(r.compliant);
}

#[test]
fn aoi_sawtooth_tracks_freshest_reading() {
    let mut c = RttCollector::with_freshness();
    // One pair: publishes at 0 s and 4 s, delivered at 1 s and 5 s.
    let p = c.published(1, "a", t(0));
    c.delivered(p, 7, t(1000));
    let p = c.published(1, "a", t(4000));
    c.delivered(p, 7, t(5000));
    let r = report(&c, &SloSpec::grid_default(), t(6000), DEFAULT_WINDOW);
    assert_eq!(r.aoi.len(), 6);
    // t=1s: freshest published at 0 → age 1000 ms; grows linearly.
    assert_eq!(r.aoi[0].peak_ms, 1000.0);
    assert_eq!(r.aoi[1].peak_ms, 2000.0);
    assert_eq!(r.aoi[3].peak_ms, 4000.0);
    // t=5s: second reading (published 4 s) arrived → age resets to 1 s.
    assert_eq!(r.aoi[4].peak_ms, 1000.0);
    assert_eq!(r.aoi[4].pairs, 1);
    assert_eq!(r.aoi[0].mean_ms, r.aoi[0].peak_ms, "single pair");
}

#[test]
fn out_of_order_delivery_keeps_freshest_publish() {
    let mut c = RttCollector::with_freshness();
    // The older reading (published 0 s) arrives *after* the newer
    // one (published 2 s): age must track the newer publish.
    let old = c.published(1, "a", t(0));
    let new = c.published(1, "a", t(2000));
    c.delivered(new, 7, t(2500));
    c.delivered(old, 7, t(3500));
    let r = report(&c, &SloSpec::grid_default(), t(4000), DEFAULT_WINDOW);
    // t=4s: freshest is still the 2 s publish → age 2000 ms.
    assert_eq!(r.aoi[3].peak_ms, 2000.0);
}

#[test]
fn burn_windows_attribute_loss_to_publish_window() {
    let mut c = RttCollector::with_freshness();
    let spec = SloSpec::new(SimDuration::from_millis(100), 0.9);
    // Window 0 (0–10 s): 10 readings, all on time.
    for i in 0..10 {
        let p = c.published(1, "a", t(i * 100));
        c.delivered(p, 7, t(i * 100 + 10));
    }
    // Window 1 (10–20 s): 10 readings, 5 lost in a crash.
    for i in 0..10 {
        let p = c.published(2, "a", t(10_000 + i * 100));
        if i < 5 {
            c.delivered(p, 7, t(10_000 + i * 100 + 10));
        }
    }
    let r = report(&c, &spec, t(20_000), SimDuration::from_secs(10));
    let w: Vec<_> = r.windows.iter().filter(|w| w.published > 0).collect();
    assert_eq!(w.len(), 2);
    assert_eq!(w[0].missed, 0);
    assert_eq!(w[0].burn, 0.0);
    assert_eq!(w[1].missed, 5);
    // Miss fraction 0.5 against a 0.1 budget → burn 5×.
    assert!((w[1].burn - 5.0).abs() < 1e-9);
    assert!((r.worst_burn - 5.0).abs() < 1e-9);
}

#[test]
fn csv_is_deterministic_and_shaped() {
    let mut c = RttCollector::with_freshness();
    let p = c.published(1, "a", t(0));
    c.delivered(p, 7, t(50));
    let r = report(
        &c,
        &SloSpec::grid_default(),
        t(3000),
        SimDuration::from_secs(1),
    );
    let csv = r.csv();
    assert!(csv.starts_with("t_s,metric,value\n"));
    assert!(csv.contains("aoi_mean_ms"));
    assert!(csv.contains("window_burn"));
    assert_eq!(csv, r.csv(), "rendering is a pure function");
    // Table row/columns stay in lockstep.
    assert_eq!(r.table_row("x").len(), SloReport::table_columns().len());
}

#[test]
fn metric_series_expose_lanes_and_totals() {
    let mut c = RttCollector::with_freshness();
    let deadline = SimDuration::from_millis(100);
    let p = c.published(1, "a", t(0));
    c.delivered(p, 7, t(50)); // on time
    let p = c.published(1, "b", t(0));
    c.delivered(p, 9, t(600)); // late
    let series = report(&c, &SloSpec::new(deadline, 0.9), t(2000), DEFAULT_WINDOW).series;
    let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "deadline_miss_total",
            "deadline_miss_total/lane7",
            "deadline_miss_total/lane9",
            "freshness_age_ms/lane7",
            "freshness_age_ms/lane9",
            "freshness_age_ms/peak",
        ]
    );
    let total = &series[0].1;
    assert_eq!(total.len(), 2);
    assert_eq!(total[1].1, 1.0, "one late delivery in total");
    // Gauge grows with staleness: lane 7's age at 1 s then 2 s.
    let lane7 = &series[3].1;
    assert_eq!(lane7[0].1, 1000.0);
    assert_eq!(lane7[1].1, 2000.0);
}

#[test]
fn empty_collector_reports_cleanly() {
    let c = RttCollector::with_freshness();
    let r = report(&c, &SloSpec::grid_default(), t(1000), DEFAULT_WINDOW);
    assert_eq!((r.published, r.delivered), (0, 0));
    assert_eq!(r.compliance, 1.0);
    assert!(r.compliant);
    assert!(r.age_us.is_none());
    assert_eq!(r.aoi.len(), 1);
    assert_eq!(r.aoi[0].pairs, 0);
    assert!(r.windows.is_empty());
}

/// Partitioning property: each publish on its lane's home collector,
/// its delivery on the *next* one (publisher and subscriber on
/// different shards), merged — the report, windows included, is the
/// serial one bit for bit.
fn split_merge_case(k: usize, events: &[(u32, u64, u64, bool)]) {
    let spec = SloSpec::new(SimDuration::from_millis(250), 0.9);
    let mut serial = RttCollector::with_freshness();
    let mut parts: Vec<RttCollector> = (0..k).map(|_| RttCollector::with_freshness()).collect();
    for &(lane, pub_ms, age_ms, delivered) in events {
        let home = lane as usize % k;
        let topic = format!("topic{}", lane % 3);
        let p = serial.published(lane, &topic, t(pub_ms));
        assert_eq!(p, parts[home].published(lane, &topic, t(pub_ms)));
        if delivered {
            let sub = (lane % 2) + 100;
            serial.delivered(p, sub, t(pub_ms + age_ms));
            parts[(home + 1) % k].delivered(p, sub, t(pub_ms + age_ms));
        }
    }
    let merged = RttCollector::merged(parts);
    let (horizon, cadence) = (t(30_000), SimDuration::from_secs(1));
    let sr = SloReport::from_collector(&serial, &spec, horizon, cadence, DEFAULT_WINDOW);
    let mr = SloReport::from_collector(&merged, &spec, horizon, cadence, DEFAULT_WINDOW);
    assert_eq!(sr, mr, "merged report equals serial");
}

#[test]
fn merge_reassembles_split_records() {
    let events: Vec<(u32, u64, u64, bool)> = (0..40u32)
        .map(|i| (i % 4, u64::from(i) * 700, u64::from(i % 7) * 90, i % 5 != 0))
        .collect();
    for k in [2usize, 4] {
        split_merge_case(k, &events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowed_merges_equal_serial_windows(
        events in proptest::collection::vec(
            (0u32..6, 0u64..25_000, 0u64..2_000, any::<bool>()),
            1..80,
        ),
        k in prop_oneof![Just(2usize), Just(4)],
    ) {
        split_merge_case(k, &events);
    }
}
