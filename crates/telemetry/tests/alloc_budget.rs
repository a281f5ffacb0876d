//! Allocation budgets of the recording side, counted, not timed: a
//! profiled paper-scale run makes about a million metric ops per leg, and
//! each used to own a `String` copy of its name; every run stamps four
//! instants per reading, 720 000 readings at the paper ceiling, and each
//! reading used to be a B-tree entry.

use simcore::{SimDuration, SimTime};
use telemetry::{MetricsRegistry, RttCollector};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, live_bytes, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Every name and lane used once, and a snapshot taken: each series has
/// its storage.
fn warmed_up() -> MetricsRegistry {
    let mut m = MetricsRegistry::with_ticks(101);
    m.set_recorder(3, SimTime::from_secs(1));
    m.add_counter("gridlog.appended_records", 1);
    m.set_gauge("gridlog.end_offset_lag", 1.0);
    m.observe("gridlog.append_cost_us", 1);
    m.set_recorder(2, SimTime::from_secs(1));
    m.set_gauge("gridlog.end_offset_lag", 1.0);
    m.sample(SimTime::from_secs(1));
    m
}

#[test]
fn counter_and_gauge_writes_on_a_known_name_allocate_nothing() {
    let mut m = warmed_up();
    let ((), allocs) = allocations(|| {
        // 100 ticks of 100 writes each, every tenth stamped at the tick's
        // instant after its snapshot: it lands in the closed snapshot.
        for n in 0..10_000u64 {
            let at = SimTime::from_micros(2_000_000 + n * 10_000);
            if n % 100 == 0 {
                m.set_recorder(3, at);
                m.sample(at);
            }
            let closed = n % 10 == 0;
            let lane = if closed { 2 } else { 3 };
            m.set_recorder(
                lane,
                if closed {
                    at
                } else {
                    at + SimDuration::from_micros(1)
                },
            );
            m.add_counter("gridlog.appended_records", n);
            m.set_gauge("gridlog.end_offset_lag", n as f64);
        }
    });
    assert_eq!(
        allocs, 0,
        "20 000 writes over 100 ticks allocated {allocs} times"
    );
    assert_eq!(
        m.counter("gridlog.appended_records"),
        1 + (0..10_000).sum::<u64>()
    );
    let csv = MetricsRegistry::merged([m]).csv();
    // The write at 101 s came after the snapshot, at its instant.
    assert!(
        csv.contains("\n101,gridlog.appended_records,49009951\n"),
        "{csv}"
    );
}

#[test]
fn observations_allocate_only_to_grow_their_log() {
    let mut m = warmed_up();
    let ((), allocs) = allocations(|| {
        for n in 0..100_000u64 {
            m.observe("gridlog.append_cost_us", n);
        }
    });
    // Every observation is kept (their order feeds the Welford mean), so
    // the log doubles ~17 times; the name is never copied.
    assert!(
        allocs <= 20,
        "100 000 observations allocated {allocs} times"
    );
}

/// Publisher lanes and readings of the two recording budgets below.
const LANES: u64 = 4;
const PROBES: u64 = 100_000;

/// `PROBES` readings round-robin over `LANES` lanes, each stamped four
/// times.
fn stamp_readings(c: &mut RttCollector) {
    for i in 0..PROBES {
        let t = SimTime::from_micros(i * 10);
        let id = c.before_sending((i % LANES) as u32, t);
        c.after_sending(id, t + SimDuration::from_micros(100));
        c.before_receiving(id, t + SimDuration::from_micros(4_000));
        c.after_receiving(id, t + SimDuration::from_micros(5_000));
    }
}

#[test]
fn stamping_readings_allocates_only_to_grow_a_lane() {
    let mut c = RttCollector::new();
    let ((), allocs) = allocations(|| stamp_readings(&mut c));
    assert_eq!(c.received(), PROBES);
    // 25 000 records a lane: chunks of 64, 128, …, 2 048 records (4 032
    // together), then six of 4 096 — twelve blocks a lane that are never
    // copied. The rest (65 − 48 measured) is bookkeeping that grows with
    // the lanes: each lane's chunk list, the lane list and two small
    // maps. A B-tree entry per reading made thousands.
    let chunks = LANES * 12;
    assert!(
        allocs <= chunks + 5 * LANES,
        "{PROBES} readings on {LANES} lanes allocated {allocs} times"
    );
}

/// A reading's four instants are four 40-bit stamps, 20 bytes at rest.
/// Each lane holds at most one partly filled chunk of up to 4 096
/// records, and a few hundred bytes of chunk list and map entries.
#[test]
fn a_stamped_reading_holds_twenty_bytes() {
    let (c, live) = live_bytes(|| {
        let mut c = RttCollector::new();
        stamp_readings(&mut c);
        c
    });
    assert_eq!(c.received(), PROBES);
    let slots = PROBES + LANES * 4096;
    let bookkeeping = LANES * 512;
    assert!(
        live <= (20 * slots + bookkeeping) as i64,
        "{PROBES} readings on {LANES} lanes hold {live} bytes"
    );
}

/// The same readings with the freshness columns armed, as an SLO run
/// keeps them: the topic column and one subscriber's first copies are
/// probe tables too, so each grows by the same never-copied chunks, and
/// the topic name is stored once.
#[test]
fn stamping_readings_with_freshness_allocates_only_to_grow_three_tables() {
    const SUBSCRIBER: u32 = 100;
    let mut c = RttCollector::with_freshness();
    let ((), allocs) = allocations(|| {
        for i in 0..PROBES {
            let t = SimTime::from_micros(i * 10);
            let id = c.published((i % LANES) as u32, "grid/readings", t);
            c.after_sending(id, t + SimDuration::from_micros(100));
            c.before_receiving(id, t + SimDuration::from_micros(4_000));
            c.delivered(id, SUBSCRIBER, t + SimDuration::from_micros(5_000));
        }
    });
    assert_eq!(c.received(), PROBES);
    assert_eq!(c.deliveries().count() as u64, PROBES);
    // Twelve chunks a lane in each of the record, topic and delivery
    // tables, their per-table bookkeeping as above, and a handful for
    // the topic name and the subscriber's entry.
    let chunks = 3 * LANES * 12;
    assert!(
        allocs <= chunks + 3 * 5 * LANES + 8,
        "{PROBES} readings on {LANES} lanes allocated {allocs} times"
    );
}
