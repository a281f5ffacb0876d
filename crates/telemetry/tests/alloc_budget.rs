//! Allocation budget of the metrics plane's recording side, counted, not
//! timed: a profiled paper-scale run makes about a million metric ops
//! per leg, and each used to own a `String` copy of its name.

use simcore::SimTime;
use telemetry::MetricsRegistry;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn warmed_up() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.set_recorder(u32::MAX, SimTime::from_secs(1));
    m.sample(SimTime::from_secs(1));
    m.set_recorder(3, SimTime::from_secs(2));
    m.add_counter("gridlog.appended_records", 1);
    m.set_gauge("gridlog.end_offset_lag", 1.0);
    m.observe("gridlog.append_cost_us", 1);
    m
}

#[test]
fn counter_and_gauge_writes_on_a_known_name_allocate_nothing() {
    let mut m = warmed_up();
    let ((), allocs) = allocations(|| {
        for n in 0..10_000u64 {
            m.set_recorder(3, SimTime::from_micros(2_000_000 + n));
            m.add_counter("gridlog.appended_records", n);
            m.set_gauge("gridlog.end_offset_lag", n as f64);
        }
    });
    assert_eq!(allocs, 0, "20 000 folded writes allocated {allocs} times");
    assert_eq!(
        m.counter("gridlog.appended_records"),
        1 + (0..10_000).sum::<u64>()
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
