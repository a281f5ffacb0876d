//! Allocation budget of the metrics plane's recording side, counted, not
//! timed: a profiled paper-scale run makes about a million metric ops
//! per leg, and each used to own a `String` copy of its name.

use simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::MetricsRegistry;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocation calls (alloc, alloc_zeroed, realloc),
/// so tests running on other threads do not leak into the count.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

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
