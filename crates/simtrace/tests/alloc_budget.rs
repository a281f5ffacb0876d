//! What a trace store holds at rest, counted, not timed: at the default
//! capacity a full store is the largest thing an observed run keeps
//! beside its rendered exports, so its bytes per record are pinned.

use simcore::{SimDuration, SimTime};
use simtrace::{EventKind, TraceCollector, TraceId};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes a stored record may take.
const RECORD_BYTES: usize = 36;

#[test]
fn a_full_collector_holds_36_bytes_a_record_plus_its_buffer_slack() {
    const CAPACITY: usize = 1 << 12;
    /// Frames stamped this far ahead of the clock are held meanwhile.
    const IN_FLIGHT_US: u64 = 50;
    const LANES: u32 = 4;
    let (c, bytes) = live_bytes(|| {
        let mut c = TraceCollector::with_capacity(CAPACITY);
        for n in 0..3 * CAPACITY as u64 {
            let now = SimTime::from_micros(n);
            let lane = n as u32 % LANES;
            c.set_recorder(lane, now);
            c.record(now, Some(TraceId(n)), lane, EventKind::PublishBegin);
            let delivered = now + SimDuration::from_micros(IN_FLIGHT_US);
            c.record(delivered, None, lane, EventKind::NetDeliver { conn: lane });
        }
        c
    });
    assert_eq!(c.len(), CAPACITY, "full");
    // The ring and the held heap grow by doubling: the ring to the
    // capacity, the heap to the frames in flight (two a µs).
    let slots = CAPACITY.next_power_of_two() + (2 * IN_FLIGHT_US as usize).next_power_of_two();
    // The per-lane seq map, with room to spare.
    let lane_map = 1024;
    let budget = RECORD_BYTES * slots + lane_map;
    let bytes = usize::try_from(bytes).expect("the store holds memory");
    assert!(
        bytes <= budget,
        "{bytes} B live for {CAPACITY} records ({} B a record), budget {budget} B",
        bytes / CAPACITY
    );
}
