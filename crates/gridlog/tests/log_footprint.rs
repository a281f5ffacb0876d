//! A partition's host footprint per record. A record at rest holds its
//! size, not its message, so the heap a log retains is a small constant
//! per record — segment `Vec` capacity included — however large the
//! reading it was appended from.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, Counting};

use gridlog::config::SEGMENT_RECORDS;
use gridlog::{PartitionLog, StoredRecord};
use simcore::SimTime;
use telemetry::ProbeId;
use wire::{Headers, Message, MessageId, Value};

#[global_allocator]
static ALLOC: Counting = Counting;

/// A power-grid reading: a 16-field map message, about 1 kB of heap.
fn reading(n: u64) -> Message {
    let fields: Vec<(String, Value)> = (0..16)
        .map(|f| {
            let value = match f % 4 {
                0 => Value::Int(n as i32),
                1 => Value::Long(n as i64),
                2 => Value::Double(n as f64 / 7.0),
                _ => Value::Str(format!("site-{n}-{f}").into()),
            };
            (format!("field_{f:02}"), value)
        })
        .collect();
    Message::map(
        Headers::new(MessageId(n), "power.monitor", SimTime::from_micros(n)),
        fields,
    )
}

/// Heap the log retains per record after `records` appends, each of a
/// reading the caller drops.
fn retained_per_record(records: u64) -> f64 {
    let segment_records = SEGMENT_RECORDS;
    let (log, bytes) = live_bytes(|| {
        let mut log = PartitionLog::new(segment_records);
        for n in 0..records {
            log.append(StoredRecord {
                probe: ProbeId(n),
                key: n as u32,
                message: reading(n),
            });
        }
        log
    });
    assert_eq!(log.len(), records);
    bytes as f64 / records as f64
}

#[test]
fn a_record_at_rest_costs_its_size_not_its_message() {
    let at_10k = retained_per_record(10_000);
    let at_20k = retained_per_record(20_000);
    assert!(
        at_10k <= 32.0 && at_20k <= 32.0,
        "retained {at_10k:.1} / {at_20k:.1} B per record at 10k / 20k, budget 32 B"
    );
    assert!(
        (at_20k - at_10k).abs() <= 1.0,
        "not flat: {at_10k:.1} B per record at 10k, {at_20k:.1} at 20k"
    );
}
