//! Calibration for the partitioned-log broker.
//!
//! Like narada's calibration, the constants here are *inputs* to the
//! mechanisms, scaled to the same reference node (Pentium III 866 MHz):
//! the shape of the RTT distribution — linger-dominated produce latency,
//! amortized batch fetches, the long-poll cadence — emerges from the
//! protocol, not from these numbers directly. No scenario varies them, so
//! they are constants; what a scenario varies is each consumer's
//! [`OffsetReset`].

use simcore::SimDuration;
use simos::Bytes;

// --- CPU costs on the log broker and client JVMs ------------------------

/// Client: serialize a produce batch (fixed part).
pub const CLIENT_SERIALIZE_BASE: SimDuration = SimDuration::from_micros(100);
/// Client: serialize, per byte.
pub const CLIENT_SERIALIZE_PER_BYTE_NS: u64 = 300;
/// Client: deserialize + hand one fetched record to the listener (fixed
/// part).
pub const CLIENT_DELIVER_BASE: SimDuration = SimDuration::from_micros(120);
/// Client: deserialize, per byte.
pub const CLIENT_DELIVER_PER_BYTE_NS: u64 = 300;
/// Broker: accept + deserialize a produce batch (fixed part).
pub const BROKER_APPEND_BASE: SimDuration = SimDuration::from_micros(250);
/// Broker: per-byte deserialize/copy cost.
pub const BROKER_PER_BYTE_NS: u64 = 400;
/// Broker: assign an offset and append one record to its segment.
pub const BROKER_APPEND_PER_RECORD: SimDuration = SimDuration::from_micros(40);
/// Broker: serve one fetch (fixed part: offset lookup, response assembly).
pub const BROKER_FETCH_BASE: SimDuration = SimDuration::from_micros(200);
/// Broker: serialize one record into a fetch response.
pub const BROKER_FETCH_PER_RECORD: SimDuration = SimDuration::from_micros(25);
/// Broker: process one offset-commit request.
pub const BROKER_COMMIT_PROCESS: SimDuration = SimDuration::from_micros(150);
/// Broker: recompute the group assignment on join/leave/expiry.
pub const BROKER_REBALANCE: SimDuration = SimDuration::from_micros(500);
/// Broker: cost to accept a connection and start its thread.
pub const BROKER_ACCEPT: SimDuration = SimDuration::from_micros(1_500);
/// Broker: scan one record while replaying segments after a crash-restart
/// (sequential read, much cheaper than an append).
pub const BROKER_REPLAY_PER_RECORD: SimDuration = SimDuration::from_micros(2);

// --- Producer batching (Kafka's `linger.ms` / `batch.size`) -------------

/// How long a non-full batch waits for more records.
pub const LINGER: SimDuration = SimDuration::from_millis(5);
/// Records per batch before an immediate flush.
pub const BATCH_MAX_RECORDS: usize = 64;

// --- Consumer fetch shaping (`fetch.max.wait.ms` / `max.poll.records`) --

/// A fetch with no data parks at the broker this long before an empty
/// response unblocks the consumer's poll loop.
pub const FETCH_MAX_WAIT: SimDuration = SimDuration::from_millis(500);
/// Records per fetch response.
pub const FETCH_MAX_RECORDS: usize = 512;

// --- Consumer-group timing ----------------------------------------------

/// Committed-mode consumers flush offset commits at this interval.
pub const COMMIT_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Broker expels a member silent for longer than this (the session timer
/// only arms once a member's first heartbeat arrives, so heartbeat-free
/// paper-mode runs never expire anyone).
pub const SESSION_TIMEOUT: SimDuration = SimDuration::from_secs(10);

// --- Broker memory and log layout ---------------------------------------

/// Heap retained per live connection (session, socket buffers). Log
/// segments are modeled as disk-backed (page cache pressure is out of
/// scope), so connections are the only heap consumers. The simulator's
/// log holds no message either: 16 bytes per record (probe, key, size).
pub const HEAP_PER_CONN: Bytes = Bytes::kib(120);
/// Partitions per topic (fixed at topic creation, like Kafka).
pub const PARTITIONS: u32 = 8;
/// Records per append-only segment before the log rolls a new one.
pub const SEGMENT_RECORDS: u64 = 4096;

/// [`SEGMENT_RECORDS`], as gridbench reads it. A shim: ROADMAP item 1
/// deletes it once gridbench reads the constant.
#[derive(Debug, Clone)]
pub struct GridlogConfig {
    /// Always [`SEGMENT_RECORDS`].
    pub segment_records: u64,
}

impl Default for GridlogConfig {
    fn default() -> Self {
        GridlogConfig {
            segment_records: SEGMENT_RECORDS,
        }
    }
}

/// Where a consumer-group member starts when it is assigned a partition
/// it holds no position for — the axis the gridlog fault experiments
/// vary, mirroring the narada CLIENT-vs-AUTO acknowledge comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetReset {
    /// Resume from the group's durable committed offset (Kafka consumer
    /// with periodic offset commits): zero loss across a broker crash.
    Committed,
    /// Start at the log end offset (`auto.offset.reset=latest` with no
    /// commits): everything appended while the member was away is
    /// skipped — the crash window is lost.
    Latest,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        const _: () = assert!(BROKER_APPEND_BASE.as_micros() > 0);
        const _: () = assert!(LINGER.as_micros() > 0);
        const _: () = assert!(BATCH_MAX_RECORDS >= 1);
        const _: () = assert!(FETCH_MAX_WAIT.as_micros() > LINGER.as_micros());
        const _: () = assert!(PARTITIONS >= 1);
        const _: () = assert!(SEGMENT_RECORDS >= 1);
        let p = simnet::session::ReconnectPolicy::default();
        assert!(p.detect_timeout > p.heartbeat_interval);
        assert!(p.backoff_max >= p.backoff_initial);
        assert!(SESSION_TIMEOUT > p.detect_timeout);
    }
}
