//! Configuration and CPU cost model for the partitioned-log broker.
//!
//! Like narada's [`CostModel`], the constants here are *inputs* to the
//! mechanisms, scaled to the same reference node (Pentium III 866 MHz):
//! the shape of the RTT distribution — linger-dominated produce latency,
//! amortized batch fetches, the long-poll cadence — emerges from the
//! protocol, not from these numbers directly.
//!
//! [`CostModel`]: struct.CostModel.html

use simcore::SimDuration;
use simos::Bytes;

/// Per-operation CPU costs on the log broker and client JVMs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Client: serialize a produce batch (fixed part).
    pub client_serialize_base: SimDuration,
    /// Client: serialize, per byte.
    pub client_serialize_per_byte_ns: u64,
    /// Client: deserialize + hand one fetched record to the listener
    /// (fixed part).
    pub client_deliver_base: SimDuration,
    /// Client: deserialize, per byte.
    pub client_deliver_per_byte_ns: u64,
    /// Broker: accept + deserialize a produce batch (fixed part).
    pub broker_append_base: SimDuration,
    /// Broker: per-byte deserialize/copy cost.
    pub broker_per_byte_ns: u64,
    /// Broker: assign an offset and append one record to its segment.
    pub broker_append_per_record: SimDuration,
    /// Broker: serve one fetch (fixed part: offset lookup, response
    /// assembly).
    pub broker_fetch_base: SimDuration,
    /// Broker: serialize one record into a fetch response.
    pub broker_fetch_per_record: SimDuration,
    /// Broker: process one offset-commit request.
    pub broker_commit_process: SimDuration,
    /// Broker: recompute the group assignment on join/leave/expiry.
    pub broker_rebalance: SimDuration,
    /// Broker: cost to accept a connection and start its thread.
    pub broker_accept: SimDuration,
    /// Broker: scan one record while replaying segments after a
    /// crash-restart (sequential read, much cheaper than an append).
    pub broker_replay_per_record: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            client_serialize_base: SimDuration::from_micros(100),
            client_serialize_per_byte_ns: 300,
            client_deliver_base: SimDuration::from_micros(120),
            client_deliver_per_byte_ns: 300,
            broker_append_base: SimDuration::from_micros(250),
            broker_per_byte_ns: 400,
            broker_append_per_record: SimDuration::from_micros(40),
            broker_fetch_base: SimDuration::from_micros(200),
            broker_fetch_per_record: SimDuration::from_micros(25),
            broker_commit_process: SimDuration::from_micros(150),
            broker_rebalance: SimDuration::from_micros(500),
            broker_accept: SimDuration::from_micros(1_500),
            broker_replay_per_record: SimDuration::from_micros(2),
        }
    }
}

/// Producer batching: records accumulate per connection until the batch
/// fills or the linger timer fires (Kafka's `linger.ms`/`batch.size`).
#[derive(Debug, Clone, Copy)]
pub struct Batching {
    /// How long a non-full batch waits for more records.
    pub linger: SimDuration,
    /// Records per batch before an immediate flush.
    pub max_records: usize,
}

impl Default for Batching {
    fn default() -> Self {
        Batching {
            linger: SimDuration::from_millis(5),
            max_records: 64,
        }
    }
}

/// Consumer fetch shaping: long-poll parking and batch bounds
/// (Kafka's `fetch.max.wait.ms`/`max.poll.records`).
#[derive(Debug, Clone, Copy)]
pub struct Fetching {
    /// A fetch with no data parks at the broker this long before an
    /// empty response unblocks the consumer's poll loop.
    pub max_wait: SimDuration,
    /// Records per fetch response.
    pub max_records: usize,
}

impl Default for Fetching {
    fn default() -> Self {
        Fetching {
            max_wait: SimDuration::from_millis(500),
            max_records: 512,
        }
    }
}

/// Consumer-group timing: commit cadence and broker-side liveness.
#[derive(Debug, Clone, Copy)]
pub struct GroupPolicy {
    /// Committed-mode consumers flush offset commits at this interval.
    pub commit_interval: SimDuration,
    /// Broker expels a member silent for longer than this (the session
    /// timer only arms once a member's first heartbeat arrives, so
    /// heartbeat-free paper-mode runs never expire anyone).
    pub session_timeout: SimDuration,
}

impl Default for GroupPolicy {
    fn default() -> Self {
        GroupPolicy {
            commit_interval: SimDuration::from_secs(5),
            session_timeout: SimDuration::from_secs(10),
        }
    }
}

/// Broker memory model.
#[derive(Debug, Clone)]
pub struct BrokerMemory {
    /// Heap retained per live connection (session, socket buffers).
    /// Log segments are modeled as disk-backed (page cache pressure is
    /// out of scope), so connections are the only heap consumers. The
    /// simulator's log holds no message either: 16 bytes per record
    /// (probe, key, size).
    pub heap_per_conn: Bytes,
}

impl Default for BrokerMemory {
    fn default() -> Self {
        BrokerMemory {
            heap_per_conn: Bytes::kib(120),
        }
    }
}

/// Full configuration for one log-broker deployment.
#[derive(Debug, Clone)]
pub struct GridlogConfig {
    /// CPU cost model.
    pub costs: CostModel,
    /// Producer batching.
    pub batching: Batching,
    /// Fetch shaping.
    pub fetching: Fetching,
    /// Consumer-group timing.
    pub group: GroupPolicy,
    /// Memory model.
    pub memory: BrokerMemory,
    /// Partitions per topic (fixed at topic creation, like Kafka).
    pub partitions: u32,
    /// Records per append-only segment before the log rolls a new one.
    pub segment_records: u64,
}

impl Default for GridlogConfig {
    fn default() -> Self {
        GridlogConfig {
            costs: CostModel::default(),
            batching: Batching::default(),
            fetching: Fetching::default(),
            group: GroupPolicy::default(),
            memory: BrokerMemory::default(),
            partitions: 8,
            segment_records: 4096,
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
        let c = GridlogConfig::default();
        assert!(c.costs.broker_append_base > SimDuration::ZERO);
        assert!(c.batching.linger > SimDuration::ZERO);
        assert!(c.batching.max_records >= 1);
        assert!(c.fetching.max_wait > c.batching.linger);
        assert!(c.partitions >= 1);
        assert!(c.segment_records >= 1);
        let p = simnet::session::ReconnectPolicy::default();
        assert!(p.detect_timeout > p.heartbeat_interval);
        assert!(p.backoff_max >= p.backoff_initial);
        assert!(c.group.session_timeout > p.detect_timeout);
    }
}
