//! Wire protocol between gridlog clients and the log broker.
//!
//! These enums travel as [`simnet::Delivery`] payloads, exactly like the
//! narada protocol does. Sizes on the wire are computed from the produced
//! messages (`wire::Message::wire_size`, which a fetched record carries
//! as `bytes`) plus fixed framing modeled on the Kafka v2 record-batch
//! format.

use crate::config::OffsetReset;
use telemetry::ProbeId;
use wire::Message;

/// Framing bytes for control messages (type tag + ids).
pub const CONTROL_FRAME_BYTES: usize = 32;
/// Record-batch header (the Kafka v2 `RecordBatch` header is 61 bytes).
pub const BATCH_HEADER_BYTES: usize = 61;
/// Per-record framing inside a batch (length, attributes, offset delta,
/// timestamp delta, key length).
pub const RECORD_OVERHEAD_BYTES: usize = 12;

/// One record as produced: the partitioning key plus the payload.
#[derive(Debug, Clone)]
pub struct ProducerRecord {
    /// Telemetry probe of the originating produce call (carried, not
    /// transmitted — it stands in for the producer timestamp).
    pub probe: ProbeId,
    /// Partitioning key (hashed to pick the partition).
    pub key: u32,
    /// The payload.
    pub message: Message,
}

/// One record as fetched: the payload's size plus its position in the
/// log.
#[derive(Debug, Clone)]
pub struct FetchedRecord {
    /// Telemetry probe threaded from the produce call.
    pub probe: ProbeId,
    /// Offset within the partition.
    pub offset: u64,
    /// Partitioning key.
    pub key: u32,
    /// The payload's `wire_size()`, taken at append.
    pub bytes: u32,
}

/// Client → broker.
pub enum ClientToBroker {
    /// Open a connection (broker spawns a service thread or refuses).
    Connect,
    /// Close the connection (broker frees the thread).
    Disconnect,
    /// Append a batch of records to a topic.
    Produce(Produce),
    /// Join a consumer group (also the implicit group/topic creation).
    JoinGroup(Membership),
    /// Long-poll fetch from one assigned partition.
    Fetch {
        /// Group name.
        group: String,
        /// Member identity.
        member: u64,
        /// Assignment epoch the member believes is current; stale epochs
        /// are answered with a fresh [`BrokerToClient::Assignment`].
        epoch: u64,
        /// Partition to read.
        partition: u32,
        /// First offset wanted.
        offset: u64,
    },
    /// Flush the member's consumed positions to the group's durable
    /// committed offsets.
    CommitOffsets {
        /// Group name.
        group: String,
        /// Member identity.
        member: u64,
        /// Assignment epoch.
        epoch: u64,
        /// (partition, next offset to consume) pairs.
        offsets: Vec<(u32, u64)>,
    },
    /// Consumer-group liveness: refreshes the member's session at the
    /// broker. A broker that is up answers [`BrokerToClient::Pong`] *only
    /// if* the member is still in the group — silence tells an expelled
    /// or pre-crash member to reconnect and rejoin.
    Heartbeat {
        /// Group name.
        group: String,
        /// Member identity.
        member: u64,
    },
    /// Producer liveness probe (no group attached).
    Ping,
}

/// The fields of [`ClientToBroker::Produce`].
pub struct Produce {
    /// Stable producer identity (idempotence key, durable at the
    /// broker like Kafka's producer-id state in the log).
    pub producer_id: u64,
    /// Monotonic per-producer batch sequence (duplicate filter for
    /// post-crash retransmissions).
    pub batch_seq: u64,
    /// Destination topic.
    pub topic: String,
    /// The records.
    pub records: Vec<ProducerRecord>,
    /// True if this batch may already have been appended.
    pub retransmit: bool,
}

/// A consumer's place in its group: what it joins with
/// ([`ClientToBroker::JoinGroup`]) and re-joins with after every
/// reconnect.
#[derive(Debug, Clone)]
pub struct Membership {
    /// Group name.
    pub group: String,
    /// Stable member identity.
    pub member: u64,
    /// Topic the group consumes.
    pub topic: String,
    /// Where this member starts on partitions it has no position for.
    pub reset: OffsetReset,
}

/// Broker → client.
pub enum BrokerToClient {
    /// Connection accepted.
    ConnectOk,
    /// Connection refused (out of memory for the service thread).
    ConnectRefused {
        /// Human-readable reason.
        reason: String,
    },
    /// A produce batch is durably appended (or was already, if the
    /// batch was a duplicate retransmission).
    ProduceAck {
        /// Batch sequence being acknowledged.
        batch_seq: u64,
    },
    /// The member's current partition assignment, pushed on every
    /// rebalance and re-pushed when a stale-epoch request arrives.
    Assignment {
        /// Group name.
        group: String,
        /// New assignment epoch.
        epoch: u64,
        /// (partition, start offset) pairs this member now owns.
        partitions: Vec<(u32, u64)>,
    },
    /// Fetch response: a run of records from one partition.
    Records {
        /// Partition these records came from.
        partition: u32,
        /// Epoch of the fetch being answered (stale responses are
        /// discarded by the client).
        epoch: u64,
        /// The records, offset-ordered. Empty when the long-poll timer
        /// expired with no data.
        records: Vec<FetchedRecord>,
        /// The partition's end offset at response time (lag signal).
        end_offset: u64,
    },
    /// Offset commit applied.
    CommitOk {
        /// Epoch of the commit being answered.
        epoch: u64,
    },
    /// Liveness answer to [`ClientToBroker::Ping`] and in-group
    /// [`ClientToBroker::Heartbeat`].
    Pong,
}

/// Wire size of a produce batch.
pub fn produce_bytes(records: &[ProducerRecord]) -> usize {
    BATCH_HEADER_BYTES
        + records
            .iter()
            .map(|r| r.message.wire_size() + RECORD_OVERHEAD_BYTES)
            .sum::<usize>()
}

/// Wire size of a fetch response.
pub fn fetch_response_bytes(records: &[FetchedRecord]) -> usize {
    BATCH_HEADER_BYTES
        + records
            .iter()
            .map(|r| r.bytes as usize + RECORD_OVERHEAD_BYTES)
            .sum::<usize>()
}

/// Wire size of an assignment push or an offset-commit request.
pub fn offsets_bytes(pairs: usize) -> usize {
    CONTROL_FRAME_BYTES + pairs * 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::{Headers, MessageId};

    #[test]
    fn byte_helpers_add_framing() {
        let m = Message::text(Headers::new(MessageId(1), "t", SimTime::ZERO), "body");
        let rec = ProducerRecord {
            probe: ProbeId(0),
            key: 7,
            message: m.clone(),
        };
        assert_eq!(
            produce_bytes(std::slice::from_ref(&rec)),
            BATCH_HEADER_BYTES + m.wire_size() + RECORD_OVERHEAD_BYTES
        );
        let fr = |bytes| FetchedRecord {
            probe: ProbeId(0),
            offset: 0,
            key: 7,
            bytes,
        };
        assert_eq!(
            fetch_response_bytes(&[fr(40), fr(1000)]),
            BATCH_HEADER_BYTES + 40 + 1000 + 2 * RECORD_OVERHEAD_BYTES
        );
        assert_eq!(offsets_bytes(0), CONTROL_FRAME_BYTES);
        assert!(offsets_bytes(8) > offsets_bytes(1));
    }
}
