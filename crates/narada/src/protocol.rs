//! Wire protocol between Narada clients and brokers, and between brokers.
//!
//! These enums travel as [`simnet::Delivery`] payloads. Sizes on the wire
//! are computed from the carried message (`wire::Message::wire_size`) plus
//! small fixed framing for control messages.

use jms::AckMode;
use telemetry::ProbeId;
use wire::{Message, MessageId};

/// Framing bytes for control messages (type tag + ids).
pub const CONTROL_FRAME_BYTES: usize = 32;
/// Framing added to data messages by the Narada event envelope.
pub const EVENT_ENVELOPE_BYTES: usize = 48;

/// Client → broker.
pub enum ClientToBroker {
    /// Open a JMS connection (broker spawns a service thread or refuses).
    Connect,
    /// Close the connection (broker frees the thread).
    Disconnect,
    /// Create a subscription on this connection.
    Subscribe {
        /// Client-chosen id, unique per connection.
        sub_id: u32,
        /// Destination name.
        topic: String,
        /// Selector source text (compiled broker-side, as real JMS does).
        selector: String,
        /// Acknowledge mode of the consuming session.
        ack_mode: AckMode,
        /// True for a JMS queue receiver (point-to-point mode); false for
        /// a topic subscription.
        queue: bool,
    },
    /// Tear down a subscription.
    Unsubscribe {
        /// Id from `Subscribe`.
        sub_id: u32,
    },
    /// Publish a message to its destination.
    Publish {
        /// Telemetry probe (carried, not transmitted in the byte count —
        /// it stands in for the sender timestamp the real payload holds).
        probe: ProbeId,
        /// Per-connection sequence number (gap detection over UDP).
        seq: u64,
        /// The message.
        message: Message,
        /// True if this is a retransmission (duplicates are filtered).
        retransmit: bool,
        /// True for a queue send (point-to-point); false for pub/sub.
        queue: bool,
    },
    /// Subscriber acknowledges deliveries (UDP reliability / CLIENT mode).
    Ack {
        /// Highest contiguous delivery sequence received.
        cumulative_seq: u64,
        /// Individually acked out-of-order sequences beyond it, ascending.
        /// Empty unless the session is CLIENT-ack: no other mode has the
        /// broker retain deliveries.
        extra: Vec<u64>,
    },
    /// Liveness probe sent by reconnect-enabled clients; a broker that is
    /// up answers [`BrokerToClient::Pong`], a crashed one stays silent.
    Ping,
    /// After reconnecting, a CLIENT-ack subscriber asks the broker to
    /// re-deliver everything its crashed predecessor left unacknowledged
    /// in stable storage for this subscription.
    Resync {
        /// Id of the (re-created) subscription to resync.
        sub_id: u32,
    },
}

/// Broker → client.
pub enum BrokerToClient {
    /// Connection accepted.
    ConnectOk,
    /// Connection refused (the paper's "out of memory to create new
    /// threads" shows up here).
    ConnectRefused {
        /// Human-readable reason.
        reason: String,
    },
    /// Subscription established.
    SubscribeOk {
        /// Id from the request.
        sub_id: u32,
    },
    /// Broker's publish acknowledgement (UDP reliability: the publisher's
    /// synchronous `publish()` completes when this arrives).
    PublishAck {
        /// Sequence being acknowledged.
        seq: u64,
    },
    /// A message delivery to a subscriber.
    Deliver {
        /// Matching subscription.
        sub_id: u32,
        /// Telemetry probe carried through the pipeline.
        probe: ProbeId,
        /// Broker-assigned per-(connection,subscription) delivery sequence.
        deliver_seq: u64,
        /// The message.
        message: Message,
        /// True if this is a retransmission.
        retransmit: bool,
    },
    /// Liveness answer to [`ClientToBroker::Ping`].
    Pong,
}

/// Broker → broker (the Broker Network Map layer).
pub enum BrokerToBroker {
    /// Forward a published message through the broker network. v1.1.3
    /// floods: each broker re-forwards to every peer except the sender,
    /// deduplicating on (origin, seq) — the "data congestion" the paper
    /// observed.
    Forward {
        /// Telemetry probe.
        probe: ProbeId,
        /// The message.
        message: Message,
        /// Originating broker index.
        origin: u16,
        /// Per-origin sequence number (dedup key).
        seq: u64,
        /// Broker that sent this copy (suppresses immediate back-flow).
        from_ix: u16,
    },
    /// Gossip: a broker's subscription interest set changed. Carries the
    /// full topic list (small in these experiments); with
    /// subscription-aware routing enabled brokers use it to prune
    /// forwarding.
    InterestUpdate {
        /// Broker index whose interests these are.
        broker: u16,
        /// Topics with at least one local subscriber.
        topics: Vec<String>,
    },
}

/// Duplicate-filter key for deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeliveryKey {
    /// Subscription.
    pub sub_id: u32,
    /// Delivery sequence.
    pub deliver_seq: u64,
}

/// Convenience: wire size of a published message including envelope.
pub fn publish_bytes(message: &Message) -> usize {
    message.wire_size() + EVENT_ENVELOPE_BYTES
}

/// Convenience: wire size of a delivery.
pub fn deliver_bytes(message: &Message) -> usize {
    message.wire_size() + EVENT_ENVELOPE_BYTES
}

/// A message id that is unique per (connection, seq); used in logs.
pub fn seq_message_id(conn_ix: u32, seq: u64) -> MessageId {
    MessageId(((conn_ix as u64) << 40) | (seq & 0xFF_FFFF_FFFF))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::Headers;

    #[test]
    fn byte_helpers_add_envelope() {
        let m = Message::text(Headers::new(MessageId(1), "t", SimTime::ZERO), "body");
        assert_eq!(publish_bytes(&m), m.wire_size() + EVENT_ENVELOPE_BYTES);
        assert_eq!(deliver_bytes(&m), m.wire_size() + EVENT_ENVELOPE_BYTES);
    }

    #[test]
    fn seq_message_ids_unique_across_conns() {
        let a = seq_message_id(1, 7);
        let b = seq_message_id(2, 7);
        let c = seq_message_id(1, 8);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
