//! Wire protocol between Narada clients and brokers, and between brokers.
//!
//! These enums travel as [`simnet::Delivery`] payloads. Sizes on the wire
//! are computed from the carried message (`wire::Message::wire_size`) plus
//! small fixed framing for control messages.

use jms::AckMode;
use telemetry::ProbeId;
use wire::Message;

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
    Subscribe(Subscribe),
    /// Publish a message to its destination.
    Publish(Publish),
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

/// The fields of [`ClientToBroker::Subscribe`].
pub struct Subscribe {
    /// Client-chosen id, unique per connection.
    pub sub_id: u32,
    /// Topic name.
    pub topic: String,
    /// Selector source text (compiled broker-side, as real JMS does).
    pub selector: String,
    /// Acknowledge mode of the consuming session.
    pub ack_mode: AckMode,
}

/// The fields of [`ClientToBroker::Publish`].
pub struct Publish {
    /// Telemetry probe (carried, not transmitted in the byte count —
    /// it stands in for the sender timestamp the real payload holds).
    pub probe: ProbeId,
    /// Per-connection sequence number (gap detection over UDP).
    pub seq: u64,
    /// The message.
    pub message: Message,
    /// True if this is a retransmission (duplicates are filtered).
    pub retransmit: bool,
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
        /// Where this copy stands in the flood.
        flood: Flood,
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

/// One copy of a flooded message: what travels with it from broker to
/// broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flood {
    /// Originating broker index.
    pub origin: u16,
    /// Per-origin sequence number (dedup key).
    pub seq: u64,
    /// Broker that sent this copy (suppresses immediate back-flow).
    pub from_ix: u16,
}

/// Convenience: wire size of a published message including envelope.
pub fn publish_bytes(message: &Message) -> usize {
    message.wire_size() + EVENT_ENVELOPE_BYTES
}

/// Convenience: wire size of a delivery.
pub fn deliver_bytes(message: &Message) -> usize {
    message.wire_size() + EVENT_ENVELOPE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::{Headers, MessageId};

    #[test]
    fn byte_helpers_add_envelope() {
        let m = Message::text(Headers::new(MessageId(1), "t", SimTime::ZERO), "body");
        assert_eq!(publish_bytes(&m), m.wire_size() + EVENT_ENVELOPE_BYTES);
        assert_eq!(deliver_bytes(&m), m.wire_size() + EVENT_ENVELOPE_BYTES);
    }
}
