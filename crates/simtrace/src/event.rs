//! Trace events.

use simcore::SimTime;

/// Causal identity of one traced message. For probe traffic this wraps
/// the `telemetry::ProbeId` number, so trace spans and RTT records key
/// on the same id and can be cross-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// What happened at one instant of a message's life.
///
/// Lifecycle variants mirror the four `RttCollector` instants of fig 15;
/// hop variants record where the message was in between. All payloads
/// are plain numbers, at most two `u32`s, so events are `Copy` and a
/// stored kind is a tag byte and those two numbers
/// ([`pack`](Self::pack)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The application called publish/INSERT (`before_sending`).
    PublishBegin,
    /// The synchronous send returned (`after_sending`).
    PublishEnd,
    /// The middleware made the message available (`before_receiving`).
    Available,
    /// The receiving application has the message (`after_receiving`).
    Delivered,
    /// A frame entered a network connection.
    NetSend {
        /// Connection index (a `simnet::ConnId`).
        conn: u32,
        /// Frame size in bytes.
        bytes: u32,
    },
    /// A frame left a network connection at the receiver.
    NetDeliver {
        /// Connection index (a `simnet::ConnId`).
        conn: u32,
    },
    /// A frame was dropped (UDP loss).
    NetDrop {
        /// Connection index (a `simnet::ConnId`).
        conn: u32,
    },
    /// A broker accepted a publish or peer forward.
    BrokerRecv {
        /// Broker index within the network.
        broker: u32,
    },
    /// Selector evaluation outcome across a broker's subscriptions.
    SelectorMatch {
        /// Subscriptions whose selector matched.
        matched: u32,
        /// Subscriptions evaluated but not matched.
        missed: u32,
    },
    /// A broker fanned the message out to local subscribers.
    BrokerDeliver {
        /// Broker index.
        broker: u32,
        /// Local deliveries produced by this one message.
        fanout: u32,
    },
    /// A broker forwarded to peer brokers (DBN flood or routed).
    BrokerForward {
        /// Broker index.
        broker: u32,
        /// Peers the message was sent to.
        peers: u32,
    },
    /// A lost frame was retransmitted (UDP gap recovery).
    Retransmit {
        /// Retry attempt number.
        attempt: u32,
    },
    /// A tuple was inserted into R-GMA producer storage.
    StorageInsert {
        /// Rows in the table after the insert.
        rows: u32,
    },
    /// A continuous SELECT matched the tuple for delivery.
    SelectMatch {
        /// Consumers the tuple was streamed to.
        consumers: u32,
    },
    /// The secondary producer buffered a tuple into its batch.
    BatchEnqueue {
        /// Tuples in the batch after the enqueue.
        occupancy: u32,
    },
    /// The secondary producer flushed its batch.
    BatchFlush {
        /// Tuples flushed.
        tuples: u32,
    },
    /// A simulated garbage-collection pause charged to a process.
    GcPause {
        /// Pause length in microseconds.
        micros: u32,
    },
}

impl EventKind {
    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PublishBegin => "publish_begin",
            EventKind::PublishEnd => "publish_end",
            EventKind::Available => "available",
            EventKind::Delivered => "delivered",
            EventKind::NetSend { .. } => "net_send",
            EventKind::NetDeliver { .. } => "net_deliver",
            EventKind::NetDrop { .. } => "net_drop",
            EventKind::BrokerRecv { .. } => "broker_recv",
            EventKind::SelectorMatch { .. } => "selector_match",
            EventKind::BrokerDeliver { .. } => "broker_deliver",
            EventKind::BrokerForward { .. } => "broker_forward",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::StorageInsert { .. } => "storage_insert",
            EventKind::SelectMatch { .. } => "select_match",
            EventKind::BatchEnqueue { .. } => "batch_enqueue",
            EventKind::BatchFlush { .. } => "batch_flush",
            EventKind::GcPause { .. } => "gc_pause",
        }
    }

    /// The `telemetry::MetricsRegistry` counters an event of this kind
    /// moves, and by how much: [`hop`](crate::hop) adds them beside the
    /// record. A kind that moves none records only; its sites count what
    /// they count themselves (a gridlog broker's receives per batch, not
    /// per record).
    #[inline]
    pub fn counters(self) -> impl Iterator<Item = (&'static str, u64)> {
        let one = |name| [Some((name, 1)), None];
        let moved = match self {
            EventKind::NetSend { .. } => one("net_frames_sent"),
            EventKind::NetDeliver { .. } => one("net_frames_delivered"),
            EventKind::NetDrop { .. } => one("net_drops"),
            EventKind::SelectorMatch { matched, missed } => [
                Some(("selector_matches", u64::from(matched))),
                Some(("selector_misses", u64::from(missed))),
            ],
            EventKind::BrokerForward { peers, .. } => {
                [Some(("broker_forwards", u64::from(peers))), None]
            }
            EventKind::Retransmit { .. } => one("retries"),
            EventKind::StorageInsert { .. } => one("tuples_stored"),
            EventKind::BatchFlush { .. } => one("batch_flushes"),
            EventKind::GcPause { .. } => one("gc_pauses"),
            EventKind::PublishBegin
            | EventKind::PublishEnd
            | EventKind::Available
            | EventKind::Delivered
            | EventKind::BrokerRecv { .. }
            | EventKind::BrokerDeliver { .. }
            | EventKind::SelectMatch { .. }
            | EventKind::BatchEnqueue { .. } => [None, None],
        };
        moved.into_iter().flatten()
    }

    /// The kind as its variant's index (below 32) and its payload, unused
    /// fields 0: what a stored record keeps.
    pub(crate) fn pack(self) -> (u8, u32, u32) {
        match self {
            EventKind::PublishBegin => (0, 0, 0),
            EventKind::PublishEnd => (1, 0, 0),
            EventKind::Available => (2, 0, 0),
            EventKind::Delivered => (3, 0, 0),
            EventKind::NetSend { conn, bytes } => (4, conn, bytes),
            EventKind::NetDeliver { conn } => (5, conn, 0),
            EventKind::NetDrop { conn } => (6, conn, 0),
            EventKind::BrokerRecv { broker } => (7, broker, 0),
            EventKind::SelectorMatch { matched, missed } => (8, matched, missed),
            EventKind::BrokerDeliver { broker, fanout } => (9, broker, fanout),
            EventKind::BrokerForward { broker, peers } => (10, broker, peers),
            EventKind::Retransmit { attempt } => (11, attempt, 0),
            EventKind::StorageInsert { rows } => (12, rows, 0),
            EventKind::SelectMatch { consumers } => (13, consumers, 0),
            EventKind::BatchEnqueue { occupancy } => (14, occupancy, 0),
            EventKind::BatchFlush { tuples } => (15, tuples, 0),
            EventKind::GcPause { micros } => (16, micros, 0),
        }
    }

    /// The kind [`pack`](Self::pack) gave `(variant, a, b)` for.
    pub(crate) fn unpack(variant: u8, a: u32, b: u32) -> EventKind {
        match variant {
            0 => EventKind::PublishBegin,
            1 => EventKind::PublishEnd,
            2 => EventKind::Available,
            3 => EventKind::Delivered,
            4 => EventKind::NetSend { conn: a, bytes: b },
            5 => EventKind::NetDeliver { conn: a },
            6 => EventKind::NetDrop { conn: a },
            7 => EventKind::BrokerRecv { broker: a },
            8 => EventKind::SelectorMatch {
                matched: a,
                missed: b,
            },
            9 => EventKind::BrokerDeliver {
                broker: a,
                fanout: b,
            },
            10 => EventKind::BrokerForward {
                broker: a,
                peers: b,
            },
            11 => EventKind::Retransmit { attempt: a },
            12 => EventKind::StorageInsert { rows: a },
            13 => EventKind::SelectMatch { consumers: a },
            14 => EventKind::BatchEnqueue { occupancy: a },
            15 => EventKind::BatchFlush { tuples: a },
            16 => EventKind::GcPause { micros: a },
            _ => unreachable!("no event kind {variant}"),
        }
    }
}

/// One recorded instant. `actor` is the lane of the kernel actor that
/// emitted the event; `trace` is `None` for anonymous infrastructure
/// events (e.g. fabric frames, which carry opaque payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant.
    pub at: SimTime,
    /// Causal id, when known at this layer.
    pub trace: Option<TraceId>,
    /// Emitting actor's lane (its slab index).
    pub actor: u32,
    /// What happened.
    pub kind: EventKind,
}
