#![forbid(unsafe_code)]
//! gridlog — a partitioned-log (Kafka-style) middleware contender for
//! the grid-monitoring study, simulated on the same planes as narada
//! and R-GMA.
//!
//! The model: one [`LogBroker`] actor holds per-topic partitions of
//! append-only segments with dense monotonic offsets. Producers batch
//! records client-side (linger + max-batch, Kafka's `linger.ms`) and
//! the broker assigns partitions by key hash. Consumers organize into
//! groups: the broker range-assigns partitions across members, pushes
//! a new assignment epoch on every join/leave/expiry, serves long-poll
//! batch fetches, and persists committed offsets per group.
//!
//! Fault semantics mirror the narada CLIENT-vs-AUTO acknowledge axis:
//! the log and committed offsets survive a broker crash (disk), while
//! connections, group membership, and parked fetches do not. A
//! [`OffsetReset::Committed`] consumer resumes from its durable offset
//! with zero loss; an [`OffsetReset::Latest`] consumer rejoins at the
//! log end and loses the crash window.
//!
//! Everything is metered: CPU through [`simos::OsModel::execute_metered`]
//! (attributed to the `gridlog.*` [`simprof`] components), bytes through
//! [`simnet::NetworkFabric`], lifecycle through [`simtrace`] events, and
//! RTT through the shared [`telemetry::RttCollector`] probe protocol.

#![warn(missing_docs)]

pub mod broker;
pub mod client;
pub mod config;
pub mod log;
pub mod protocol;

pub use broker::{BrokerTimer, LogBroker, LogBrokerStats, StatsHandle};
pub use client::{ClientEvent, GridlogClientSet};
pub use config::{GridlogConfig, OffsetReset};
pub use log::{partition_for, PartitionLog, StoredRecord, TopicLog};
pub use protocol::{
    fetch_response_bytes, offsets_bytes, produce_bytes, BrokerToClient, ClientToBroker,
    FetchedRecord, Membership, Produce, ProducerRecord,
};
pub use simnet::session::{ClientTimer, ReconnectPolicy};
