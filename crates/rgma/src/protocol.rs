//! HTTP request/response bodies exchanged between R-GMA components.
//!
//! Everything in R-GMA travels over HTTP into servlets; these enums are
//! the entity bodies. Byte sizes are estimated from the SQL text a body
//! stands for and the tuples it carries (plus the HTTP framing added by
//! `simnet::http`).

use simnet::Endpoint;
use std::sync::Arc;
use telemetry::ProbeId;
use wire::{Tuple, Value};

/// A tuple in flight with the telemetry probe of its insert. The tuple
/// is the one the producer's storage stamped, shared — no hop copies it.
pub type Entry = (ProbeId, Arc<Tuple>);

/// Server-side producer instance id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProducerId(pub u32);

/// Server-side consumer instance id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConsumerId(pub u32);

/// One-time query flavours (GMA query/response mode). Continuous queries
/// are subscriptions; these fetch from producer storage on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    /// Most recent tuple per producer instance, within the latest-retention
    /// window (paper: 30 s).
    Latest,
    /// Every tuple still inside the history-retention window (paper: 1 min).
    History,
}

/// Requests to the Primary Producer servlet.
pub enum ProducerRequest {
    /// Create a server-side producer instance publishing into `table`.
    CreateProducer {
        /// Table the instance declares.
        table: String,
    },
    /// `INSERT` one tuple: the row an SQL `INSERT` text stands for, and
    /// that text's length, which is what the servlet parses and the wire
    /// carries.
    Insert {
        /// Target producer instance.
        producer: ProducerId,
        /// The values in the table's column order (shared with the
        /// client's retry record).
        row: Arc<[Value]>,
        /// Bytes of the `INSERT` text.
        sql_len: usize,
        /// Telemetry probe (out-of-band: byte accounting only counts the
        /// SQL text).
        probe: ProbeId,
    },
    /// One-shot fetch from producer-instance storage (latest/history
    /// query plan step).
    Fetch {
        /// Table queried.
        table: String,
        /// Latest or history.
        query_type: QueryType,
        /// Producer instances to read.
        producers: Vec<ProducerId>,
        /// Correlation token chosen by the consumer servlet.
        token: u64,
    },
    /// A Consumer servlet attaches a continuous-query stream for `table`.
    StartStream {
        /// Table wanted.
        table: String,
        /// Consumer instance to tag chunks with.
        consumer: ConsumerId,
        /// Producer instances to attach (from the registry lookup). Only
        /// these are attached — instances the mediator has not yet seen
        /// keep accumulating invisible tuples, the warm-up loss window.
        producers: Vec<ProducerId>,
    },
}

/// Responses from the Primary Producer servlet.
pub enum ProducerResponse {
    /// Instance created.
    Created {
        /// New instance id.
        producer: ProducerId,
    },
    /// Insert accepted.
    InsertOk,
    /// Stream attached.
    StreamStarted,
    /// One-shot fetch result.
    FetchResult {
        /// Token from the request.
        token: u64,
        /// Matching `(probe, tuple)` pairs.
        entries: Vec<Entry>,
    },
    /// Request failed (OOM, unknown instance, a row off its table…).
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// A batch of tuples flowing producer → consumer on a stream.
pub struct StreamChunk {
    /// Receiving consumer instance.
    pub consumer: ConsumerId,
    /// `(probe, tuple)` pairs in insertion order.
    pub entries: Vec<Entry>,
}

/// Requests to the Consumer servlet.
pub enum ConsumerRequest {
    /// Create a consumer instance running a continuous query.
    CreateConsumer {
        /// The `SELECT` text.
        query: String,
    },
    /// One-time latest/history query (GMA query/response mode).
    OneTimeQuery {
        /// The `SELECT` text.
        query: String,
        /// Latest or history semantics.
        query_type: QueryType,
    },
    /// Subscriber poll: drain buffered tuples.
    Poll {
        /// Consumer instance.
        consumer: ConsumerId,
    },
}

/// Responses from the Consumer servlet.
pub enum ConsumerResponse {
    /// Instance created.
    Created {
        /// New instance id.
        consumer: ConsumerId,
    },
    /// Poll result: the drained tuples.
    PollResult {
        /// `(probe, tuple)` pairs.
        entries: Vec<Entry>,
    },
    /// One-time query result: all matching tuples from the plan.
    QueryResult {
        /// `(probe, tuple)` pairs.
        entries: Vec<Entry>,
    },
    /// Request failed.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// Requests to the Registry servlet.
pub enum RegistryRequest {
    /// A producer servlet registers an instance's table.
    RegisterProducer {
        /// Table published.
        table: String,
        /// Producer servlet endpoint.
        endpoint: Endpoint,
    },
    /// A consumer servlet registers a continuous query's interest in a
    /// table (soft state: re-sent on every mediation cycle when the
    /// soft-state refresh is enabled, so registry restarts are survived).
    RegisterConsumer {
        /// Table consumed.
        table: String,
        /// Consumer servlet endpoint.
        endpoint: Endpoint,
    },
    /// A consumer servlet looks up producers for a table.
    LookupProducers {
        /// Table wanted.
        table: String,
    },
}

/// Responses from the Registry servlet.
pub enum RegistryResponse {
    /// Registration accepted.
    Registered,
    /// Lookup result: producer-servlet endpoints currently visible.
    Producers {
        /// Visible endpoints.
        endpoints: Vec<Endpoint>,
    },
    /// Request failed.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// Approximate entity bytes for a chunk.
pub fn chunk_bytes(chunk: &StreamChunk) -> usize {
    poll_result_bytes(&chunk.entries)
}

/// Approximate entity bytes for a poll result.
pub fn poll_result_bytes(entries: &[Entry]) -> usize {
    24 + entries
        .iter()
        .map(|(_, t)| t.wire_size() + 8)
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Value;

    #[test]
    fn byte_estimates_scale_with_tuples() {
        let t = Tuple::new("g", vec![Value::Int(1), Value::Double(2.0)]);
        let t = Arc::new(t);
        let chunk = StreamChunk {
            consumer: ConsumerId(1),
            entries: vec![(ProbeId(0), t.clone()), (ProbeId(1), t.clone())],
        };
        assert!(chunk_bytes(&chunk) > 2 * t.wire_size());
        assert_eq!(poll_result_bytes(&chunk.entries), chunk_bytes(&chunk));
        assert_eq!(poll_result_bytes(&[]), 24);
    }
}
