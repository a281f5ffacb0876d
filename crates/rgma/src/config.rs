//! Calibration and scenario settings for the R-GMA-like middleware.
//!
//! Calibrated to gLite 3.0 R-GMA on the paper's testbed: Java servlets in
//! Tomcat on Pentium III 866 MHz nodes, everything over HTTP. The heavy
//! per-request servlet costs plus periodic streaming/mediation cycles are
//! what produce the paper's long Process Time (fig 15) and the growth in
//! figs 11–14; nothing below hard-codes an RTT. What no scenario varies is
//! a constant; what one does is a field of [`RgmaConfig`].

use simcore::SimDuration;
use simos::Bytes;

// --- CPU costs on R-GMA server nodes (servlet container + engine) -------

/// Servlet dispatch + HTTP parsing for any request.
pub const SERVLET_DISPATCH: SimDuration = SimDuration::from_micros(2_100);
/// Handling one INSERT: SQL parse + validate + storage write (fixed).
pub const INSERT_BASE: SimDuration = SimDuration::from_micros(6_200);
/// INSERT cost per SQL text byte.
pub const INSERT_PER_BYTE_NS: u64 = 2_500;
/// Producer side: assembling and sending one stream chunk.
pub const STREAM_SEND: SimDuration = SimDuration::from_micros(3_000);
/// Consumer side: ingesting one stream chunk (fixed).
pub const CHUNK_INGEST_BASE: SimDuration = SimDuration::from_micros(6_000);
/// Consumer side: per tuple in an ingested chunk.
pub const PER_TUPLE: SimDuration = SimDuration::from_micros(1_500);
/// Answering one subscriber poll.
pub const POLL_ANSWER: SimDuration = SimDuration::from_micros(3_800);
/// Registry: one register/lookup operation.
pub const REGISTRY_OP: SimDuration = SimDuration::from_micros(3_000);
/// Creating a server-side producer/consumer instance.
pub const CREATE_INSTANCE: SimDuration = SimDuration::from_millis(12);
/// Client-side cost to build + parse HTTP (driver JVM).
pub const CLIENT_HTTP: SimDuration = SimDuration::from_micros(500);

// --- Memory model for R-GMA servers -------------------------------------

/// Heap per server-side producer instance (memory storage bookkeeping).
pub const HEAP_PER_PRODUCER: Bytes = Bytes::kib(420);
/// Heap per server-side consumer instance.
pub const HEAP_PER_CONSUMER: Bytes = Bytes::kib(380);
/// Heap per stored/buffered tuple.
pub const HEAP_PER_TUPLE: Bytes = Bytes::kib(2);

// --- Periodic cycles and retention ---------------------------------------

/// Producer streaming cycle: buffered tuples are flushed to attached
/// consumer streams at this period.
pub const STREAMING_PERIOD: SimDuration = SimDuration::from_millis(1_500);
/// Consumer mediation cycle: the plan is refreshed against the registry
/// at this period (new producers join the plan here).
pub const PLAN_REFRESH: SimDuration = SimDuration::from_secs(5);
/// Registry propagation delay: a registration becomes visible to lookups
/// only after this long (drives the warm-up loss).
pub const REGISTRY_PROPAGATION: SimDuration = SimDuration::from_secs(4);
/// Latest-retention period configured on Primary Producers (paper: 30 s).
pub const LATEST_RETENTION: SimDuration = SimDuration::from_secs(30);

// --- Recovery (armed by [`RgmaConfig::recover`]) -------------------------

/// Soft-state refresh: servlets re-register their instances with the
/// registry at this period, so a restarted (wiped) registry re-learns
/// them.
pub const SOFT_STATE_REFRESH: SimDuration = SimDuration::from_secs(10);
/// First backoff step of a client's retry of a 5xx response (producer
/// creates and inserts).
pub const RETRY_BACKOFF_INITIAL: SimDuration = SimDuration::from_millis(500);
/// Backoff ceiling of that retry.
pub const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_secs(8);
/// Retries of one request before the client gives up.
pub const RETRY_MAX_RETRIES: u32 = 6;

/// What an R-GMA scenario varies.
#[derive(Debug, Clone)]
pub struct RgmaConfig {
    /// Subscriber poll period against the Consumer servlet (the paper
    /// polled every 100 ms and noted the quantization error).
    pub poll_period: SimDuration,
    /// When a stream attaches to a producer instance, tuples newer than
    /// this window are replayed from the producer's outgoing buffer;
    /// anything older was only ever in storage and is lost to continuous
    /// queries — the warm-up loss window.
    pub attach_replay: SimDuration,
    /// History-retention period (paper: 1 min).
    pub history_retention: SimDuration,
    /// The Secondary Producer's deliberate batch delay (confirmed as 30 s
    /// by the R-GMA developers in §III.F.3).
    pub secondary_flush: SimDuration,
    /// Client and servlet recovery: clients retry 5xx responses with
    /// backoff and servlets re-register their instances every
    /// [`SOFT_STATE_REFRESH`]. Off = fail fast and fire-and-forget
    /// registrations, the paper behaviour.
    pub recover: bool,
}

impl RgmaConfig {
    /// The gLite 3.0 configuration as tested in the paper.
    pub fn glite_3_0() -> Self {
        RgmaConfig {
            poll_period: SimDuration::from_millis(100),
            attach_replay: SimDuration::from_secs(6),
            history_retention: SimDuration::from_secs(60),
            secondary_flush: SimDuration::from_secs(30),
            recover: false,
        }
    }

    /// Ablation: a Secondary Producer without the deliberate 30 s delay.
    pub fn no_secondary_delay() -> Self {
        RgmaConfig {
            secondary_flush: SimDuration::from_millis(500),
            ..Self::glite_3_0()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let c = RgmaConfig::glite_3_0();
        assert_eq!(c.poll_period, SimDuration::from_millis(100));
        const _: () = assert!(LATEST_RETENTION.as_micros() == 30_000_000);
        assert_eq!(c.history_retention, SimDuration::from_secs(60));
        assert_eq!(c.secondary_flush, SimDuration::from_secs(30));
        assert!(RgmaConfig::no_secondary_delay().secondary_flush < SimDuration::from_secs(1));
        // Fault-tolerance layers are strictly opt-in.
        assert!(!c.recover);
        const _: () = assert!(RETRY_BACKOFF_MAX.as_micros() >= RETRY_BACKOFF_INITIAL.as_micros());
        const _: () = assert!(RETRY_MAX_RETRIES >= 1);
    }
}
