//! Calibration and per-connection settings for the Narada-like broker.
//!
//! All constants are calibrated for the paper's reference node (Pentium
//! III 866 MHz running Sun HotSpot 1.4.2) and documented against the
//! observation they reproduce. They are *inputs* to the mechanisms — the
//! curves in figs 3–9 emerge from queueing, thread inflation and memory
//! exhaustion, not from these numbers directly. No scenario varies them,
//! so they are constants; what a scenario varies is the broker's
//! `dbn_broadcast` flag and each connection's [`ConnSettings`].

use jms::AckMode;
use simcore::SimDuration;
use simnet::session::ReconnectPolicy;
use simnet::Transport;
use simos::Bytes;

// --- CPU costs on the broker and client JVMs ----------------------------

/// Client: serialize a message (fixed part).
pub const CLIENT_SERIALIZE_BASE: SimDuration = SimDuration::from_micros(120);
/// Client: serialize, per byte.
pub const CLIENT_SERIALIZE_PER_BYTE_NS: u64 = 350;
/// Client: deserialize + listener callback (fixed part).
pub const CLIENT_DELIVER_BASE: SimDuration = SimDuration::from_micros(150);
/// Client: deserialize, per byte.
pub const CLIENT_DELIVER_PER_BYTE_NS: u64 = 350;
/// Broker: accept + deserialize + topic lookup per inbound message.
pub const BROKER_PUBLISH_BASE: SimDuration = SimDuration::from_micros(350);
/// Broker: per-byte deserialize/copy cost.
pub const BROKER_PER_BYTE_NS: u64 = 600;
/// Broker: enqueue + serialize one outbound delivery.
pub const BROKER_DELIVER_BASE: SimDuration = SimDuration::from_micros(300);
/// Broker: process one acknowledgement (UDP reliability layer).
pub const BROKER_ACK_PROCESS: SimDuration = SimDuration::from_micros(2_600);
/// Broker: extra per-message cost of the NIO event-loop path (selector
/// wakeups, buffer juggling on 1.4-era NIO).
pub const NIO_EXTRA: SimDuration = SimDuration::from_micros(450);
/// Broker: cost to accept a connection and start its thread.
pub const BROKER_ACCEPT: SimDuration = SimDuration::from_millis(2);

// --- UDP reliability layer (the JMS-over-UDP adapter) -------------------

/// Publisher waits this long for the broker's publish-ack before
/// retransmitting.
pub const UDP_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(200);
/// Maximum publish retransmissions before the publisher gives up.
pub const UDP_MAX_RETRIES: u32 = 2;
/// CLIENT_ACKNOWLEDGE: subscriber batches acks and flushes at this
/// interval; gaps detected at the broker trigger one retransmission.
pub const UDP_CLIENT_ACK_FLUSH: SimDuration = SimDuration::from_secs(1);

// --- Broker memory model ------------------------------------------------

/// Heap retained per live connection (session, buffers). The broker
/// charges nothing per queued undelivered message (ROADMAP item 4).
pub const HEAP_PER_CONN: Bytes = Bytes::kib(120);

/// Per-connection client settings (transport + ack mode), i.e. what the
/// paper's Table II varies, plus the optional fault-tolerance layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnSettings {
    /// Underlying transport.
    pub transport: Transport,
    /// JMS acknowledge mode.
    pub ack_mode: AckMode,
    /// Crash detection + reconnect policy (`None` = paper behaviour:
    /// clients never notice a dead broker).
    pub reconnect: Option<ReconnectPolicy>,
}

impl ConnSettings {
    /// TCP + AUTO_ACKNOWLEDGE (the paper's default and recommendation).
    pub fn tcp_auto() -> Self {
        ConnSettings {
            transport: Transport::Tcp,
            ack_mode: AckMode::Auto,
            reconnect: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        const _: () = assert!(BROKER_PUBLISH_BASE.as_micros() > 0);
        const _: () = assert!(UDP_MAX_RETRIES >= 1);
    }

    #[test]
    fn conn_settings_default_shape() {
        let s = ConnSettings::tcp_auto();
        assert_eq!(s.transport, Transport::Tcp);
        assert_eq!(s.ack_mode, AckMode::Auto);
        assert_eq!(s.reconnect, None);
        let p = ReconnectPolicy::default();
        assert!(p.detect_timeout > p.heartbeat_interval);
        assert!(p.backoff_max >= p.backoff_initial);
        assert!(p.max_attempts >= 1);
    }
}
