//! Configuration and CPU cost model for the Narada-like broker.
//!
//! All constants are calibrated for the paper's reference node (Pentium
//! III 866 MHz running Sun HotSpot 1.4.2) and documented against the
//! observation they reproduce. They are *inputs* to the mechanisms — the
//! curves in figs 3–9 emerge from queueing, thread inflation and memory
//! exhaustion, not from these numbers directly.

use jms::AckMode;
use simcore::SimDuration;
use simnet::session::ReconnectPolicy;
use simnet::Transport;
use simos::Bytes;

/// Per-operation CPU costs on the broker and client JVMs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Client: serialize a message (fixed part).
    pub client_serialize_base: SimDuration,
    /// Client: serialize, per byte.
    pub client_serialize_per_byte_ns: u64,
    /// Client: deserialize + listener callback (fixed part).
    pub client_deliver_base: SimDuration,
    /// Client: deserialize, per byte.
    pub client_deliver_per_byte_ns: u64,
    /// Broker: accept + deserialize + topic lookup per inbound message.
    pub broker_publish_base: SimDuration,
    /// Broker: per-byte deserialize/copy cost.
    pub broker_per_byte_ns: u64,
    /// Broker: enqueue + serialize one outbound delivery.
    pub broker_deliver_base: SimDuration,
    /// Broker: process one acknowledgement (UDP reliability layer).
    pub broker_ack_process: SimDuration,
    /// Broker: extra per-message cost of the NIO event-loop path
    /// (selector wakeups, buffer juggling on 1.4-era NIO).
    pub nio_extra: SimDuration,
    /// Broker: cost to accept a connection and start its thread.
    pub broker_accept: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            client_serialize_base: SimDuration::from_micros(120),
            client_serialize_per_byte_ns: 350,
            client_deliver_base: SimDuration::from_micros(150),
            client_deliver_per_byte_ns: 350,
            broker_publish_base: SimDuration::from_micros(350),
            broker_per_byte_ns: 600,
            broker_deliver_base: SimDuration::from_micros(300),
            broker_ack_process: SimDuration::from_micros(2_600),
            nio_extra: SimDuration::from_micros(450),
            broker_accept: SimDuration::from_millis(2),
        }
    }
}

/// UDP reliability layer settings (the JMS-over-UDP adapter).
#[derive(Debug, Clone)]
pub struct UdpReliability {
    /// Publisher waits this long for the broker's publish-ack before
    /// retransmitting.
    pub ack_timeout: SimDuration,
    /// Maximum publish retransmissions before the publisher gives up.
    pub max_retries: u32,
    /// CLIENT_ACKNOWLEDGE: subscriber batches acks and flushes at this
    /// interval; gaps detected at the broker trigger one retransmission.
    pub client_ack_flush: SimDuration,
}

impl Default for UdpReliability {
    fn default() -> Self {
        UdpReliability {
            ack_timeout: SimDuration::from_millis(200),
            max_retries: 2,
            client_ack_flush: SimDuration::from_secs(1),
        }
    }
}

/// Broker memory model.
#[derive(Debug, Clone)]
pub struct BrokerMemory {
    /// Heap retained per live connection (session, buffers).
    pub heap_per_conn: Bytes,
    /// Heap per queued undelivered message.
    pub heap_per_pending_msg: Bytes,
}

impl Default for BrokerMemory {
    fn default() -> Self {
        BrokerMemory {
            heap_per_conn: Bytes::kib(120),
            heap_per_pending_msg: Bytes::kib(2),
        }
    }
}

/// Full configuration for one broker deployment.
#[derive(Debug, Clone, Default)]
pub struct NaradaConfig {
    /// CPU cost model.
    pub costs: CostModel,
    /// UDP reliability settings.
    pub udp: UdpReliability,
    /// Memory model.
    pub memory: BrokerMemory,
    /// Whether the inter-broker layer uses the v1.1.3 broadcast behaviour
    /// (the deficiency the paper found) or correct subscription-aware
    /// routing (the fix the authors expected from the next release).
    pub dbn_broadcast: bool,
}

impl NaradaConfig {
    /// The configuration matching the paper's NaradaBrokering v1.1.3.
    pub fn v1_1_3() -> Self {
        NaradaConfig {
            dbn_broadcast: true,
            ..NaradaConfig::default()
        }
    }

    /// A hypothetical fixed release with subscription-aware routing
    /// (ablation).
    pub fn routed() -> Self {
        NaradaConfig {
            dbn_broadcast: false,
            ..NaradaConfig::default()
        }
    }
}

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
        let c = NaradaConfig::default();
        assert!(c.costs.broker_publish_base > SimDuration::ZERO);
        assert!(c.udp.max_retries >= 1);
        assert!(!c.dbn_broadcast);
        assert!(NaradaConfig::v1_1_3().dbn_broadcast);
        assert!(!NaradaConfig::routed().dbn_broadcast);
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
