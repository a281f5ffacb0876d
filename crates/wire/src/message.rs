//! JMS-style messages: headers, selector-visible properties, and typed
//! bodies.

use crate::value::Value;
use simcore::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Globally unique message id within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// JMS delivery mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Fire-and-forget; the broker never persists (the paper's setting).
    #[default]
    NonPersistent,
    /// Broker persists before acknowledging the producer.
    Persistent,
}

/// Standard JMS headers (the subset the study exercises).
#[derive(Debug, Clone, PartialEq)]
pub struct Headers {
    /// Unique id, assigned by the sending session.
    pub message_id: MessageId,
    /// Destination (topic/queue) name; shared, so cloning the headers
    /// does not copy it.
    pub destination: Arc<str>,
    /// Send timestamp (set by the publishing client).
    pub timestamp: SimTime,
    /// Priority 0-9 (4 = default; the paper used non-priority settings).
    pub priority: u8,
    /// Delivery mode.
    pub delivery_mode: DeliveryMode,
    /// Correlation id, free-form.
    pub correlation_id: Option<u64>,
    /// Causal trace id (`simtrace`). Out-of-band instrumentation: it is
    /// carried through the middleware alongside the message but is NOT
    /// part of the wire encoding, so enabling tracing cannot perturb
    /// the calibrated transfer timings ([`Headers::wire_size`] and the
    /// codec ignore it; decode always yields `None`).
    pub trace: Option<simtrace::TraceId>,
    /// Virtual publish instant (`simslo` freshness plane). Out-of-band
    /// exactly like `trace`: rides with the message so the subscriber
    /// side can compute delivery age, contributes zero wire bytes, and
    /// is `None` whenever the SLO plane is off.
    pub published_at: Option<SimTime>,
}

impl Headers {
    /// Headers with defaults matching the paper's test configuration.
    pub fn new(
        message_id: MessageId,
        destination: impl Into<Arc<str>>,
        timestamp: SimTime,
    ) -> Self {
        Headers {
            message_id,
            destination: destination.into(),
            timestamp,
            priority: 4,
            delivery_mode: DeliveryMode::NonPersistent,
            correlation_id: None,
            trace: None,
            published_at: None,
        }
    }

    /// Encoded size of the headers on the wire. The `trace` id and the
    /// `published_at` stamp are deliberately excluded: observation must
    /// be free when off and must not change message timing when on.
    pub fn wire_size(&self) -> usize {
        // id + ts + prio + mode + corr flag/value + destination string.
        8 + 8 + 1 + 1 + 9 + 4 + self.destination.len()
    }
}

/// Message body variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `MapMessage`: ordered name→value pairs (BTreeMap for deterministic
    /// iteration and wire layout).
    Map(BTreeMap<String, Value>),
    /// `TextMessage`.
    Text(String),
    /// `BytesMessage` (length is what matters for the wire model; content
    /// is real bytes so the codec round-trips).
    Bytes(Vec<u8>),
}

impl Body {
    /// Encoded size of the body.
    pub fn wire_size(&self) -> usize {
        match self {
            Body::Map(m) => {
                4 + m
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.wire_size())
                    .sum::<usize>()
            }
            Body::Text(s) => 4 + s.len(),
            Body::Bytes(b) => 4 + b.len(),
        }
    }
}

/// Everything of a message that is fixed once it is built. One block,
/// shared by every clone of the message.
#[derive(Debug, Clone, PartialEq)]
struct Content {
    properties: BTreeMap<String, Value>,
    body: Body,
}

/// A complete JMS-style message.
///
/// A published message is an immutable event: brokers forward it,
/// retain it and deliver it, but never change it. `clone()` therefore
/// shares the properties and body (and the destination string) instead
/// of copying them; only the plain-data [`Headers`] are per clone, which
/// is what lets the publishing client stamp `trace` / `published_at`
/// before the first send. The *simulated* cost of copying and
/// serialising a message is charged through `OsModel::execute_metered`,
/// never through host copying.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Standard headers.
    pub headers: Headers,
    content: Arc<Content>,
}

impl Message {
    /// A message from its three parts.
    pub fn new(headers: Headers, properties: BTreeMap<String, Value>, body: Body) -> Self {
        Message {
            headers,
            content: Arc::new(Content { properties, body }),
        }
    }

    /// New map message.
    pub fn map(headers: Headers, entries: impl IntoIterator<Item = (String, Value)>) -> Self {
        Message::new(
            headers,
            BTreeMap::new(),
            Body::Map(entries.into_iter().collect()),
        )
    }

    /// New text message.
    pub fn text(headers: Headers, text: impl Into<String>) -> Self {
        Message::new(headers, BTreeMap::new(), Body::Text(text.into()))
    }

    /// Application properties, visible to selectors.
    pub fn properties(&self) -> &BTreeMap<String, Value> {
        &self.content.properties
    }

    /// Body.
    pub fn body(&self) -> &Body {
        &self.content.body
    }

    /// Set a selector-visible property (builder style). Copy-on-write:
    /// a message that is the only holder of its content (the builder
    /// case) is changed in place; a clone gets its own copy and the
    /// message it was cloned from is untouched.
    pub fn with_property(mut self, name: impl Into<String>, v: impl Into<Value>) -> Self {
        Arc::make_mut(&mut self.content)
            .properties
            .insert(name.into(), v.into());
        self
    }

    /// Look up a property (selector evaluation).
    pub fn property(&self, name: &str) -> Option<&Value> {
        self.properties().get(name)
    }

    /// Total encoded size: headers + properties + body tag + body.
    pub fn wire_size(&self) -> usize {
        self.headers.wire_size()
            + 4
            + self
                .properties()
                .iter()
                .map(|(k, v)| 4 + k.len() + v.wire_size())
                .sum::<usize>()
            + 1
            + self.body().wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::map(
            Headers::new(MessageId(1), "power.monitor", SimTime::from_secs(1)),
            [
                ("watts".to_string(), Value::Double(42.5)),
                ("gen".to_string(), Value::Int(7)),
            ],
        )
        .with_property("id", 7i32)
    }

    #[test]
    fn property_roundtrip() {
        let m = msg();
        assert_eq!(m.property("id"), Some(&Value::Int(7)));
        assert_eq!(m.property("nope"), None);
    }

    #[test]
    fn clone_shares_content_and_destination() {
        let m = msg();
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.content, &c.content));
        assert!(Arc::ptr_eq(&m.headers.destination, &c.headers.destination));
        assert_eq!(m, c);
    }

    #[test]
    fn with_property_on_a_clone_leaves_the_original_untouched() {
        let m = msg();
        let c = m.clone().with_property("region", "uk");
        assert_eq!(c.property("region"), Some(&Value::Str("uk".into())));
        assert_eq!(m.property("region"), None);
        assert_eq!(m, msg());
        assert!(!Arc::ptr_eq(&m.content, &c.content));
        assert_ne!(m, c);
    }

    #[test]
    fn stamping_headers_of_a_clone_keeps_the_content_shared() {
        let m = msg();
        let mut c = m.clone();
        c.headers.published_at = Some(SimTime::from_secs(2));
        assert_eq!(m.headers.published_at, None);
        assert!(Arc::ptr_eq(&m.content, &c.content));
    }

    #[test]
    fn wire_size_is_sum_of_parts() {
        let m = msg();
        let h = m.headers.wire_size();
        let b = m.body().wire_size();
        assert_eq!(
            m.wire_size(),
            h + 4 + (4 + 2 + Value::Int(7).wire_size()) + 1 + b
        );
        // Headers include the destination name.
        assert!(h > "power.monitor".len());
    }

    #[test]
    fn body_sizes() {
        assert_eq!(Body::Text("abc".into()).wire_size(), 7);
        assert_eq!(Body::Bytes(vec![0; 10]).wire_size(), 14);
        let map: BTreeMap<String, Value> = [("k".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(Body::Map(map).wire_size(), 4 + 4 + 1 + 5);
    }

    #[test]
    fn defaults_match_paper_settings() {
        let h = Headers::new(MessageId(9), "t", SimTime::ZERO);
        assert_eq!(h.delivery_mode, DeliveryMode::NonPersistent);
        assert_eq!(h.priority, 4);
    }
}
