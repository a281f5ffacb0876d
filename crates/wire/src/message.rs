//! JMS-style messages: headers, selector-visible properties, and typed
//! bodies.

use crate::value::Value;
use simcore::SimTime;
use std::borrow::Cow;
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
        }
    }

    /// Encoded size of the headers on the wire.
    pub fn wire_size(&self) -> usize {
        // id + ts + prio + mode + corr flag/value + destination string.
        8 + 8 + 1 + 1 + 9 + 4 + self.destination.len()
    }
}

/// Name→value pairs — a map body, or a message's properties — as one
/// block: a boxed slice sorted by name (byte-wise) with each name once.
///
/// Collecting into it has `BTreeMap`'s semantics: whatever order the
/// pairs come in, iteration (and therefore the wire layout) is in name
/// order, and the last value given for a name wins. A schema name is
/// borrowed (`&'static str`), so a reading built from its schema owns no
/// key; names read off the wire are owned.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueMap(Box<[(Cow<'static, str>, Value)]>);

impl ValueMap {
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(name))
    }

    /// The value under `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.search(name).ok().map(|i| &self.0[i].1)
    }

    /// Pairs in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (&**k, v))
    }

    /// Values in name order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there is no pair.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Encoded size: a count, then a length-prefixed name and a value
    /// per pair.
    pub fn wire_size(&self) -> usize {
        4 + self
            .iter()
            .map(|(k, v)| 4 + k.len() + v.wire_size())
            .sum::<usize>()
    }

    /// Set `name` to `value`, keeping the order.
    fn insert(&mut self, name: Cow<'static, str>, value: Value) {
        match self.search(&name) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => {
                let mut entries = std::mem::take(&mut self.0).into_vec();
                entries.reserve_exact(1);
                entries.insert(i, (name, value));
                self.0 = entries.into_boxed_slice();
            }
        }
    }
}

impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for ValueMap {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut entries: Vec<(Cow<'static, str>, Value)> =
            iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // A schema builder and the decoder hand their pairs over in name
        // order, each name once: kept as given.
        if entries.is_sorted_by(|a, b| a.0 < b.0) {
            return ValueMap(entries.into_boxed_slice());
        }
        // Stable: equal names stay in input order, so the value that ends
        // up in the kept (first) slot of a run is the last one given.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        ValueMap(entries.into_boxed_slice())
    }
}

/// Message body variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `MapMessage`: name→value pairs in name order (deterministic
    /// iteration and wire layout).
    Map(ValueMap),
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
            Body::Map(m) => m.wire_size(),
            Body::Text(s) => 4 + s.len(),
            Body::Bytes(b) => 4 + b.len(),
        }
    }
}

/// Everything of a message that is fixed once it is built. One block,
/// shared by every clone of the message.
#[derive(Debug, Clone, PartialEq)]
struct Content {
    properties: ValueMap,
    body: Body,
    /// Encoded size of `properties`, the body tag and `body`: measured
    /// when they are set, so no hop walks them again.
    wire_size: usize,
}

impl Content {
    fn new(properties: ValueMap, body: Body) -> Self {
        let wire_size = properties.wire_size() + 1 + body.wire_size();
        Content {
            properties,
            body,
            wire_size,
        }
    }
}

/// A complete JMS-style message.
///
/// A published message is an immutable event: brokers forward it,
/// retain it and deliver it, but never change it. `clone()` therefore
/// shares the properties and body (and the destination string) instead
/// of copying them; only the plain-data [`Headers`] are per clone. The
/// *simulated* cost of copying and serialising a message
/// is charged through `OsModel::execute_metered`, never through host
/// copying.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Standard headers.
    pub headers: Headers,
    content: Arc<Content>,
}

impl Message {
    /// A message from its three parts.
    pub fn new(headers: Headers, properties: ValueMap, body: Body) -> Self {
        Message {
            headers,
            content: Arc::new(Content::new(properties, body)),
        }
    }

    /// New map message.
    pub fn map<K: Into<Cow<'static, str>>>(
        headers: Headers,
        entries: impl IntoIterator<Item = (K, Value)>,
    ) -> Self {
        Message::new(
            headers,
            ValueMap::default(),
            Body::Map(entries.into_iter().collect()),
        )
    }

    /// New text message.
    pub fn text(headers: Headers, text: impl Into<String>) -> Self {
        Message::new(headers, ValueMap::default(), Body::Text(text.into()))
    }

    /// Application properties, visible to selectors.
    pub fn properties(&self) -> &ValueMap {
        &self.content.properties
    }

    /// Body.
    pub fn body(&self) -> &Body {
        &self.content.body
    }

    /// Set a selector-visible property (builder style). Copy-on-write:
    /// a message that is the only holder of its content (the builder
    /// case) gives its parts to the new block; a clone gets its own copy
    /// and the message it was cloned from is untouched, cached size
    /// included. Either way the block is measured again.
    pub fn with_property(
        mut self,
        name: impl Into<Cow<'static, str>>,
        v: impl Into<Value>,
    ) -> Self {
        let Content {
            mut properties,
            body,
            ..
        } = Arc::unwrap_or_clone(self.content);
        properties.insert(name.into(), v.into());
        self.content = Arc::new(Content::new(properties, body));
        self
    }

    /// Look up a property (selector evaluation).
    pub fn property(&self, name: &str) -> Option<&Value> {
        self.properties().get(name)
    }

    /// Total encoded size: headers + properties + body tag + body.
    pub fn wire_size(&self) -> usize {
        self.headers.wire_size() + self.content.wire_size
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
        c.headers.correlation_id = Some(2);
        assert_eq!(m.headers.correlation_id, None);
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
        let map: ValueMap = [("k", Value::Int(1))].into_iter().collect();
        assert_eq!(Body::Map(map).wire_size(), 4 + 4 + 1 + 5);
    }

    #[test]
    fn value_map_sorts_by_name_and_the_last_value_wins() {
        let map: ValueMap = [
            ("b".to_string(), Value::Int(1)),
            ("a_1".to_string(), Value::Int(2)),
            ("b".to_string(), Value::Int(3)),
            ("a".to_string(), Value::Int(4)),
            ("b".to_string(), Value::Int(5)),
        ]
        .into_iter()
        .collect();
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(
            pairs,
            [
                ("a", &Value::Int(4)),
                ("a_1", &Value::Int(2)),
                ("b", &Value::Int(5))
            ]
        );
        assert_eq!(map.get("b"), Some(&Value::Int(5)));
        assert_eq!(map.get("c"), None);
        assert_eq!(map.len(), 3);
        assert!(ValueMap::default().is_empty());
    }

    fn names(map: &ValueMap) -> Vec<&str> {
        map.iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn value_map_keeps_strictly_ascending_input_as_given() {
        let map: ValueMap = [
            ("a", Value::Int(1)),
            ("a_1", Value::Int(2)),
            ("b", Value::Int(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(names(&map), ["a", "a_1", "b"]);
        assert_eq!(map.get("a_1"), Some(&Value::Int(2)));
    }

    #[test]
    fn value_map_ascending_with_a_repeated_name_keeps_the_last_value() {
        let map: ValueMap = [
            ("a", Value::Int(1)),
            ("b", Value::Int(2)),
            ("b", Value::Int(3)),
            ("c", Value::Int(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(names(&map), ["a", "b", "c"]);
        assert_eq!(map.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn value_map_with_one_pair_out_of_order_is_sorted() {
        let map: ValueMap = [
            ("a", Value::Int(1)),
            ("c", Value::Int(2)),
            ("b", Value::Int(3)),
            ("d", Value::Int(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(names(&map), ["a", "b", "c", "d"]);
        assert_eq!(map.get("b"), Some(&Value::Int(3)));
        assert_eq!(map.get("c"), Some(&Value::Int(2)));
    }

    #[test]
    fn with_property_replaces_or_inserts_in_order_and_keeps_the_size_exact() {
        let m = msg()
            .with_property("zone", 1i32)
            .with_property("area", "north")
            .with_property("id", 8i32);
        let names: Vec<_> = m.properties().iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["area", "id", "zone"]);
        assert_eq!(m.property("id"), Some(&Value::Int(8)));
        assert_eq!(
            m.wire_size(),
            m.headers.wire_size() + m.properties().wire_size() + 1 + m.body().wire_size()
        );
    }

    #[test]
    fn defaults_match_paper_settings() {
        let h = Headers::new(MessageId(9), "t", SimTime::ZERO);
        assert_eq!(h.delivery_mode, DeliveryMode::NonPersistent);
        assert_eq!(h.priority, 4);
    }
}
