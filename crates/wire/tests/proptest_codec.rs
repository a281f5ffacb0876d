//! Property tests: the codec round-trips every representable message and
//! tuple, the wire-size model always matches the true encoded length,
//! [`ValueMap`] is a `BTreeMap` and [`Text`] a `String` in everything a
//! reader or the wire can see.

use proptest::prelude::*;
use simcore::SimTime;
use std::collections::BTreeMap;
use wire::{
    decode_message, decode_tuple, encode_message, encode_tuple, Body, DeliveryMode, Headers,
    Message, MessageId, Text, Tuple, Value, ValueMap,
};

/// ASCII-ish strings without trailing spaces (CHAR(n) strips trailing pad
/// spaces on decode, so trailing-space content is intentionally not
/// representable).
fn arb_char_content(max_width: u16) -> impl Strategy<Value = (String, u16)> {
    (0..=max_width).prop_flat_map(move |width| {
        proptest::string::string_regex(&format!("[a-zA-Z0-9_ ]{{0,{width}}}"))
            .unwrap()
            .prop_map(move |s| (s.trim_end_matches(' ').to_owned(), width))
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        // Finite floats only: NaN breaks PartialEq-based round-trip
        // assertions, and the middlewares never transmit NaN telemetry.
        proptest::num::f32::NORMAL.prop_map(Value::Float),
        proptest::num::f64::NORMAL.prop_map(Value::Double),
        "[a-zA-Z0-9 _.,:-]{0,64}".prop_map(|s| Value::Str(s.into())),
        any::<bool>().prop_map(Value::Bool),
        arb_char_content(32).prop_map(|(content, width)| Value::Char {
            content: content.into(),
            width
        }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        proptest::collection::btree_map("[a-z_]{1,12}", arb_value(), 0..12)
            .prop_map(|m| Body::Map(m.into_iter().collect())),
        "[ -~]{0,256}".prop_map(Body::Text),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(Body::Bytes),
    ]
}

prop_compose! {
    fn arb_message()(
        id in any::<u64>(),
        dest in "[a-z./]{1,40}",
        ts in 0u64..u64::MAX / 2,
        prio in 0u8..10,
        persistent in any::<bool>(),
        corr in proptest::option::of(any::<u64>()),
        props in proptest::collection::btree_map("[a-z]{1,8}", arb_value(), 0..6),
        body in arb_body(),
    ) -> Message {
        let mut headers = Headers::new(MessageId(id), dest, SimTime::from_micros(ts));
        headers.priority = prio;
        headers.delivery_mode = if persistent {
            DeliveryMode::Persistent
        } else {
            DeliveryMode::NonPersistent
        };
        headers.correlation_id = corr;
        Message::new(headers, props.into_iter().collect(), body)
    }
}

prop_compose! {
    fn arb_tuple()(
        table in "[a-z_]{1,24}",
        values in proptest::collection::vec(arb_value(), 0..16),
        ts in 0u64..u64::MAX / 2,
    ) -> Tuple {
        let mut t = Tuple::new(table, values);
        t.inserted_at = SimTime::from_micros(ts);
        t
    }
}

/// Strings of one- to four-byte characters, 0 to 30 bytes or so long:
/// both sides of [`Text::INLINE`], the edge itself included.
fn arb_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        0x20u32..0x7f,
        0x20u32..0x7f,
        0xa0u32..0x800,
        0x800u32..0xd800,
        0x1_0000u32..0x11_0000
    ]
    .prop_map(|u| char::from_u32(u).expect("no surrogate in these ranges"));
    proptest::collection::vec(ch, 0..30).prop_map(|chars| {
        let mut s = String::new();
        for c in chars {
            if s.len() + c.len_utf8() <= 30 {
                s.push(c);
            }
        }
        s
    })
}

/// The map layout written straight from a `BTreeMap`: what the codec
/// produced when messages held one.
fn reference_map(buf: &mut Vec<u8>, map: &BTreeMap<String, Value>) {
    buf.extend_from_slice(&(map.len() as u32).to_le_bytes());
    for (k, v) in map {
        buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
        buf.extend_from_slice(k.as_bytes());
        wire::codec::encode_value(buf, v);
    }
}

/// A valid encoding cut right before a 32-bit element count, continued
/// with `count` and `tail`.
fn with_count(prefix: &[u8], count: u32, tail: &[u8]) -> Vec<u8> {
    let mut buf = prefix.to_vec();
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(tail);
    buf
}

proptest! {
    #[test]
    fn message_roundtrip(m in arb_message()) {
        let encoded = encode_message(&m);
        prop_assert_eq!(encoded.len(), m.wire_size());
        // A property set on a clone is sized on the clone alone.
        let c = m.clone().with_property("id", 7i32).with_property("zz", "top");
        prop_assert_eq!(encode_message(&c).len(), c.wire_size());
        prop_assert_eq!(m.wire_size(), encoded.len());
        let back = decode_message(encoded).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn tuple_roundtrip(t in arb_tuple()) {
        let encoded = encode_tuple(&t);
        prop_assert_eq!(encoded.len(), t.wire_size());
        let back = decode_tuple(encoded).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn truncation_always_errors_never_panics(m in arb_message(), frac in 0.0f64..1.0) {
        let encoded = encode_message(&m);
        let cut = ((encoded.len() as f64) * frac) as usize;
        if cut < encoded.len() {
            prop_assert!(decode_message(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any byte soup must decode to Ok or Err without panicking.
        let _ = decode_message(&bytes);
        let _ = decode_tuple(&bytes);
    }

    #[test]
    fn sql_cmp_is_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        match (a.sql_cmp(&b), b.sql_cmp(&a)) {
            (Some(x), Some(y)) => prop_assert_eq!(x, y.reverse()),
            (None, None) => {}
            (x, y) => prop_assert!(false, "asymmetric comparability: {:?} vs {:?}", x, y),
        }
        // Reflexivity up to NaN (excluded by the generator).
        if a.sql_cmp(&a).is_some() {
            prop_assert_eq!(a.sql_cmp(&a), Some(Ordering::Equal));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn value_map_is_a_btree_map(
        pairs in proptest::collection::vec(("[ab_1]{1,3}", arb_value()), 0..64),
        probes in proptest::collection::vec("[ab_1]{1,3}", 0..8),
    ) {
        let map: ValueMap = pairs.iter().cloned().collect();
        let mut reference = BTreeMap::new();
        for (k, v) in pairs {
            reference.insert(k, v);
        }
        prop_assert_eq!(map.len(), reference.len());
        prop_assert!(map.iter().eq(reference.iter().map(|(k, v)| (k.as_str(), v))));
        prop_assert!(map.values().eq(reference.values()));
        for name in reference.keys().chain(&probes) {
            prop_assert_eq!(map.get(name), reference.get(name));
        }
        // Every encoded byte: the same map as properties and as body.
        let headers = Headers::new(MessageId(1), "t", SimTime::ZERO);
        let m = Message::new(headers.clone(), map.clone(), Body::Map(map));
        let encoded = encode_message(&m);
        let mut expected = encoded[..headers.wire_size()].to_vec();
        reference_map(&mut expected, &reference);
        expected.push(0x10);
        reference_map(&mut expected, &reference);
        prop_assert_eq!(m.wire_size(), expected.len());
        prop_assert_eq!(encoded, expected);
    }

    #[test]
    fn text_is_a_string(a in arb_string(), b in arb_string(), width in 0u16..40) {
        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
        prop_assert_eq!(ta.len(), a.len());
        prop_assert_eq!(ta.is_empty(), a.is_empty());
        prop_assert_eq!(ta.as_bytes(), a.as_bytes());
        prop_assert_eq!(&*ta, a.as_str());
        prop_assert_eq!(ta.clone(), Text::from(a.clone()));
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(ta.partial_cmp(&tb), a.partial_cmp(&b));
        prop_assert_eq!(format!("{ta}|{ta:?}|{ta:<25}|"), format!("{a}|{a:?}|{a:<25}|"));
        prop_assert_eq!(tb.to_string(), b);
        // On the wire: the bytes a `String` cell wrote, and back.
        let mut encoded = Vec::new();
        wire::codec::encode_value(&mut encoded, &Value::Str(ta.clone()));
        let mut expected = vec![0x05];
        expected.extend_from_slice(&(a.len() as u32).to_le_bytes());
        expected.extend_from_slice(a.as_bytes());
        prop_assert_eq!(&encoded, &expected);
        let back = wire::codec::decode_value(&mut encoded.as_slice());
        prop_assert_eq!(back, Ok(Value::Str(ta)));
        // A CHAR(n) cell keeps whole characters and pads with spaces.
        let cell = Value::fixed_char(a.as_str(), width);
        let kept = cell.as_str().expect("a string cell");
        prop_assert!(a.starts_with(kept) && kept.len() <= usize::from(width));
        let dropped = a[kept.len()..].chars().next();
        prop_assert!(dropped.is_none_or(|c| kept.len() + c.len_utf8() > usize::from(width)));
        let mut encoded = Vec::new();
        wire::codec::encode_value(&mut encoded, &cell);
        let mut expected = vec![0x07];
        expected.extend_from_slice(&width.to_le_bytes());
        expected.extend_from_slice(kept.as_bytes());
        expected.extend_from_slice(&b" ".repeat(usize::from(width) - kept.len()));
        prop_assert_eq!(encoded, expected);
    }

    #[test]
    fn any_count_after_a_valid_prefix_never_panics(
        m in arb_message(),
        t in arb_tuple(),
        count in prop_oneof![any::<u32>(), 0u32..64, Just(u32::MAX)],
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Random bytes die at the first length prefix; these reach the
        // element counts of the properties, the map body and the tuple.
        let headers = m.headers.wire_size();
        let text = encode_message(&Message::text(m.headers.clone(), ""));
        let _ = decode_message(with_count(&text[..headers], count, &tail));
        let mut to_body = text[..headers + 4].to_vec();
        to_body.push(0x10);
        let _ = decode_message(with_count(&to_body, count, &tail));
        let table = &encode_tuple(&t)[..4 + t.table.len()];
        let _ = decode_tuple(with_count(table, count, &tail));
    }
}
