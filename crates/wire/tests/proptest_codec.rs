//! Property tests: the codec round-trips every representable message and
//! tuple, and the wire-size model always matches the true encoded length.

use proptest::prelude::*;
use simcore::SimTime;
use wire::{
    decode_message, decode_tuple, encode_message, encode_tuple, Body, DeliveryMode, Headers,
    Message, MessageId, Tuple, Value,
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
        "[a-zA-Z0-9 _.,:-]{0,64}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        arb_char_content(32).prop_map(|(content, width)| Value::Char { content, width }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        proptest::collection::btree_map("[a-z_]{1,12}", arb_value(), 0..12).prop_map(Body::Map),
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
        Message::new(headers, props, body)
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

proptest! {
    #[test]
    fn message_roundtrip(m in arb_message()) {
        let encoded = encode_message(&m);
        prop_assert_eq!(encoded.len(), m.wire_size());
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
            prop_assert!(decode_message(encoded.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any byte soup must decode to Ok or Err without panicking.
        let _ = decode_message(bytes::Bytes::from(bytes.clone()));
        let _ = decode_tuple(bytes::Bytes::from(bytes));
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
