//! Property tests for the selector language: minisql's predicate over a
//! message's properties.

use jms::Selector;
use minisql::{parse_predicate, ParseError, Predicate};
use proptest::prelude::*;
use simcore::SimTime;
use std::collections::BTreeMap;
use wire::{Headers, Message, MessageId, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        proptest::num::f64::NORMAL.prop_map(Value::Double),
        "[a-z%_]{0,12}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Generate syntactically valid selectors by construction: `column op
/// literal` under `AND` / `OR` / `NOT` and parentheses.
fn arb_selector() -> impl Strategy<Value = String> {
    const OPS: &[&str] = &["=", "<>", "<", "<=", ">", ">="];
    let ident = "[a-c]";
    let op = (0..OPS.len()).prop_map(|i| OPS[i]);
    let atom = prop_oneof![
        (ident, op.clone(), -100i64..100).prop_map(|(id, op, n)| format!("{id} {op} {n}")),
        (ident, op.clone(), -100i64..100).prop_map(|(id, op, n)| format!("{id} {op} {n}.5")),
        (ident, op.clone(), "[a-z]{0,4}").prop_map(|(id, op, s)| format!("{id} {op} '{s}'")),
        (ident, op, any::<bool>()).prop_map(|(id, op, b)| format!("{id} {op} {b}")),
    ];
    let leaf = atom.boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) AND ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) OR ({b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
    })
}

/// A message carrying `props`.
fn message(props: BTreeMap<String, Value>) -> Message {
    let headers = Headers::new(MessageId(1), "power.monitor", SimTime::ZERO);
    props
        .into_iter()
        .fold(Message::text(headers, "x"), |m, (k, v)| {
            m.with_property(k, v)
        })
}

/// Any Unicode scalar value but a control character (`\PC`, which the
/// vendored proptest's regex subset cannot spell).
fn printable_char() -> impl Strategy<Value = char> {
    prop_oneof![0x20u32..0x7f, 0xa0u32..0x3000, 0x3000u32..0x11_0000]
        .prop_filter("surrogate", |u| char::from_u32(*u).is_some())
        .prop_map(|u| char::from_u32(u).expect("filtered"))
}

/// Selector-shaped noise: a soup of keywords, operators and good and bad
/// literals, multi-byte text inside and outside quotes — the JMS grammar
/// the broker no longer keeps (`LIKE`, `BETWEEN`, `IN`, `IS NULL`,
/// arithmetic) among it.
fn hostile_selector() -> impl Strategy<Value = String> {
    const SOUP: &str = "NOT AND OR BETWEEN IN LIKE ESCAPE IS NULL TRUE id a ( ( ) , = <> != <= < \
        + - * / ; 1 -3 2.5 1e . 99999999999999999999 'x' 'it''s' 'né' 'open é ü$ ?";
    let soup: Vec<&str> = SOUP.split_whitespace().collect();
    proptest::collection::vec((0..soup.len()).prop_map(move |i| soup[i]), 0..32)
        .prop_map(|parts| parts.join(" "))
}

/// Arbitrary Unicode and selector-shaped noise.
fn hostile_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(printable_char(), 0..128)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
        hostile_selector(),
    ]
}

fn parse(s: &str) -> Predicate {
    parse_predicate(s).unwrap_or_else(|e| panic!("{s:?} failed: {e}"))
}

proptest! {
    /// Total on arbitrary Unicode, and a lexical error points at a
    /// character.
    #[test]
    fn lexer_never_panics(s in hostile_text()) {
        if let Err(ParseError::Lex(e)) = Selector::compile(&s) {
            prop_assert!(s.is_char_boundary(e.at), "{:?}: {}", s, e);
        }
    }

    /// Whatever compiles evaluates, and its cost is the fixed term plus
    /// two microseconds a node.
    #[test]
    fn parser_never_panics(s in hostile_text()) {
        if let Ok(sel) = Selector::compile(&s) {
            let cost = sel.eval_cost().as_micros();
            prop_assert!(cost >= 4 && cost % 2 == 0, "{:?}: {}", s, cost);
            sel.matches(&message(BTreeMap::new()));
        }
    }

    #[test]
    fn constructed_selectors_parse(s in arb_selector()) {
        Selector::compile(&s).unwrap_or_else(|e| panic!("{s:?} failed: {e}"));
    }

    #[test]
    fn eval_never_panics_and_is_deterministic(
        s in arb_selector(),
        props in proptest::collection::btree_map("[a-c]", arb_value(), 0..4),
    ) {
        let pred = parse(&s);
        let msg = message(props);
        let r1 = pred.eval(&msg);
        prop_assert_eq!(r1, pred.eval(&msg));
        prop_assert_eq!(r1 == Some(true), Selector::compile(&s).unwrap().matches(&msg));
    }

    #[test]
    fn not_inverts_definite_results(
        s in arb_selector(),
        props in proptest::collection::btree_map("[a-c]", arb_value(), 0..4),
    ) {
        let pred = parse(&s);
        let negated = parse(&format!("NOT ({s})"));
        let msg = message(props);
        match (pred.eval(&msg), negated.eval(&msg)) {
            (Some(a), Some(b)) => prop_assert_eq!(a, !b),
            (None, None) => {}
            (a, b) => prop_assert!(false, "NOT broke three-valued logic: {:?} vs {:?}", a, b),
        }
    }
}
