//! Property tests for the selector language.

use jms::selector::{eval, lex, parse, ParseError};
use proptest::prelude::*;
use std::collections::BTreeMap;
use wire::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        proptest::num::f64::NORMAL.prop_map(Value::Double),
        "[a-z%_]{0,12}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Generate syntactically valid selectors by construction.
fn arb_selector() -> impl Strategy<Value = String> {
    let ident = "[a-c]";
    let atom = prop_oneof![
        (ident, -100i64..100).prop_map(|(id, n)| format!("{id} < {n}")),
        (ident, -100i64..100).prop_map(|(id, n)| format!("{id} = {n}")),
        (ident, "[a-z]{0,4}").prop_map(|(id, s)| format!("{id} = '{s}'")),
        (ident, "[a-z%_]{0,6}").prop_map(|(id, p)| format!("{id} LIKE '{p}'")),
        (ident, -50i64..0, 0i64..50).prop_map(|(id, lo, hi)| format!("{id} BETWEEN {lo} AND {hi}")),
        ident.prop_map(|id| format!("{id} IS NULL")),
        (ident, "[a-z]{1,3}", "[a-z]{1,3}")
            .prop_map(|(id, a, b)| format!("{id} IN ('{a}', '{b}')")),
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

/// Any Unicode scalar value but a control character (`\PC`, which the
/// vendored proptest's regex subset cannot spell).
fn printable_char() -> impl Strategy<Value = char> {
    prop_oneof![0x20u32..0x7f, 0xa0u32..0x3000, 0x3000u32..0x11_0000]
        .prop_filter("surrogate", |u| char::from_u32(*u).is_some())
        .prop_map(|u| char::from_u32(u).expect("filtered"))
}

/// Selector-shaped noise: a soup of keywords, operators and good and bad
/// literals, multi-byte text inside and outside quotes.
fn hostile_selector() -> impl Strategy<Value = String> {
    const SOUP: &str = "NOT AND OR BETWEEN IN LIKE ESCAPE IS NULL TRUE id a ( ( ) , = <> <= < \
        + - * / 1 2.5 1e . 99999999999999999999 'x' 'it''s' 'né' 'open é ü$ ?";
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

proptest! {
    /// Total on arbitrary Unicode, and an error points at a character.
    #[test]
    fn lexer_never_panics(s in hostile_text()) {
        if let Err(e) = lex(&s) {
            prop_assert!(s.is_char_boundary(e.at), "{:?}: {}", s, e);
        }
    }

    #[test]
    fn parser_never_panics(s in hostile_text()) {
        if let Err(ParseError::Lex(e)) = parse(&s) {
            prop_assert!(s.is_char_boundary(e.at), "{:?}: {}", s, e);
        }
    }

    #[test]
    fn constructed_selectors_parse(s in arb_selector()) {
        parse(&s).unwrap_or_else(|e| panic!("{s:?} failed: {e}"));
    }

    #[test]
    fn display_reparses_to_same_ast(s in arb_selector()) {
        let ast = parse(&s).unwrap();
        let printed = format!("{ast}");
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} failed: {e}"));
        prop_assert_eq!(ast, reparsed);
    }

    #[test]
    fn eval_never_panics_and_is_deterministic(
        s in arb_selector(),
        props in proptest::collection::btree_map("[a-c]", arb_value(), 0..4),
    ) {
        let ast = parse(&s).unwrap();
        let props: BTreeMap<String, Value> = props;
        let r1 = eval(&ast, &props);
        let r2 = eval(&ast, &props);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn not_inverts_definite_results(
        s in arb_selector(),
        props in proptest::collection::btree_map("[a-c]", arb_value(), 0..4),
    ) {
        let ast = parse(&s).unwrap();
        let negated = parse(&format!("NOT ({s})")).unwrap();
        let props: BTreeMap<String, Value> = props;
        match (eval(&ast, &props), eval(&negated, &props)) {
            (Some(a), Some(b)) => prop_assert_eq!(a, !b),
            (None, None) => {}
            (a, b) => prop_assert!(false, "NOT broke three-valued logic: {:?} vs {:?}", a, b),
        }
    }
}
