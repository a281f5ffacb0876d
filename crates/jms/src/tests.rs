//! The selector language's tests, grouped by the stage they check: what a
//! selector's text lexes to (`lexer`), what compiles and how it groups
//! (`parser`), what it costs (`ast`) and what it matches (`eval`). The
//! stages are minisql's; the tests read them through [`Selector`] and
//! [`minisql::parse_predicate`]. The file is mounted as the `selector`
//! module, so each test keeps the name it had beside the selector front
//! end this crate once held. A form that front end read and the kept
//! grammar does not (`LIKE`, `BETWEEN`, `IN`, `IS NULL`, arithmetic, a
//! literal on the left) is checked to be refused at compile: a subscriber
//! that sends one gets JMS's `InvalidSelectorException`.

use crate::Selector;
use minisql::{parse_predicate, CmpOp, ParseError, Predicate};
use simcore::SimTime;
use wire::{Headers, Message, MessageId, Value};

/// A message carrying `props`.
fn message(props: &[(&'static str, Value)]) -> Message {
    let headers = Headers::new(MessageId(1), "power.monitor", SimTime::ZERO);
    props.iter().fold(Message::text(headers, "x"), |m, (k, v)| {
        m.with_property(*k, v.clone())
    })
}

fn p(selector: &str) -> Predicate {
    parse_predicate(selector).unwrap_or_else(|e| panic!("parse {selector:?}: {e}"))
}

/// The three-valued result of `selector` on a message carrying `props`;
/// `Selector::matches` agrees (it matches on TRUE only).
fn check(selector: &str, props: &[(&'static str, Value)]) -> Option<bool> {
    let msg = message(props);
    let result = p(selector).eval(&msg);
    let compiled = Selector::compile(selector).unwrap();
    assert_eq!(compiled.matches(&msg), result == Some(true), "{selector:?}");
    result
}

fn refused(selector: &str) -> bool {
    Selector::compile(selector).is_err()
}

/// A lexical error's offset and message.
fn lex_error(selector: &str) -> (usize, String) {
    match Selector::compile(selector) {
        Err(ParseError::Lex(e)) => (e.at, e.message),
        other => panic!("{selector:?}: expected a lexical error, got {other:?}"),
    }
}

mod ast {
    mod tests {
        use super::super::*;

        #[test]
        fn node_count_and_idents() {
            // JMS's count: a comparison is three nodes (identifier,
            // operator, literal), AND / OR / NOT one each; the cost is
            // 2 µs plus 2 µs a node.
            let s = Selector::compile("id < 10 AND NOT region = 'x'").unwrap();
            assert_eq!(s.eval_cost().as_micros(), 2 + 2 * (1 + 3 + 1 + 3));
            assert_eq!(p("id < 10 AND NOT region = 'x'").node_count(), 4);
        }
    }
}

mod eval {
    mod tests {
        use super::super::*;

        #[test]
        fn paper_selector_behaviour() {
            // "id<10000" — matches every generator in the study (ids < 10000).
            assert_eq!(check("id<10000", &[("id", Value::Int(42))]), Some(true));
            assert_eq!(check("id<10000", &[("id", Value::Int(10000))]), Some(false));
            // Missing property → UNKNOWN.
            assert_eq!(check("id<10000", &[]), None);
        }

        #[test]
        fn numeric_cross_type() {
            assert_eq!(check("x = 2.5", &[("x", Value::Float(2.5))]), Some(true));
            assert_eq!(check("x > 1", &[("x", Value::Long(2))]), Some(true));
            assert_eq!(check("x = 3", &[("x", Value::Double(3.0))]), Some(true));
        }

        #[test]
        fn arithmetic() {
            // Selector arithmetic is outside the kept grammar.
            assert!(refused("power / 2 + 10 >= 60"));
            assert!(refused("x * 2 = 4"));
            assert!(refused("-x = 0 - 5"));
        }

        #[test]
        fn and_or_three_valued() {
            // FALSE AND UNKNOWN = FALSE.
            assert_eq!(
                check("x = 1 AND missing = 2", &[("x", Value::Int(0))]),
                Some(false)
            );
            // TRUE AND UNKNOWN = UNKNOWN.
            assert_eq!(
                check("x = 1 AND missing = 2", &[("x", Value::Int(1))]),
                None
            );
            // TRUE OR UNKNOWN = TRUE.
            assert_eq!(
                check("x = 1 OR missing = 2", &[("x", Value::Int(1))]),
                Some(true)
            );
            // FALSE OR UNKNOWN = UNKNOWN.
            assert_eq!(check("x = 1 OR missing = 2", &[("x", Value::Int(0))]), None);
            // NOT UNKNOWN = UNKNOWN.
            assert_eq!(check("NOT missing = 2", &[]), None);
        }

        #[test]
        fn string_comparisons_limited() {
            assert_eq!(
                check("s = 'abc'", &[("s", Value::Str("abc".into()))]),
                Some(true)
            );
            assert_eq!(
                check("s <> 'abc'", &[("s", Value::Str("x".into()))]),
                Some(true)
            );
            // Strings order as SQL orders them, byte by byte.
            assert_eq!(
                check("s < 'b'", &[("s", Value::Str("a".into()))]),
                Some(true)
            );
            // Mixed string/number is UNKNOWN.
            assert_eq!(check("s = 5", &[("s", Value::Str("5".into()))]), None);
            assert_eq!(check("n = '5'", &[("n", Value::Int(5))]), None);
        }

        #[test]
        fn between_semantics() {
            assert!(refused("x BETWEEN 1 AND 5"));
            assert!(refused("x NOT BETWEEN 6 AND 9"));
        }

        #[test]
        fn in_list_semantics() {
            assert!(refused("r IN ('uk','fr')"));
            assert!(refused("r NOT IN ('uk','fr')"));
        }

        #[test]
        fn like_semantics() {
            assert!(refused("name LIKE 'gen%'"));
            assert!(refused("name NOT LIKE 'x%'"));
            assert!(refused("name LIKE 'gen!_042' ESCAPE '!'"));
        }

        #[test]
        fn is_null_semantics() {
            assert!(refused("x IS NULL"));
            assert!(refused("x IS NOT NULL"));
        }

        #[test]
        fn boolean_properties() {
            assert_eq!(check("on = TRUE", &[("on", Value::Bool(true))]), Some(true));
            assert_eq!(
                check("on <> FALSE", &[("on", Value::Bool(true))]),
                Some(true)
            );
            // Booleans order as SQL orders them: FALSE < TRUE.
            assert_eq!(
                check("on > FALSE", &[("on", Value::Bool(true))]),
                Some(true)
            );
            assert_eq!(check("on = 1", &[("on", Value::Bool(true))]), None);
        }

        #[test]
        fn char_values_behave_as_strings() {
            assert_eq!(
                check(
                    "site = 'hydra'",
                    &[("site", Value::fixed_char("hydra", 20))]
                ),
                Some(true)
            );
        }

        #[test]
        fn matches_treats_unknown_as_reject() {
            let s = Selector::compile("missing = 1").unwrap();
            assert!(!s.matches(&message(&[])));
            let s = Selector::compile("x = 1").unwrap();
            assert!(s.matches(&message(&[("x", Value::Int(1))])));
        }

        #[test]
        fn non_boolean_selector_is_unknown() {
            // A selector that is not a condition is refused at compile.
            assert!(refused("x + 1"));
            assert!(refused("'abc'"));
            assert!(refused("x"));
            assert!(refused("5 > x"), "a literal on the left");
            assert!(refused("x = y"), "two properties");
        }

        #[test]
        fn division_by_zero_is_infinite_not_panic() {
            assert!(refused("1 / 0 > 100"));
            // An out-of-range literal reads as infinity.
            assert_eq!(check("x < 1e999", &[("x", Value::Int(1))]), Some(true));
        }
    }
}

mod lexer {
    mod tests {
        use super::super::*;

        #[test]
        fn simple_comparison() {
            assert_eq!(
                p("id<10000"),
                Predicate::Cmp {
                    column: "id".into(),
                    op: CmpOp::Lt,
                    value: Value::Long(10000),
                }
            );
        }

        #[test]
        fn keywords_case_insensitive_idents_not() {
            let props = [("foo", Value::Int(0)), ("BAR", Value::Int(1))];
            assert_eq!(check("foo = 1 or BAR = 1", &props), Some(true));
            assert_eq!(check("foo = 1 Or bar = 1", &props), None);
            assert_eq!(check("foo = 0 And TRUE", &props), Some(true));
            assert_eq!(check("foo = 0 and false", &props), Some(false));
        }

        #[test]
        fn operators() {
            let x = [("x", Value::Int(2))];
            for (selector, want) in [
                ("x <> 2", false),
                ("x != 2", false),
                ("x <= 2", true),
                ("x >= 3", false),
                ("x < 3", true),
                ("x > 2", false),
                ("x = 2", true),
                ("(x = 2)", true),
            ] {
                assert_eq!(check(selector, &x), Some(want), "{selector}");
            }
            for arithmetic in ["x = 1 + 1", "x = 4 / 2", "x = 1 * 2", "x - 1 = 1"] {
                assert!(refused(arithmetic), "{arithmetic}");
            }
        }

        #[test]
        fn numbers() {
            for (literal, x) in [
                ("42", 42.0),
                ("3.75", 3.75),
                ("1e3", 1000.0),
                ("2.5E-2", 0.025),
                (".5", 0.5),
                ("-7", -7.0),
            ] {
                let selector = format!("x = {literal}");
                assert_eq!(
                    check(&selector, &[("x", Value::Double(x))]),
                    Some(true),
                    "{selector}"
                );
            }
        }

        #[test]
        fn strings_with_escapes() {
            for (literal, s) in [("'hello'", "hello"), ("'it''s'", "it's"), ("''", "")] {
                let selector = format!("s = {literal}");
                assert_eq!(
                    check(&selector, &[("s", Value::Str(s.into()))]),
                    Some(true),
                    "{selector}"
                );
            }
        }

        #[test]
        fn unterminated_string_errors() {
            let (at, message) = lex_error("'oops");
            assert!(message.contains("unterminated"), "{message}");
            assert_eq!(at, 0);
            assert_eq!(lex_error("s = 'oops").0, 4);
        }

        #[test]
        fn bad_char_errors() {
            assert_eq!(lex_error("a ? b").0, 2);
            // A multi-byte character is reported whole, not as its first byte.
            assert_eq!(
                lex_error("a = é"),
                (4, "unexpected character 'é'".to_owned())
            );
        }

        #[test]
        fn paper_selector() {
            // The selector the paper used: "id<10000".
            assert!(Selector::compile("id<10000").is_ok());
        }

        #[test]
        fn unicode_in_strings() {
            assert_eq!(
                check("s = 'héllo'", &[("s", Value::Str("héllo".into()))]),
                Some(true)
            );
        }

        #[test]
        fn bare_dot_is_error() {
            assert!(matches!(Selector::compile(". "), Err(ParseError::Lex(_))));
        }
    }
}

mod parser {
    mod tests {
        use super::super::*;

        #[test]
        fn paper_selector_parses() {
            let s = Selector::compile("id<10000").unwrap();
            assert_eq!(s, Selector::compile("id < 10000").unwrap());
            assert_eq!(s.eval_cost().as_micros(), 8);
        }

        #[test]
        fn empty_selector_matches_all() {
            assert_eq!(p(""), Predicate::Const(true));
            assert_eq!(p("   "), Predicate::Const(true));
            assert_eq!(Selector::compile(" \t\n").unwrap(), Selector::match_all());
        }

        #[test]
        fn precedence_or_and_not() {
            // NOT binds tighter than AND, AND tighter than OR.
            match p("a = 1 OR NOT b = 2 AND c = 3") {
                Predicate::Or(_, rhs) => match *rhs {
                    Predicate::And(l, _) => assert!(matches!(*l, Predicate::Not(_))),
                    other => panic!("expected AND on rhs, got {other:?}"),
                },
                other => panic!("expected OR at top, got {other:?}"),
            }
        }

        #[test]
        fn arithmetic_precedence() {
            assert!(refused("x = 1 + 2 * 3"));
        }

        #[test]
        fn between_and_not_between() {
            assert!(refused("x BETWEEN 1 AND 5"));
            assert!(refused("x NOT BETWEEN 1 AND 5"));
        }

        #[test]
        fn in_list() {
            assert!(refused("region IN ('uk', 'fr')"));
            assert!(refused("region NOT IN ('uk')"));
        }

        #[test]
        fn like_with_escape() {
            assert!(refused("name LIKE 'gen!_%' ESCAPE '!'"));
            assert!(refused("name NOT LIKE 'x%'"));
        }

        #[test]
        fn is_null_forms() {
            assert!(refused("x IS NULL"));
            assert!(refused("x IS NOT NULL"));
        }

        #[test]
        fn parentheses_override() {
            assert!(matches!(
                p("(a = 1 OR b = 2) AND c = 3"),
                Predicate::And(_, _)
            ));
        }

        #[test]
        fn unary_minus_and_plus() {
            // A sign belongs to the literal; there is no unary operator.
            assert_eq!(check("x = -5", &[("x", Value::Int(-5))]), Some(true));
            assert!(refused("x = +5"));
            assert!(refused("x = --5"));
            assert!(refused("x = - 5"));
        }

        #[test]
        fn error_cases() {
            assert!(refused("x <"));
            assert!(refused("(x = 1"));
            assert!(refused("x = 1 y"), "trailing input");
            assert!(refused("x = 1;"), "a selector is no statement");
            assert!(refused("x NOT 5"));
            assert!(refused("NOT"));
            assert!(refused("x = 1 AND"));
        }

        #[test]
        fn hostile_depth_is_an_error_not_a_stack_overflow() {
            let n = 100_000;
            for deep in [
                format!("{}a = 1", "NOT ".repeat(n)),
                format!("{}a = 1{}", "(".repeat(n), ")".repeat(n)),
                format!("a = 1{}", " OR a = 1".repeat(n)),
            ] {
                assert_eq!(Selector::compile(&deep), Err(ParseError::TooDeep));
            }
            // Signs and sums are no longer levels: they do not lex.
            assert!(refused(&format!("a = {}1", "-".repeat(n))));
            assert!(refused(&format!("a = 1{}", " + 1".repeat(n))));
            // The limit is far from anything legitimate: 100 levels of each.
            p(&format!("{}a = 1", "NOT ".repeat(100)));
            p(&format!("{}a = 1{}", "(".repeat(100), ")".repeat(100)));
            p(&format!("a = 1{}", " OR a = 1".repeat(100)));
        }

        #[test]
        fn error_messages_are_informative() {
            let e = Selector::compile("x <").unwrap_err().to_string();
            assert!(e.contains("end of SQL"), "{e}");
            let e = Selector::compile("x = 1 )").unwrap_err().to_string();
            assert!(e.contains("trailing"), "{e}");
        }

        #[test]
        fn complex_realistic_selector() {
            let s = Selector::compile(
                "(gen_id >= 0 AND gen_id <= 750 AND region = 'uk') \
                 OR (power > 1000.0 AND status <> 'OFF' AND NOT site = 'hydra')",
            )
            .unwrap();
            // Six comparisons, four ANDs, one OR, one NOT.
            assert_eq!(s.eval_cost().as_micros(), 2 + 2 * (6 * 3 + 4 + 1 + 1));
            let reading = [
                ("gen_id", Value::Int(42)),
                ("region", Value::fixed_char("uk", 20)),
                ("power", Value::Double(12.0)),
            ];
            assert!(s.matches(&message(&reading)));
        }
    }
}
