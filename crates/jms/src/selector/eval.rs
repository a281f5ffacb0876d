//! Three-valued evaluation of selector expressions over message
//! properties (JMS 1.1 §3.8.1.2 semantics: missing properties are NULL,
//! type mismatches yield UNKNOWN, and a message matches only if the whole
//! expression evaluates to exactly TRUE).

use super::ast::{ArithOp, CmpOp, Expr};
use wire::{Message, Value};

/// Anything that can supply property values.
pub trait PropertySource {
    /// Look up a property by (case-sensitive) name.
    fn property(&self, name: &str) -> Option<&Value>;
}

impl PropertySource for Message {
    fn property(&self, name: &str) -> Option<&Value> {
        Message::property(self, name)
    }
}

impl PropertySource for std::collections::BTreeMap<String, Value> {
    fn property(&self, name: &str) -> Option<&Value> {
        self.get(name)
    }
}

/// Intermediate evaluation value.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl Ev {
    fn from_value(v: &Value) -> Ev {
        match v {
            Value::Int(x) => Ev::Num(f64::from(*x)),
            Value::Long(x) => Ev::Num(*x as f64),
            Value::Float(x) => Ev::Num(f64::from(*x)),
            Value::Double(x) => Ev::Num(*x),
            Value::Str(s) => Ev::Str(s.as_str().to_owned()),
            Value::Char { content, .. } => Ev::Str(content.as_str().to_owned()),
            Value::Bool(b) => Ev::Bool(*b),
        }
    }
}

/// Evaluate a selector against a property source. `Some(true)` = match,
/// `Some(false)` = no match, `None` = UNKNOWN (treated as no match by
/// [`matches()`](fn@matches)).
pub fn eval<S: PropertySource>(expr: &Expr, src: &S) -> Option<bool> {
    match eval_ev(expr, src) {
        Ev::Bool(b) => Some(b),
        Ev::Null => None,
        // Numeric/string-valued whole selector: not a boolean — UNKNOWN.
        _ => None,
    }
}

/// True iff the selector definitely matches (UNKNOWN and FALSE both
/// reject, per JMS).
pub fn matches<S: PropertySource>(expr: &Expr, src: &S) -> bool {
    eval(expr, src) == Some(true)
}

fn eval_ev<S: PropertySource>(expr: &Expr, src: &S) -> Ev {
    match expr {
        Expr::Ident(name) => src.property(name).map_or(Ev::Null, Ev::from_value),
        Expr::Int(v) => Ev::Num(*v as f64),
        Expr::Float(v) => Ev::Num(*v),
        Expr::Str(s) => Ev::Str(s.clone()),
        Expr::Bool(b) => Ev::Bool(*b),
        Expr::And(a, b) => {
            // Three-valued AND with short-circuit on FALSE.
            match to_bool3(eval_ev(a, src)) {
                Some(false) => Ev::Bool(false),
                la => match (la, to_bool3(eval_ev(b, src))) {
                    (_, Some(false)) => Ev::Bool(false),
                    (Some(true), Some(true)) => Ev::Bool(true),
                    _ => Ev::Null,
                },
            }
        }
        Expr::Or(a, b) => match to_bool3(eval_ev(a, src)) {
            Some(true) => Ev::Bool(true),
            la => match (la, to_bool3(eval_ev(b, src))) {
                (_, Some(true)) => Ev::Bool(true),
                (Some(false), Some(false)) => Ev::Bool(false),
                _ => Ev::Null,
            },
        },
        Expr::Not(a) => match to_bool3(eval_ev(a, src)) {
            Some(b) => Ev::Bool(!b),
            None => Ev::Null,
        },
        Expr::Cmp(op, a, b) => {
            let la = eval_ev(a, src);
            let lb = eval_ev(b, src);
            match cmp3(*op, &la, &lb) {
                Some(b) => Ev::Bool(b),
                None => Ev::Null,
            }
        }
        Expr::Arith(op, a, b) => {
            let (Ev::Num(x), Ev::Num(y)) = (eval_ev(a, src), eval_ev(b, src)) else {
                return Ev::Null;
            };
            Ev::Num(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        }
        Expr::Neg(a) => match eval_ev(a, src) {
            Ev::Num(x) => Ev::Num(-x),
            _ => Ev::Null,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval_ev(expr, src);
            let l = eval_ev(lo, src);
            let h = eval_ev(hi, src);
            let (Ev::Num(v), Ev::Num(l), Ev::Num(h)) = (v, l, h) else {
                return Ev::Null;
            };
            let inside = v >= l && v <= h;
            Ev::Bool(inside != *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => match eval_ev(expr, src) {
            Ev::Str(s) => {
                let found = list.iter().any(|x| x == &s);
                Ev::Bool(found != *negated)
            }
            _ => Ev::Null,
        },
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
        } => match eval_ev(expr, src) {
            Ev::Str(s) => Ev::Bool(like_match(&s, pattern, *escape) != *negated),
            _ => Ev::Null,
        },
        Expr::IsNull { expr, negated } => {
            let is_null = matches!(eval_ev(expr, src), Ev::Null);
            Ev::Bool(is_null != *negated)
        }
    }
}

fn to_bool3(e: Ev) -> Option<bool> {
    match e {
        Ev::Bool(b) => Some(b),
        _ => None,
    }
}

fn cmp3(op: CmpOp, a: &Ev, b: &Ev) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = match (a, b) {
        (Ev::Num(x), Ev::Num(y)) => x.partial_cmp(y)?,
        (Ev::Str(x), Ev::Str(y)) => {
            // Strings support only = and <> in JMS.
            return match op {
                CmpOp::Eq => Some(x == y),
                CmpOp::Ne => Some(x != y),
                _ => None,
            };
        }
        (Ev::Bool(x), Ev::Bool(y)) => {
            return match op {
                CmpOp::Eq => Some(x == y),
                CmpOp::Ne => Some(x != y),
                _ => None,
            };
        }
        _ => return None,
    };
    Some(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

/// SQL LIKE matcher: `%` = any run (including empty), `_` = exactly one
/// character, with an optional escape character that makes the next
/// pattern character literal.
pub fn like_match(s: &str, pattern: &str, escape: Option<char>) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<PatTok> = parse_pattern(pattern, escape);
    // Iterative two-pointer with backtracking on the last '%', O(n·m) worst
    // case, no recursion.
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, string idx)
    while si < s.len() {
        match p.get(pi) {
            Some(PatTok::Any) => {
                star = Some((pi + 1, si));
                pi += 1;
            }
            Some(PatTok::One) => {
                si += 1;
                pi += 1;
            }
            Some(PatTok::Lit(c)) if *c == s[si] => {
                si += 1;
                pi += 1;
            }
            _ => {
                // Mismatch: backtrack to the last %.
                match star {
                    Some((p_after, s_at)) => {
                        pi = p_after;
                        si = s_at + 1;
                        star = Some((p_after, s_at + 1));
                    }
                    None => return false,
                }
            }
        }
    }
    // Remaining pattern must be all %.
    p[pi..].iter().all(|t| matches!(t, PatTok::Any))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PatTok {
    Lit(char),
    One,
    Any,
}

fn parse_pattern(pattern: &str, escape: Option<char>) -> Vec<PatTok> {
    let mut out = Vec::new();
    let mut escaped = false;
    for c in pattern.chars() {
        if escaped {
            out.push(PatTok::Lit(c));
            escaped = false;
        } else if Some(c) == escape {
            escaped = true;
        } else if c == '%' {
            out.push(PatTok::Any);
        } else if c == '_' {
            out.push(PatTok::One);
        } else {
            out.push(PatTok::Lit(c));
        }
    }
    // Trailing bare escape char: treat as literal (lenient).
    if escaped {
        if let Some(e) = escape {
            out.push(PatTok::Lit(e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::*;
    use std::collections::BTreeMap;

    fn props(entries: &[(&str, Value)]) -> BTreeMap<String, Value> {
        entries
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    fn check(selector: &str, entries: &[(&str, Value)]) -> Option<bool> {
        let e = parse(selector).unwrap();
        eval(&e, &props(entries))
    }

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
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            check("power / 2 + 10 >= 60", &[("power", Value::Int(100))]),
            Some(true)
        );
        assert_eq!(check("-x = 0 - 5", &[("x", Value::Int(5))]), Some(true));
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
        // Ordering comparisons on strings are UNKNOWN in JMS.
        assert_eq!(check("s < 'b'", &[("s", Value::Str("a".into()))]), None);
        // Mixed string/number is UNKNOWN.
        assert_eq!(check("s = 5", &[("s", Value::Str("5".into()))]), None);
    }

    #[test]
    fn between_semantics() {
        let e = &[("x", Value::Int(5))];
        assert_eq!(check("x BETWEEN 1 AND 5", e), Some(true));
        assert_eq!(check("x BETWEEN 6 AND 9", e), Some(false));
        assert_eq!(check("x NOT BETWEEN 6 AND 9", e), Some(true));
        assert_eq!(check("missing BETWEEN 1 AND 2", &[]), None);
    }

    #[test]
    fn in_list_semantics() {
        let e = &[("r", Value::Str("uk".into()))];
        assert_eq!(check("r IN ('uk','fr')", e), Some(true));
        assert_eq!(check("r NOT IN ('uk','fr')", e), Some(false));
        assert_eq!(check("r IN ('de')", e), Some(false));
        assert_eq!(check("missing IN ('x')", &[]), None);
        // Numeric lhs with string list → UNKNOWN.
        assert_eq!(check("n IN ('1')", &[("n", Value::Int(1))]), None);
    }

    #[test]
    fn like_semantics() {
        let e = &[("name", Value::Str("gen_042".into()))];
        assert_eq!(check("name LIKE 'gen%'", e), Some(true));
        assert_eq!(check("name LIKE 'gen____'", e), Some(true));
        assert_eq!(check("name LIKE 'gen___'", e), Some(false));
        assert_eq!(check("name NOT LIKE 'x%'", e), Some(true));
        // Escaped underscore is literal.
        assert_eq!(check("name LIKE 'gen!_042' ESCAPE '!'", e), Some(true));
        assert_eq!(
            check(
                "name LIKE 'gen!_%' ESCAPE '!'",
                &[("name", Value::Str("genX042".into()))]
            ),
            Some(false)
        );
    }

    #[test]
    fn is_null_semantics() {
        assert_eq!(check("x IS NULL", &[]), Some(true));
        assert_eq!(check("x IS NULL", &[("x", Value::Int(1))]), Some(false));
        assert_eq!(check("x IS NOT NULL", &[("x", Value::Int(1))]), Some(true));
    }

    #[test]
    fn boolean_properties() {
        assert_eq!(check("on = TRUE", &[("on", Value::Bool(true))]), Some(true));
        assert_eq!(
            check("on <> FALSE", &[("on", Value::Bool(true))]),
            Some(true)
        );
        assert_eq!(check("on > FALSE", &[("on", Value::Bool(true))]), None);
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
        let e = parse("missing = 1").unwrap();
        assert!(!matches(&e, &props(&[])));
        let e = parse("x = 1").unwrap();
        assert!(matches(&e, &props(&[("x", Value::Int(1))])));
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", "", None));
        assert!(like_match("", "%", None));
        assert!(!like_match("", "_", None));
        assert!(like_match("abc", "%", None));
        assert!(like_match("abc", "a%c", None));
        assert!(like_match("ac", "a%c", None));
        assert!(!like_match("ab", "a%c", None));
        assert!(like_match("a%b", "a!%b", Some('!')));
        assert!(!like_match("aXb", "a!%b", Some('!')));
        assert!(like_match("aXYZb", "a%b", None));
        assert!(like_match("%%", "%", None));
        // Pathological backtracking case stays fast and correct.
        assert!(like_match(&"a".repeat(200), "%a%a%a%a%a%", None));
        assert!(!like_match(&"a".repeat(200), "%b%", None));
        // Trailing escape char treated as literal.
        assert!(like_match("a!", "a!", Some('!')));
    }

    #[test]
    fn non_boolean_selector_is_unknown() {
        assert_eq!(check("x + 1", &[("x", Value::Int(1))]), None);
        assert_eq!(check("'abc'", &[]), None);
    }

    #[test]
    fn division_by_zero_is_infinite_not_panic() {
        assert_eq!(check("1 / 0 > 100", &[]), Some(true), "+inf > 100");
    }
}
