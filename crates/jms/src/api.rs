//! JMS API-level types shared by brokers and clients: acknowledgement
//! modes and compiled selectors.

use crate::selector::{self, Expr, ParseError};
use simcore::SimDuration;
use wire::Message;

/// JMS acknowledgement modes exercised by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// Session acknowledges each message automatically as it is delivered
    /// (the paper's default).
    #[default]
    Auto,
    /// Application acknowledges explicitly; acks are batched (the paper's
    /// "UDP CLI" test used CLIENT_ACKNOWLEDGE).
    Client,
}

/// A compiled message selector: source text, AST, and a CPU cost model
/// for one evaluation (charged to the broker node per candidate message).
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    text: String,
    expr: Expr,
    nodes: usize,
    /// Compile-time tautology flag: empty/whitespace selectors match
    /// everything, and they dominate the broker's matching hot loop (the
    /// fleet's default subscription is `match_all`), so `matches` skips
    /// the AST walk for them.
    matches_all: bool,
}

impl Selector {
    /// Compile a selector. Empty/whitespace text matches everything.
    pub fn compile(text: &str) -> Result<Selector, ParseError> {
        let expr = selector::parse(text)?;
        let nodes = expr.node_count();
        Ok(Selector {
            text: text.to_owned(),
            expr,
            nodes,
            matches_all: text.trim().is_empty(),
        })
    }

    /// The match-everything selector.
    pub fn match_all() -> Selector {
        Selector::compile("").expect("empty selector compiles")
    }

    /// Source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Does `msg` match? (UNKNOWN rejects, per JMS.)
    #[inline]
    pub fn matches(&self, msg: &Message) -> bool {
        if self.matches_all {
            return true;
        }
        selector::matches(&self.expr, msg)
    }

    /// CPU cost of one evaluation on the reference node (Pentium III):
    /// a small fixed dispatch cost plus a per-AST-node term.
    pub fn eval_cost(&self) -> SimDuration {
        SimDuration::from_micros(2 + 2 * self.nodes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::{Headers, MessageId};

    #[test]
    fn selector_compile_and_match() {
        let s = Selector::compile("id < 10000").unwrap();
        let m = Message::text(Headers::new(MessageId(1), "power", SimTime::ZERO), "x")
            .with_property("id", 5i32);
        assert!(s.matches(&m));
        assert_eq!(s.text(), "id < 10000");
        assert!(s.eval_cost() > SimDuration::ZERO);
    }

    #[test]
    fn match_all_matches_propertyless_messages() {
        let s = Selector::match_all();
        let m = Message::text(Headers::new(MessageId(1), "t", SimTime::ZERO), "x");
        assert!(s.matches(&m));
    }

    #[test]
    fn bad_selector_is_error() {
        assert!(Selector::compile("id <").is_err());
    }

    #[test]
    fn eval_cost_scales_with_complexity() {
        let simple = Selector::compile("a = 1").unwrap();
        let complex =
            Selector::compile("a = 1 AND b = 2 AND c LIKE 'x%' AND d BETWEEN 1 AND 9").unwrap();
        assert!(complex.eval_cost() > simple.eval_cost());
    }
}
