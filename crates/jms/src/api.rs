//! JMS API-level types shared by brokers and clients: acknowledgement
//! modes and compiled selectors.

use minisql::{ParseError, Predicate};
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

/// A compiled message selector: the predicate and the CPU cost of one
/// evaluation (charged to the broker node per candidate message).
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    predicate: Predicate,
    cost: SimDuration,
}

impl Selector {
    /// Compile a selector. Empty/whitespace text matches everything.
    pub fn compile(text: &str) -> Result<Selector, ParseError> {
        let predicate = minisql::parse_predicate(text)?;
        let cost = SimDuration::from_micros(2 + 2 * nodes(&predicate) as u64);
        Ok(Selector { predicate, cost })
    }

    /// The match-everything selector.
    pub fn match_all() -> Selector {
        Selector::compile("").expect("empty selector compiles")
    }

    /// Does `msg` match? (A missing property or incomparable kinds is
    /// UNKNOWN, and UNKNOWN rejects, per JMS.)
    #[inline]
    pub fn matches(&self, msg: &Message) -> bool {
        self.predicate.eval(msg) == Some(true)
    }

    /// CPU cost of one evaluation on the reference node (Pentium III):
    /// a small fixed dispatch cost plus a per-node term.
    pub fn eval_cost(&self) -> SimDuration {
        self.cost
    }
}

/// The selector's node count as the JMS cost model counts it: a
/// comparison is three nodes (identifier, operator and literal), where
/// minisql's [`Predicate::node_count`] counts it as one.
fn nodes(p: &Predicate) -> usize {
    match p {
        Predicate::Cmp { .. } => 3,
        Predicate::Const(_) => 1,
        Predicate::And(a, b) | Predicate::Or(a, b) => 1 + nodes(a) + nodes(b),
        Predicate::Not(a) => 1 + nodes(a),
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
        let complex = Selector::compile("a = 1 AND b = 2 AND (c > 3 OR NOT d <= 9)").unwrap();
        assert!(complex.eval_cost() > simple.eval_cost());
    }
}
