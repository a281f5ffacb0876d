//! The broker's subscription registry and matching engine.
//!
//! Topic-indexed: a published message is evaluated against the selectors
//! of that topic's subscriptions only. Selector evaluation cost is
//! returned to the caller so the broker charges it to its CPU.

use jms::{AckMode, Selector};
use simcore::{FastMap, SimDuration};
use simnet::ConnId;
use wire::Message;

/// One live subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Connection that owns it.
    pub conn: ConnId,
    /// Client-chosen id, unique within the connection.
    pub sub_id: u32,
    /// Compiled selector.
    pub selector: Selector,
    /// Acknowledge mode of the consuming session.
    pub ack_mode: AckMode,
    /// Next delivery sequence number for this subscription.
    next_seq: u64,
}

/// A match produced for one published message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedDelivery {
    /// Destination connection.
    pub conn: ConnId,
    /// Subscription id on that connection.
    pub sub_id: u32,
    /// Assigned delivery sequence.
    pub deliver_seq: u64,
    /// Acknowledge mode of the subscription.
    pub ack_mode: AckMode,
}

/// Topic-indexed subscription store.
#[derive(Default)]
pub struct MatchingEngine {
    by_topic: FastMap<String, Vec<Subscription>>,
}

impl MatchingEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a subscription.
    pub fn subscribe(
        &mut self,
        topic: impl Into<String>,
        conn: ConnId,
        sub_id: u32,
        selector: Selector,
        ack_mode: AckMode,
    ) {
        self.by_topic
            .entry(topic.into())
            .or_default()
            .push(Subscription {
                conn,
                sub_id,
                selector,
                ack_mode,
                next_seq: 0,
            });
    }

    /// Remove everything owned by a connection (client disconnect).
    pub fn drop_connection(&mut self, conn: ConnId) {
        for subs in self.by_topic.values_mut() {
            subs.retain(|s| s.conn != conn);
        }
    }

    /// Whether any subscription exists for `topic` (interest gossip).
    pub fn has_interest(&self, topic: &str) -> bool {
        self.by_topic.get(topic).is_some_and(|v| !v.is_empty())
    }

    /// Subscriptions registered on `topic` — every one of them has its
    /// selector evaluated per published message.
    pub fn topic_len(&self, topic: &str) -> usize {
        self.by_topic.get(topic).map_or(0, |v| v.len())
    }

    /// Topics with at least one subscriber.
    pub fn interested_topics(&self) -> Vec<String> {
        let mut ts: Vec<String> = self
            .by_topic
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        ts.sort_unstable();
        ts
    }

    /// Match a message against the topic's subscriptions. Returns the
    /// deliveries plus the CPU cost of the selector evaluations performed.
    pub fn match_message(
        &mut self,
        topic: &str,
        message: &Message,
    ) -> (Vec<MatchedDelivery>, SimDuration) {
        let mut cost = SimDuration::ZERO;
        let mut out = Vec::new();
        if let Some(subs) = self.by_topic.get_mut(topic) {
            for sub in subs.iter_mut() {
                cost += sub.selector.eval_cost();
                if sub.selector.matches(message) {
                    let deliver_seq = sub.next_seq;
                    sub.next_seq += 1;
                    out.push(MatchedDelivery {
                        conn: sub.conn,
                        sub_id: sub.sub_id,
                        deliver_seq,
                        ack_mode: sub.ack_mode,
                    });
                }
            }
        }
        (out, cost)
    }

    /// Hand out the next delivery sequence for one subscription without
    /// matching a message — used when the broker re-injects messages from
    /// stable storage during a post-restart resync. `None` if the
    /// subscription does not exist.
    pub fn assign_seq(&mut self, conn: ConnId, sub_id: u32) -> Option<u64> {
        for subs in self.by_topic.values_mut() {
            for sub in subs.iter_mut() {
                if sub.conn == conn && sub.sub_id == sub_id {
                    let seq = sub.next_seq;
                    sub.next_seq += 1;
                    return Some(seq);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::{Headers, MessageId};

    fn msg(topic: &str, id: i32) -> Message {
        Message::text(Headers::new(MessageId(1), topic, SimTime::ZERO), "x").with_property("id", id)
    }

    fn conn(n: u32) -> ConnId {
        ConnId(n)
    }

    #[test]
    fn topic_isolation() {
        let mut m = MatchingEngine::new();
        m.subscribe("power", conn(1), 0, Selector::match_all(), AckMode::Auto);
        m.subscribe("weather", conn(2), 0, Selector::match_all(), AckMode::Auto);
        let (hits, _) = m.match_message("power", &msg("power", 1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].conn, conn(1));
    }

    #[test]
    fn selector_filters() {
        let mut m = MatchingEngine::new();
        m.subscribe(
            "power",
            conn(1),
            0,
            Selector::compile("id < 10000").unwrap(),
            AckMode::Auto,
        );
        let (hits, cost) = m.match_message("power", &msg("power", 5));
        assert_eq!(hits.len(), 1);
        assert!(cost > SimDuration::ZERO);
        let (hits, _) = m.match_message("power", &msg("power", 20000));
        assert!(hits.is_empty());
    }

    #[test]
    fn delivery_sequences_increment_per_subscription() {
        let mut m = MatchingEngine::new();
        m.subscribe("t", conn(1), 0, Selector::match_all(), AckMode::Auto);
        m.subscribe("t", conn(2), 7, Selector::match_all(), AckMode::Client);
        let (h1, _) = m.match_message("t", &msg("t", 1));
        let (h2, _) = m.match_message("t", &msg("t", 2));
        assert_eq!(h1.iter().map(|d| d.deliver_seq).collect::<Vec<_>>(), [0, 0]);
        assert_eq!(h2.iter().map(|d| d.deliver_seq).collect::<Vec<_>>(), [1, 1]);
        assert_eq!(h2[1].ack_mode, AckMode::Client);
    }

    #[test]
    fn drop_connection_removes_every_subscription_of_the_connection() {
        let mut m = MatchingEngine::new();
        m.subscribe("t", conn(1), 0, Selector::match_all(), AckMode::Auto);
        m.subscribe("t", conn(1), 1, Selector::match_all(), AckMode::Auto);
        m.subscribe("t", conn(2), 0, Selector::match_all(), AckMode::Auto);
        let (hits, _) = m.match_message("t", &msg("t", 1));
        assert_eq!(hits.len(), 3);
        m.drop_connection(conn(1));
        let (hits, _) = m.match_message("t", &msg("t", 1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].conn, conn(2));
    }

    #[test]
    fn interest_tracking() {
        let mut m = MatchingEngine::new();
        assert!(!m.has_interest("t"));
        m.subscribe("t", conn(1), 0, Selector::match_all(), AckMode::Auto);
        m.subscribe("a", conn(1), 1, Selector::match_all(), AckMode::Auto);
        assert!(m.has_interest("t"));
        assert_eq!(
            m.interested_topics(),
            vec!["a".to_string(), "t".to_string()]
        );
        m.drop_connection(conn(1));
        assert!(!m.has_interest("t"));
        assert!(!m.has_interest("a"));
        assert!(m.interested_topics().is_empty());
    }

    #[test]
    fn eval_cost_scales_with_subscriber_count() {
        let mut m = MatchingEngine::new();
        for i in 0..10 {
            m.subscribe(
                "t",
                conn(i),
                0,
                Selector::compile("id < 5").unwrap(),
                AckMode::Auto,
            );
        }
        let (_, cost10) = m.match_message("t", &msg("t", 1));
        let mut m1 = MatchingEngine::new();
        m1.subscribe(
            "t",
            conn(0),
            0,
            Selector::compile("id < 5").unwrap(),
            AckMode::Auto,
        );
        let (_, cost1) = m1.match_message("t", &msg("t", 1));
        assert_eq!(cost10.as_micros(), 10 * cost1.as_micros());
    }
}
