//! The broker actor: connection acceptance (thread-per-connection),
//! subscription matching, delivery, the UDP reliability layer, and
//! forwarding across the broker network.

use crate::config::{
    BROKER_ACCEPT, BROKER_ACK_PROCESS, BROKER_DELIVER_BASE, BROKER_PER_BYTE_NS,
    BROKER_PUBLISH_BASE, HEAP_PER_CONN, NIO_EXTRA,
};
use crate::matching::{MatchedDelivery, MatchingEngine};
use crate::protocol::{
    deliver_bytes, BrokerToBroker, BrokerToClient, ClientToBroker, Flood, Publish, Subscribe,
    CONTROL_FRAME_BYTES,
};
use crate::seqset::SeqSet;
use jms::{AckMode, Selector};
use simcore::{Actor, Context, FastMap, Payload, SimDuration, SimTime, Site};
use simnet::server::{Acceptor, Inbound};
use simnet::{ConnId, Delivery, NetworkFabric, Transport};
use simos::{NodeId, OsModel, ProcessId};
use simprof::Component;
use simtrace::{EventKind, TraceId};
use telemetry::ProbeId;
use wire::Message;

/// Control messages delivered directly (not over the network) from the
/// deployment layer.
pub enum BrokerControl {
    /// Configure the broker-network peer links of this broker.
    SetPeers {
        /// This broker's index in the network.
        my_ix: u16,
        /// (peer index, connection to it).
        peers: Vec<(u16, ConnId)>,
    },
}

/// Broker statistics, readable after a run via [`Broker::stats_handle`].
#[derive(Debug, Default, Clone)]
pub struct BrokerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused (OOM).
    pub refused: u64,
    /// Messages published to this broker by clients.
    pub published: u64,
    /// Deliveries sent to local subscribers.
    pub delivered: u64,
    /// Messages forwarded to peer brokers.
    pub forwarded: u64,
    /// Messages received from peer brokers.
    pub from_peers: u64,
    /// Acknowledgements processed.
    pub acks: u64,
    /// Duplicate publishes filtered.
    pub dup_publishes: u64,
    /// Deliveries retransmitted (CLIENT-ack gap recovery).
    pub retransmissions: u64,
    /// Times this broker's JVM was crashed by fault injection.
    pub crashes: u64,
    /// Messages re-delivered from stable storage after a restart.
    pub resynced: u64,
    /// Subscribes refused for a selector that does not compile (JMS's
    /// `InvalidSelectorException`: nothing is created).
    pub invalid_selectors: u64,
}

/// Shared handle for reading a broker's stats after the simulation.
pub type StatsHandle = std::rc::Rc<std::cell::RefCell<BrokerStats>>;

struct ConnState {
    transport: Transport,
    /// Highest publish seq seen (duplicate filter).
    last_pub_seq: Option<u64>,
    /// Pending (unacked) deliveries for CLIENT-ack UDP gap recovery,
    /// keyed by delivery seq. Bounded by the ack flush interval.
    pending: FastMap<u64, PendingDelivery>,
    /// Highest delivery seq ever sent on this connection.
    max_sent_seq: Option<u64>,
}

struct PendingDelivery {
    sub_id: u32,
    probe: ProbeId,
    message: Message,
    retransmitted: bool,
}

/// A message preserved across a crash for one durable (CLIENT-ack UDP)
/// subscriber, keyed by the subscriber's actor so it survives the
/// connection id changing on reconnect.
struct StableEntry {
    sub_id: u32,
    probe: ProbeId,
    message: Message,
}

/// What the broker remembers about a durable subscription across a
/// crash: enough to keep capturing matching publishes into stable
/// storage while the subscriber is still reconnecting.
struct DurableSub {
    sub_id: u32,
    topic: String,
    selector: Selector,
    attached: bool,
}

/// The names this broker's metrics go by: built once per broker index,
/// not formatted per publish.
struct MetricNames {
    publishes: String,
    pending_acks: String,
}

impl MetricNames {
    fn of(broker: u16) -> Self {
        MetricNames {
            publishes: format!("narada.broker{broker}.publishes"),
            pending_acks: format!("narada.broker{broker}.pending_acks"),
        }
    }
}

/// The broker actor.
pub struct Broker {
    /// Whether the inter-broker layer uses the v1.1.3 broadcast behaviour
    /// (the deficiency the paper found) or correct subscription-aware
    /// routing (the fix the authors expected from the next release).
    dbn_broadcast: bool,
    /// Accepted connections: a thread and `HEAP_PER_CONN` each.
    server: Acceptor<ConnState>,
    engine: MatchingEngine,
    my_ix: u16,
    peers: Vec<(u16, ConnId)>,
    /// Broker-local topic interning table: route-map entries are dense
    /// `TopicId`s instead of heap strings, so the per-forward interest
    /// check is an integer compare. Wire messages still carry strings —
    /// the table never leaves this broker.
    topics: wire::TopicTable,
    /// Peer broker index → topics it has local interest in (routed mode).
    peer_interests: FastMap<u16, Vec<wire::TopicId>>,
    /// Next sequence number for messages this broker originates.
    next_fwd_seq: u64,
    /// Flood dedup: per origin broker, the seqs already processed.
    seen_forwards: FastMap<u16, SeqSet>,
    /// Crash-surviving message log, keyed by subscriber actor index.
    stable: std::collections::BTreeMap<u64, Vec<StableEntry>>,
    /// Durable (CLIENT-ack UDP topic) subscriptions remembered across
    /// crashes, keyed by subscriber actor index.
    durable_subs: std::collections::BTreeMap<u64, Vec<DurableSub>>,
    /// Deliveries awaiting a client ack: the sum of every held
    /// connection's `pending`, kept as entries come and go.
    pending_acks: usize,
    metric_names: MetricNames,
    stats: StatsHandle,
}

impl Broker {
    /// Create a broker to be hosted on `node` inside process `proc`,
    /// flooding every peer as v1.1.3 does (`dbn_broadcast`) or routing by
    /// subscription interest.
    pub fn new(dbn_broadcast: bool, node: NodeId, proc: ProcessId) -> Self {
        Broker {
            dbn_broadcast,
            server: Acceptor::new(node, proc, HEAP_PER_CONN),
            engine: MatchingEngine::new(),
            my_ix: 0,
            peers: Vec::new(),
            topics: wire::TopicTable::new(),
            peer_interests: FastMap::default(),
            next_fwd_seq: 0,
            seen_forwards: FastMap::default(),
            stable: std::collections::BTreeMap::new(),
            durable_subs: std::collections::BTreeMap::new(),
            pending_acks: 0,
            metric_names: MetricNames::of(0),
            stats: StatsHandle::default(),
        }
    }

    /// Handle to this broker's statistics (clone before `add_actor`).
    pub fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }

    /// One CPU submission covering deserialize+route plus selector
    /// matching; the profiler splits the effective cost between
    /// `narada.route` and `narada.match` in proportion to the base
    /// parts, so attribution conserves exactly.
    fn cpu_matched(
        &self,
        ctx: &mut Context<'_>,
        total: SimDuration,
        match_part: SimDuration,
    ) -> SimTime {
        let node = self.server.node();
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let t0 = ctx.wall_start();
            let (done, effective) = os.execute_metered(node, ctx.now(), total);
            ctx.wall_record(Site::OsExecute, t0);
            simprof::charge_split(
                ctx,
                Component::NaradaRoute,
                Component::NaradaMatch,
                effective,
                match_part,
                total,
            );
            done
        })
    }

    /// Put a control frame on `conn` at `at`.
    fn control(&self, ctx: &mut Context<'_>, conn: ConnId, frame: BrokerToClient, at: SimTime) {
        self.server
            .send_at(ctx, conn, CONTROL_FRAME_BYTES, frame, at);
    }

    /// The actor at the far end of `conn`: the key a durable subscriber
    /// keeps across reconnects.
    fn subscriber_on(&self, ctx: &Context<'_>, conn: ConnId) -> u64 {
        self.server.peer(ctx, conn).actor.index() as u64
    }

    fn on_connect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let state = ConnState {
            transport: ctx.service::<NetworkFabric>().transport(conn),
            last_pub_seq: None,
            pending: FastMap::default(),
            max_sent_seq: None,
        };
        match self.server.accept(ctx, conn, state) {
            Ok(()) => {
                // Connection setup spawned a service thread: scheduler
                // churn the profiler counts against `simos.sched`.
                simprof::hit(ctx, Component::OsSched);
                self.stats.borrow_mut().accepted += 1;
                let cost = BROKER_ACCEPT;
                let done = self.server.cpu(ctx, Component::NaradaRoute, cost);
                self.control(ctx, conn, BrokerToClient::ConnectOk, done);
            }
            Err(e) => {
                self.stats.borrow_mut().refused += 1;
                let reason = e.to_string();
                let now = ctx.now();
                self.control(ctx, conn, BrokerToClient::ConnectRefused { reason }, now);
            }
        }
    }

    fn on_disconnect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        if let Some(state) = self.server.release(ctx, conn) {
            self.pending_acks -= state.pending.len();
            simprof::hit(ctx, Component::OsSched);
            self.engine.drop_connection(conn);
            self.gossip_interests(ctx);
        }
    }

    fn on_subscribe(&mut self, ctx: &mut Context<'_>, conn: ConnId, sub: Subscribe) {
        let Subscribe {
            sub_id,
            topic,
            selector,
            ack_mode,
        } = sub;
        let cost = BROKER_ACCEPT / 2;
        let Ok(selector) = Selector::compile(&selector) else {
            // JMS raises InvalidSelectorException at createSubscriber and
            // creates nothing: the work is done, no SubscribeOk follows.
            self.stats.borrow_mut().invalid_selectors += 1;
            self.server.cpu(ctx, Component::NaradaRoute, cost);
            return;
        };
        let had_interest = self.engine.has_interest(&topic);
        // CLIENT-ack UDP topic subscriptions double as durable ones: the
        // broker remembers them across crashes so it can keep capturing
        // matching publishes into stable storage while the subscriber is
        // still reconnecting, then resync on request.
        let transport = self.server.state(conn).map(|c| c.transport);
        if ack_mode == AckMode::Client && transport == Some(Transport::Udp) {
            let peer = self.subscriber_on(ctx, conn);
            let subs = self.durable_subs.entry(peer).or_default();
            match subs.iter_mut().find(|d| d.sub_id == sub_id) {
                Some(d) => {
                    d.topic = topic.clone();
                    d.selector = selector.clone();
                    d.attached = true;
                }
                None => subs.push(DurableSub {
                    sub_id,
                    topic: topic.clone(),
                    selector: selector.clone(),
                    attached: true,
                }),
            }
        }
        self.engine
            .subscribe(&topic, conn, sub_id, selector, ack_mode);
        let done = self.server.cpu(ctx, Component::NaradaRoute, cost);
        self.control(ctx, conn, BrokerToClient::SubscribeOk { sub_id }, done);
        if !had_interest {
            self.gossip_interests(ctx);
        }
    }

    /// Broadcast our interest set to peers (used by routed mode; harmless
    /// in broadcast mode).
    fn gossip_interests(&mut self, ctx: &mut Context<'_>) {
        if self.peers.is_empty() {
            return;
        }
        let topics = self.engine.interested_topics();
        let bytes = CONTROL_FRAME_BYTES + topics.iter().map(|t| t.len() + 4).sum::<usize>();
        let now = ctx.now();
        for &(_, conn) in &self.peers {
            let update = BrokerToBroker::InterestUpdate {
                broker: self.my_ix,
                topics: topics.clone(),
            };
            self.server.send_at(ctx, conn, bytes, update, now);
        }
    }

    fn on_publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, publish: Publish, bytes: usize) {
        let Publish {
            probe,
            seq,
            message,
            retransmit,
        } = publish;
        let Some(transport) = self.server.state(conn).map(|c| c.transport) else {
            return;
        };

        // UDP transport reliability: ack every publish, including
        // duplicates (the original ack may have been lost).
        if transport == Transport::Udp {
            let cost = BROKER_ACK_PROCESS;
            let ack_done = self.server.cpu(ctx, Component::NaradaAck, cost);
            self.control(ctx, conn, BrokerToClient::PublishAck { seq }, ack_done);
        }

        // Duplicate filter.
        let state = self.server.state_mut(conn).expect("checked above");
        if retransmit {
            if let Some(last) = state.last_pub_seq {
                if seq <= last {
                    self.stats.borrow_mut().dup_publishes += 1;
                    return;
                }
            }
        }
        state.last_pub_seq = Some(state.last_pub_seq.map_or(seq, |l| l.max(seq)));
        self.stats.borrow_mut().published += 1;
        let broker = u32::from(self.my_ix);
        hop(ctx, probe, EventKind::BrokerRecv { broker });

        // Processing cost: deserialize + route + match.
        let topic: &str = &message.headers.destination;
        let match_t0 = ctx.wall_start();
        let (matches, match_cost) = self.engine.match_message(topic, &message);
        ctx.wall_record(Site::JmsMatch, match_t0);
        let mut cost =
            BROKER_PUBLISH_BASE + SimDuration::per_byte(bytes, BROKER_PER_BYTE_NS) + match_cost;
        if transport == Transport::Nio {
            cost += NIO_EXTRA;
        }
        let done = simprof::profile_span!(ctx, Component::NaradaRoute, {
            self.cpu_matched(ctx, cost, match_cost)
        });
        let publishes = &self.metric_names.publishes;
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter(publishes, 1);
            m.add_counter("broker_publishes", 1);
            m.observe("narada.publish_cost_us", cost.as_micros());
        });

        let matched = matches.len() as u32;
        let missed = (self.engine.topic_len(topic) as u32).saturating_sub(matched);
        hop(ctx, probe, EventKind::SelectorMatch { matched, missed });

        self.capture_orphans(probe, &message);
        self.dispatch_deliveries(ctx, probe, &message, matches, done);

        // Forward through the broker network.
        let seq = self.next_fwd_seq;
        self.next_fwd_seq += 1;
        let my_ix = self.my_ix;
        self.seen_forwards.entry(my_ix).or_default().insert(seq);
        let flood = Flood {
            origin: my_ix,
            seq,
            from_ix: my_ix,
        };
        self.forward_to_peers(ctx, probe, &message, done, flood);
    }

    fn dispatch_deliveries(
        &mut self,
        ctx: &mut Context<'_>,
        probe: ProbeId,
        message: &Message,
        matches: Vec<MatchedDelivery>,
        mut ready_at: SimTime,
    ) {
        let fanout = matches.len() as u32;
        if fanout > 0 {
            let broker = u32::from(self.my_ix);
            hop(ctx, probe, EventKind::BrokerDeliver { broker, fanout });
            telemetry::with_metrics(ctx, |m, _| {
                m.add_counter("broker_deliveries", fanout.into())
            });
        }
        for m in matches {
            // Each delivery costs serialization on the broker.
            let cost = BROKER_DELIVER_BASE;
            ready_at = self
                .server
                .cpu(ctx, Component::NaradaTransport, cost)
                .max(ready_at);
            let bytes = deliver_bytes(message);
            let deliver = BrokerToClient::Deliver {
                sub_id: m.sub_id,
                probe,
                deliver_seq: m.deliver_seq,
                message: message.clone(),
                retransmit: false,
            };
            self.server.send_at(ctx, m.conn, bytes, deliver, ready_at);
            self.stats.borrow_mut().delivered += 1;
            // CLIENT-ack over UDP: retain for gap recovery.
            let state = self.server.state_mut(m.conn);
            if let Some(state) = state.filter(|c| c.transport == Transport::Udp) {
                state.max_sent_seq = Some(
                    state
                        .max_sent_seq
                        .map_or(m.deliver_seq, |s| s.max(m.deliver_seq)),
                );
                if m.ack_mode == AckMode::Client {
                    let pending = PendingDelivery {
                        sub_id: m.sub_id,
                        probe,
                        message: message.clone(),
                        retransmitted: false,
                    };
                    if state.pending.insert(m.deliver_seq, pending).is_none() {
                        self.pending_acks += 1;
                    }
                }
            }
        }
        // Per-broker queue depth: deliveries awaiting client acks
        // (CLIENT-ack UDP retention).
        let (depth, name, server) = (
            self.pending_acks,
            &self.metric_names.pending_acks,
            &self.server,
        );
        telemetry::with_metrics(ctx, |m, _| {
            debug_assert_eq!(
                depth,
                server.states().map(|c| c.pending.len()).sum::<usize>(),
                "the running pending-ack count is the sum over connections"
            );
            m.set_gauge(name, depth as f64);
        });
    }

    /// Send `message` on to the peers its `flood` has not reached.
    fn forward_to_peers(
        &mut self,
        ctx: &mut Context<'_>,
        probe: ProbeId,
        message: &Message,
        ready_at: SimTime,
        flood: Flood,
    ) {
        if self.peers.is_empty() {
            return;
        }
        let my_ix = self.my_ix;
        let bytes = deliver_bytes(message);
        let topic: &str = &message.headers.destination;
        let mut peers: u32 = 0;
        for &(peer_ix, conn) in &self.peers {
            // Never send back where it came from or to the origin.
            if peer_ix == flood.from_ix || peer_ix == flood.origin {
                continue;
            }
            // v1.1.3 deficiency: flood to every peer regardless of
            // interest. Routed mode prunes using gossiped interests and
            // never re-floods (single hop suffices in a full mesh).
            if !self.dbn_broadcast {
                if my_ix != flood.origin {
                    continue;
                }
                // A topic never interned locally has no registered peer
                // interest; otherwise the check is an id compare.
                let interested = self.topics.get(topic).is_some_and(|tid| {
                    self.peer_interests
                        .get(&peer_ix)
                        .is_some_and(|ts| ts.contains(&tid))
                });
                if !interested {
                    continue;
                }
            }
            let cost = BROKER_DELIVER_BASE;
            let at = self
                .server
                .cpu(ctx, Component::NaradaRoute, cost)
                .max(ready_at);
            let fwd = BrokerToBroker::Forward {
                probe,
                message: message.clone(),
                flood: Flood {
                    from_ix: my_ix,
                    ..flood
                },
            };
            self.server.send_at(ctx, conn, bytes, fwd, at);
            self.stats.borrow_mut().forwarded += 1;
            peers += 1;
        }
        if peers > 0 {
            let broker = u32::from(my_ix);
            hop(ctx, probe, EventKind::BrokerForward { broker, peers });
        }
    }

    fn on_peer_forward(
        &mut self,
        ctx: &mut Context<'_>,
        probe: ProbeId,
        message: Message,
        bytes: usize,
        flood: Flood,
    ) {
        self.stats.borrow_mut().from_peers += 1;
        // Flood dedup: duplicates still cost deserialization.
        let seen = self.seen_forwards.entry(flood.origin).or_default();
        if !seen.insert(flood.seq) {
            self.stats.borrow_mut().dup_publishes += 1;
            let cost = BROKER_PUBLISH_BASE / 2 + SimDuration::per_byte(bytes, BROKER_PER_BYTE_NS);
            self.server.cpu(ctx, Component::NaradaRoute, cost);
            return;
        }
        let topic: &str = &message.headers.destination;
        let broker = u32::from(self.my_ix);
        hop(ctx, probe, EventKind::BrokerRecv { broker });
        let match_t0 = ctx.wall_start();
        let (matches, match_cost) = self.engine.match_message(topic, &message);
        ctx.wall_record(Site::JmsMatch, match_t0);
        let cost =
            BROKER_PUBLISH_BASE + SimDuration::per_byte(bytes, BROKER_PER_BYTE_NS) + match_cost;
        let done = simprof::profile_span!(ctx, Component::NaradaRoute, {
            self.cpu_matched(ctx, cost, match_cost)
        });
        let matched = matches.len() as u32;
        let missed = (self.engine.topic_len(topic) as u32).saturating_sub(matched);
        hop(ctx, probe, EventKind::SelectorMatch { matched, missed });
        self.capture_orphans(probe, &message);
        self.dispatch_deliveries(ctx, probe, &message, matches, done);
        // v1.1.3 floods onward (the congestion the paper found).
        if self.dbn_broadcast {
            self.forward_to_peers(ctx, probe, &message, done, flood);
        }
    }

    /// While a durable subscriber is detached (the broker restarted and
    /// the client has not resubscribed yet), matching topic publishes go
    /// to its stable log instead of being lost.
    fn capture_orphans(&mut self, probe: ProbeId, message: &Message) {
        let topic: &str = &message.headers.destination;
        for (&peer, subs) in &self.durable_subs {
            for d in subs {
                if !d.attached && d.topic == topic && d.selector.matches(message) {
                    self.stable.entry(peer).or_default().push(StableEntry {
                        sub_id: d.sub_id,
                        probe,
                        message: message.clone(),
                    });
                }
            }
        }
    }

    /// Fault injection killed the JVM: volatile state (the connections in
    /// `held` and their threads, the matching engine, flood dedup) is lost;
    /// CLIENT-ack pendings move to the stable log keyed by subscriber
    /// actor — connections in id order, pendings in seq order — which is
    /// the durability the resync protocol recovers from.
    fn on_crash(&mut self, ctx: &mut Context<'_>, held: Vec<(ConnId, ConnState)>) {
        self.stats.borrow_mut().crashes += 1;
        for (conn, state) in held {
            let peer = self.subscriber_on(ctx, conn);
            self.pending_acks -= state.pending.len();
            let mut pending: Vec<(u64, PendingDelivery)> = state.pending.into_iter().collect();
            pending.sort_unstable_by_key(|&(seq, _)| seq);
            for (_, p) in pending {
                self.stable.entry(peer).or_default().push(StableEntry {
                    sub_id: p.sub_id,
                    probe: p.probe,
                    message: p.message,
                });
            }
        }
        for subs in self.durable_subs.values_mut() {
            for d in subs.iter_mut() {
                d.attached = false;
            }
        }
        self.engine = MatchingEngine::new();
        self.seen_forwards.clear();
        // next_fwd_seq is deliberately kept: peers' flood dedup keys on
        // (origin, seq), and reusing sequences after a restart would make
        // them silently discard fresh messages.
    }

    /// Re-deliver everything the stable log holds for this subscriber's
    /// subscription, with fresh delivery sequences from its re-created
    /// subscription. The re-injected messages re-enter the normal
    /// CLIENT-ack pending set so gap recovery covers them too.
    fn on_resync(&mut self, ctx: &mut Context<'_>, conn: ConnId, sub_id: u32) {
        let peer = self.subscriber_on(ctx, conn);
        if let Some(subs) = self.durable_subs.get_mut(&peer) {
            if let Some(d) = subs.iter_mut().find(|d| d.sub_id == sub_id) {
                d.attached = true;
            }
        }
        let Some(entries) = self.stable.get_mut(&peer) else {
            return;
        };
        let mut mine = Vec::new();
        let mut rest = Vec::new();
        for e in entries.drain(..) {
            if e.sub_id == sub_id {
                mine.push(e);
            } else {
                rest.push(e);
            }
        }
        *entries = rest;
        if mine.is_empty() {
            return;
        }
        let n = mine.len() as u64;
        let mut ready_at = ctx.now();
        for e in mine {
            let Some(seq) = self.engine.assign_seq(conn, sub_id) else {
                continue;
            };
            let cost = BROKER_DELIVER_BASE;
            ready_at = self
                .server
                .cpu(ctx, Component::NaradaTransport, cost)
                .max(ready_at);
            let bytes = deliver_bytes(&e.message);
            let deliver = BrokerToClient::Deliver {
                sub_id,
                probe: e.probe,
                deliver_seq: seq,
                message: e.message.clone(),
                retransmit: true,
            };
            self.server.send_at(ctx, conn, bytes, deliver, ready_at);
            {
                let mut st = self.stats.borrow_mut();
                st.delivered += 1;
                st.resynced += 1;
            }
            if let Some(state) = self.server.state_mut(conn) {
                state.max_sent_seq = Some(state.max_sent_seq.map_or(seq, |s| s.max(seq)));
                let pending = PendingDelivery {
                    sub_id,
                    probe: e.probe,
                    message: e.message,
                    retransmitted: false,
                };
                if state.pending.insert(seq, pending).is_none() {
                    self.pending_acks += 1;
                }
            }
        }
        simfault::with_faults(ctx, |inj, _| inj.stats.recovered += n);
        telemetry::with_metrics(ctx, |m, _| m.add_counter("fault_recoveries", n));
    }

    fn on_ack(&mut self, ctx: &mut Context<'_>, conn: ConnId, cumulative: u64, extra: Vec<u64>) {
        self.stats.borrow_mut().acks += 1;
        let cost = BROKER_ACK_PROCESS;
        let done = self.server.cpu(ctx, Component::NaradaAck, cost);
        let Some(state) = self.server.state_mut(conn) else {
            return;
        };
        if state.pending.is_empty() {
            return;
        }
        // Everything at or below the cumulative seq (or listed) is acked.
        let before = state.pending.len();
        state
            .pending
            .retain(|&seq, _| seq > cumulative && extra.binary_search(&seq).is_err());
        // Gap recovery: anything still pending below the connection's max
        // sent seq was evidently lost — retransmit once, then give up.
        let max_sent = state.max_sent_seq.unwrap_or(0);
        let mut to_retx: Vec<u64> = state
            .pending
            .iter()
            .filter(|(&seq, p)| seq < max_sent && !p.retransmitted)
            .map(|(&s, _)| s)
            .collect();
        to_retx.sort_unstable();
        let mut drop_list: Vec<u64> = state
            .pending
            .iter()
            .filter(|(&seq, p)| seq < max_sent && p.retransmitted)
            .map(|(&s, _)| s)
            .collect();
        drop_list.sort_unstable();
        for seq in drop_list {
            state.pending.remove(&seq);
        }
        self.pending_acks -= before - state.pending.len();
        for seq in to_retx {
            let state = self.server.state_mut(conn).expect("checked above");
            let p = state.pending.get_mut(&seq).expect("just selected");
            p.retransmitted = true;
            let probe = p.probe;
            let deliver = BrokerToClient::Deliver {
                sub_id: p.sub_id,
                probe,
                deliver_seq: seq,
                message: p.message.clone(),
                retransmit: true,
            };
            let bytes = deliver_bytes(&p.message);
            self.server.send_at(ctx, conn, bytes, deliver, done);
            self.stats.borrow_mut().retransmissions += 1;
            hop(ctx, probe, EventKind::Retransmit { attempt: 1 });
        }
    }

    /// Everything that is not a client frame: deployment control and the
    /// broker network's peer links (not accepted connections).
    fn on_other(&mut self, ctx: &mut Context<'_>, msg: Payload) {
        let msg = match msg.downcast::<BrokerControl>() {
            Ok(ctrl) => {
                let BrokerControl::SetPeers { my_ix, peers } = *ctrl;
                self.my_ix = my_ix;
                self.metric_names = MetricNames::of(my_ix);
                self.peers = peers;
                self.gossip_interests(ctx);
                return;
            }
            Err(m) => m,
        };
        let Ok(delivery) = msg.downcast::<Delivery>() else {
            return; // unknown message type: ignore
        };
        let Delivery { bytes, payload, .. } = *delivery;
        match payload.downcast::<BrokerToBroker>().map(|b| *b) {
            Ok(BrokerToBroker::Forward {
                probe,
                message,
                flood,
            }) => self.on_peer_forward(ctx, probe, message, bytes, flood),
            Ok(BrokerToBroker::InterestUpdate { broker, topics }) => {
                let interned = topics.iter().map(|t| self.topics.intern(t)).collect();
                self.peer_interests.insert(broker, interned);
            }
            Err(_) => {}
        }
    }
}

impl Actor for Broker {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let opens = |f: &ClientToBroker| matches!(f, ClientToBroker::Connect);
        let (conn, bytes, frame) = match self.server.inbound(ctx, msg, opens) {
            Inbound::Frame { conn, bytes, frame } => (conn, bytes, frame),
            Inbound::Crashed(held) => return self.on_crash(ctx, held),
            Inbound::Restarted => return self.gossip_interests(ctx),
            Inbound::Dropped => return,
            Inbound::NotMine(msg) => return self.on_other(ctx, msg),
        };
        match frame {
            ClientToBroker::Connect => self.on_connect(ctx, conn),
            ClientToBroker::Disconnect => self.on_disconnect(ctx, conn),
            ClientToBroker::Subscribe(sub) => self.on_subscribe(ctx, conn, sub),
            ClientToBroker::Publish(publish) => self.on_publish(ctx, conn, publish, bytes),
            ClientToBroker::Ack {
                cumulative_seq,
                extra,
            } => self.on_ack(ctx, conn, cumulative_seq, extra),
            ClientToBroker::Ping => {
                // Only held connections get here: pings on pre-crash
                // connections go unanswered and trigger client-side
                // detection.
                let now = ctx.now();
                self.control(ctx, conn, BrokerToClient::Pong, now);
            }
            ClientToBroker::Resync { sub_id } => self.on_resync(ctx, conn, sub_id),
        }
    }

    fn name(&self) -> &str {
        "narada-broker"
    }
}

/// One hop of `probe`'s message through the calling broker, now.
fn hop(ctx: &mut Context<'_>, probe: ProbeId, kind: EventKind) {
    let now = ctx.now();
    simtrace::hop(ctx, now, Some(TraceId(probe.0)), kind);
}
