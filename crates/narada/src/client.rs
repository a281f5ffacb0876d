//! Client-side JMS sessions: a [`NaradaClientSet`] manages many logical
//! connections (one per simulated power generator) inside a host actor,
//! exactly like the paper's driver program that forked one thread per
//! generator inside one JVM.
//!
//! Host-actor contract: forward [`simnet::Delivery`] payloads to
//! [`NaradaClientSet::handle_delivery`] and [`ClientTimer`] payloads to
//! [`NaradaClientSet::handle_timer`]; both return [`ClientEvent`]s for the
//! host to act on.

use crate::config::{
    ConnSettings, CLIENT_DELIVER_BASE, CLIENT_DELIVER_PER_BYTE_NS, CLIENT_SERIALIZE_BASE,
    CLIENT_SERIALIZE_PER_BYTE_NS, UDP_ACK_TIMEOUT, UDP_CLIENT_ACK_FLUSH, UDP_MAX_RETRIES,
};
use crate::protocol::{
    publish_bytes, BrokerToClient, ClientToBroker, Publish, Subscribe, CONTROL_FRAME_BYTES,
};
use crate::seqset::SeqSet;
use jms::AckMode;
use simcore::{Context, FastMap, FastSet, SimDuration, SimTime};
use simnet::session::{ClientTimer, Fired, SessionProtocol, SessionSet};
use simnet::{probe, ConnId, Delivery, Endpoint, NetworkFabric, Transport};
use simos::NodeId;
use std::collections::BTreeMap;
use telemetry::ProbeId;
use wire::Message;

/// Events surfaced to the host actor.
#[derive(Debug, PartialEq)]
pub enum ClientEvent {
    /// Connection established.
    Connected(ConnId),
    /// Connection refused by the broker (OOM).
    Refused(ConnId, String),
    /// Subscription confirmed.
    Subscribed(ConnId, u32),
    /// A message arrived and was processed by the listener.
    MessageArrived {
        /// Connection it arrived on.
        conn: ConnId,
        /// Subscription it matched.
        sub_id: u32,
        /// Telemetry probe of the originating publish.
        probe: ProbeId,
        /// When the listener callback completed.
        done_at: SimTime,
    },
    /// A UDP publish exhausted its retries and was abandoned.
    PublishAbandoned {
        /// Connection.
        conn: ConnId,
        /// Probe of the lost message.
        probe: ProbeId,
    },
    /// The broker stopped answering and a reconnect attempt began. The
    /// host must redirect its bookkeeping from `old` to `new`.
    Reconnecting {
        /// Connection id being abandoned.
        old: ConnId,
        /// Replacement connection (currently connecting).
        new: ConnId,
    },
    /// A reconnect attempt succeeded; subscriptions were re-created and
    /// buffered/pending publishes re-sent automatically.
    Reconnected(ConnId),
    /// Every reconnect attempt failed; the connection is gone for good.
    ConnectionLost(ConnId),
}

struct PendingPub {
    probe: ProbeId,
    message: Message,
    retries: u32,
    timer: u64,
}

#[derive(Default)]
struct SubRecv {
    /// Delivery seqs received (duplicate filter and ack state).
    seen: SeqSet,
    /// Dirty since last ack flush.
    dirty: bool,
}

/// What a reconnecting client must remember to re-create a subscription
/// on a fresh connection.
#[derive(Clone)]
struct SubSpec {
    sub_id: u32,
    topic: String,
    selector: String,
    /// CLIENT-ack UDP subscriptions ask the broker for a stable-storage
    /// resync once the re-subscribe is confirmed.
    needs_resync: bool,
}

/// What a JMS connection carries on top of the shared session.
#[derive(Default)]
struct ConnState {
    ack_mode: AckMode,
    next_pub_seq: u64,
    pending_pubs: FastMap<u64, PendingPub>,
    ack_flush_armed: bool,
    /// Created by the first subscribe or offline publish: most
    /// connections are a publisher's that never loses its broker, and
    /// hold none of it.
    subscriber: Option<Box<SubscriberState>>,
}

/// The part of a connection's state only subscribing or reconnecting
/// sessions fill.
#[derive(Default)]
struct SubscriberState {
    /// Per-subscription receive tracking (sub_id → state; BTreeMap for
    /// deterministic ack-flush order).
    recv: BTreeMap<u32, SubRecv>,
    /// Subscriptions ever created on this logical connection, for
    /// re-subscribe after reconnect.
    subs: Vec<SubSpec>,
    /// Publishes issued while reconnecting, drained on reconnect.
    offline: Vec<(ProbeId, Message)>,
    /// Probes already surfaced to the listener; filters the duplicates a
    /// resync can produce. Only populated when reconnect is enabled.
    seen_probes: FastSet<u64>,
}

impl ConnState {
    /// The subscriber state, created on first use.
    fn subscriber(&mut self) -> &mut SubscriberState {
        self.subscriber.get_or_insert_with(Box::default)
    }
}

enum TimerKind {
    PubRetry { conn: ConnId, seq: u64 },
    AckFlush { conn: ConnId },
}

/// JMS over the shared broker session.
struct Jms;

impl SessionProtocol for Jms {
    type Frame = ClientToBroker;
    type Timer = TimerKind;
    type State = ConnState;
    const COMPONENT: simprof::Component = simprof::Component::NaradaTransport;
    const RECONNECT_COUNTER: &'static str = "narada.reconnect_attempts";
    const CONTROL_FRAME_BYTES: usize = CONTROL_FRAME_BYTES;
    const CONNECT: ClientToBroker = ClientToBroker::Connect;
    const DISCONNECT: ClientToBroker = ClientToBroker::Disconnect;

    fn heartbeat(_: &ConnState) -> ClientToBroker {
        ClientToBroker::Ping
    }

    /// Subscriptions, pending publishes and the offline buffer carry
    /// over; receive state resets, because the restarted broker assigns
    /// delivery seqs from scratch.
    fn abandon(state: &mut ConnState, _: &mut Context<'_>) {
        state.ack_flush_armed = false;
        if let Some(subscriber) = &mut state.subscriber {
            subscriber
                .recv
                .values_mut()
                .for_each(|r| *r = SubRecv::default());
        }
    }
}

/// A set of client connections owned by one host actor.
pub struct NaradaClientSet {
    sessions: SessionSet<Jms>,
}

impl NaradaClientSet {
    /// New client set for a host actor on `node`.
    pub fn new(node: NodeId) -> Self {
        NaradaClientSet {
            sessions: SessionSet::new(node),
        }
    }

    /// Open a connection to `broker_ep`. The broker replies ConnectOk /
    /// ConnectRefused, surfaced later as a [`ClientEvent`].
    pub fn connect(
        &mut self,
        ctx: &mut Context<'_>,
        broker_ep: Endpoint,
        settings: ConnSettings,
    ) -> ConnId {
        let state = ConnState {
            ack_mode: settings.ack_mode,
            ..ConnState::default()
        };
        self.sessions.open(
            ctx,
            broker_ep,
            settings.transport,
            settings.reconnect,
            state,
        )
    }

    /// Create a topic subscription on an established connection.
    pub fn subscribe(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        sub_id: u32,
        topic: impl Into<String>,
        selector: impl Into<String>,
    ) {
        let (topic, selector) = (topic.into(), selector.into());
        let sess = self.sessions.get_mut(conn).expect("unknown connection");
        assert!(sess.is_ready(), "subscribe before ConnectOk");
        let ack_mode = sess.state.ack_mode;
        let subscriber = sess.state.subscriber();
        subscriber.recv.insert(sub_id, SubRecv::default());
        if sess.policy.is_some() {
            subscriber.subs.push(SubSpec {
                sub_id,
                topic: topic.clone(),
                selector: selector.clone(),
                needs_resync: false,
            });
        }
        let msg = ClientToBroker::Subscribe(Subscribe {
            sub_id,
            topic,
            selector,
            ack_mode,
        });
        self.sessions.send(ctx, conn, CONTROL_FRAME_BYTES + 64, msg);
    }

    /// Publish a message to its destination topic. Stamps
    /// `before_sending`/`after_sending` ([`simnet::probe`]) and returns
    /// the probe id.
    pub fn publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, message: Message) -> ProbeId {
        let probe = probe::published(ctx, &message.headers.destination);
        let sess = self.sessions.get_mut(conn).expect("unknown connection");
        if sess.reconnecting() {
            // Broker presumed dead and a reconnect is in flight: buffer
            // the publish; it is re-sent (delayed, not dropped) once the
            // replacement connection comes up.
            sess.state.subscriber().offline.push((probe, message));
            simfault::with_faults(ctx, |inj, _| inj.stats.delayed += 1);
            return probe;
        }
        assert!(sess.is_ready(), "publish before ConnectOk");
        self.send_publish(ctx, conn, probe, message);
        probe
    }

    /// Assign a publish seq and put the message on the wire. Shared by the
    /// normal publish path and the offline-buffer drain after reconnect.
    fn send_publish(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        probe: ProbeId,
        message: Message,
    ) {
        let sess = self.sessions.get_mut(conn).expect("unknown connection");
        let seq = sess.state.next_pub_seq;
        sess.state.next_pub_seq += 1;
        let transport = sess.transport;
        let bytes = publish_bytes(&message);

        // Serialization on the client CPU.
        let cost =
            CLIENT_SERIALIZE_BASE + SimDuration::per_byte(bytes, CLIENT_SERIALIZE_PER_BYTE_NS);
        let ser_done = self.sessions.cpu(ctx, cost);

        if transport == Transport::Udp {
            // JMS-over-UDP: publish() is synchronous until the broker ack.
            let timer = self
                .sessions
                .arm(ctx, UDP_ACK_TIMEOUT, TimerKind::PubRetry { conn, seq });
            let sess = self.sessions.get_mut(conn).expect("still here");
            sess.state.pending_pubs.insert(
                seq,
                PendingPub {
                    probe,
                    message: message.clone(),
                    retries: 0,
                    timer,
                },
            );
        } else {
            // TCP family: publish() returns once the write completes.
            probe::sent(ctx, probe, ser_done);
        }

        let pub_msg = ClientToBroker::Publish(Publish {
            probe,
            seq,
            message,
            retransmit: false,
        });
        self.sessions.send_at(ctx, conn, bytes, pub_msg, ser_done);
    }

    /// Handle a network delivery addressed to the host actor. Returns the
    /// events the host should react to.
    pub fn handle_delivery(
        &mut self,
        ctx: &mut Context<'_>,
        delivery: Delivery,
    ) -> Vec<ClientEvent> {
        let Delivery {
            conn,
            bytes,
            payload,
            ..
        } = delivery;
        let Ok(b2c) = payload.downcast::<BrokerToClient>() else {
            return Vec::new();
        };
        self.sessions.heard_from(ctx, conn);
        let mut events = Vec::new();
        match *b2c {
            BrokerToClient::ConnectOk => {
                let Some(was_reconnect) = self.sessions.connect_ok(ctx, conn) else {
                    return events;
                };
                if was_reconnect {
                    events.push(ClientEvent::Reconnected(conn));
                    self.resubscribe_all(ctx, conn);
                    self.republish_pending(ctx, conn);
                    self.drain_offline(ctx, conn);
                } else {
                    events.push(ClientEvent::Connected(conn));
                }
                self.sessions.start_heartbeat(ctx, conn);
            }
            BrokerToClient::ConnectRefused { reason } => {
                if self.sessions.refused(conn) {
                    events.push(ClientEvent::Refused(conn, reason));
                }
            }
            BrokerToClient::SubscribeOk { sub_id } => {
                events.push(ClientEvent::Subscribed(conn, sub_id));
                let spec = self
                    .sessions
                    .get_mut(conn)
                    .and_then(|s| s.state.subscriber.as_mut())
                    .and_then(|s| s.subs.iter_mut().find(|s| s.sub_id == sub_id));
                if spec.is_some_and(|spec| std::mem::take(&mut spec.needs_resync)) {
                    // Re-subscribe confirmed: ask the broker to replay
                    // this subscription's stable log.
                    let resync = ClientToBroker::Resync { sub_id };
                    self.sessions.send(ctx, conn, CONTROL_FRAME_BYTES, resync);
                }
            }
            BrokerToClient::Pong => {}
            BrokerToClient::PublishAck { seq } => {
                let acked = self
                    .sessions
                    .get_mut(conn)
                    .and_then(|s| s.state.pending_pubs.remove(&seq));
                if let Some(p) = acked {
                    // publish() completes now: UDP PRT includes the
                    // network round trip plus broker ack processing.
                    let now = ctx.now();
                    probe::sent(ctx, p.probe, now);
                    self.sessions.cancel(p.timer);
                }
            }
            BrokerToClient::Deliver {
                sub_id,
                probe,
                deliver_seq,
                message: _,
                retransmit: _,
            } => {
                let now = ctx.now();
                let Some(sess) = self.sessions.get_mut(conn) else {
                    return events;
                };
                let Some(subscriber) = sess.state.subscriber.as_mut() else {
                    return events;
                };
                let Some(recv) = subscriber.recv.get_mut(&sub_id) else {
                    return events;
                };
                // Duplicate filter.
                if !recv.seen.insert(deliver_seq) {
                    return events;
                }
                recv.dirty = true;
                let transport = sess.transport;
                let ack_mode = sess.state.ack_mode;
                // A resync after reconnect re-delivers under a fresh seq
                // space; dedup those by probe (reconnect-enabled only, so
                // the paper-mode hot path stays untouched).
                let fresh = sess.policy.is_none() || subscriber.seen_probes.insert(probe.0);

                // Listener callback: deserialize + user code.
                if fresh {
                    probe::available(ctx, probe, now);
                }
                let cost =
                    CLIENT_DELIVER_BASE + SimDuration::per_byte(bytes, CLIENT_DELIVER_PER_BYTE_NS);
                let done = self.sessions.cpu(ctx, cost);
                if fresh {
                    probe::delivered(ctx, probe, done);
                    events.push(ClientEvent::MessageArrived {
                        conn,
                        sub_id,
                        probe,
                        done_at: done,
                    });
                }

                // Acknowledgements (UDP reliability layer).
                if transport == Transport::Udp {
                    match ack_mode {
                        AckMode::Auto => {
                            self.flush_acks(ctx, conn, done);
                        }
                        AckMode::Client => {
                            let sess = self.sessions.get_mut(conn).expect("still here");
                            if !sess.state.ack_flush_armed {
                                sess.state.ack_flush_armed = true;
                                self.sessions.arm(
                                    ctx,
                                    UDP_CLIENT_ACK_FLUSH,
                                    TimerKind::AckFlush { conn },
                                );
                            }
                        }
                    }
                }
            }
        }
        events
    }

    /// Handle a [`ClientTimer`] delivered to the host actor.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_>, timer: ClientTimer) -> Vec<ClientEvent> {
        match self.sessions.fire(ctx, timer) {
            Fired::Idle => Vec::new(),
            Fired::Own(TimerKind::PubRetry { conn, seq }) => self.retry_publish(ctx, conn, seq),
            Fired::Own(TimerKind::AckFlush { conn }) => {
                let now = ctx.now();
                if let Some(sess) = self.sessions.get_mut(conn) {
                    sess.state.ack_flush_armed = false;
                }
                self.flush_acks(ctx, conn, now);
                Vec::new()
            }
            Fired::Reconnecting { old, new } => vec![ClientEvent::Reconnecting { old, new }],
            Fired::Lost(conn, state) => {
                // Everything unflushed is lost with the connection.
                let mut events = vec![ClientEvent::ConnectionLost(conn)];
                let mut seqs: Vec<u64> = state.pending_pubs.keys().copied().collect();
                seqs.sort_unstable();
                for seq in seqs {
                    let probe = state.pending_pubs[&seq].probe;
                    events.push(ClientEvent::PublishAbandoned { conn, probe });
                }
                for (probe, _) in state.subscriber.iter().flat_map(|s| &s.offline) {
                    events.push(ClientEvent::PublishAbandoned {
                        conn,
                        probe: *probe,
                    });
                }
                events
            }
        }
    }

    /// A UDP publish went unacknowledged for one ack timeout: retransmit,
    /// fail over, or give up.
    fn retry_publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, seq: u64) -> Vec<ClientEvent> {
        let mut timeout = UDP_ACK_TIMEOUT;
        let Some(sess) = self.sessions.get_mut(conn) else {
            return Vec::new();
        };
        let recoverable = sess.policy.is_some() && sess.is_ready();
        let silent = sess.broker_silent(ctx.now());
        let Some(p) = sess.state.pending_pubs.get_mut(&seq) else {
            return Vec::new(); // acked meanwhile
        };
        if p.retries >= UDP_MAX_RETRIES {
            if !recoverable {
                let probe = p.probe;
                sess.state.pending_pubs.remove(&seq);
                return vec![ClientEvent::PublishAbandoned { conn, probe }];
            }
            if silent {
                // Liveness failure: keep the pending publish (republished
                // after reconnect) and fail over.
                return match self.sessions.begin_reconnect(ctx, conn) {
                    Some(new) => vec![ClientEvent::Reconnecting { old: conn, new }],
                    None => Vec::new(),
                };
            }
            // The broker was heard from inside the liveness window: a
            // late publish-ack is congestion, not a crash. Failing over
            // here feeds a reconnect storm (every reconnect republishes
            // its pendings, adding more load and more late acks);
            // retransmit at a gentler cadence instead and let the
            // silence detector decide about the broker.
            timeout = timeout.saturating_mul(4);
        }
        p.retries += 1;
        let (probe, message) = (p.probe, p.message.clone());
        let attempt = p.retries;
        let now = ctx.now();
        let retransmit = simtrace::EventKind::Retransmit { attempt };
        simtrace::hop(ctx, now, Some(simtrace::TraceId(probe.0)), retransmit);
        let timer = self
            .sessions
            .arm(ctx, timeout, TimerKind::PubRetry { conn, seq });
        let sess = self.sessions.get_mut(conn).expect("still here");
        if let Some(p) = sess.state.pending_pubs.get_mut(&seq) {
            p.timer = timer;
        }
        self.resend(ctx, conn, probe, seq, message);
        Vec::new()
    }

    /// Put an already-published message on the wire again under its
    /// original seq. Retransmission re-serializes from the buffered form:
    /// cheaper than first serialization.
    fn resend(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        probe: ProbeId,
        seq: u64,
        message: Message,
    ) {
        let bytes = publish_bytes(&message);
        let done = self.sessions.cpu(ctx, CLIENT_SERIALIZE_BASE);
        let msg = ClientToBroker::Publish(Publish {
            probe,
            seq,
            message,
            retransmit: true,
        });
        self.sessions.send_at(ctx, conn, bytes, msg, done);
    }

    /// Re-create every subscription of a reconnected connection, flagging
    /// CLIENT-ack UDP subs for a stable-storage resync.
    fn resubscribe_all(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        let ack_mode = sess.state.ack_mode;
        let durable = sess.transport == Transport::Udp && ack_mode == AckMode::Client;
        let Some(SubscriberState { subs, recv, .. }) = sess.state.subscriber.as_deref_mut() else {
            return;
        };
        let mut msgs = Vec::new();
        for spec in subs.iter_mut() {
            spec.needs_resync = durable;
            recv.insert(spec.sub_id, SubRecv::default());
            msgs.push(ClientToBroker::Subscribe(Subscribe {
                sub_id: spec.sub_id,
                topic: spec.topic.clone(),
                selector: spec.selector.clone(),
                ack_mode,
            }));
        }
        for msg in msgs {
            self.sessions.send(ctx, conn, CONTROL_FRAME_BYTES + 64, msg);
        }
    }

    /// Re-send every still-unacked UDP publish on a reconnected
    /// connection, keeping the original seqs (the broker's dup filter
    /// reset with the crash).
    fn republish_pending(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get(conn) else {
            return;
        };
        let mut seqs: Vec<u64> = sess.state.pending_pubs.keys().copied().collect();
        seqs.sort_unstable();
        let n = seqs.len() as u64;
        for seq in seqs {
            let timer = self
                .sessions
                .arm(ctx, UDP_ACK_TIMEOUT, TimerKind::PubRetry { conn, seq });
            let sess = self.sessions.get_mut(conn).expect("still here");
            let p = sess.state.pending_pubs.get_mut(&seq).expect("listed above");
            p.retries = 0;
            p.timer = timer;
            let (probe, message) = (p.probe, p.message.clone());
            self.resend(ctx, conn, probe, seq, message);
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.republished += n);
        }
    }

    /// Drain the offline publish buffer of a reconnected connection.
    fn drain_offline(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        let Some(subscriber) = sess.state.subscriber.as_mut() else {
            return;
        };
        let offline = std::mem::take(&mut subscriber.offline);
        for (probe, message) in offline {
            self.send_publish(ctx, conn, probe, message);
        }
    }

    /// Send ack state for every dirty subscription on `conn`.
    fn flush_acks(&mut self, ctx: &mut Context<'_>, conn: ConnId, at: SimTime) {
        let me = self.sessions.endpoint(ctx);
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        // Only a CLIENT-ack broker retains deliveries, so only then does
        // the selective part of the ack tell it anything. In AUTO the set
        // of seqs above an unrecovered gap never drains; listing it on
        // every delivery made the host cost of a run quadratic in its
        // length. The frame is `CONTROL_FRAME_BYTES` on the simulated wire
        // whatever it lists.
        let selective = sess.state.ack_mode == AckMode::Client;
        let subscribed = sess.state.subscriber.iter_mut();
        for recv in subscribed.flat_map(|s| s.recv.values_mut()) {
            if !recv.dirty {
                continue;
            }
            recv.dirty = false;
            let ack = ClientToBroker::Ack {
                cumulative_seq: recv.seen.contiguous_max().unwrap_or(0),
                extra: if selective {
                    recv.seen.above().collect()
                } else {
                    Vec::new()
                },
            };
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send_at(ctx, conn, me, CONTROL_FRAME_BYTES, Box::new(ack), at);
            });
        }
    }

    /// Close a connection: the broker frees its service thread and drops
    /// its subscriptions; further use of `conn` is a protocol error.
    pub fn disconnect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        if self.sessions.remove(conn).is_some() {
            self.sessions
                .send(ctx, conn, CONTROL_FRAME_BYTES, ClientToBroker::Disconnect);
        }
    }

    /// Has the broker accepted `conn`?
    pub fn is_ready(&self, conn: ConnId) -> bool {
        self.sessions.get(conn).is_some_and(|s| s.is_ready())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet of thousands of idle publishing sessions: each is held in
    /// a `SessionSet` bucket, so its size is most of the client's memory.
    #[test]
    fn an_idle_session_is_at_most_128_bytes() {
        let size = std::mem::size_of::<simnet::session::Session<ConnState>>();
        assert!(size <= 128, "{size} B a session");
    }
}
