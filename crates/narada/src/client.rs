//! Client-side JMS sessions: a [`NaradaClientSet`] manages many logical
//! connections (one per simulated power generator) inside a host actor,
//! exactly like the paper's driver program that forked one thread per
//! generator inside one JVM.
//!
//! Host-actor contract: forward [`simnet::Delivery`] payloads to
//! [`NaradaClientSet::handle_delivery`] and [`ClientTimer`] payloads to
//! [`NaradaClientSet::handle_timer`]; both return [`ClientEvent`]s for the
//! host to act on.

use crate::config::{ConnSettings, NaradaConfig};
use crate::protocol::{publish_bytes, BrokerToClient, ClientToBroker, CONTROL_FRAME_BYTES};
use crate::seqset::SeqSet;
use jms::AckMode;
use simcore::{Context, SimDuration, SimTime};
use simnet::{ConnId, Delivery, Endpoint, NetworkFabric, Transport};
use simos::{NodeId, OsModel};
use std::collections::{BTreeMap, HashMap};
use telemetry::{ProbeId, RttCollector};
use wire::Message;

/// Timer payload the host actor must route back via `handle_timer`.
pub struct ClientTimer(pub u64);

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    Connecting,
    Ready,
    Refused,
}

struct PendingPub {
    probe: ProbeId,
    message: Message,
    retries: u32,
    timer: u64,
    queue: bool,
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
    queue: bool,
    /// CLIENT-ack UDP subscriptions ask the broker for a stable-storage
    /// resync once the re-subscribe is confirmed.
    needs_resync: bool,
}

struct ConnState {
    settings: ConnSettings,
    broker_ep: Endpoint,
    phase: ConnPhase,
    next_pub_seq: u64,
    pending_pubs: HashMap<u64, PendingPub>,
    /// Per-subscription receive tracking (sub_id → state; BTreeMap for
    /// deterministic ack-flush order).
    recv: BTreeMap<u32, SubRecv>,
    ack_flush_armed: bool,
    /// Subscriptions ever created on this logical connection, for
    /// re-subscribe after reconnect.
    subs: Vec<SubSpec>,
    /// Last instant the broker was heard from (reconnect detection).
    last_seen: SimTime,
    /// Reconnect attempts made so far (0 = never lost). Refunded on every
    /// successful connect: the cap bounds one outage, not a lifetime.
    attempt: u32,
    /// True once this logical connection reached `Ready` at least once;
    /// distinguishes a retried *initial* connect (surfaces `Connected`)
    /// from a true reconnect (surfaces `Reconnected` + recovery).
    ever_connected: bool,
    /// Publishes issued while reconnecting, drained on reconnect.
    offline: Vec<(ProbeId, Message, bool)>,
    /// Probes already surfaced to the listener; filters the duplicates a
    /// resync can produce. Only populated when reconnect is enabled.
    seen_probes: std::collections::HashSet<u64>,
}

enum TimerKind {
    PubRetry { conn: ConnId, seq: u64 },
    AckFlush { conn: ConnId },
    Heartbeat { conn: ConnId },
    ReconnectTry { conn: ConnId },
    ReconnectDeadline { conn: ConnId, attempt: u32 },
}

/// A set of client connections owned by one host actor.
pub struct NaradaClientSet {
    cfg: NaradaConfig,
    node: NodeId,
    conns: HashMap<ConnId, ConnState>,
    timers: HashMap<u64, TimerKind>,
    next_timer: u64,
}

impl NaradaClientSet {
    /// New client set for a host actor on `node`.
    pub fn new(cfg: NaradaConfig, node: NodeId) -> Self {
        NaradaClientSet {
            cfg,
            node,
            conns: HashMap::new(),
            timers: HashMap::new(),
            next_timer: 0,
        }
    }

    fn my_ep(&self, ctx: &Context<'_>) -> Endpoint {
        Endpoint::new(self.node, ctx.self_id())
    }

    fn cpu(&self, ctx: &mut Context<'_>, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, simprof::Component::NaradaTransport, effective);
            done
        })
    }

    fn serialize_cost(&self, bytes: usize) -> SimDuration {
        self.cfg.costs.client_serialize_base
            + SimDuration::from_micros(
                (bytes as u64 * self.cfg.costs.client_serialize_per_byte_ns).div_ceil(1000),
            )
    }

    fn deliver_cost(&self, bytes: usize) -> SimDuration {
        self.cfg.costs.client_deliver_base
            + SimDuration::from_micros(
                (bytes as u64 * self.cfg.costs.client_deliver_per_byte_ns).div_ceil(1000),
            )
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_>, delay: SimDuration, kind: TimerKind) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, kind);
        ctx.timer(delay, ClientTimer(token));
        token
    }

    /// Open a connection to `broker_ep`. The broker replies ConnectOk /
    /// ConnectRefused, surfaced later as a [`ClientEvent`].
    pub fn connect(
        &mut self,
        ctx: &mut Context<'_>,
        broker_ep: Endpoint,
        settings: ConnSettings,
    ) -> ConnId {
        let me = self.my_ep(ctx);
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            let conn = net.open(ctx.now(), settings.transport, me, broker_ep);
            net.send(
                ctx,
                conn,
                me,
                CONTROL_FRAME_BYTES,
                Box::new(ClientToBroker::Connect),
            );
            conn
        });
        self.conns.insert(
            conn,
            ConnState {
                settings,
                broker_ep,
                phase: ConnPhase::Connecting,
                next_pub_seq: 0,
                pending_pubs: HashMap::new(),
                recv: BTreeMap::new(),
                ack_flush_armed: false,
                subs: Vec::new(),
                last_seen: ctx.now(),
                attempt: 0,
                ever_connected: false,
                offline: Vec::new(),
                seen_probes: std::collections::HashSet::new(),
            },
        );
        // With recovery enabled, the *initial* connect gets the same
        // deadline as a reconnect attempt: a Connect frame swallowed by a
        // crashed broker must not strand the client in `Connecting`
        // forever (it retries through the normal backoff machinery).
        if let Some(policy) = settings.reconnect {
            self.arm_timer(
                ctx,
                policy.detect_timeout,
                TimerKind::ReconnectDeadline { conn, attempt: 0 },
            );
        }
        conn
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
        self.subscribe_inner(ctx, conn, sub_id, topic.into(), selector.into(), false)
    }

    /// Register as a queue receiver (JMS point-to-point mode): each
    /// message sent to the queue reaches exactly one receiver.
    pub fn subscribe_queue(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        sub_id: u32,
        queue: impl Into<String>,
        selector: impl Into<String>,
    ) {
        self.subscribe_inner(ctx, conn, sub_id, queue.into(), selector.into(), true)
    }

    fn subscribe_inner(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        sub_id: u32,
        topic: String,
        selector: String,
        queue: bool,
    ) {
        let state = self.conns.get_mut(&conn).expect("unknown connection");
        assert_eq!(state.phase, ConnPhase::Ready, "subscribe before ConnectOk");
        state.recv.insert(sub_id, SubRecv::default());
        let ack_mode = state.settings.ack_mode;
        if state.settings.reconnect.is_some() {
            state.subs.push(SubSpec {
                sub_id,
                topic: topic.clone(),
                selector: selector.clone(),
                queue,
                needs_resync: false,
            });
        }
        let me = self.my_ep(ctx);
        let msg = ClientToBroker::Subscribe {
            sub_id,
            topic,
            selector,
            ack_mode,
            queue,
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send(ctx, conn, me, CONTROL_FRAME_BYTES + 64, Box::new(msg));
        });
    }

    /// Publish a message to its destination topic. Instruments
    /// `before_sending`/`after_sending` on the shared [`RttCollector`]
    /// and returns the probe id.
    pub fn publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, message: Message) -> ProbeId {
        self.publish_inner(ctx, conn, message, false)
    }

    /// Send a message to a queue (point-to-point mode).
    pub fn send_to_queue(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        message: Message,
    ) -> ProbeId {
        self.publish_inner(ctx, conn, message, true)
    }

    fn publish_inner(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        mut message: Message,
        queue: bool,
    ) -> ProbeId {
        let now = ctx.now();
        let lane = ctx.self_id().index() as u32;
        let probe = ctx.service_mut::<RttCollector>().before_sending(lane, now);
        // Thread the causal trace id through the middleware (out-of-band:
        // not part of the wire encoding, see `wire::Headers::trace`).
        message.headers.trace = Some(simtrace::TraceId(probe.0));
        // Freshness stamp, same out-of-band discipline: carried so the
        // subscriber side can compute delivery age; zero wire bytes.
        message.headers.published_at = Some(now);
        simslo::with_slo(ctx, |slo, at| {
            slo.record_publish(probe, &message.headers.destination, at)
        });
        let actor = ctx.self_id().index() as u64;
        simtrace::with_trace(ctx, |tr, at| {
            tr.record(
                at,
                Some(simtrace::TraceId(probe.0)),
                actor,
                simtrace::EventKind::PublishBegin,
            );
        });
        let state = self.conns.get_mut(&conn).expect("unknown connection");
        if state.phase == ConnPhase::Connecting && state.settings.reconnect.is_some() {
            // Broker presumed dead and a reconnect is in flight: buffer
            // the publish; it is re-sent (delayed, not dropped) once the
            // replacement connection comes up.
            state.offline.push((probe, message, queue));
            simfault::with_faults(ctx, |inj, _| inj.stats.delayed += 1);
            return probe;
        }
        assert_eq!(state.phase, ConnPhase::Ready, "publish before ConnectOk");
        self.send_publish(ctx, conn, probe, message, queue);
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
        queue: bool,
    ) {
        let actor = ctx.self_id().index() as u64;
        let state = self.conns.get_mut(&conn).expect("unknown connection");
        let seq = state.next_pub_seq;
        state.next_pub_seq += 1;
        let transport = state.settings.transport;
        let bytes = publish_bytes(&message);

        // Serialization on the client CPU.
        let ser_done = self.cpu(ctx, self.serialize_cost(bytes));

        if transport == Transport::Udp {
            // JMS-over-UDP: publish() is synchronous until the broker ack.
            let timeout = self.cfg.udp.ack_timeout;
            let timer = self.arm_timer(ctx, timeout, TimerKind::PubRetry { conn, seq });
            let state = self.conns.get_mut(&conn).expect("still here");
            state.pending_pubs.insert(
                seq,
                PendingPub {
                    probe,
                    message: message.clone(),
                    retries: 0,
                    timer,
                    queue,
                },
            );
        } else {
            // TCP family: publish() returns once the write completes.
            ctx.service_mut::<RttCollector>()
                .after_sending(probe, ser_done);
            simtrace::with_trace(ctx, |tr, _| {
                tr.record(
                    ser_done,
                    Some(simtrace::TraceId(probe.0)),
                    actor,
                    simtrace::EventKind::PublishEnd,
                );
            });
        }

        let me = self.my_ep(ctx);
        let pub_msg = ClientToBroker::Publish {
            probe,
            seq,
            message,
            retransmit: false,
            queue,
        };
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, me, bytes, Box::new(pub_msg), ser_done);
        });
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
        // Any broker frame counts as liveness for crash detection.
        if let Some(state) = self.conns.get_mut(&conn) {
            state.last_seen = ctx.now();
        }
        let mut events = Vec::new();
        match *b2c {
            BrokerToClient::ConnectOk => {
                let Some(state) = self.conns.get_mut(&conn) else {
                    return events;
                };
                state.phase = ConnPhase::Ready;
                let reconnect = state.settings.reconnect;
                // A successful (re)connect refunds the attempt budget: the
                // cap bounds one outage, not the connection's lifetime.
                let was_reconnect = state.ever_connected && state.attempt > 0;
                state.attempt = 0;
                state.ever_connected = true;
                if was_reconnect {
                    events.push(ClientEvent::Reconnected(conn));
                    simfault::with_faults(ctx, |inj, _| inj.stats.reconnects += 1);
                    self.resubscribe_all(ctx, conn);
                    self.republish_pending(ctx, conn);
                    self.drain_offline(ctx, conn);
                } else {
                    events.push(ClientEvent::Connected(conn));
                }
                if let Some(policy) = reconnect {
                    self.arm_timer(ctx, policy.ping_interval, TimerKind::Heartbeat { conn });
                }
            }
            BrokerToClient::ConnectRefused { reason } => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.phase = ConnPhase::Refused;
                    events.push(ClientEvent::Refused(conn, reason));
                }
            }
            BrokerToClient::SubscribeOk { sub_id } => {
                events.push(ClientEvent::Subscribed(conn, sub_id));
                let me = self.my_ep(ctx);
                if let Some(state) = self.conns.get_mut(&conn) {
                    if let Some(spec) = state.subs.iter_mut().find(|s| s.sub_id == sub_id) {
                        if spec.needs_resync {
                            // Re-subscribe confirmed: ask the broker to
                            // replay this subscription's stable log.
                            spec.needs_resync = false;
                            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                                net.send(
                                    ctx,
                                    conn,
                                    me,
                                    CONTROL_FRAME_BYTES,
                                    Box::new(ClientToBroker::Resync { sub_id }),
                                );
                            });
                        }
                    }
                }
            }
            BrokerToClient::Pong => {}
            BrokerToClient::PublishAck { seq } => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    if let Some(p) = state.pending_pubs.remove(&seq) {
                        // publish() completes now: UDP PRT includes the
                        // network round trip plus broker ack processing.
                        let now = ctx.now();
                        ctx.service_mut::<RttCollector>()
                            .after_sending(p.probe, now);
                        self.timers.remove(&p.timer);
                        let actor = ctx.self_id().index() as u64;
                        let probe = p.probe;
                        simtrace::with_trace(ctx, |tr, at| {
                            tr.record(
                                at,
                                Some(simtrace::TraceId(probe.0)),
                                actor,
                                simtrace::EventKind::PublishEnd,
                            );
                        });
                    }
                }
            }
            BrokerToClient::Deliver {
                sub_id,
                probe,
                deliver_seq,
                message,
                retransmit: _,
            } => {
                let now = ctx.now();
                let Some(state) = self.conns.get_mut(&conn) else {
                    return events;
                };
                let Some(recv) = state.recv.get_mut(&sub_id) else {
                    return events;
                };
                // Duplicate filter.
                if !recv.seen.insert(deliver_seq) {
                    return events;
                }
                recv.dirty = true;
                let transport = state.settings.transport;
                let ack_mode = state.settings.ack_mode;
                // A resync after reconnect re-delivers under a fresh seq
                // space; dedup those by probe (reconnect-enabled only, so
                // the paper-mode hot path stays untouched).
                let fresh = state.settings.reconnect.is_none() || state.seen_probes.insert(probe.0);

                // Listener callback: deserialize + user code.
                if fresh {
                    ctx.service_mut::<RttCollector>()
                        .before_receiving(probe, now);
                }
                let done = self.cpu(ctx, self.deliver_cost(bytes));
                if fresh {
                    ctx.service_mut::<RttCollector>()
                        .after_receiving(probe, done);
                    let actor = ctx.self_id().index() as u64;
                    simtrace::with_trace(ctx, |tr, _| {
                        let id = Some(simtrace::TraceId(probe.0));
                        tr.record(now, id, actor, simtrace::EventKind::Available);
                        tr.record(done, id, actor, simtrace::EventKind::Delivered);
                    });
                    // Freshness plane: the subscribing application has
                    // the reading at `done` (same instant the RTT probe
                    // completes); the carried stamp cross-checks the
                    // publisher-side record.
                    simslo::with_slo(ctx, |slo, _| {
                        slo.record_delivery(
                            probe,
                            actor as u32,
                            done,
                            message.headers.published_at,
                        );
                    });
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
                        AckMode::Auto | AckMode::DupsOk => {
                            self.flush_acks(ctx, conn, done);
                        }
                        AckMode::Client => {
                            let state = self.conns.get_mut(&conn).expect("still here");
                            if !state.ack_flush_armed {
                                state.ack_flush_armed = true;
                                let flush = self.cfg.udp.client_ack_flush;
                                self.arm_timer(ctx, flush, TimerKind::AckFlush { conn });
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
        let Some(kind) = self.timers.remove(&timer.0) else {
            return Vec::new(); // stale (already acked)
        };
        match kind {
            TimerKind::PubRetry { conn, seq } => {
                let max_retries = self.cfg.udp.max_retries;
                let mut timeout = self.cfg.udp.ack_timeout;
                let Some(state) = self.conns.get_mut(&conn) else {
                    return Vec::new();
                };
                let Some(p) = state.pending_pubs.get_mut(&seq) else {
                    return Vec::new(); // acked meanwhile
                };
                if p.retries >= max_retries {
                    match state.settings.reconnect {
                        Some(policy) if state.phase == ConnPhase::Ready => {
                            if ctx.now().saturating_since(state.last_seen) > policy.detect_timeout {
                                // Liveness failure: keep the pending
                                // publish (republished after reconnect)
                                // and fail over.
                                return self.begin_reconnect(ctx, conn);
                            }
                            // The broker was heard from inside the
                            // liveness window: a late publish-ack is
                            // congestion, not a crash. Failing over here
                            // feeds a reconnect storm (every reconnect
                            // republishes its pendings, adding more load
                            // and more late acks); retransmit at a
                            // gentler cadence instead and let the
                            // silence detector decide about the broker.
                            timeout = timeout.saturating_mul(4);
                        }
                        _ => {
                            let probe = p.probe;
                            state.pending_pubs.remove(&seq);
                            return vec![ClientEvent::PublishAbandoned { conn, probe }];
                        }
                    }
                }
                p.retries += 1;
                let probe = p.probe;
                let message = p.message.clone();
                let queue = p.queue;
                let attempt = p.retries;
                let actor = ctx.self_id().index() as u64;
                simtrace::with_trace(ctx, |tr, at| {
                    tr.record(
                        at,
                        Some(simtrace::TraceId(probe.0)),
                        actor,
                        simtrace::EventKind::Retransmit { attempt },
                    );
                    tr.count(simtrace::Counter::Retries, 1);
                });
                let timer = self.arm_timer(ctx, timeout, TimerKind::PubRetry { conn, seq });
                let state = self.conns.get_mut(&conn).expect("still here");
                if let Some(p) = state.pending_pubs.get_mut(&seq) {
                    p.timer = timer;
                }
                let bytes = publish_bytes(&message);
                // Retransmission re-serializes from the buffered form:
                // cheaper than first serialization.
                let done = self.cpu(ctx, self.cfg.costs.client_serialize_base);
                let me = self.my_ep(ctx);
                let msg = ClientToBroker::Publish {
                    probe,
                    seq,
                    message,
                    retransmit: true,
                    queue,
                };
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.send_at(ctx, conn, me, bytes, Box::new(msg), done);
                });
                Vec::new()
            }
            TimerKind::AckFlush { conn } => {
                let now = ctx.now();
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.ack_flush_armed = false;
                }
                self.flush_acks(ctx, conn, now);
                Vec::new()
            }
            TimerKind::Heartbeat { conn } => {
                let Some(state) = self.conns.get(&conn) else {
                    return Vec::new(); // conn replaced or closed
                };
                let Some(policy) = state.settings.reconnect else {
                    return Vec::new();
                };
                if state.phase != ConnPhase::Ready {
                    return Vec::new();
                }
                if ctx.now().saturating_since(state.last_seen) > policy.detect_timeout {
                    return self.begin_reconnect(ctx, conn);
                }
                let me = self.my_ep(ctx);
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.send(
                        ctx,
                        conn,
                        me,
                        CONTROL_FRAME_BYTES,
                        Box::new(ClientToBroker::Ping),
                    );
                });
                self.arm_timer(ctx, policy.ping_interval, TimerKind::Heartbeat { conn });
                Vec::new()
            }
            TimerKind::ReconnectTry { conn } => self.begin_reconnect(ctx, conn),
            TimerKind::ReconnectDeadline { conn, attempt } => {
                let Some(state) = self.conns.get(&conn) else {
                    return Vec::new();
                };
                if state.phase != ConnPhase::Connecting || state.attempt != attempt {
                    return Vec::new(); // connected meanwhile or superseded
                }
                let policy = state.settings.reconnect.expect("reconnecting conn");
                if attempt >= policy.max_attempts {
                    // Give up for good; everything unflushed is lost. Say
                    // goodbye so a slow-but-alive broker frees the thread.
                    let me = self.my_ep(ctx);
                    ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                        net.send(
                            ctx,
                            conn,
                            me,
                            CONTROL_FRAME_BYTES,
                            Box::new(ClientToBroker::Disconnect),
                        );
                    });
                    let state = self.conns.remove(&conn).expect("checked above");
                    let mut events = vec![ClientEvent::ConnectionLost(conn)];
                    let mut seqs: Vec<u64> = state.pending_pubs.keys().copied().collect();
                    seqs.sort_unstable();
                    for seq in seqs {
                        let probe = state.pending_pubs[&seq].probe;
                        events.push(ClientEvent::PublishAbandoned { conn, probe });
                    }
                    for (probe, _, _) in &state.offline {
                        events.push(ClientEvent::PublishAbandoned {
                            conn,
                            probe: *probe,
                        });
                    }
                    return events;
                }
                // Exponential backoff with equal jitter before the next
                // attempt. The jitter de-synchronizes the reconnect herd
                // after a broker restart: hundreds of clients detect the
                // crash within one ping interval of each other, and
                // identical backoff schedules would slam the recovering
                // broker with simultaneous Connects, pushing ConnectOk
                // latency past the attempt deadline for everyone.
                let shift = (attempt.saturating_sub(1)).min(20);
                let base = policy
                    .backoff_initial
                    .saturating_mul(1u64 << shift)
                    .min(policy.backoff_max);
                let backoff = base / 2 + ctx.rng().duration_between(SimDuration::ZERO, base / 2);
                self.arm_timer(ctx, backoff, TimerKind::ReconnectTry { conn });
                Vec::new()
            }
        }
    }

    /// Abandon `old` and open a replacement connection to the same broker
    /// endpoint, carrying over subscriptions, pending publishes and the
    /// offline buffer. Receive state resets: the restarted broker assigns
    /// delivery seqs from scratch.
    fn begin_reconnect(&mut self, ctx: &mut Context<'_>, old: ConnId) -> Vec<ClientEvent> {
        let Some(mut state) = self.conns.remove(&old) else {
            return Vec::new();
        };
        let Some(policy) = state.settings.reconnect else {
            self.conns.insert(old, state);
            return Vec::new();
        };
        state.attempt += 1;
        state.phase = ConnPhase::Connecting;
        state.ack_flush_armed = false;
        // Best-effort goodbye on the abandoned connection: if the broker
        // is actually up (slow, not dead), this frees its service thread.
        // Without it every superseded connect attempt leaks a broker
        // thread and the reconnect herd exhausts the accept capacity.
        let me = self.my_ep(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send(
                ctx,
                old,
                me,
                CONTROL_FRAME_BYTES,
                Box::new(ClientToBroker::Disconnect),
            );
        });
        for recv in state.recv.values_mut() {
            *recv = SubRecv::default();
        }
        simfault::with_faults(ctx, |inj, _| inj.stats.reconnect_attempts += 1);
        telemetry::with_metrics(ctx, |m, _| m.add_counter("narada.reconnect_attempts", 1));
        let broker_ep = state.broker_ep;
        let transport = state.settings.transport;
        let new = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            let c = net.open(ctx.now(), transport, me, broker_ep);
            net.send(
                ctx,
                c,
                me,
                CONTROL_FRAME_BYTES,
                Box::new(ClientToBroker::Connect),
            );
            c
        });
        let attempt = state.attempt;
        self.conns.insert(new, state);
        self.arm_timer(
            ctx,
            policy.detect_timeout,
            TimerKind::ReconnectDeadline { conn: new, attempt },
        );
        vec![ClientEvent::Reconnecting { old, new }]
    }

    /// Re-create every subscription of a reconnected connection, flagging
    /// CLIENT-ack UDP topic subs for a stable-storage resync.
    fn resubscribe_all(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let me = self.my_ep(ctx);
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let ack_mode = state.settings.ack_mode;
        let transport = state.settings.transport;
        let durable = transport == Transport::Udp && ack_mode == AckMode::Client;
        let ConnState { subs, recv, .. } = state;
        let mut msgs = Vec::new();
        for spec in subs.iter_mut() {
            spec.needs_resync = durable && !spec.queue;
            recv.insert(spec.sub_id, SubRecv::default());
            msgs.push(ClientToBroker::Subscribe {
                sub_id: spec.sub_id,
                topic: spec.topic.clone(),
                selector: spec.selector.clone(),
                ack_mode,
                queue: spec.queue,
            });
        }
        for msg in msgs {
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send(ctx, conn, me, CONTROL_FRAME_BYTES + 64, Box::new(msg));
            });
        }
    }

    /// Re-send every still-unacked UDP publish on a reconnected
    /// connection, keeping the original seqs (the broker's dup filter
    /// reset with the crash).
    fn republish_pending(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(state) = self.conns.get(&conn) else {
            return;
        };
        let mut seqs: Vec<u64> = state.pending_pubs.keys().copied().collect();
        seqs.sort_unstable();
        let n = seqs.len() as u64;
        for seq in seqs {
            let timeout = self.cfg.udp.ack_timeout;
            let timer = self.arm_timer(ctx, timeout, TimerKind::PubRetry { conn, seq });
            let state = self.conns.get_mut(&conn).expect("still here");
            let p = state.pending_pubs.get_mut(&seq).expect("listed above");
            p.retries = 0;
            p.timer = timer;
            let probe = p.probe;
            let message = p.message.clone();
            let queue = p.queue;
            let bytes = publish_bytes(&message);
            let done = self.cpu(ctx, self.cfg.costs.client_serialize_base);
            let me = self.my_ep(ctx);
            let msg = ClientToBroker::Publish {
                probe,
                seq,
                message,
                retransmit: true,
                queue,
            };
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send_at(ctx, conn, me, bytes, Box::new(msg), done);
            });
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.republished += n);
        }
    }

    /// Drain the offline publish buffer of a reconnected connection.
    fn drain_offline(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let offline = std::mem::take(&mut state.offline);
        for (probe, message, queue) in offline {
            self.send_publish(ctx, conn, probe, message, queue);
        }
    }

    /// Send ack state for every dirty subscription on `conn`.
    fn flush_acks(&mut self, ctx: &mut Context<'_>, conn: ConnId, at: SimTime) {
        let me = self.my_ep(ctx);
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        // Only a CLIENT-ack broker retains deliveries, so only then does
        // the selective part of the ack tell it anything. In AUTO and
        // DUPS_OK the set of seqs above an unrecovered gap never drains;
        // listing it on every delivery made the host cost of a run
        // quadratic in its length. The frame is `CONTROL_FRAME_BYTES`
        // on the simulated wire whatever it lists.
        let selective = state.settings.ack_mode == AckMode::Client;
        for recv in state.recv.values_mut() {
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
        if self.conns.remove(&conn).is_none() {
            return;
        }
        let me = self.my_ep(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send(
                ctx,
                conn,
                me,
                CONTROL_FRAME_BYTES,
                Box::new(ClientToBroker::Disconnect),
            );
        });
    }

    /// Phase of a connection, for the host's bookkeeping.
    pub fn is_ready(&self, conn: ConnId) -> bool {
        self.conns
            .get(&conn)
            .is_some_and(|c| c.phase == ConnPhase::Ready)
    }

    /// Was the connection refused?
    pub fn is_refused(&self, conn: ConnId) -> bool {
        self.conns
            .get(&conn)
            .is_some_and(|c| c.phase == ConnPhase::Refused)
    }

    /// Number of connections in the set.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections were opened.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}
