//! Client-side gridlog sessions: a [`GridlogClientSet`] manages many
//! logical connections — batching producers and consumer-group members —
//! inside one host actor, over the same [`simnet::session`] the narada
//! client set runs on, so the driver programs look identical across
//! middlewares.
//!
//! Host-actor contract: forward [`simnet::Delivery`] payloads to
//! [`GridlogClientSet::handle_delivery`] and [`ClientTimer`] payloads to
//! [`GridlogClientSet::handle_timer`]; both return [`ClientEvent`]s for
//! the host to act on.

use crate::config::{
    OffsetReset, BATCH_MAX_RECORDS, CLIENT_DELIVER_BASE, CLIENT_DELIVER_PER_BYTE_NS,
    CLIENT_SERIALIZE_BASE, CLIENT_SERIALIZE_PER_BYTE_NS, COMMIT_INTERVAL, LINGER,
};
use crate::protocol::{
    offsets_bytes, produce_bytes, BrokerToClient, ClientToBroker, Membership, Produce,
    ProducerRecord, CONTROL_FRAME_BYTES, RECORD_OVERHEAD_BYTES,
};
use simcore::{Context, SimDuration, SimTime};
use simnet::session::{ClientTimer, Fired, ReconnectPolicy, SessionProtocol, SessionSet};
use simnet::{probe, ConnId, Delivery, Endpoint, Transport};
use simos::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::ProbeId;
use wire::Message;

/// Events surfaced to the host actor.
#[derive(Debug, PartialEq)]
pub enum ClientEvent {
    /// Connection established.
    Connected(ConnId),
    /// Connection refused by the broker (OOM).
    Refused(ConnId, String),
    /// The consumer received a (new) partition assignment.
    Assigned {
        /// Connection.
        conn: ConnId,
        /// Assignment epoch.
        epoch: u64,
        /// Partitions now owned.
        partitions: Vec<u32>,
    },
    /// A fetched record was handed to the listener.
    RecordArrived {
        /// Connection it arrived on.
        conn: ConnId,
        /// Partition it came from.
        partition: u32,
        /// Its offset.
        offset: u64,
        /// Telemetry probe of the originating produce.
        probe: ProbeId,
        /// When the listener callback completed.
        done_at: SimTime,
    },
    /// A produced record was abandoned (its connection died for good).
    ProduceAbandoned {
        /// Connection.
        conn: ConnId,
        /// Probe of the lost record.
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
    /// A reconnect attempt succeeded; the producer re-sent unacked
    /// batches, the consumer rejoined its group.
    Reconnected(ConnId),
    /// Every reconnect attempt failed; the connection is gone for good.
    ConnectionLost(ConnId),
}

struct ProducerState {
    producer_id: u64,
    topic: String,
    /// Records accumulating toward the next batch flush.
    batch: Vec<ProducerRecord>,
    linger_armed: bool,
    next_batch_seq: u64,
    /// Flushed but unacknowledged batches, re-sent after a reconnect.
    pending: BTreeMap<u64, Vec<ProducerRecord>>,
    /// Records produced while reconnecting, flushed on reconnect.
    offline: Vec<ProducerRecord>,
}

struct ConsumerState {
    /// Who this consumer is in its group; re-sent on every (re)connect.
    join: Membership,
    epoch: u64,
    /// Partitions currently owned.
    owned: Vec<u32>,
    /// partition → next offset to fetch.
    positions: BTreeMap<u32, u64>,
    /// Partitions with an outstanding long-poll fetch.
    in_flight: BTreeSet<u32>,
}

/// What a gridlog connection carries on top of the shared session.
enum Role {
    Producer(ProducerState),
    Consumer(ConsumerState),
}

enum TimerKind {
    /// Producer batch linger expired: flush.
    Linger { conn: ConnId },
    /// Committed-mode consumer: flush offset commits.
    Commit { conn: ConnId },
}

/// The log protocol over the shared broker session.
struct LogSession;

impl SessionProtocol for LogSession {
    type Frame = ClientToBroker;
    type Timer = TimerKind;
    type State = Role;
    const COMPONENT: simprof::Component = simprof::Component::GridlogClient;
    const RECONNECT_COUNTER: &'static str = "gridlog.reconnect_attempts";
    const CONTROL_FRAME_BYTES: usize = CONTROL_FRAME_BYTES;
    const CONNECT: ClientToBroker = ClientToBroker::Connect;
    const DISCONNECT: ClientToBroker = ClientToBroker::Disconnect;

    fn heartbeat(role: &Role) -> ClientToBroker {
        match role {
            Role::Consumer(c) => ClientToBroker::Heartbeat {
                group: c.join.group.clone(),
                member: c.join.member,
            },
            Role::Producer(_) => ClientToBroker::Ping,
        }
    }

    /// The producer's unflushed/unacked records and the consumer's group
    /// identity and positions carry over; what was in flight does not.
    fn abandon(role: &mut Role, ctx: &mut Context<'_>) {
        match role {
            Role::Producer(prod) => {
                // Unflushed batch records join the offline queue; the
                // linger timer for the old conn is now stale.
                let n = prod.batch.len() as u64;
                prod.offline.append(&mut prod.batch);
                prod.linger_armed = false;
                if n > 0 {
                    simfault::with_faults(ctx, |inj, _| inj.stats.delayed += n);
                }
            }
            Role::Consumer(cons) => cons.in_flight.clear(),
        }
    }
}

/// A set of gridlog client connections owned by one host actor.
pub struct GridlogClientSet {
    sessions: SessionSet<LogSession>,
    /// Cross-member duplicate filter: partition → first offset not yet
    /// surfaced to the host. Partition handoffs between members of the
    /// same group re-fetch from the committed offset; this keeps each
    /// offset's record surfacing exactly once per host. (One group per
    /// set — the driver programs never need more.)
    delivered_to: BTreeMap<u32, u64>,
}

impl GridlogClientSet {
    /// New client set for a host actor on `node`.
    pub fn new(node: NodeId) -> Self {
        GridlogClientSet {
            sessions: SessionSet::new(node),
            delivered_to: BTreeMap::new(),
        }
    }

    /// Open a producer connection. `producer_id` is the stable
    /// idempotence identity (survives reconnects).
    pub fn connect_producer(
        &mut self,
        ctx: &mut Context<'_>,
        broker_ep: Endpoint,
        producer_id: u64,
        topic: impl Into<String>,
        reconnect: Option<ReconnectPolicy>,
    ) -> ConnId {
        let role = Role::Producer(ProducerState {
            producer_id,
            topic: topic.into(),
            batch: Vec::new(),
            linger_armed: false,
            next_batch_seq: 0,
            pending: BTreeMap::new(),
            offline: Vec::new(),
        });
        self.sessions
            .open(ctx, broker_ep, Transport::Tcp, reconnect, role)
    }

    /// Open a consumer connection that joins its group as `join` once the
    /// connection is up.
    pub fn connect_consumer(
        &mut self,
        ctx: &mut Context<'_>,
        broker_ep: Endpoint,
        join: Membership,
        reconnect: Option<ReconnectPolicy>,
    ) -> ConnId {
        let role = Role::Consumer(ConsumerState {
            join,
            epoch: 0,
            owned: Vec::new(),
            positions: BTreeMap::new(),
            in_flight: BTreeSet::new(),
        });
        self.sessions
            .open(ctx, broker_ep, Transport::Tcp, reconnect, role)
    }

    /// Produce one record. Instruments `before_sending` immediately (the
    /// linger wait is part of the produce round trip, exactly as Kafka's
    /// `send()` future resolves only on the broker ack) and returns the
    /// probe id; `after_sending` fires when the batch flush completes.
    pub fn produce(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        key: u32,
        message: Message,
    ) -> ProbeId {
        let probe = probe::published(ctx, &message.headers.destination);
        let sess = self.sessions.get_mut(conn).expect("unknown connection");
        let (reconnecting, ready) = (sess.reconnecting(), sess.is_ready());
        let Role::Producer(prod) = &mut sess.state else {
            panic!("produce on a consumer connection");
        };
        let rec = ProducerRecord {
            probe,
            key,
            message,
        };
        if reconnecting {
            // Broker presumed dead and a reconnect is in flight: buffer
            // the record; it is flushed (delayed, not dropped) once the
            // replacement connection comes up.
            prod.offline.push(rec);
            simfault::with_faults(ctx, |inj, _| inj.stats.delayed += 1);
            return probe;
        }
        assert!(ready, "produce before ConnectOk");
        prod.batch.push(rec);
        let occupancy = prod.batch.len() as u32;
        let full = prod.batch.len() >= BATCH_MAX_RECORDS;
        let arm = !full && !prod.linger_armed;
        if arm {
            prod.linger_armed = true;
        }
        let now = ctx.now();
        let enqueued = simtrace::EventKind::BatchEnqueue { occupancy };
        simtrace::hop(ctx, now, Some(simtrace::TraceId(probe.0)), enqueued);
        if full {
            self.flush_batch(ctx, conn);
        } else if arm {
            self.sessions.arm(ctx, LINGER, TimerKind::Linger { conn });
        }
        probe
    }

    /// Flush the accumulated batch: one serialization charge, then
    /// `after_sending`/`PublishEnd` for every record at the flush
    /// instant, then the batch goes on the wire.
    fn flush_batch(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        let ready = sess.is_ready();
        let Role::Producer(prod) = &mut sess.state else {
            return;
        };
        if prod.batch.is_empty() {
            return;
        }
        prod.linger_armed = false;
        if !ready {
            // Went into reconnect mid-linger: everything buffered moves
            // to the offline queue.
            let n = prod.batch.len() as u64;
            prod.offline.append(&mut prod.batch);
            simfault::with_faults(ctx, |inj, _| inj.stats.delayed += n);
            return;
        }
        let records = std::mem::take(&mut prod.batch);
        let seq = prod.next_batch_seq;
        prod.next_batch_seq += 1;
        let producer_id = prod.producer_id;
        let topic = prod.topic.clone();
        let tuples = records.len() as u32;
        let bytes = produce_bytes(&records);
        let now = ctx.now();
        simtrace::hop(ctx, now, None, simtrace::EventKind::BatchFlush { tuples });
        let cost =
            CLIENT_SERIALIZE_BASE + SimDuration::per_byte(bytes, CLIENT_SERIALIZE_PER_BYTE_NS);
        let ser_done = self.sessions.cpu(ctx, cost);
        for rec in &records {
            probe::sent(ctx, rec.probe, ser_done);
        }
        let sess = self.sessions.get_mut(conn).expect("still here");
        let Role::Producer(prod) = &mut sess.state else {
            unreachable!("checked above");
        };
        prod.pending.insert(seq, records.clone());
        let msg = ClientToBroker::Produce(Produce {
            producer_id,
            batch_seq: seq,
            topic,
            records,
            retransmit: false,
        });
        self.sessions.send_at(ctx, conn, bytes, msg, ser_done);
    }

    /// Issue a long-poll fetch for one owned partition.
    fn send_fetch(&mut self, ctx: &mut Context<'_>, conn: ConnId, partition: u32) {
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        if !sess.is_ready() {
            return;
        }
        let Role::Consumer(cons) = &mut sess.state else {
            return;
        };
        if !cons.owned.contains(&partition) || cons.in_flight.contains(&partition) {
            return;
        }
        cons.in_flight.insert(partition);
        let msg = ClientToBroker::Fetch {
            group: cons.join.group.clone(),
            member: cons.join.member,
            epoch: cons.epoch,
            partition,
            offset: cons.positions.get(&partition).copied().unwrap_or(0),
        };
        let bytes = CONTROL_FRAME_BYTES + cons.join.group.len() + 20;
        self.sessions.send(ctx, conn, bytes, msg);
    }

    /// Handle a network delivery addressed to the host actor. Returns
    /// the events the host should react to.
    pub fn handle_delivery(
        &mut self,
        ctx: &mut Context<'_>,
        delivery: Delivery,
    ) -> Vec<ClientEvent> {
        let Delivery { conn, payload, .. } = delivery;
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
                events.push(if was_reconnect {
                    ClientEvent::Reconnected(conn)
                } else {
                    ClientEvent::Connected(conn)
                });
                let sess = self.sessions.get(conn).expect("just accepted");
                match &sess.state {
                    Role::Consumer(c) => {
                        let join = c.join.clone();
                        let bytes = CONTROL_FRAME_BYTES + join.group.len() + join.topic.len() + 16;
                        let committed = join.reset == OffsetReset::Committed;
                        let join = ClientToBroker::JoinGroup(join);
                        self.sessions.send(ctx, conn, bytes, join);
                        if committed {
                            self.sessions
                                .arm(ctx, COMMIT_INTERVAL, TimerKind::Commit { conn });
                        }
                    }
                    Role::Producer(_) => {
                        if was_reconnect {
                            self.republish_pending(ctx, conn);
                            self.drain_offline(ctx, conn);
                        }
                    }
                }
                self.sessions.start_heartbeat(ctx, conn);
            }
            BrokerToClient::ConnectRefused { reason } => {
                if self.sessions.refused(conn) {
                    events.push(ClientEvent::Refused(conn, reason));
                }
            }
            BrokerToClient::ProduceAck { batch_seq } => {
                if let Some(sess) = self.sessions.get_mut(conn) {
                    if let Role::Producer(prod) = &mut sess.state {
                        prod.pending.remove(&batch_seq);
                    }
                }
            }
            BrokerToClient::Assignment {
                group: _,
                epoch,
                partitions,
            } => {
                let Some(sess) = self.sessions.get_mut(conn) else {
                    return events;
                };
                let Role::Consumer(cons) = &mut sess.state else {
                    return events;
                };
                if epoch <= cons.epoch {
                    // Old news: an out-of-order push, or the re-push a
                    // request sent under the previous epoch provokes.
                    // An assignment is applied once per epoch — again, it
                    // would start a second fetch loop per partition and
                    // (reset-to-latest) skip to the current log end.
                    return events;
                }
                cons.epoch = epoch;
                cons.owned = partitions.iter().map(|&(p, _)| p).collect();
                for &(p, start) in &partitions {
                    match cons.join.reset {
                        OffsetReset::Committed => {
                            // Keep a live position if we have one (it is
                            // ≥ the committed offset); adopt the broker's
                            // start for newly acquired partitions.
                            let e = cons.positions.entry(p).or_insert(start);
                            *e = (*e).max(start);
                        }
                        OffsetReset::Latest => {
                            // A reset-to-latest member adopts the log end
                            // wholesale — the crash window is skipped.
                            cons.positions.insert(p, start);
                        }
                    }
                }
                cons.in_flight.clear();
                let owned = cons.owned.clone();
                events.push(ClientEvent::Assigned {
                    conn,
                    epoch,
                    partitions: owned.clone(),
                });
                for p in owned {
                    self.send_fetch(ctx, conn, p);
                }
            }
            BrokerToClient::Records {
                partition,
                epoch,
                records,
                end_offset: _,
            } => {
                let now = ctx.now();
                let Some(sess) = self.sessions.get_mut(conn) else {
                    return events;
                };
                let Role::Consumer(cons) = &mut sess.state else {
                    return events;
                };
                if epoch != cons.epoch || !cons.owned.contains(&partition) {
                    return events; // stale response from before a rebalance
                }
                cons.in_flight.remove(&partition);
                let mut pos = cons.positions.get(&partition).copied().unwrap_or(0);
                for rec in records {
                    pos = pos.max(rec.offset + 1);
                    let next = self.delivered_to.entry(partition).or_insert(0);
                    let fresh = rec.offset >= *next;
                    if fresh {
                        *next = rec.offset + 1;
                    }
                    let bytes = rec.bytes as usize + RECORD_OVERHEAD_BYTES;
                    // Deserialization is paid for duplicates too; only
                    // fresh records reach the listener and the probes.
                    if fresh {
                        probe::available(ctx, rec.probe, now);
                    }
                    let cost = CLIENT_DELIVER_BASE
                        + SimDuration::per_byte(bytes, CLIENT_DELIVER_PER_BYTE_NS);
                    let done = self.sessions.cpu(ctx, cost);
                    if fresh {
                        // Committed-offset replay after a crash redelivers
                        // records, but the `fresh` gate (and first-wins
                        // recorder semantics) keeps one delivery per
                        // reading.
                        probe::delivered(ctx, rec.probe, done);
                        events.push(ClientEvent::RecordArrived {
                            conn,
                            partition,
                            offset: rec.offset,
                            probe: rec.probe,
                            done_at: done,
                        });
                    }
                }
                if let Some(sess) = self.sessions.get_mut(conn) {
                    if let Role::Consumer(cons) = &mut sess.state {
                        cons.positions.insert(partition, pos);
                    }
                }
                // Long-poll loop: the next fetch goes out immediately;
                // an empty log parks it at the broker.
                self.send_fetch(ctx, conn, partition);
            }
            BrokerToClient::CommitOk { epoch: _ } => {}
            BrokerToClient::Pong => {}
        }
        events
    }

    /// Handle a [`ClientTimer`] delivered to the host actor.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_>, timer: ClientTimer) -> Vec<ClientEvent> {
        match self.sessions.fire(ctx, timer) {
            Fired::Idle => Vec::new(),
            Fired::Own(TimerKind::Linger { conn }) => {
                self.flush_batch(ctx, conn);
                Vec::new()
            }
            Fired::Own(TimerKind::Commit { conn }) => {
                self.commit_offsets(ctx, conn);
                Vec::new()
            }
            Fired::Reconnecting { old, new } => vec![ClientEvent::Reconnecting { old, new }],
            Fired::Lost(conn, role) => {
                // Everything unflushed is lost with the connection.
                let mut events = vec![ClientEvent::ConnectionLost(conn)];
                if let Role::Producer(prod) = role {
                    let lost = prod
                        .pending
                        .values()
                        .flatten()
                        .chain(&prod.offline)
                        .chain(&prod.batch);
                    for rec in lost {
                        events.push(ClientEvent::ProduceAbandoned {
                            conn,
                            probe: rec.probe,
                        });
                    }
                }
                events
            }
        }
    }

    /// Committed-mode consumer: send the positions of the owned
    /// partitions and re-arm the commit timer.
    fn commit_offsets(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get(conn) else {
            return; // conn replaced or closed
        };
        if !sess.is_ready() {
            return;
        }
        let Role::Consumer(cons) = &sess.state else {
            return;
        };
        let offsets: Vec<(u32, u64)> = cons
            .owned
            .iter()
            .filter_map(|&p| cons.positions.get(&p).map(|&o| (p, o)))
            .collect();
        if !offsets.is_empty() {
            let bytes = offsets_bytes(offsets.len()) + cons.join.group.len();
            let msg = ClientToBroker::CommitOffsets {
                group: cons.join.group.clone(),
                member: cons.join.member,
                epoch: cons.epoch,
                offsets,
            };
            self.sessions.send(ctx, conn, bytes, msg);
        }
        self.sessions
            .arm(ctx, COMMIT_INTERVAL, TimerKind::Commit { conn });
    }

    /// Re-send every flushed-but-unacked batch on a reconnected
    /// connection with its original sequence; the broker's durable
    /// producer sequences filter the ones that were already appended.
    fn republish_pending(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get(conn) else {
            return;
        };
        let Role::Producer(prod) = &sess.state else {
            return;
        };
        let producer_id = prod.producer_id;
        let topic = prod.topic.clone();
        let resend: Vec<(u64, Vec<ProducerRecord>)> = prod
            .pending
            .iter()
            .map(|(&seq, recs)| (seq, recs.clone()))
            .collect();
        let n: u64 = resend.iter().map(|(_, r)| r.len() as u64).sum();
        for (seq, records) in resend {
            let bytes = produce_bytes(&records);
            // Retransmission re-serializes from the buffered form:
            // cheaper than first serialization.
            let done = self.sessions.cpu(ctx, CLIENT_SERIALIZE_BASE);
            let msg = ClientToBroker::Produce(Produce {
                producer_id,
                batch_seq: seq,
                topic: topic.clone(),
                records,
                retransmit: true,
            });
            self.sessions.send_at(ctx, conn, bytes, msg, done);
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.republished += n);
        }
    }

    /// Flush the offline record buffer of a reconnected producer as an
    /// immediate batch (no linger — these records are already late).
    fn drain_offline(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let Some(sess) = self.sessions.get_mut(conn) else {
            return;
        };
        let Role::Producer(prod) = &mut sess.state else {
            return;
        };
        if prod.offline.is_empty() {
            return;
        }
        let mut offline = std::mem::take(&mut prod.offline);
        prod.batch.append(&mut offline);
        self.flush_batch(ctx, conn);
    }
}
