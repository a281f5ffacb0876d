//! The log-broker actor: connection acceptance (thread-per-connection),
//! batch appends with producer idempotence, consumer-group coordination
//! (join/leave/expiry → rebalance), long-poll fetch parking, offset
//! commits, and crash-restart with segment replay.
//!
//! Durability contract (what [`simfault::FaultSignal::BrokerCrash`]
//! does *not* wipe): log segments, group committed offsets, and the
//! per-producer idempotence sequences — these model state synced to
//! disk. Connections, group membership, assignments, and parked fetches
//! are volatile and die with the process.

use crate::config::{GridlogConfig, OffsetReset};
use crate::log::{partition_for, StoredRecord, TopicLog};
use crate::protocol::{
    fetch_response_bytes, offsets_bytes, BrokerToClient, ClientToBroker, CONTROL_FRAME_BYTES,
};
use simcore::{Actor, ActorId, Context, FastMap, FastSet, Payload, SimDuration, SimTime};
use simnet::{ConnId, Delivery, Endpoint, NetworkFabric};
use simos::{NodeId, OsModel, ProcessId};
use std::collections::{BTreeMap, BTreeSet};
use wire::TopicId;

/// Timer payload the kernel routes back to the broker.
pub struct BrokerTimer(pub u64);

/// Log-broker statistics, readable after a run via
/// [`LogBroker::stats_handle`].
#[derive(Debug, Default, Clone)]
pub struct LogBrokerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused (OOM).
    pub refused: u64,
    /// Produce batches appended.
    pub batches: u64,
    /// Records appended across all batches.
    pub appended: u64,
    /// Duplicate produce batches filtered by idempotence sequences.
    pub dup_batches: u64,
    /// Fetch responses served (including empty long-poll expiries).
    pub fetches: u64,
    /// Records served in fetch responses.
    pub records_served: u64,
    /// Offset-commit requests applied.
    pub commits: u64,
    /// Group rebalances performed.
    pub rebalances: u64,
    /// Members expelled by session timeout.
    pub expired_members: u64,
    /// Times this broker's process was crashed by fault injection.
    pub crashes: u64,
    /// Records scanned during crash-restart segment replay.
    pub replayed_records: u64,
}

/// Shared handle for reading the broker's stats after the simulation.
pub type StatsHandle = std::rc::Rc<std::cell::RefCell<LogBrokerStats>>;

/// One consumer-group member (volatile).
struct Member {
    conn: ConnId,
    reset: OffsetReset,
    last_seen: SimTime,
    /// The session timer arms lazily on the first heartbeat, so
    /// heartbeat-free paper-mode runs never expire members.
    session_armed: bool,
}

/// One consumer group. `committed` is durable; everything else dies
/// with the process.
struct Group {
    topic: Option<TopicId>,
    epoch: u64,
    members: BTreeMap<u64, Member>,
    assignment: BTreeMap<u64, Vec<u32>>,
    /// Durable committed offsets: partition → next offset to consume.
    committed: BTreeMap<u32, u64>,
}

impl Group {
    fn new() -> Self {
        Group {
            topic: None,
            epoch: 0,
            members: BTreeMap::new(),
            assignment: BTreeMap::new(),
            committed: BTreeMap::new(),
        }
    }
}

/// A fetch waiting at the broker for data to arrive (long poll).
struct ParkedFetch {
    token: u64,
    conn: ConnId,
    epoch: u64,
    offset: u64,
}

enum TimerKind {
    /// Long-poll expiry: answer the parked fetch with an empty response.
    FetchExpire { topic: TopicId, partition: u32 },
    /// Session liveness check for one group member.
    SessionCheck { group: String, member: u64 },
}

/// The log-broker actor.
pub struct LogBroker {
    cfg: GridlogConfig,
    node: NodeId,
    proc: ProcessId,
    endpoint: Endpoint, // actor id filled in on_start
    /// Broker-local topic interning table; `logs` is indexed by the
    /// dense [`TopicId`]s it hands out.
    topics: wire::TopicTable,
    /// Per-topic partitioned logs (durable).
    logs: Vec<TopicLog>,
    /// Per-producer idempotence sequences (durable, as Kafka stores
    /// producer state in the log itself).
    producer_seqs: BTreeMap<u64, u64>,
    /// Consumer groups (committed offsets durable, membership volatile).
    groups: BTreeMap<String, Group>,
    /// Parked long-poll fetches keyed by (topic, partition).
    parked: BTreeMap<(TopicId, u32), Vec<ParkedFetch>>,
    conns: FastSet<ConnId>,
    timers: FastMap<u64, TimerKind>,
    next_timer: u64,
    /// True while the process is fault-crashed: network input evaporates.
    crashed: bool,
    stats: StatsHandle,
}

impl LogBroker {
    /// Create a log broker to be hosted on `node` inside process `proc`.
    pub fn new(cfg: GridlogConfig, node: NodeId, proc: ProcessId) -> Self {
        LogBroker {
            cfg,
            node,
            proc,
            endpoint: Endpoint::new(node, ActorId::NONE),
            topics: wire::TopicTable::new(),
            logs: Vec::new(),
            producer_seqs: BTreeMap::new(),
            groups: BTreeMap::new(),
            parked: BTreeMap::new(),
            conns: FastSet::default(),
            timers: FastMap::default(),
            next_timer: 0,
            crashed: false,
            stats: StatsHandle::default(),
        }
    }

    /// Handle to this broker's statistics (clone before `add_actor`).
    pub fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }

    /// The node this broker runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn cpu(&self, ctx: &mut Context<'_>, comp: simprof::Component, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, comp, effective);
            done
        })
    }

    fn per_byte(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros((bytes as u64 * self.cfg.costs.broker_per_byte_ns).div_ceil(1000))
    }

    fn send_to_client(
        &self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        bytes: usize,
        msg: BrokerToClient,
        at: SimTime,
    ) {
        let ep = self.endpoint;
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, ep, bytes, Box::new(msg), at);
        });
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_>, delay: SimDuration, kind: TimerKind) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, kind);
        ctx.timer(delay, BrokerTimer(token));
        token
    }

    /// Intern `topic`, creating its partitioned log on first use.
    fn topic_log(&mut self, topic: &str) -> TopicId {
        let tid = self.topics.intern(topic);
        if tid.0 as usize >= self.logs.len() {
            self.logs.push(TopicLog::new(
                tid,
                self.cfg.partitions,
                self.cfg.segment_records,
            ));
        }
        tid
    }

    fn on_connect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        let accept_result = ctx.with_service::<OsModel, _>(|os, _| {
            os.spawn_thread(self.proc).and_then(|()| {
                match os.alloc(self.proc, self.cfg.memory.heap_per_conn) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        os.kill_thread(self.proc);
                        Err(e)
                    }
                }
            })
        });
        match accept_result {
            Ok(()) => {
                simprof::hit(ctx, simprof::Component::OsSched);
                let done = self.cpu(
                    ctx,
                    simprof::Component::GridlogRebalance,
                    self.cfg.costs.broker_accept,
                );
                self.conns.insert(conn);
                self.stats.borrow_mut().accepted += 1;
                self.send_to_client(
                    ctx,
                    conn,
                    CONTROL_FRAME_BYTES,
                    BrokerToClient::ConnectOk,
                    done,
                );
            }
            Err(e) => {
                self.stats.borrow_mut().refused += 1;
                let now = ctx.now();
                self.send_to_client(
                    ctx,
                    conn,
                    CONTROL_FRAME_BYTES,
                    BrokerToClient::ConnectRefused {
                        reason: e.to_string(),
                    },
                    now,
                );
            }
        }
    }

    fn on_disconnect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        if self.conns.remove(&conn) {
            let heap = self.cfg.memory.heap_per_conn;
            ctx.with_service::<OsModel, _>(|os, _| {
                os.kill_thread(self.proc);
                os.free(self.proc, heap);
            });
            simprof::hit(ctx, simprof::Component::OsSched);
            // Membership is not torn down here: the session timer
            // collects members of dead connections.
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_produce(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        producer_id: u64,
        batch_seq: u64,
        topic: String,
        records: Vec<crate::protocol::ProducerRecord>,
        retransmit: bool,
        wire_bytes: usize,
    ) {
        if !self.conns.contains(&conn) {
            return; // connection refused / unknown: drop
        }
        // Idempotent producer: a batch at or below the durable sequence
        // was already appended — re-acknowledge without re-appending, so
        // post-crash retransmissions never duplicate records.
        if retransmit {
            if let Some(&last) = self.producer_seqs.get(&producer_id) {
                if batch_seq <= last {
                    self.stats.borrow_mut().dup_batches += 1;
                    let done = self.cpu(
                        ctx,
                        simprof::Component::GridlogAppend,
                        self.cfg.costs.broker_append_base + self.per_byte(wire_bytes),
                    );
                    self.send_to_client(
                        ctx,
                        conn,
                        CONTROL_FRAME_BYTES,
                        BrokerToClient::ProduceAck { batch_seq },
                        done,
                    );
                    return;
                }
            }
        }
        self.producer_seqs.insert(producer_id, batch_seq);
        let n = records.len() as u64;
        {
            let mut st = self.stats.borrow_mut();
            st.batches += 1;
            st.appended += n;
        }
        let tid = self.topic_log(&topic);
        let cost = self.cfg.costs.broker_append_base
            + self.per_byte(wire_bytes)
            + self.cfg.costs.broker_append_per_record.saturating_mul(n);
        let done = self.cpu(ctx, simprof::Component::GridlogAppend, cost);
        let actor = self.endpoint.actor.index() as u64;
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for rec in records {
            let p = partition_for(rec.key, self.cfg.partitions);
            let probe = rec.probe;
            self.logs[tid.0 as usize].partitions[p as usize].append(StoredRecord {
                probe: rec.probe,
                key: rec.key,
                message: rec.message,
            });
            touched.insert(p);
            simtrace::with_trace(ctx, |tr, at| {
                tr.record(
                    at,
                    Some(simtrace::TraceId(probe.0)),
                    actor,
                    simtrace::EventKind::BrokerRecv { broker: 0 },
                );
                tr.count(simtrace::Counter::BrokerPublishes, 1);
            });
        }
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("gridlog.appended_records", n);
            m.observe("gridlog.append_cost_us", cost.as_micros());
        });
        self.send_to_client(
            ctx,
            conn,
            CONTROL_FRAME_BYTES,
            BrokerToClient::ProduceAck { batch_seq },
            done,
        );
        // Fresh data completes parked long polls on the touched
        // partitions.
        for p in touched {
            self.serve_parked(ctx, tid, p, done);
        }
    }

    /// Answer every parked fetch on `(topic, partition)` that now has
    /// data, leaving the rest parked.
    fn serve_parked(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicId,
        partition: u32,
        floor: SimTime,
    ) {
        let end = self.logs[topic.0 as usize].partitions[partition as usize].end_offset();
        let Some(waiters) = self.parked.get_mut(&(topic, partition)) else {
            return;
        };
        let mut ready = Vec::new();
        waiters.retain(|w| {
            if w.offset < end {
                ready.push((w.conn, w.epoch, w.offset, w.token));
                false
            } else {
                true
            }
        });
        if waiters.is_empty() {
            self.parked.remove(&(topic, partition));
        }
        for (conn, epoch, offset, token) in ready {
            self.timers.remove(&token);
            self.serve_fetch(ctx, conn, topic, partition, offset, epoch, floor);
        }
    }

    /// Read records at `offset` and send them, charging the fetch path.
    #[allow(clippy::too_many_arguments)]
    fn serve_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        topic: TopicId,
        partition: u32,
        offset: u64,
        epoch: u64,
        floor: SimTime,
    ) {
        let plog = &self.logs[topic.0 as usize].partitions[partition as usize];
        let records = plog.read_from(offset, self.cfg.fetching.max_records);
        let end_offset = plog.end_offset();
        let n = records.len() as u64;
        let bytes = fetch_response_bytes(&records);
        let cost = self.cfg.costs.broker_fetch_base
            + self.cfg.costs.broker_fetch_per_record.saturating_mul(n);
        let done = self
            .cpu(ctx, simprof::Component::GridlogFetch, cost)
            .max(floor);
        {
            let mut st = self.stats.borrow_mut();
            st.fetches += 1;
            st.records_served += n;
        }
        let actor = self.endpoint.actor.index() as u64;
        for rec in &records {
            let probe = rec.probe;
            simtrace::with_trace(ctx, |tr, at| {
                tr.record(
                    at,
                    Some(simtrace::TraceId(probe.0)),
                    actor,
                    simtrace::EventKind::BrokerDeliver {
                        broker: 0,
                        fanout: 1,
                    },
                );
                tr.count(simtrace::Counter::BrokerDeliveries, 1);
            });
        }
        telemetry::with_metrics(ctx, |m, _| {
            m.set_gauge("gridlog.fetch_batch_occupancy", n as f64);
            m.observe("gridlog.fetch_cost_us", cost.as_micros());
        });
        self.send_to_client(
            ctx,
            conn,
            bytes,
            BrokerToClient::Records {
                partition,
                epoch,
                records,
                end_offset,
            },
            done,
        );
    }

    fn on_join(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        group: String,
        member: u64,
        topic: String,
        reset: OffsetReset,
    ) {
        if !self.conns.contains(&conn) {
            return;
        }
        let tid = self.topic_log(&topic);
        let now = ctx.now();
        let g = self.groups.entry(group.clone()).or_insert_with(Group::new);
        g.topic = Some(tid);
        g.members.insert(
            member,
            Member {
                conn,
                reset,
                last_seen: now,
                session_armed: false,
            },
        );
        self.rebalance(ctx, &group);
    }

    /// Recompute the range assignment, bump the epoch, and push the new
    /// [`BrokerToClient::Assignment`] to every member.
    fn rebalance(&mut self, ctx: &mut Context<'_>, group: &str) {
        let done = self.cpu(
            ctx,
            simprof::Component::GridlogRebalance,
            self.cfg.costs.broker_rebalance,
        );
        let Some(g) = self.groups.get_mut(group) else {
            return;
        };
        let Some(tid) = g.topic else {
            return;
        };
        g.epoch += 1;
        self.stats.borrow_mut().rebalances += 1;
        let members: Vec<u64> = g.members.keys().copied().collect();
        let parts = self.cfg.partitions;
        g.assignment.clear();
        if !members.is_empty() {
            // Range assignment: contiguous partition chunks in sorted
            // member order, front-loading the remainder — deterministic
            // and identical to Kafka's RangeAssignor for one topic.
            let n = members.len() as u32;
            let base = parts / n;
            let extra = parts % n;
            let mut next = 0u32;
            for (i, m) in members.iter().enumerate() {
                let take = base + u32::from((i as u32) < extra);
                let owned: Vec<u32> = (next..next + take).collect();
                next += take;
                g.assignment.insert(*m, owned);
            }
        }
        // Drop parked fetches for this topic: owners may have changed,
        // and every member re-fetches once it sees the new assignment.
        for p in 0..parts {
            if let Some(waiters) = self.parked.remove(&(tid, p)) {
                for w in waiters {
                    self.timers.remove(&w.token);
                }
            }
        }
        telemetry::with_metrics(ctx, |m, _| m.add_counter("gridlog.rebalances", 1));
        self.push_assignments(ctx, group, done);
    }

    /// Push the current assignment (with per-member start offsets) to
    /// every member of `group`.
    fn push_assignments(&mut self, ctx: &mut Context<'_>, group: &str, at: SimTime) {
        let Some(g) = self.groups.get(group) else {
            return;
        };
        let Some(tid) = g.topic else {
            return;
        };
        let log = &self.logs[tid.0 as usize];
        let mut sends = Vec::new();
        for (member, owned) in &g.assignment {
            let Some(m) = g.members.get(member) else {
                continue;
            };
            let partitions: Vec<(u32, u64)> = owned
                .iter()
                .map(|&p| {
                    let start = match m.reset {
                        OffsetReset::Committed => g.committed.get(&p).copied().unwrap_or(0),
                        OffsetReset::Latest => log.partitions[p as usize].end_offset(),
                    };
                    (p, start)
                })
                .collect();
            sends.push((m.conn, partitions));
        }
        let epoch = g.epoch;
        let group = group.to_owned();
        for (conn, partitions) in sends {
            let bytes = offsets_bytes(partitions.len()) + group.len();
            self.send_to_client(
                ctx,
                conn,
                bytes,
                BrokerToClient::Assignment {
                    group: group.clone(),
                    epoch,
                    partitions,
                },
                at,
            );
        }
    }

    /// Re-push the current assignment to one member whose request
    /// carried a stale epoch (heals mid-rebalance races).
    fn resend_assignment(&mut self, ctx: &mut Context<'_>, group: &str, member: u64) {
        let now = ctx.now();
        let Some(g) = self.groups.get(group) else {
            return;
        };
        let (Some(tid), Some(m), Some(owned)) =
            (g.topic, g.members.get(&member), g.assignment.get(&member))
        else {
            return;
        };
        let log = &self.logs[tid.0 as usize];
        let partitions: Vec<(u32, u64)> = owned
            .iter()
            .map(|&p| {
                let start = match m.reset {
                    OffsetReset::Committed => g.committed.get(&p).copied().unwrap_or(0),
                    OffsetReset::Latest => log.partitions[p as usize].end_offset(),
                };
                (p, start)
            })
            .collect();
        let conn = m.conn;
        let epoch = g.epoch;
        let bytes = offsets_bytes(partitions.len()) + group.len();
        self.send_to_client(
            ctx,
            conn,
            bytes,
            BrokerToClient::Assignment {
                group: group.to_owned(),
                epoch,
                partitions,
            },
            now,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        group: String,
        member: u64,
        epoch: u64,
        partition: u32,
        offset: u64,
    ) {
        let Some(g) = self.groups.get(&group) else {
            return; // unknown group (pre-crash member): silence → rejoin
        };
        if !g.members.contains_key(&member) {
            return;
        }
        if g.epoch != epoch {
            self.resend_assignment(ctx, &group, member);
            return;
        }
        let Some(tid) = g.topic else {
            return;
        };
        if partition >= self.cfg.partitions {
            return;
        }
        let end = self.logs[tid.0 as usize].partitions[partition as usize].end_offset();
        let now = ctx.now();
        if offset < end {
            self.serve_fetch(ctx, conn, tid, partition, offset, epoch, now);
        } else {
            // Nothing to read yet: park until an append or the long-poll
            // deadline, whichever comes first.
            let max_wait = self.cfg.fetching.max_wait;
            let token = self.arm_timer(
                ctx,
                max_wait,
                TimerKind::FetchExpire {
                    topic: tid,
                    partition,
                },
            );
            self.parked
                .entry((tid, partition))
                .or_default()
                .push(ParkedFetch {
                    token,
                    conn,
                    epoch,
                    offset,
                });
        }
    }

    fn on_fetch_expire(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicId,
        partition: u32,
        token: u64,
    ) {
        let Some(waiters) = self.parked.get_mut(&(topic, partition)) else {
            return; // served or wiped meanwhile
        };
        let Some(ix) = waiters.iter().position(|w| w.token == token) else {
            return;
        };
        let w = waiters.remove(ix);
        if waiters.is_empty() {
            self.parked.remove(&(topic, partition));
        }
        // Empty response: unblocks the consumer's poll loop with a fresh
        // end-offset observation.
        self.serve_fetch(ctx, w.conn, topic, partition, w.offset, w.epoch, ctx.now());
    }

    #[allow(clippy::too_many_arguments)]
    fn on_commit(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        group: String,
        member: u64,
        epoch: u64,
        offsets: Vec<(u32, u64)>,
    ) {
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        if !g.members.contains_key(&member) {
            return;
        }
        if g.epoch != epoch {
            self.resend_assignment(ctx, &group, member);
            return;
        }
        for (p, off) in offsets {
            let slot = g.committed.entry(p).or_insert(0);
            *slot = (*slot).max(off);
        }
        self.stats.borrow_mut().commits += 1;
        let done = self.cpu(
            ctx,
            simprof::Component::GridlogCommit,
            self.cfg.costs.broker_commit_process,
        );
        // End-offset lag: how far the group's durable position trails
        // the head of the log, summed over committed partitions.
        let g = self.groups.get(&group).expect("still here");
        let lag: u64 = if let Some(tid) = g.topic {
            let log = &self.logs[tid.0 as usize];
            g.committed
                .iter()
                .map(|(&p, &off)| log.partitions[p as usize].end_offset().saturating_sub(off))
                .sum()
        } else {
            0
        };
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("gridlog.commits", 1);
            m.set_gauge("gridlog.end_offset_lag", lag as f64);
        });
        self.send_to_client(
            ctx,
            conn,
            CONTROL_FRAME_BYTES,
            BrokerToClient::CommitOk { epoch },
            done,
        );
    }

    fn on_heartbeat(&mut self, ctx: &mut Context<'_>, conn: ConnId, group: String, member: u64) {
        if !self.conns.contains(&conn) {
            return;
        }
        let now = ctx.now();
        let session = self.cfg.group.session_timeout;
        let mut arm = false;
        {
            let Some(g) = self.groups.get_mut(&group) else {
                return; // silence: the client will reconnect and rejoin
            };
            let Some(m) = g.members.get_mut(&member) else {
                return;
            };
            m.conn = conn;
            m.last_seen = now;
            if !m.session_armed {
                m.session_armed = true;
                arm = true;
            }
        }
        if arm {
            self.arm_timer(ctx, session, TimerKind::SessionCheck { group, member });
        }
        self.send_to_client(ctx, conn, CONTROL_FRAME_BYTES, BrokerToClient::Pong, now);
    }

    fn on_session_check(&mut self, ctx: &mut Context<'_>, group: String, member: u64) {
        let now = ctx.now();
        let session = self.cfg.group.session_timeout;
        let remaining = {
            let Some(g) = self.groups.get_mut(&group) else {
                return;
            };
            let Some(m) = g.members.get_mut(&member) else {
                return;
            };
            let silence = now.saturating_since(m.last_seen);
            if silence >= session {
                None
            } else {
                // Re-check when the current silence would hit the limit.
                m.session_armed = true;
                Some(session - silence)
            }
        };
        if let Some(remaining) = remaining {
            self.arm_timer(ctx, remaining, TimerKind::SessionCheck { group, member });
        } else {
            let g = self.groups.get_mut(&group).expect("checked above");
            g.members.remove(&member);
            g.assignment.remove(&member);
            self.stats.borrow_mut().expired_members += 1;
            telemetry::with_metrics(ctx, |m, _| m.add_counter("gridlog.expired_members", 1));
            if !self.groups[&group].members.is_empty() {
                self.rebalance(ctx, &group);
            }
        }
    }

    /// Fault injection kills the process: connections, threads, group
    /// membership, and parked fetches are lost; the segments, committed
    /// offsets, and producer sequences survive on disk.
    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.stats.borrow_mut().crashes += 1;
        let mut conn_ids: Vec<ConnId> = self.conns.iter().copied().collect();
        conn_ids.sort_unstable_by_key(|c| c.0);
        let heap = self.cfg.memory.heap_per_conn;
        for _conn in conn_ids {
            ctx.with_service::<OsModel, _>(|os, _| {
                os.kill_thread(self.proc);
                os.free(self.proc, heap);
            });
        }
        self.conns.clear();
        for g in self.groups.values_mut() {
            g.members.clear();
            g.assignment.clear();
            // g.epoch deliberately kept: pre-crash epochs stay stale
            // after the restart, so a surviving client can never fetch
            // under an old assignment.
        }
        self.parked.clear();
        self.timers.clear();
    }

    /// Restart replays the durable segments (sequential scan, charged to
    /// the rebalance component) and counts the records that the durable
    /// committed offsets will re-deliver — the recovery the CLIENT-mode
    /// narada resync performs with its stable log.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        let total: u64 = self.logs.iter().map(TopicLog::total_records).sum();
        if total > 0 {
            let cost = self
                .cfg
                .costs
                .broker_replay_per_record
                .saturating_mul(total);
            self.cpu(ctx, simprof::Component::GridlogRebalance, cost);
        }
        self.stats.borrow_mut().replayed_records += total;
        // Messages preserved by durability: the tail between each
        // committed offset and the log end. Groups that never committed
        // (auto/Latest mode) recover nothing.
        let mut recovered: u64 = 0;
        for g in self.groups.values() {
            let Some(tid) = g.topic else { continue };
            let log = &self.logs[tid.0 as usize];
            recovered += g
                .committed
                .iter()
                .map(|(&p, &off)| log.partitions[p as usize].end_offset().saturating_sub(off))
                .sum::<u64>();
        }
        if recovered > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.recovered += recovered);
            simtrace::with_trace(ctx, |tr, _| {
                tr.count(simtrace::Counter::FaultRecoveries, recovered);
            });
        }
    }
}

impl Actor for LogBroker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.endpoint = Endpoint::new(self.node, ctx.self_id());
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        // Own timers first: their state (parked fetches, members) was
        // wiped by any crash, so stale fires are naturally inert.
        let msg = match msg.downcast::<BrokerTimer>() {
            Ok(timer) => {
                let Some(kind) = self.timers.remove(&timer.0) else {
                    return; // cancelled or wiped
                };
                match kind {
                    TimerKind::FetchExpire { topic, partition } => {
                        self.on_fetch_expire(ctx, topic, partition, timer.0)
                    }
                    TimerKind::SessionCheck { group, member } => {
                        self.on_session_check(ctx, group, member)
                    }
                }
                return;
            }
            Err(m) => m,
        };
        // Fault injection: crash/restart signals arrive directly from
        // the fault driver, not over the network, so a crashed broker
        // still hears its own restart.
        let msg = match msg.downcast::<simfault::FaultSignal>() {
            Ok(sig) => {
                match *sig {
                    simfault::FaultSignal::BrokerCrash => self.on_crash(ctx),
                    simfault::FaultSignal::BrokerRestart => self.on_restart(ctx),
                    simfault::FaultSignal::RegistryRestart => {}
                }
                return;
            }
            Err(m) => m,
        };
        // Network deliveries.
        let Ok(delivery) = msg.downcast::<Delivery>() else {
            return; // unknown message type: ignore
        };
        if self.crashed {
            // A dead process: every frame aimed at it evaporates.
            simfault::with_faults(ctx, |inj, _| inj.stats.crash_drops += 1);
            simtrace::with_trace(ctx, |tr, _| {
                tr.count(simtrace::Counter::FaultDrops, 1);
            });
            return;
        }
        let Delivery {
            conn,
            bytes,
            payload,
            ..
        } = *delivery;
        let Ok(c2b) = payload.downcast::<ClientToBroker>() else {
            return;
        };
        match *c2b {
            ClientToBroker::Connect => self.on_connect(ctx, conn),
            ClientToBroker::Disconnect => self.on_disconnect(ctx, conn),
            ClientToBroker::Produce {
                producer_id,
                batch_seq,
                topic,
                records,
                retransmit,
            } => self.on_produce(
                ctx,
                conn,
                producer_id,
                batch_seq,
                topic,
                records,
                retransmit,
                bytes,
            ),
            ClientToBroker::JoinGroup {
                group,
                member,
                topic,
                reset,
            } => self.on_join(ctx, conn, group, member, topic, reset),
            ClientToBroker::Fetch {
                group,
                member,
                epoch,
                partition,
                offset,
            } => self.on_fetch(ctx, conn, group, member, epoch, partition, offset),
            ClientToBroker::CommitOffsets {
                group,
                member,
                epoch,
                offsets,
            } => self.on_commit(ctx, conn, group, member, epoch, offsets),
            ClientToBroker::Heartbeat { group, member } => {
                self.on_heartbeat(ctx, conn, group, member)
            }
            ClientToBroker::Ping => {
                // Only connections this incarnation accepted get an
                // answer; pings on pre-crash connections go unanswered
                // and trigger client-side detection.
                if self.conns.contains(&conn) {
                    let now = ctx.now();
                    self.send_to_client(ctx, conn, CONTROL_FRAME_BYTES, BrokerToClient::Pong, now);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "gridlog-broker"
    }
}
