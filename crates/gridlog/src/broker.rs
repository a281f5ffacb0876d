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

use crate::config::{
    OffsetReset, BROKER_ACCEPT, BROKER_APPEND_BASE, BROKER_APPEND_PER_RECORD,
    BROKER_COMMIT_PROCESS, BROKER_FETCH_BASE, BROKER_FETCH_PER_RECORD, BROKER_PER_BYTE_NS,
    BROKER_REBALANCE, BROKER_REPLAY_PER_RECORD, FETCH_MAX_RECORDS, FETCH_MAX_WAIT, HEAP_PER_CONN,
    PARTITIONS, SEGMENT_RECORDS, SESSION_TIMEOUT,
};
use crate::log::{partition_for, StoredRecord, TopicLog};
use crate::protocol::{
    fetch_response_bytes, offsets_bytes, BrokerToClient, ClientToBroker, Membership, Produce,
    CONTROL_FRAME_BYTES,
};
use simcore::{Actor, Context, FastMap, Payload, SimDuration, SimTime};
use simnet::server::{Acceptor, Inbound};
use simnet::ConnId;
use simos::{NodeId, ProcessId};
use simprof::Component;
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

/// One fetch of a partition: who asked, under which assignment, from
/// where. Served at once or parked until data arrives (long poll).
#[derive(Clone, Copy)]
struct Fetch {
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
    /// Accepted connections: a thread and `HEAP_PER_CONN` each.
    server: Acceptor<()>,
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
    /// Parked long-poll fetches keyed by (topic, partition), each under
    /// the token of its expiry timer.
    parked: BTreeMap<(TopicId, u32), Vec<(u64, Fetch)>>,
    timers: FastMap<u64, TimerKind>,
    next_timer: u64,
    stats: StatsHandle,
}

impl LogBroker {
    /// Create a log broker to be hosted on `node` inside process `proc`.
    pub fn new(node: NodeId, proc: ProcessId) -> Self {
        LogBroker {
            server: Acceptor::new(node, proc, HEAP_PER_CONN),
            topics: wire::TopicTable::new(),
            logs: Vec::new(),
            producer_seqs: BTreeMap::new(),
            groups: BTreeMap::new(),
            parked: BTreeMap::new(),
            timers: FastMap::default(),
            next_timer: 0,
            stats: StatsHandle::default(),
        }
    }

    /// Handle to this broker's statistics (clone before `add_actor`).
    pub fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }

    /// Put a control frame on `conn` at `at`.
    fn control(&self, ctx: &mut Context<'_>, conn: ConnId, frame: BrokerToClient, at: SimTime) {
        self.server
            .send_at(ctx, conn, CONTROL_FRAME_BYTES, frame, at);
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
            self.logs
                .push(TopicLog::new(tid, PARTITIONS, SEGMENT_RECORDS));
        }
        tid
    }

    fn on_connect(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        match self.server.accept(ctx, conn, ()) {
            Ok(()) => {
                simprof::hit(ctx, Component::OsSched);
                self.stats.borrow_mut().accepted += 1;
                let cost = BROKER_ACCEPT;
                let done = self.server.cpu(ctx, Component::GridlogRebalance, cost);
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
        if self.server.release(ctx, conn).is_some() {
            simprof::hit(ctx, Component::OsSched);
            // Membership is not torn down here: the session timer
            // collects members of dead connections.
        }
    }

    fn on_produce(&mut self, ctx: &mut Context<'_>, conn: ConnId, batch: Produce, bytes: usize) {
        let Produce {
            producer_id,
            batch_seq,
            topic,
            records,
            retransmit,
        } = batch;
        // Idempotent producer: a batch at or below the durable sequence
        // was already appended — re-acknowledge without re-appending, so
        // post-crash retransmissions never duplicate records.
        if retransmit {
            if let Some(&last) = self.producer_seqs.get(&producer_id) {
                if batch_seq <= last {
                    self.stats.borrow_mut().dup_batches += 1;
                    let cost =
                        BROKER_APPEND_BASE + SimDuration::per_byte(bytes, BROKER_PER_BYTE_NS);
                    let done = self.server.cpu(ctx, Component::GridlogAppend, cost);
                    self.control(ctx, conn, BrokerToClient::ProduceAck { batch_seq }, done);
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
        let cost = BROKER_APPEND_BASE
            + SimDuration::per_byte(bytes, BROKER_PER_BYTE_NS)
            + BROKER_APPEND_PER_RECORD.saturating_mul(n);
        let done = self.server.cpu(ctx, Component::GridlogAppend, cost);
        let now = ctx.now();
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for rec in records {
            let p = partition_for(rec.key, PARTITIONS);
            let probe = rec.probe;
            self.logs[tid.0 as usize].partitions[p as usize].append(StoredRecord {
                probe: rec.probe,
                key: rec.key,
                message: rec.message,
            });
            touched.insert(p);
            let recv = simtrace::EventKind::BrokerRecv { broker: 0 };
            simtrace::hop(ctx, now, Some(simtrace::TraceId(probe.0)), recv);
        }
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("gridlog.appended_records", n);
            m.add_counter("broker_publishes", n);
            m.observe("gridlog.append_cost_us", cost.as_micros());
        });
        self.control(ctx, conn, BrokerToClient::ProduceAck { batch_seq }, done);
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
        waiters.retain(|&(token, fetch)| {
            if fetch.offset < end {
                ready.push((token, fetch));
                false
            } else {
                true
            }
        });
        if waiters.is_empty() {
            self.parked.remove(&(topic, partition));
        }
        for (token, fetch) in ready {
            self.timers.remove(&token);
            self.serve_fetch(ctx, topic, partition, fetch, floor);
        }
    }

    /// Read records for `fetch` and send them, charging the fetch path.
    fn serve_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicId,
        partition: u32,
        fetch: Fetch,
        floor: SimTime,
    ) {
        let Fetch {
            conn,
            epoch,
            offset,
        } = fetch;
        let plog = &self.logs[topic.0 as usize].partitions[partition as usize];
        let records = plog.read_from(offset, FETCH_MAX_RECORDS);
        let end_offset = plog.end_offset();
        let n = records.len() as u64;
        let bytes = fetch_response_bytes(&records);
        let cost = BROKER_FETCH_BASE + BROKER_FETCH_PER_RECORD.saturating_mul(n);
        let done = self
            .server
            .cpu(ctx, Component::GridlogFetch, cost)
            .max(floor);
        {
            let mut st = self.stats.borrow_mut();
            st.fetches += 1;
            st.records_served += n;
        }
        let now = ctx.now();
        let deliver = simtrace::EventKind::BrokerDeliver {
            broker: 0,
            fanout: 1,
        };
        for rec in &records {
            simtrace::hop(ctx, now, Some(simtrace::TraceId(rec.probe.0)), deliver);
        }
        telemetry::with_metrics(ctx, |m, _| {
            m.set_gauge("gridlog.fetch_batch_occupancy", n as f64);
            m.add_counter("broker_deliveries", n);
            m.observe("gridlog.fetch_cost_us", cost.as_micros());
        });
        let response = BrokerToClient::Records {
            partition,
            epoch,
            records,
            end_offset,
        };
        self.server.send_at(ctx, conn, bytes, response, done);
    }

    fn on_join(&mut self, ctx: &mut Context<'_>, conn: ConnId, join: Membership) {
        let Membership {
            group,
            member,
            topic,
            reset,
        } = join;
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
        let cost = BROKER_REBALANCE;
        let done = self.server.cpu(ctx, Component::GridlogRebalance, cost);
        let Some(g) = self.groups.get_mut(group) else {
            return;
        };
        let Some(tid) = g.topic else {
            return;
        };
        g.epoch += 1;
        self.stats.borrow_mut().rebalances += 1;
        let members: Vec<u64> = g.members.keys().copied().collect();
        g.assignment.clear();
        if !members.is_empty() {
            // Range assignment: contiguous partition chunks in sorted
            // member order, front-loading the remainder — deterministic
            // and identical to Kafka's RangeAssignor for one topic.
            let n = members.len() as u32;
            let base = PARTITIONS / n;
            let extra = PARTITIONS % n;
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
        for p in 0..PARTITIONS {
            if let Some(waiters) = self.parked.remove(&(tid, p)) {
                for (token, _) in waiters {
                    self.timers.remove(&token);
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
            let assignment = BrokerToClient::Assignment {
                group: group.clone(),
                epoch,
                partitions,
            };
            self.server.send_at(ctx, conn, bytes, assignment, at);
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
        let assignment = BrokerToClient::Assignment {
            group: group.to_owned(),
            epoch,
            partitions,
        };
        self.server.send_at(ctx, conn, bytes, assignment, now);
    }

    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        group: &str,
        member: u64,
        partition: u32,
        fetch: Fetch,
    ) {
        let Some(g) = self.groups.get(group) else {
            return; // unknown group (pre-crash member): silence → rejoin
        };
        if !g.members.contains_key(&member) {
            return;
        }
        if g.epoch != fetch.epoch {
            self.resend_assignment(ctx, group, member);
            return;
        }
        let Some(tid) = g.topic else {
            return;
        };
        if partition >= PARTITIONS {
            return;
        }
        let end = self.logs[tid.0 as usize].partitions[partition as usize].end_offset();
        if fetch.offset < end {
            let now = ctx.now();
            self.serve_fetch(ctx, tid, partition, fetch, now);
        } else {
            // Nothing to read yet: park until an append or the long-poll
            // deadline, whichever comes first.
            let expire = TimerKind::FetchExpire {
                topic: tid,
                partition,
            };
            let token = self.arm_timer(ctx, FETCH_MAX_WAIT, expire);
            let waiters = self.parked.entry((tid, partition)).or_default();
            waiters.push((token, fetch));
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
        let Some(ix) = waiters.iter().position(|&(t, _)| t == token) else {
            return;
        };
        let (_, fetch) = waiters.remove(ix);
        if waiters.is_empty() {
            self.parked.remove(&(topic, partition));
        }
        // Empty response: unblocks the consumer's poll loop with a fresh
        // end-offset observation.
        let now = ctx.now();
        self.serve_fetch(ctx, topic, partition, fetch, now);
    }

    fn on_commit(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        group: &str,
        member: u64,
        epoch: u64,
        offsets: Vec<(u32, u64)>,
    ) {
        let Some(g) = self.groups.get_mut(group) else {
            return;
        };
        if !g.members.contains_key(&member) {
            return;
        }
        if g.epoch != epoch {
            self.resend_assignment(ctx, group, member);
            return;
        }
        for (p, off) in offsets {
            let slot = g.committed.entry(p).or_insert(0);
            *slot = (*slot).max(off);
        }
        self.stats.borrow_mut().commits += 1;
        let cost = BROKER_COMMIT_PROCESS;
        let done = self.server.cpu(ctx, Component::GridlogCommit, cost);
        // End-offset lag: how far the group's durable position trails
        // the head of the log, summed over committed partitions.
        let g = self.groups.get(group).expect("still here");
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
        self.control(ctx, conn, BrokerToClient::CommitOk { epoch }, done);
    }

    fn on_heartbeat(&mut self, ctx: &mut Context<'_>, conn: ConnId, group: String, member: u64) {
        let now = ctx.now();
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
            self.arm_timer(
                ctx,
                SESSION_TIMEOUT,
                TimerKind::SessionCheck { group, member },
            );
        }
        self.control(ctx, conn, BrokerToClient::Pong, now);
    }

    fn on_session_check(&mut self, ctx: &mut Context<'_>, group: String, member: u64) {
        let now = ctx.now();
        let remaining = {
            let Some(g) = self.groups.get_mut(&group) else {
                return;
            };
            let Some(m) = g.members.get_mut(&member) else {
                return;
            };
            let silence = now.saturating_since(m.last_seen);
            if silence >= SESSION_TIMEOUT {
                None
            } else {
                // Re-check when the current silence would hit the limit.
                m.session_armed = true;
                Some(SESSION_TIMEOUT - silence)
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

    /// Fault injection killed the process: connections and threads (the
    /// acceptor's), group membership, and parked fetches are lost; the
    /// segments, committed offsets, and producer sequences survive on
    /// disk.
    fn on_crash(&mut self) {
        self.stats.borrow_mut().crashes += 1;
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
        let total: u64 = self.logs.iter().map(TopicLog::total_records).sum();
        if total > 0 {
            let cost = BROKER_REPLAY_PER_RECORD.saturating_mul(total);
            self.server.cpu(ctx, Component::GridlogRebalance, cost);
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
            telemetry::with_metrics(ctx, |m, _| m.add_counter("fault_recoveries", recovered));
        }
    }
}

impl Actor for LogBroker {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let opens = |f: &ClientToBroker| matches!(f, ClientToBroker::Connect);
        let (conn, bytes, frame) = match self.server.inbound(ctx, msg, opens) {
            Inbound::Frame { conn, bytes, frame } => (conn, bytes, frame),
            Inbound::Crashed(_) => return self.on_crash(),
            Inbound::Restarted => return self.on_restart(ctx),
            Inbound::Dropped => return,
            Inbound::NotMine(msg) => {
                // Own timers: their state (parked fetches, members) was
                // wiped by any crash, so stale fires are naturally inert.
                let Ok(timer) = msg.downcast::<BrokerTimer>() else {
                    return; // unknown message type: ignore
                };
                return match self.timers.remove(&timer.0) {
                    Some(TimerKind::FetchExpire { topic, partition }) => {
                        self.on_fetch_expire(ctx, topic, partition, timer.0)
                    }
                    Some(TimerKind::SessionCheck { group, member }) => {
                        self.on_session_check(ctx, group, member)
                    }
                    None => {} // cancelled or wiped
                };
            }
        };
        match frame {
            ClientToBroker::Connect => self.on_connect(ctx, conn),
            ClientToBroker::Disconnect => self.on_disconnect(ctx, conn),
            ClientToBroker::Produce(batch) => self.on_produce(ctx, conn, batch, bytes),
            ClientToBroker::JoinGroup(join) => self.on_join(ctx, conn, join),
            ClientToBroker::Fetch {
                group,
                member,
                epoch,
                partition,
                offset,
            } => {
                let fetch = Fetch {
                    conn,
                    epoch,
                    offset,
                };
                self.on_fetch(ctx, &group, member, partition, fetch)
            }
            ClientToBroker::CommitOffsets {
                group,
                member,
                epoch,
                offsets,
            } => self.on_commit(ctx, conn, &group, member, epoch, offsets),
            ClientToBroker::Heartbeat { group, member } => {
                self.on_heartbeat(ctx, conn, group, member)
            }
            ClientToBroker::Ping => {
                // Only held connections get here: pings on pre-crash
                // connections go unanswered and trigger client-side
                // detection.
                let now = ctx.now();
                self.control(ctx, conn, BrokerToClient::Pong, now);
            }
        }
    }

    fn name(&self) -> &str {
        "gridlog-broker"
    }
}
