//! The Primary Producer servlet: hosts one server-side producer instance
//! per client generator (memory storage, retention), registers instances
//! with the Registry, and streams buffered tuples to attached Consumer
//! streams on the periodic streaming cycle.
//!
//! Convention: an instance's registry entry uses the servlet endpoint
//! with `port = producer instance id`, so lookups return addressable
//! instances without a separate id field.

use crate::config::{
    RgmaConfig, CREATE_INSTANCE, HEAP_PER_PRODUCER, HEAP_PER_TUPLE, INSERT_BASE,
    INSERT_PER_BYTE_NS, LATEST_RETENTION, PER_TUPLE, POLL_ANSWER, SERVLET_DISPATCH,
    SOFT_STATE_REFRESH, STREAMING_PERIOD, STREAM_SEND,
};
use crate::protocol::{
    chunk_bytes, ConsumerId, Entry, ProducerId, ProducerRequest, ProducerResponse, QueryType,
    RegistryRequest, StreamChunk,
};
use crate::storage::MemoryStorage;
use minisql::Catalog;
use simcore::{Actor, Context, Payload, SimDuration};
use simnet::http::{Caller, Reply};
use simnet::server::Acceptor;
use simnet::{ConnId, Delivery, Endpoint, HttpRequest, HttpResponse};
use simos::{Bytes, NodeId, ProcessId};
use simprof::Component;
use std::sync::Arc;
use telemetry::ProbeId;
use wire::Value;

/// Deployment-time control messages.
pub enum ProducerControl {
    /// Install a table schema replica (the Schema service push).
    DeclareTable {
        /// `CREATE TABLE` SQL.
        sql: String,
    },
}

struct Instance {
    table: String,
    storage: MemoryStorage,
    /// Read cursor of each stream attached to this instance, by index
    /// into the servlet's `streams`.
    cursors: Vec<(usize, u64)>,
}

struct StreamState {
    conn: ConnId,
    consumer: ConsumerId,
}

struct FlushTick;
struct SweepTick;
struct RefreshTick;

/// The Primary Producer servlet actor.
pub struct ProducerServlet {
    cfg: RgmaConfig,
    /// Client connections: a Tomcat service thread each, no heap.
    server: Acceptor<()>,
    http: Caller,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    /// Replica of the Schema service's tables.
    catalog: Catalog,
    /// Instances by id: ids count up from 0 and an instance lives as
    /// long as its servlet.
    instances: Vec<Instance>,
    streams: Vec<StreamState>,
    /// Instances the next flush has to read: each one that took a tuple,
    /// or got a stream attached behind its tail, since the last flush
    /// (possibly more than once). Every other cursor is at its tail.
    dirty: Vec<ProducerId>,
}

impl ProducerServlet {
    /// New producer servlet on `node`/`proc`, registering at `registry_ep`.
    pub fn new(cfg: RgmaConfig, node: NodeId, proc: ProcessId, registry_ep: Endpoint) -> Self {
        ProducerServlet {
            cfg,
            server: Acceptor::new(node, proc, Bytes(0)),
            http: Caller::new(node),
            registry_ep,
            registry_conn: None,
            catalog: Catalog::new(),
            instances: Vec::new(),
            streams: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Announce instance `pid` publishing `table` to the registry
    /// (fire-and-forget: the answer needs no handling).
    fn register(&mut self, ctx: &mut Context<'_>, pid: u16, table: String) {
        let me = self.server.endpoint(ctx);
        let endpoint = Endpoint::with_port(me.node, me.actor, pid);
        let req = RegistryRequest::RegisterProducer { table, endpoint };
        let conn = self.registry_conn.expect("registry conn opened on start");
        self.http.request(ctx, conn, "/registry/register", 96, req);
    }

    fn on_create_producer(&mut self, ctx: &mut Context<'_>, reply: Reply, table: String) {
        // Heap for the instance.
        if let Err(e) = self.server.alloc(ctx, HEAP_PER_PRODUCER) {
            let reason = e.to_string();
            let now = ctx.now();
            reply.send_at(ctx, 503, 64, ProducerResponse::Error { reason }, now);
            return;
        }
        let pid = ProducerId(self.instances.len() as u32);
        self.instances.push(Instance {
            table: table.clone(),
            storage: MemoryStorage::new(LATEST_RETENTION, self.cfg.history_retention),
            cursors: Vec::new(),
        });
        let cost = CREATE_INSTANCE;
        let done = self.server.cpu(ctx, Component::RgmaServlet, cost);
        // Register the instance with the registry (async; the instance is
        // immediately usable by its client, but invisible to consumers
        // until registration propagates — the warm-up window).
        self.register(ctx, pid.0 as u16, table);
        let created = ProducerResponse::Created { producer: pid };
        reply.send_at(ctx, 200, 48, created, done);
    }

    fn on_insert(
        &mut self,
        ctx: &mut Context<'_>,
        reply: Reply,
        producer: ProducerId,
        row: Arc<[Value]>,
        sql_len: usize,
        probe: ProbeId,
    ) {
        // The servlet's work is parsing the text the row stands for.
        let cost = INSERT_BASE + SimDuration::per_byte(sql_len, INSERT_PER_BYTE_NS);
        let done = self.server.cpu(ctx, Component::RgmaInsert, cost);
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("rgma.inserts", 1);
            m.observe("rgma.insert_cost_us", cost.as_micros());
        });
        let result: Result<u32, String> = (|| {
            let inst = self
                .instances
                .get_mut(producer.0 as usize)
                .ok_or_else(|| format!("no such producer {producer:?}"))?;
            let schema = self.catalog.table(&inst.table).map_err(|e| e.to_string())?;
            schema.check_row(&row).map_err(|e| e.to_string())?;
            inst.storage.insert(schema.to_tuple(row), probe, done);
            self.dirty.push(producer);
            Ok(inst.storage.len() as u32)
        })();
        match result {
            Ok(rows) => {
                let _ = self.server.alloc(ctx, HEAP_PER_TUPLE);
                reply.send_at(ctx, 200, 24, ProducerResponse::InsertOk, done);
                let stored = simtrace::EventKind::StorageInsert { rows };
                simtrace::hop(ctx, done, Some(simtrace::TraceId(probe.0)), stored);
            }
            Err(reason) => reply.send_at(ctx, 400, 64, ProducerResponse::Error { reason }, done),
        }
    }

    fn on_start_stream(
        &mut self,
        ctx: &mut Context<'_>,
        reply: Reply,
        table: String,
        consumer: ConsumerId,
        producers: Vec<ProducerId>,
    ) {
        let cost = SERVLET_DISPATCH;
        let done = self.server.cpu(ctx, Component::RgmaServlet, cost);
        // Attach (or extend) the stream for this consumer: any instance of
        // `table` not yet covered gets a cursor at the start of its
        // replay window.
        let stream_ix = self
            .streams
            .iter()
            .position(|s| s.consumer == consumer && s.conn == reply.conn);
        let stream_ix = match stream_ix {
            Some(ix) => ix,
            None => {
                self.streams.push(StreamState {
                    conn: reply.conn,
                    consumer,
                });
                self.streams.len() - 1
            }
        };
        let replay_from = simcore::SimTime::from_micros(
            ctx.now()
                .as_micros()
                .saturating_sub(self.cfg.attach_replay.as_micros()),
        );
        for pid in producers {
            let Some(inst) = self.instances.get_mut(pid.0 as usize) else {
                continue;
            };
            if inst.table != table || inst.cursors.iter().any(|&(s, _)| s == stream_ix) {
                continue;
            }
            let cursor = inst.storage.cursor_since(replay_from);
            if cursor < inst.storage.tail_cursor() {
                // Tuples to stream though no insert announces them.
                self.dirty.push(pid);
            }
            inst.cursors.push((stream_ix, cursor));
        }
        reply.send_at(ctx, 200, 24, ProducerResponse::StreamStarted, done);
    }

    /// One-shot latest/history fetch against instance storage (the GMA
    /// query/response mode).
    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        reply: Reply,
        table: String,
        query_type: QueryType,
        producers: Vec<ProducerId>,
        token: u64,
    ) {
        let now = ctx.now();
        let mut entries = Vec::new();
        for pid in producers {
            let Some(inst) = self.instances.get(pid.0 as usize) else {
                continue;
            };
            if inst.table != table {
                continue;
            }
            match query_type {
                QueryType::Latest => {
                    if let Some(e) = inst.storage.latest(now) {
                        entries.push((e.probe, e.tuple.clone()));
                    }
                }
                QueryType::History => {
                    entries.extend(
                        inst.storage
                            .history()
                            .iter()
                            .map(|e| (e.probe, e.tuple.clone())),
                    );
                }
            }
        }
        let n = entries.len() as u64;
        let cost = POLL_ANSWER + SimDuration::from_micros(PER_TUPLE.as_micros() * n / 2);
        let done = self.server.cpu(ctx, Component::RgmaSelect, cost);
        let bytes = crate::protocol::poll_result_bytes(&entries);
        let result = ProducerResponse::FetchResult { token, entries };
        reply.send_at(ctx, 200, bytes, result, done);
    }

    /// The streaming cycle: collect new tuples per stream and push one
    /// merged chunk per consumer stream. Only the `dirty` instances are
    /// read, in id order, so a chunk lists its tuples as a walk over
    /// every cursor of every instance would.
    fn on_flush(&mut self, ctx: &mut Context<'_>) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let mut chunks: Vec<Vec<Entry>> = vec![Vec::new(); self.streams.len()];
        for pid in self.dirty.drain(..) {
            let inst = &mut self.instances[pid.0 as usize];
            for (stream, cursor) in &mut inst.cursors {
                let (new, next) = inst.storage.read_from(*cursor);
                chunks[*stream].extend(new.iter().map(|e| (e.probe, e.tuple.clone())));
                *cursor = next;
            }
        }
        for (stream, entries) in self.streams.iter().zip(chunks) {
            if entries.is_empty() {
                continue;
            }
            let conn = stream.conn;
            let chunk = StreamChunk {
                consumer: stream.consumer,
                entries,
            };
            let n = chunk.entries.len() as u64;
            let cost = STREAM_SEND + SimDuration::from_micros(PER_TUPLE.as_micros() * n / 4);
            let done = self.server.cpu(ctx, Component::RgmaSelect, cost);
            let bytes = chunk_bytes(&chunk);
            self.server.send_at(ctx, conn, bytes, chunk, done);
        }
        ctx.timer(STREAMING_PERIOD, FlushTick);
    }

    /// Soft-state refresh: re-register every live instance. After a
    /// registry restart (Tomcat bounce) the wiped directory re-learns
    /// them here; while the registry is healthy these are idempotent.
    fn on_refresh(&mut self, ctx: &mut Context<'_>) {
        if !self.cfg.recover {
            return;
        }
        let n = self.instances.len() as u64;
        for pid in 0..self.instances.len() {
            let table = self.instances[pid].table.clone();
            self.register(ctx, pid as u16, table);
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.reregistrations += n);
        }
        ctx.timer(SOFT_STATE_REFRESH, RefreshTick);
    }

    fn on_sweep(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let mut evicted = 0usize;
        for inst in &mut self.instances {
            evicted += inst.storage.sweep(now);
        }
        if evicted > 0 {
            let heap = Bytes(HEAP_PER_TUPLE.0 * evicted as u64);
            self.server.free(ctx, heap);
        }
        ctx.timer(SimDuration::from_secs(5), SweepTick);
    }
}

impl Actor for ProducerServlet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.registry_conn = Some(self.http.open(ctx, self.registry_ep));
        ctx.timer(STREAMING_PERIOD, FlushTick);
        ctx.timer(SimDuration::from_secs(5), SweepTick);
        if self.cfg.recover {
            ctx.timer(SOFT_STATE_REFRESH, RefreshTick);
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<ProducerControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    ProducerControl::DeclareTable { sql } => {
                        let stmt = minisql::parse(&sql).expect("deployment SQL parses");
                        self.catalog.create(&stmt).expect("table not yet declared");
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FlushTick>() {
            Ok(_) => {
                self.on_flush(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SweepTick>() {
            Ok(_) => {
                self.on_sweep(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RefreshTick>() {
            Ok(_) => {
                self.on_refresh(ctx);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Responses from the registry need no handling (fire-and-forget
        // registration); requests are dispatched below.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(_) => return,
            Err(p) => p,
        };
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let refusal = |reason| ProducerResponse::Error { reason };
        let Some((reply, body)) = self.server.admit(ctx, conn, *req, refusal) else {
            return;
        };
        // Base servlet dispatch cost applies to every request.
        let cost = SERVLET_DISPATCH;
        self.server.cpu(ctx, Component::RgmaServlet, cost);
        match body {
            ProducerRequest::CreateProducer { table } => self.on_create_producer(ctx, reply, table),
            ProducerRequest::Insert {
                producer,
                row,
                sql_len,
                probe,
            } => self.on_insert(ctx, reply, producer, row, sql_len, probe),
            ProducerRequest::StartStream {
                table,
                consumer,
                producers,
            } => self.on_start_stream(ctx, reply, table, consumer, producers),
            ProducerRequest::Fetch {
                table,
                query_type,
                producers,
                token,
            } => self.on_fetch(ctx, reply, table, query_type, producers, token),
        }
    }

    fn name(&self) -> &str {
        "rgma-producer-servlet"
    }
}
