//! The Primary Producer servlet: hosts one server-side producer instance
//! per client generator (memory storage, retention), registers instances
//! with the Registry, and streams buffered tuples to attached Consumer
//! streams on the periodic streaming cycle.
//!
//! Convention: an instance's registry entry uses the servlet endpoint
//! with `port = producer instance id`, so lookups return addressable
//! instances without a separate id field.

use crate::config::RgmaConfig;
use crate::protocol::{
    chunk_bytes, ConsumerId, Entry, ProducerId, ProducerRequest, ProducerResponse, QueryType,
    RegistryRequest, Reply, StreamChunk,
};
use crate::storage::MemoryStorage;
use minisql::Catalog;
use simcore::{Actor, ActorId, Context, FastSet, Payload, SimDuration, SimTime};
use simnet::{
    http, ConnId, Delivery, Endpoint, HttpRequest, HttpResponse, NetworkFabric, Transport,
};
use simos::{NodeId, OsModel, ProcessId};
use std::sync::Arc;
use telemetry::ProbeId;

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
    node: NodeId,
    proc: ProcessId,
    endpoint: Endpoint,
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
    /// Connections that already hold a service thread.
    seen_conns: FastSet<ConnId>,
    next_req: u64,
}

impl ProducerServlet {
    /// New producer servlet on `node`/`proc`, registering at `registry_ep`.
    pub fn new(cfg: RgmaConfig, node: NodeId, proc: ProcessId, registry_ep: Endpoint) -> Self {
        ProducerServlet {
            cfg,
            node,
            proc,
            endpoint: Endpoint::new(node, ActorId::NONE),
            registry_ep,
            registry_conn: None,
            catalog: Catalog::new(),
            instances: Vec::new(),
            streams: Vec::new(),
            dirty: Vec::new(),
            seen_conns: FastSet::default(),
            next_req: 0,
        }
    }

    fn cpu(&self, ctx: &mut Context<'_>, comp: simprof::Component, cost: SimDuration) -> SimTime {
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let (done, effective) = os.execute_metered(node, ctx.now(), cost);
            simprof::charge(ctx, comp, effective);
            done
        })
    }

    /// First request on a connection costs a Tomcat service thread; OOM
    /// here is the paper's "cannot accept N concurrent connections".
    fn ensure_thread(&mut self, ctx: &mut Context<'_>, conn: ConnId) -> Result<(), String> {
        if self.seen_conns.contains(&conn) {
            return Ok(());
        }
        let r = ctx.with_service::<OsModel, _>(|os, _| os.spawn_thread(self.proc));
        match r {
            Ok(()) => {
                self.seen_conns.insert(conn);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn on_create_producer(&mut self, ctx: &mut Context<'_>, reply: Reply, table: String) {
        // Heap for the instance.
        let heap = self.cfg.memory.heap_per_producer;
        let alloc = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
        if let Err(e) = alloc {
            let now = ctx.now();
            reply.send_at(
                ctx,
                self.endpoint,
                503,
                64,
                ProducerResponse::Error {
                    reason: e.to_string(),
                },
                now,
            );
            return;
        }
        let pid = ProducerId(self.instances.len() as u32);
        self.instances.push(Instance {
            table: table.clone(),
            storage: MemoryStorage::new(self.cfg.latest_retention, self.cfg.history_retention),
            cursors: Vec::new(),
        });
        let done = self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.create_instance,
        );
        // Register the instance with the registry (async; the instance is
        // immediately usable by its client, but invisible to consumers
        // until registration propagates — the warm-up window).
        let my_ep = self.endpoint;
        let reg_conn = self.registry_conn.expect("registry conn opened on start");
        let req = RegistryRequest::RegisterProducer {
            table,
            endpoint: Endpoint::with_port(my_ep.node, my_ep.actor, pid.0 as u16),
        };
        let rid = self.next_req;
        self.next_req += 1;
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            http::send_request(
                net,
                ctx,
                reg_conn,
                my_ep,
                rid,
                "/registry/register",
                96,
                Box::new(req),
            );
        });
        reply.send_at(
            ctx,
            self.endpoint,
            200,
            48,
            ProducerResponse::Created { producer: pid },
            done,
        );
    }

    fn on_insert(
        &mut self,
        ctx: &mut Context<'_>,
        reply: Reply,
        producer: ProducerId,
        sql: Arc<str>,
        probe: ProbeId,
        published_at: simcore::SimTime,
    ) {
        let cost = self.cfg.costs.insert_base
            + SimDuration::from_micros(
                (sql.len() as u64 * self.cfg.costs.insert_per_byte_ns).div_ceil(1000),
            );
        let done = self.cpu(ctx, simprof::Component::RgmaInsert, cost);
        telemetry::with_metrics(ctx, |m, _| {
            m.add_counter("rgma.inserts", 1);
            m.observe("rgma.insert_cost_us", cost.as_micros());
        });
        let result: Result<u32, String> = (|| {
            let inst = self
                .instances
                .get_mut(producer.0 as usize)
                .ok_or_else(|| format!("no such producer {producer:?}"))?;
            let (schema, row) = self.catalog.bind_insert(&sql).map_err(|e| e.to_string())?;
            if *schema.name != *inst.table {
                return Err(format!("wrong table {}", schema.name));
            }
            let mut tuple = schema.to_tuple(row);
            // Out-of-band freshness stamp: parsed SQL can't carry it, so
            // the servlet copies it from the request onto the stored
            // tuple, whence it rides through streaming/fetch/poll.
            tuple.published_at = Some(published_at);
            inst.storage.insert(tuple, probe, done);
            self.dirty.push(producer);
            Ok(inst.storage.len() as u32)
        })();
        match result {
            Ok(rows) => {
                let heap = self.cfg.memory.heap_per_tuple;
                let _ = ctx.with_service::<OsModel, _>(|os, _| os.alloc(self.proc, heap));
                reply.send_at(
                    ctx,
                    self.endpoint,
                    200,
                    24,
                    ProducerResponse::InsertOk,
                    done,
                );
                let actor = self.endpoint.actor.index() as u64;
                simtrace::with_trace(ctx, |tr, _| {
                    tr.record(
                        done,
                        Some(simtrace::TraceId(probe.0)),
                        actor,
                        simtrace::EventKind::StorageInsert { rows },
                    );
                    tr.count(simtrace::Counter::TuplesStored, 1);
                });
            }
            Err(reason) => {
                reply.send_at(
                    ctx,
                    self.endpoint,
                    400,
                    64,
                    ProducerResponse::Error { reason },
                    done,
                );
            }
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
        let done = self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.servlet_dispatch,
        );
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
        reply.send_at(
            ctx,
            self.endpoint,
            200,
            24,
            ProducerResponse::StreamStarted,
            done,
        );
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
        let cost = self.cfg.costs.poll_answer
            + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 2);
        let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
        let bytes = crate::protocol::poll_result_bytes(&entries);
        reply.send_at(
            ctx,
            self.endpoint,
            200,
            bytes,
            ProducerResponse::FetchResult { token, entries },
            done,
        );
    }

    /// The streaming cycle: collect new tuples per stream and push one
    /// merged chunk per consumer stream. Only the `dirty` instances are
    /// read, in id order, so a chunk lists its tuples as a walk over
    /// every cursor of every instance would.
    fn on_flush(&mut self, ctx: &mut Context<'_>) {
        let ep = self.endpoint;
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
            let cost = self.cfg.costs.stream_send
                + SimDuration::from_micros(self.cfg.costs.per_tuple.as_micros() * n / 4);
            let done = self.cpu(ctx, simprof::Component::RgmaSelect, cost);
            let bytes = chunk_bytes(&chunk);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send_at(ctx, conn, ep, bytes, Box::new(chunk), done);
            });
        }
        ctx.timer(self.cfg.streaming_period, FlushTick);
    }

    /// Soft-state refresh: re-register every live instance. After a
    /// registry restart (Tomcat bounce) the wiped directory re-learns
    /// them here; while the registry is healthy these are idempotent.
    fn on_refresh(&mut self, ctx: &mut Context<'_>) {
        let Some(period) = self.cfg.soft_state_refresh else {
            return;
        };
        let my_ep = self.endpoint;
        let reg_conn = self.registry_conn.expect("registry conn opened on start");
        let n = self.instances.len() as u64;
        for (pid, inst) in self.instances.iter().enumerate() {
            let req = RegistryRequest::RegisterProducer {
                table: inst.table.clone(),
                endpoint: Endpoint::with_port(my_ep.node, my_ep.actor, pid as u16),
            };
            let rid = self.next_req;
            self.next_req += 1;
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                http::send_request(
                    net,
                    ctx,
                    reg_conn,
                    my_ep,
                    rid,
                    "/registry/register",
                    96,
                    Box::new(req),
                );
            });
        }
        if n > 0 {
            simfault::with_faults(ctx, |inj, _| inj.stats.reregistrations += n);
        }
        ctx.timer(period, RefreshTick);
    }

    fn on_sweep(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let mut evicted = 0usize;
        for inst in &mut self.instances {
            evicted += inst.storage.sweep(now);
        }
        if evicted > 0 {
            let heap = simos::Bytes(self.cfg.memory.heap_per_tuple.0 * evicted as u64);
            ctx.with_service::<OsModel, _>(|os, _| os.free(self.proc, heap));
        }
        ctx.timer(SimDuration::from_secs(5), SweepTick);
    }
}

impl Actor for ProducerServlet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.endpoint = Endpoint::new(self.node, ctx.self_id());
        let me = self.endpoint;
        let reg = self.registry_ep;
        self.registry_conn = Some(ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, reg)
        }));
        ctx.timer(self.cfg.streaming_period, FlushTick);
        ctx.timer(SimDuration::from_secs(5), SweepTick);
        if let Some(period) = self.cfg.soft_state_refresh {
            ctx.timer(period, RefreshTick);
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
        let HttpRequest { req_id, body, .. } = *req;
        let reply = Reply { conn, req_id };
        // Fault injection: a stalled servlet (Tomcat GC pause / overload)
        // answers 503 without doing any work.
        if simfault::node_stalled(ctx, self.node) {
            simfault::with_faults(ctx, |inj, _| inj.stats.stall_rejections += 1);
            simtrace::with_trace(ctx, |tr, _| {
                tr.count(simtrace::Counter::FaultRejections, 1);
            });
            let now = ctx.now();
            reply.send_at(
                ctx,
                self.endpoint,
                503,
                64,
                ProducerResponse::Error {
                    reason: "servlet stalled".into(),
                },
                now,
            );
            return;
        }
        // Thread-per-connection accept gate.
        if let Err(reason) = self.ensure_thread(ctx, conn) {
            let now = ctx.now();
            reply.send_at(
                ctx,
                self.endpoint,
                503,
                64,
                ProducerResponse::Error { reason },
                now,
            );
            return;
        }
        let Ok(body) = body.downcast::<ProducerRequest>() else {
            return;
        };
        // Base servlet dispatch cost applies to every request.
        self.cpu(
            ctx,
            simprof::Component::RgmaServlet,
            self.cfg.costs.servlet_dispatch,
        );
        match *body {
            ProducerRequest::CreateProducer { table } => self.on_create_producer(ctx, reply, table),
            ProducerRequest::Insert {
                producer,
                sql,
                probe,
                published_at,
            } => self.on_insert(ctx, reply, producer, sql, probe, published_at),
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
