//! The Consumer servlet: runs continuous queries. A mediator cycle
//! refreshes the plan against the Registry, attaches streams to newly
//! visible producer instances, ingests stream chunks into per-instance
//! buffers, and answers subscriber polls.

use crate::config::{
    RgmaConfig, CHUNK_INGEST_BASE, CREATE_INSTANCE, HEAP_PER_CONSUMER, HEAP_PER_TUPLE, PER_TUPLE,
    PLAN_REFRESH, POLL_ANSWER, SERVLET_DISPATCH,
};
use crate::protocol::{
    poll_result_bytes, ConsumerId, ConsumerRequest, ConsumerResponse, Entry, ProducerId,
    ProducerRequest, ProducerResponse, QueryType, RegistryRequest, RegistryResponse, StreamChunk,
};
use minisql::{Catalog, Statement, TableSchema};
use simcore::{Actor, ActorId, Context, FastMap, FastSet, Payload, SimDuration};
use simnet::http::{Caller, Reply};
use simnet::server::Acceptor;
use simnet::{probe, ConnId, Delivery, Endpoint, HttpRequest, HttpResponse};
use simos::{Bytes, NodeId, ProcessId};
use simprof::Component;
use std::collections::BTreeMap;
use std::sync::Arc;
use wire::Tuple;

/// Deployment-time control messages.
pub enum ConsumerControl {
    /// Install a table schema replica.
    DeclareTable {
        /// `CREATE TABLE` SQL.
        sql: String,
    },
}

struct CInstance {
    table: String,
    predicate: Option<minisql::Predicate>,
    columns: Vec<String>,
    buffer: Vec<Entry>,
    /// Producer-instance endpoints already in the plan (port = pid).
    planned: FastSet<Endpoint>,
}

struct PlanTick;

/// What a query naming `columns` returns for a stored tuple: the shared
/// tuple itself for `*` (or without a schema replica), a projected copy
/// otherwise.
fn project(schema: Option<&TableSchema>, columns: &[String], tuple: Arc<Tuple>) -> Arc<Tuple> {
    let (false, Some(schema)) = (columns.is_empty(), schema) else {
        return tuple;
    };
    match schema.project(&tuple.values, columns) {
        Ok(values) => Arc::new(Tuple {
            table: tuple.table.clone(),
            values: values.into(),
            inserted_at: tuple.inserted_at,
        }),
        Err(_) => tuple,
    }
}

/// An in-flight one-time (latest/history) query.
struct PendingQuery {
    client: Reply,
    table: String,
    predicate: Option<minisql::Predicate>,
    columns: Vec<String>,
    query_type: QueryType,
    /// Producer servlets still to answer.
    outstanding: usize,
    collected: Vec<Entry>,
}

/// The Consumer servlet actor.
pub struct ConsumerServlet {
    cfg: RgmaConfig,
    /// Client connections: a Tomcat service thread each, no heap.
    server: Acceptor<()>,
    http: Caller,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    /// Replica of the Schema service's tables.
    catalog: Catalog,
    instances: FastMap<ConsumerId, CInstance>,
    next_instance: u32,
    /// Open producer-servlet connections, by servlet actor endpoint
    /// (port-stripped).
    producer_conns: FastMap<(NodeId, ActorId), ConnId>,
    /// Correlates registry lookups with consumer instances.
    pending_lookups: FastMap<u64, ConsumerId>,
    /// Correlates registry lookups with one-time queries.
    pending_query_lookups: FastMap<u64, u64>,
    /// One-time queries awaiting producer fetches, by query token.
    queries: FastMap<u64, PendingQuery>,
    next_query: u64,
}

impl ConsumerServlet {
    /// New consumer servlet on `node`/`proc`, mediating via `registry_ep`.
    pub fn new(cfg: RgmaConfig, node: NodeId, proc: ProcessId, registry_ep: Endpoint) -> Self {
        ConsumerServlet {
            cfg,
            server: Acceptor::new(node, proc, Bytes(0)),
            http: Caller::new(node),
            registry_ep,
            registry_conn: None,
            catalog: Catalog::new(),
            instances: FastMap::default(),
            next_instance: 0,
            producer_conns: FastMap::default(),
            pending_lookups: FastMap::default(),
            pending_query_lookups: FastMap::default(),
            queries: FastMap::default(),
            next_query: 0,
        }
    }

    fn producer_conn(&mut self, ctx: &mut Context<'_>, node: NodeId, actor: ActorId) -> ConnId {
        let http = &self.http;
        *self
            .producer_conns
            .entry((node, actor))
            .or_insert_with(|| http.open(ctx, Endpoint::new(node, actor)))
    }

    /// Ask the registry which producers publish `table`; returns the
    /// request's correlation id.
    fn lookup(&mut self, ctx: &mut Context<'_>, table: String) -> u64 {
        let conn = self.registry_conn.expect("opened on start");
        let lookup = RegistryRequest::LookupProducers { table };
        self.http.request(ctx, conn, "/registry/lookup", 64, lookup)
    }

    /// Answer `reply` with an error at once.
    fn fail(ctx: &mut Context<'_>, reply: Reply, status: u16, reason: String) {
        let now = ctx.now();
        reply.send_at(ctx, status, 64, ConsumerResponse::Error { reason }, now);
    }

    fn on_create_consumer(&mut self, ctx: &mut Context<'_>, reply: Reply, query: String) {
        if let Err(e) = self.server.alloc(ctx, HEAP_PER_CONSUMER) {
            return Self::fail(ctx, reply, 503, e.to_string());
        }
        let (table, predicate, columns) = match minisql::parse(&query) {
            Ok(Statement::Select {
                columns,
                table,
                predicate,
            }) => (table, predicate, columns),
            Ok(_) => return Self::fail(ctx, reply, 400, "not a SELECT".into()),
            Err(e) => return Self::fail(ctx, reply, 400, e.to_string()),
        };
        let cid = ConsumerId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            cid,
            CInstance {
                table: table.clone(),
                predicate,
                columns,
                buffer: Vec::new(),
                planned: FastSet::default(),
            },
        );
        let cost = CREATE_INSTANCE;
        let done = self.server.cpu(ctx, Component::RgmaServlet, cost);
        // Announce the consumer to the registry (soft-state mode only),
        // then kick an immediate mediation pass for this instance.
        self.register_interest(ctx, table);
        self.lookup_for(ctx, cid);
        let created = ConsumerResponse::Created { consumer: cid };
        reply.send_at(ctx, 200, 48, created, done);
    }

    fn lookup_for(&mut self, ctx: &mut Context<'_>, cid: ConsumerId) {
        let Some(inst) = self.instances.get(&cid) else {
            return;
        };
        let rid = self.lookup(ctx, inst.table.clone());
        self.pending_lookups.insert(rid, cid);
    }

    /// Start a one-time latest/history query (GMA query/response mode).
    fn on_one_time_query(
        &mut self,
        ctx: &mut Context<'_>,
        reply: Reply,
        query: String,
        query_type: QueryType,
    ) {
        let Ok(Statement::Select {
            columns,
            table,
            predicate,
        }) = minisql::parse(&query)
        else {
            return Self::fail(ctx, reply, 400, "one-time query must be a SELECT".into());
        };
        let qid = self.next_query;
        self.next_query += 1;
        self.queries.insert(
            qid,
            PendingQuery {
                client: reply,
                table: table.clone(),
                predicate,
                columns,
                query_type,
                outstanding: 0,
                collected: Vec::new(),
            },
        );
        let cost = CREATE_INSTANCE / 4;
        self.server.cpu(ctx, Component::RgmaServlet, cost);
        // Mediate: look the producers up, then fan the fetch out.
        let rid = self.lookup(ctx, table);
        self.pending_query_lookups.insert(rid, qid);
    }

    /// Fan a one-time query out to the producer servlets the registry
    /// returned.
    fn on_query_lookup_result(
        &mut self,
        ctx: &mut Context<'_>,
        qid: u64,
        endpoints: Vec<Endpoint>,
    ) {
        let Some(q) = self.queries.get(&qid) else {
            return;
        };
        let table = q.table.clone();
        let query_type = q.query_type;
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<ProducerId>> = BTreeMap::new();
        for ep in endpoints {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(ProducerId(u32::from(ep.port)));
        }
        if servlets.is_empty() {
            self.finish_query(ctx, qid);
            return;
        }
        self.queries.get_mut(&qid).expect("checked").outstanding = servlets.len();
        for ((node, actor), producers) in servlets {
            let conn = self.producer_conn(ctx, node, actor);
            let req = ProducerRequest::Fetch {
                table: table.clone(),
                query_type,
                producers,
                token: qid,
            };
            self.http.request(ctx, conn, "/producer/fetch", 96, req);
        }
    }

    /// One producer servlet answered a fetch.
    fn on_fetch_result(&mut self, ctx: &mut Context<'_>, qid: u64, entries: Vec<Entry>) {
        let n = entries.len() as u64;
        let cost = CHUNK_INGEST_BASE + SimDuration::from_micros(PER_TUPLE.as_micros() * n);
        self.server.cpu(ctx, Component::RgmaSelect, cost);
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.collected.extend(entries);
        q.outstanding = q.outstanding.saturating_sub(1);
        if q.outstanding == 0 {
            self.finish_query(ctx, qid);
        }
    }

    /// Filter, project and answer the waiting client.
    fn finish_query(&mut self, ctx: &mut Context<'_>, qid: u64) {
        let Some(q) = self.queries.remove(&qid) else {
            return;
        };
        let schema = self.catalog.table(&q.table).ok();
        let entries: Vec<Entry> = q
            .collected
            .into_iter()
            .filter(|(_, t)| match (&q.predicate, schema) {
                (None, _) | (_, None) => true,
                (Some(p), Some(s)) => minisql::eval_predicate(p, s, &t.values) == Some(true),
            })
            .map(|(p, t)| (p, project(schema, &q.columns, t)))
            .collect();
        let n = entries.len() as u64;
        let cost = POLL_ANSWER + SimDuration::from_micros(PER_TUPLE.as_micros() * n / 2);
        let done = self.server.cpu(ctx, Component::RgmaSelect, cost);
        let bytes = poll_result_bytes(&entries);
        let result = ConsumerResponse::QueryResult { entries };
        q.client.send_at(ctx, 200, bytes, result, done);
    }

    fn on_lookup_result(
        &mut self,
        ctx: &mut Context<'_>,
        cid: ConsumerId,
        endpoints: Vec<Endpoint>,
    ) {
        let Some(inst) = self.instances.get_mut(&cid) else {
            return;
        };
        let table = inst.table.clone();
        // Which producer instances are new to the plan?
        let fresh: Vec<Endpoint> = endpoints
            .into_iter()
            .filter(|ep| !inst.planned.contains(ep))
            .collect();
        if fresh.is_empty() {
            return;
        }
        // Group the fresh instances by hosting servlet; one StartStream
        // per servlet attaches exactly those instances.
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<ProducerId>> = BTreeMap::new();
        for ep in &fresh {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(ProducerId(u32::from(ep.port)));
            inst.planned.insert(*ep);
        }
        for ((node, actor), producers) in servlets {
            let conn = self.producer_conn(ctx, node, actor);
            let req = ProducerRequest::StartStream {
                table: table.clone(),
                consumer: cid,
                producers,
            };
            self.http.request(ctx, conn, "/producer/stream", 96, req);
        }
    }

    fn on_chunk(&mut self, ctx: &mut Context<'_>, chunk: StreamChunk) {
        let n = chunk.entries.len() as u64;
        let cost = CHUNK_INGEST_BASE + SimDuration::from_micros(PER_TUPLE.as_micros() * n);
        let done = self.server.cpu(ctx, Component::RgmaSelect, cost);
        let Some(inst) = self.instances.get_mut(&chunk.consumer) else {
            return;
        };
        let schema = self.catalog.table(&inst.table).ok();
        let mut accepted = 0u64;
        let mut filtered = 0u64;
        for (probe, tuple) in chunk.entries {
            // Continuous-query predicate filter at the consumer.
            let matches = match (&inst.predicate, schema) {
                (None, _) => true,
                (Some(p), Some(schema)) => {
                    minisql::eval_predicate(p, schema, &tuple.values) == Some(true)
                }
                (Some(_), None) => true, // no schema replica: pass through
            };
            if !matches {
                filtered += 1;
                continue;
            }
            let matched = simtrace::EventKind::SelectMatch { consumers: 1 };
            simtrace::hop(ctx, done, Some(simtrace::TraceId(probe.0)), matched);
            // The tuple is now *available* to the subscriber.
            probe::available(ctx, probe, done);
            inst.buffer.push((probe, tuple));
            accepted += 1;
        }
        if accepted > 0 {
            let heap = Bytes(HEAP_PER_TUPLE.0 * accepted);
            let _ = self.server.alloc(ctx, heap);
        }
        // Servlet backlog: tuples buffered awaiting the next client poll.
        let instances = &self.instances;
        telemetry::with_metrics(ctx, |m, _| {
            let backlog: usize = instances.values().map(|i| i.buffer.len()).sum();
            m.set_gauge("rgma.consumer.buffered_tuples", backlog as f64);
            m.add_counter("selector_matches", accepted);
            m.add_counter("selector_misses", filtered);
        });
    }

    fn on_poll(&mut self, ctx: &mut Context<'_>, reply: Reply, cid: ConsumerId) {
        let Some(inst) = self.instances.get_mut(&cid) else {
            return Self::fail(ctx, reply, 404, format!("no consumer {cid:?}"));
        };
        let schema = self.catalog.table(&inst.table).ok();
        let entries: Vec<Entry> = inst
            .buffer
            .drain(..)
            .map(|(p, t)| (p, project(schema, &inst.columns, t)))
            .collect();
        let n = entries.len() as u64;
        if n > 0 {
            self.server.free(ctx, Bytes(HEAP_PER_TUPLE.0 * n));
        }
        let cost = POLL_ANSWER + SimDuration::from_micros(PER_TUPLE.as_micros() * n / 2);
        let done = self.server.cpu(ctx, Component::RgmaSelect, cost);
        let bytes = poll_result_bytes(&entries);
        let result = ConsumerResponse::PollResult { entries };
        reply.send_at(ctx, 200, bytes, result, done);
    }

    /// Register this servlet's interest in `table` with the registry
    /// (GMA consumer registration). Only sent when the soft-state refresh
    /// is enabled; re-sent every mediation cycle so a restarted registry
    /// re-learns the consumer — the registry dedups live entries.
    fn register_interest(&mut self, ctx: &mut Context<'_>, table: String) {
        if !self.cfg.recover {
            return;
        }
        let endpoint = self.server.endpoint(ctx);
        let conn = self.registry_conn.expect("opened on start");
        let req = RegistryRequest::RegisterConsumer { table, endpoint };
        self.http
            .request(ctx, conn, "/registry/register-consumer", 96, req);
    }

    fn on_plan_tick(&mut self, ctx: &mut Context<'_>) {
        let mut cids: Vec<ConsumerId> = self.instances.keys().copied().collect();
        cids.sort_unstable();
        if self.cfg.recover {
            let tables: std::collections::BTreeSet<String> =
                self.instances.values().map(|i| i.table.clone()).collect();
            for table in tables {
                self.register_interest(ctx, table);
            }
        }
        for cid in cids {
            self.lookup_for(ctx, cid);
        }
        ctx.timer(PLAN_REFRESH, PlanTick);
    }
}

impl Actor for ConsumerServlet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.registry_conn = Some(self.http.open(ctx, self.registry_ep));
        ctx.timer(PLAN_REFRESH, PlanTick);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<ConsumerControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    ConsumerControl::DeclareTable { sql } => {
                        let stmt = minisql::parse(&sql).expect("deployment SQL parses");
                        self.catalog.create(&stmt).expect("table not yet declared");
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlanTick>() {
            Ok(_) => {
                self.on_plan_tick(ctx);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Stream chunks arrive raw (not HTTP-wrapped: persistent stream).
        let payload = match payload.downcast::<StreamChunk>() {
            Ok(chunk) => {
                self.on_chunk(ctx, *chunk);
                return;
            }
            Err(p) => p,
        };
        // Responses from the registry and producer servlets.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(resp) => {
                let HttpResponse { req_id, body, .. } = *resp;
                if let Some(cid) = self.pending_lookups.remove(&req_id) {
                    if let Ok(r) = body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.on_lookup_result(ctx, cid, endpoints);
                        }
                    }
                } else if let Some(qid) = self.pending_query_lookups.remove(&req_id) {
                    if let Ok(r) = body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.on_query_lookup_result(ctx, qid, endpoints);
                        }
                    }
                } else if let Ok(r) = body.downcast::<ProducerResponse>() {
                    if let ProducerResponse::FetchResult { token, entries } = *r {
                        self.on_fetch_result(ctx, token, entries);
                    }
                }
                return;
            }
            Err(p) => p,
        };
        // Subscriber requests.
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let refusal = |reason| ConsumerResponse::Error { reason };
        let Some((reply, body)) = self.server.admit(ctx, conn, *req, refusal) else {
            return;
        };
        let cost = SERVLET_DISPATCH;
        self.server.cpu(ctx, Component::RgmaServlet, cost);
        match body {
            ConsumerRequest::CreateConsumer { query } => self.on_create_consumer(ctx, reply, query),
            ConsumerRequest::Poll { consumer } => self.on_poll(ctx, reply, consumer),
            ConsumerRequest::OneTimeQuery { query, query_type } => {
                self.on_one_time_query(ctx, reply, query, query_type)
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-consumer-servlet"
    }
}
