//! The Secondary Producer: consumes a table's stream from Primary
//! Producers and republishes it — with the *deliberate 30-second batch
//! delay* the R-GMA developers confirmed to the authors (§III.F.3). This
//! component is why fig 10's percentiles sit at 25–35 s.
//!
//! It plays both roles: towards Primary Producer servlets it behaves like
//! a consumer (registry lookups + StartStream); towards Consumer servlets
//! it behaves like a producer servlet hosting a single instance
//! publishing `output_table`.

use crate::config::{
    RgmaConfig, CHUNK_INGEST_BASE, HEAP_PER_TUPLE, INSERT_BASE, LATEST_RETENTION, PER_TUPLE,
    PLAN_REFRESH, SERVLET_DISPATCH, STREAM_SEND,
};
use crate::protocol::{
    chunk_bytes, ConsumerId, Entry, ProducerId, ProducerRequest, ProducerResponse, RegistryRequest,
    RegistryResponse, StreamChunk,
};
use crate::storage::MemoryStorage;
use simcore::{Actor, ActorId, Context, FastMap, FastSet, Payload, SimDuration};
use simnet::http::{Caller, Reply};
use simnet::server::Acceptor;
use simnet::{ConnId, Delivery, Endpoint, HttpRequest, HttpResponse};
use simos::{Bytes, NodeId, ProcessId};
use simprof::Component;
use std::collections::BTreeMap;
use std::sync::Arc;

struct FlushTick;
struct PlanTick;

struct DownStream {
    conn: ConnId,
    consumer: ConsumerId,
    cursor: u64,
}

/// The Secondary Producer actor.
pub struct SecondaryProducer {
    cfg: RgmaConfig,
    /// The hosting JVM's CPU, heap (the batch is accounted here) and
    /// wire. It accepts nothing: a downstream consumer's stream costs
    /// this producer no thread (ROADMAP item 4).
    server: Acceptor<()>,
    http: Caller,
    registry_ep: Endpoint,
    registry_conn: Option<ConnId>,
    /// Table consumed from primaries.
    input_table: String,
    /// Table republished (consumers attach to this).
    output_table: String,
    /// Pending batch (accumulates for `secondary_flush`).
    batch: Vec<Entry>,
    /// Republished storage (for streams + retention).
    storage: MemoryStorage,
    /// Upstream plan: producer-instance endpoints already streamed from.
    planned: FastSet<Endpoint>,
    upstream_conns: FastMap<(NodeId, ActorId), ConnId>,
    /// Downstream consumer streams.
    downstreams: Vec<DownStream>,
    pending_lookup: Option<u64>,
    /// The well-known id of our single published instance.
    my_pid_port: u16,
}

impl SecondaryProducer {
    /// New Secondary Producer consuming `input_table` and republishing as
    /// `output_table`.
    pub fn new(
        cfg: RgmaConfig,
        node: NodeId,
        proc: ProcessId,
        registry_ep: Endpoint,
        input_table: impl Into<String>,
        output_table: impl Into<String>,
    ) -> Self {
        let storage = MemoryStorage::new(LATEST_RETENTION, cfg.history_retention * 10);
        SecondaryProducer {
            cfg,
            server: Acceptor::new(node, proc, Bytes(0)),
            http: Caller::new(node),
            registry_ep,
            registry_conn: None,
            input_table: input_table.into(),
            output_table: output_table.into(),
            batch: Vec::new(),
            storage,
            planned: FastSet::default(),
            upstream_conns: FastMap::default(),
            downstreams: Vec::new(),
            pending_lookup: None,
            my_pid_port: 0,
        }
    }

    /// Mediation towards the primaries.
    fn lookup_upstream(&mut self, ctx: &mut Context<'_>) {
        let conn = self.registry_conn.expect("opened on start");
        let table = self.input_table.clone();
        let lookup = RegistryRequest::LookupProducers { table };
        let rid = self.http.request(ctx, conn, "/registry/lookup", 64, lookup);
        self.pending_lookup = Some(rid);
    }

    fn attach_upstream(&mut self, ctx: &mut Context<'_>, endpoints: Vec<Endpoint>) {
        let fresh: Vec<Endpoint> = endpoints
            .into_iter()
            .filter(|ep| !self.planned.contains(ep))
            .collect();
        let mut servlets: BTreeMap<(NodeId, ActorId), Vec<ProducerId>> = BTreeMap::new();
        for ep in &fresh {
            servlets
                .entry((ep.node, ep.actor))
                .or_default()
                .push(ProducerId(u32::from(ep.port)));
            self.planned.insert(*ep);
        }
        for ((node, actor), producers) in servlets {
            let http = &self.http;
            let conn = *self
                .upstream_conns
                .entry((node, actor))
                .or_insert_with(|| http.open(ctx, Endpoint::new(node, actor)));
            // We pose as consumer id u32::MAX - our port: chunk routing
            // happens by the conn, so any unique value works.
            let req = ProducerRequest::StartStream {
                table: self.input_table.clone(),
                consumer: ConsumerId(u32::MAX),
                producers,
            };
            self.http.request(ctx, conn, "/producer/stream", 96, req);
        }
    }

    /// The deliberate batch flush: republish everything accumulated in
    /// the last `secondary_flush` window, then push to downstreams.
    fn on_flush(&mut self, ctx: &mut Context<'_>) {
        let n = self.batch.len() as u64;
        if n > 0 {
            // The republished batch leaves the accumulation buffer.
            self.server.free(ctx, Bytes(HEAP_PER_TUPLE.0 * n));
            let cost = INSERT_BASE + SimDuration::from_micros(PER_TUPLE.as_micros() * n);
            let done = self.server.cpu(ctx, Component::RgmaSecondary, cost);
            // Republishing re-stamps `inserted_at`, so this producer makes
            // its own copy unless the primary has already evicted its.
            for (probe, tuple) in std::mem::take(&mut self.batch) {
                self.storage
                    .insert(Arc::unwrap_or_clone(tuple), probe, done);
            }
            let flush = simtrace::TraceEvent {
                at: done,
                trace: None,
                actor: ctx.self_id().lane(),
                kind: simtrace::EventKind::BatchFlush { tuples: n as u32 },
            };
            simtrace::hops(ctx, [flush], |m| {
                m.set_gauge("rgma.secondary.batch_tuples", 0.0);
            });
            // Stream to downstream consumers.
            let mut sends = Vec::new();
            for ds in &mut self.downstreams {
                let (chunk, next) = self.storage.read_from(ds.cursor);
                if !chunk.is_empty() {
                    sends.push((
                        ds.conn,
                        StreamChunk {
                            consumer: ds.consumer,
                            entries: chunk.iter().map(|e| (e.probe, e.tuple.clone())).collect(),
                        },
                    ));
                }
                ds.cursor = next;
            }
            for (conn, chunk) in sends {
                let bytes = chunk_bytes(&chunk);
                let cost = STREAM_SEND;
                let at = self.server.cpu(ctx, Component::RgmaSecondary, cost);
                self.server.send_at(ctx, conn, bytes, chunk, at);
            }
        }
        ctx.timer(self.cfg.secondary_flush, FlushTick);
    }
}

impl Actor for SecondaryProducer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let conn = self.http.open(ctx, self.registry_ep);
        self.registry_conn = Some(conn);
        // Register our single republished instance (port 0 by convention).
        let me = self.server.endpoint(ctx);
        let req = RegistryRequest::RegisterProducer {
            table: self.output_table.clone(),
            endpoint: Endpoint::with_port(me.node, me.actor, self.my_pid_port),
        };
        self.http.request(ctx, conn, "/registry/register", 96, req);
        ctx.timer(PLAN_REFRESH, PlanTick);
        ctx.timer(self.cfg.secondary_flush, FlushTick);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<FlushTick>() {
            Ok(_) => {
                self.on_flush(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlanTick>() {
            Ok(_) => {
                self.lookup_upstream(ctx);
                ctx.timer(PLAN_REFRESH, PlanTick);
                return;
            }
            Err(m) => m,
        };
        let Ok(d) = msg.downcast::<Delivery>() else {
            return;
        };
        let Delivery { conn, payload, .. } = *d;
        // Upstream chunks from primaries: accumulate into the batch
        // (heap is held until the 30 s flush republishes it).
        let payload = match payload.downcast::<StreamChunk>() {
            Ok(chunk) => {
                let n = chunk.entries.len() as u64;
                let cost = CHUNK_INGEST_BASE + SimDuration::from_micros(PER_TUPLE.as_micros() * n);
                self.server.cpu(ctx, Component::RgmaSecondary, cost);
                let heap = Bytes(HEAP_PER_TUPLE.0 * n);
                let _ = self.server.alloc(ctx, heap);
                self.batch.extend(chunk.entries);
                let occupancy = self.batch.len() as u32;
                let now = ctx.now();
                let enqueued = simtrace::EventKind::BatchEnqueue { occupancy };
                simtrace::hop(ctx, now, None, enqueued);
                telemetry::with_metrics(ctx, |m, _| {
                    m.set_gauge("rgma.secondary.batch_tuples", f64::from(occupancy));
                });
                return;
            }
            Err(p) => p,
        };
        // Registry lookup responses.
        let payload = match payload.downcast::<HttpResponse>() {
            Ok(resp) => {
                if Some(resp.req_id) == self.pending_lookup {
                    self.pending_lookup = None;
                    if let Ok(r) = resp.body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            self.attach_upstream(ctx, endpoints);
                        }
                    }
                }
                return;
            }
            Err(p) => p,
        };
        // Downstream consumers attaching to our output table.
        let Ok(req) = payload.downcast::<HttpRequest>() else {
            return;
        };
        let HttpRequest { req_id, body, .. } = *req;
        if let Ok(body) = body.downcast::<ProducerRequest>() {
            if let ProducerRequest::StartStream {
                table, consumer, ..
            } = *body
            {
                debug_assert_eq!(table, self.output_table);
                self.downstreams.push(DownStream {
                    conn,
                    consumer,
                    cursor: self.storage.tail_cursor(),
                });
                let cost = SERVLET_DISPATCH;
                let done = self.server.cpu(ctx, Component::RgmaSecondary, cost);
                let from = self.server.endpoint(ctx);
                let reply = Reply { conn, req_id, from };
                reply.send_at(ctx, 200, 24, ProducerResponse::StreamStarted, done);
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-secondary-producer"
    }
}
