//! Client-side R-GMA APIs: the Primary Producer client (create + insert)
//! and the subscriber (create consumer + 100 ms polling), managed in bulk
//! by one host actor per driver program — mirroring the paper's Java
//! driver that forked one thread per generator.
//!
//! Host-actor contract: forward [`simnet::Delivery`] payloads to
//! [`RgmaClientSet::handle_delivery`] and [`RgmaTimer`] payloads to
//! [`RgmaClientSet::handle_timer`].

use crate::config::{
    RgmaConfig, CLIENT_HTTP, RETRY_BACKOFF_INITIAL, RETRY_BACKOFF_MAX, RETRY_MAX_RETRIES,
};
use crate::protocol::{
    ConsumerId, ConsumerRequest, ConsumerResponse, ProducerId, ProducerRequest, ProducerResponse,
    QueryType,
};
use simcore::{Context, FastMap, SimDuration, SimTime};
use simnet::http::Caller;
use simnet::session::backoff_step;
use simnet::{probe, server, ConnId, Delivery, Endpoint, HttpResponse};
use simos::NodeId;
use std::sync::Arc;
use wire::Value;

/// Timer payload routed back by the host actor.
pub struct RgmaTimer(pub u64);

/// Client-side handle to one producer (== one generator connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProducerHandle(pub u32);

/// Client-side handle to one subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberHandle(pub u32);

/// Client-side handle to one one-time query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle(pub u32);

/// Events surfaced to the host actor.
#[derive(Debug, PartialEq)]
pub enum RgmaEvent {
    /// Producer instance created and usable.
    ProducerReady(ProducerHandle),
    /// Producer creation failed (server refused: OOM / thread limit).
    ProducerFailed(ProducerHandle, String),
    /// An insert was rejected by the server.
    InsertFailed(ProducerHandle, String),
    /// Subscriber's consumer instance created; polling started.
    SubscriberReady(SubscriberHandle),
    /// Subscriber creation failed.
    SubscriberFailed(SubscriberHandle, String),
    /// A poll returned `count` tuples.
    Polled(SubscriberHandle, usize),
    /// A one-time latest/history query completed with its tuples.
    QueryCompleted(QueryHandle, Vec<crate::protocol::Entry>),
    /// A one-time query failed.
    QueryFailed(QueryHandle, String),
}

enum ReqPurpose {
    CreateProducer(ProducerHandle),
    Insert(ProducerHandle),
    CreateConsumer(SubscriberHandle),
    Poll(SubscriberHandle),
    OneTimeQuery(QueryHandle),
}

struct ProducerState {
    conn: ConnId,
    server: Option<ProducerId>,
    table: String,
    /// CreateProducer retries spent (5xx retry policy).
    create_retries: u32,
}

struct SubscriberState {
    conn: ConnId,
    server: Option<ConsumerId>,
    polling: bool,
}

/// Everything needed to retry a synchronous insert with the same probe
/// (a retry is the same reading).
struct InsertInfo {
    row: Arc<[Value]>,
    sql_len: usize,
    probe: telemetry::ProbeId,
    retries: u32,
}

enum TimerPurpose {
    Poll(SubscriberHandle),
    InsertRetry(ProducerHandle, InsertInfo),
    CreateRetry(ProducerHandle),
}

/// A set of R-GMA client endpoints owned by one host actor.
pub struct RgmaClientSet {
    cfg: RgmaConfig,
    node: NodeId,
    http: Caller,
    producers: FastMap<ProducerHandle, ProducerState>,
    subscribers: FastMap<SubscriberHandle, SubscriberState>,
    next_handle: u32,
    pending: FastMap<u64, ReqPurpose>,
    /// Outstanding inserts by request id (probe + retry budget).
    insert_info: FastMap<u64, InsertInfo>,
    timers: FastMap<u64, TimerPurpose>,
    next_timer: u64,
}

/// Exponential backoff for the `retries`-th retry.
fn http_backoff(retries: u32) -> SimDuration {
    backoff_step(RETRY_BACKOFF_INITIAL, RETRY_BACKOFF_MAX, retries)
}

impl RgmaClientSet {
    /// New client set on `node`.
    pub fn new(cfg: RgmaConfig, node: NodeId) -> Self {
        RgmaClientSet {
            cfg,
            node,
            http: Caller::new(node),
            producers: FastMap::default(),
            subscribers: FastMap::default(),
            next_handle: 0,
            pending: FastMap::default(),
            insert_info: FastMap::default(),
            timers: FastMap::default(),
            next_timer: 0,
        }
    }

    /// Client-side HTTP work of `cost` on the driver's node; returns the
    /// completion time.
    fn cpu(&self, ctx: &mut Context<'_>, cost: SimDuration) -> SimTime {
        server::cpu(ctx, self.node, simprof::Component::RgmaClient, cost)
    }

    /// Create a Primary Producer publishing into `table` via the producer
    /// servlet at `servlet_ep`. One dedicated HTTP connection per
    /// producer (one server thread), as in the paper's tests.
    pub fn create_producer(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        table: impl Into<String>,
    ) -> ProducerHandle {
        let handle = ProducerHandle(self.next_handle);
        self.next_handle += 1;
        let table: String = table.into();
        let conn = self.http.open(ctx, servlet_ep);
        self.producers.insert(
            handle,
            ProducerState {
                conn,
                server: None,
                table,
                create_retries: 0,
            },
        );
        self.send_create(ctx, handle);
        handle
    }

    /// (Re-)send the CreateProducer request for `handle` on its conn.
    fn send_create(&mut self, ctx: &mut Context<'_>, handle: ProducerHandle) {
        let Some(state) = self.producers.get(&handle) else {
            return;
        };
        let conn = state.conn;
        let table = state.table.clone();
        let body = ProducerRequest::CreateProducer { table };
        let rid = self.http.request(ctx, conn, "/producer/create", 96, body);
        self.pending.insert(rid, ReqPurpose::CreateProducer(handle));
    }

    /// Insert one tuple: `row` in the table's column order, standing for
    /// an SQL `INSERT` text of `sql_len` bytes. Instruments
    /// `before_sending`; `after_sending` fires when the HTTP 200 lands
    /// (insert is synchronous in the R-GMA API).
    pub fn insert(
        &mut self,
        ctx: &mut Context<'_>,
        handle: ProducerHandle,
        row: impl Into<Arc<[Value]>>,
        sql_len: usize,
    ) -> telemetry::ProbeId {
        // The "topic" of an R-GMA reading is the table its producer
        // declares.
        let topic = self.producers.get(&handle).map_or("", |p| p.table.as_str());
        let probe = probe::published(ctx, topic);
        let info = InsertInfo {
            row: row.into(),
            sql_len,
            probe,
            retries: 0,
        };
        self.send_insert(ctx, handle, info);
        probe
    }

    /// Send (or retry) the insert `info` describes.
    fn send_insert(&mut self, ctx: &mut Context<'_>, handle: ProducerHandle, info: InsertInfo) {
        let state = self.producers.get(&handle).expect("unknown producer");
        let server = state
            .server
            .expect("insert before ProducerReady — wait for the event");
        let conn = state.conn;
        // Client-side HTTP assembly cost.
        let done = self.cpu(ctx, CLIENT_HTTP);
        let body = ProducerRequest::Insert {
            producer: server,
            row: Arc::clone(&info.row),
            sql_len: info.sql_len,
            probe: info.probe,
        };
        // The path is not in the byte count (ROADMAP item 4).
        let rid = self
            .http
            .request_at(ctx, conn, "/producer/insert", info.sql_len, body, done);
        self.pending.insert(rid, ReqPurpose::Insert(handle));
        self.insert_info.insert(rid, info);
    }

    /// Issue a one-time latest/history query against a Consumer servlet
    /// (GMA query/response mode). The result arrives as
    /// [`RgmaEvent::QueryCompleted`].
    pub fn one_time_query(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        query: impl Into<String>,
        query_type: QueryType,
    ) -> QueryHandle {
        let handle = QueryHandle(self.next_handle);
        self.next_handle += 1;
        let conn = self.http.open(ctx, servlet_ep);
        let body = ConsumerRequest::OneTimeQuery {
            query: query.into(),
            query_type,
        };
        let rid = self.http.request(ctx, conn, "/consumer/query", 128, body);
        self.pending.insert(rid, ReqPurpose::OneTimeQuery(handle));
        handle
    }

    /// Create a subscriber: a consumer instance running `query`, polled
    /// every `poll_period`.
    pub fn create_subscriber(
        &mut self,
        ctx: &mut Context<'_>,
        servlet_ep: Endpoint,
        query: impl Into<String>,
    ) -> SubscriberHandle {
        let handle = SubscriberHandle(self.next_handle);
        self.next_handle += 1;
        let conn = self.http.open(ctx, servlet_ep);
        self.subscribers.insert(
            handle,
            SubscriberState {
                conn,
                server: None,
                polling: false,
            },
        );
        let body = ConsumerRequest::CreateConsumer {
            query: query.into(),
        };
        let rid = self.http.request(ctx, conn, "/consumer/create", 128, body);
        self.pending.insert(rid, ReqPurpose::CreateConsumer(handle));
        handle
    }

    fn send_poll(&mut self, ctx: &mut Context<'_>, handle: SubscriberHandle) {
        let Some(state) = self.subscribers.get(&handle) else {
            return;
        };
        let Some(server) = state.server else {
            return;
        };
        let conn = state.conn;
        let poll = ConsumerRequest::Poll { consumer: server };
        let rid = self.http.request(ctx, conn, "/consumer/poll", 32, poll);
        self.pending.insert(rid, ReqPurpose::Poll(handle));
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_>, delay: SimDuration, purpose: TimerPurpose) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, purpose);
        ctx.timer(delay, RgmaTimer(token));
    }

    fn arm_poll(&mut self, ctx: &mut Context<'_>, handle: SubscriberHandle) {
        self.arm_timer(ctx, self.cfg.poll_period, TimerPurpose::Poll(handle));
    }

    /// Handle a network delivery addressed to the host actor.
    pub fn handle_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<RgmaEvent> {
        let Ok(resp) = delivery.payload.downcast::<HttpResponse>() else {
            return Vec::new();
        };
        let HttpResponse {
            req_id,
            status,
            body,
        } = *resp;
        let Some(purpose) = self.pending.remove(&req_id) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        match purpose {
            ReqPurpose::CreateProducer(handle) => match body.downcast::<ProducerResponse>() {
                Ok(r) => match *r {
                    ProducerResponse::Created { producer } => {
                        if let Some(s) = self.producers.get_mut(&handle) {
                            s.server = Some(producer);
                        }
                        events.push(RgmaEvent::ProducerReady(handle));
                    }
                    ProducerResponse::Error { reason } => {
                        // Transient server failure (stall / OOM): retry
                        // with backoff when the policy allows it.
                        let retriable = status >= 500
                            && self.cfg.recover
                            && self
                                .producers
                                .get(&handle)
                                .is_some_and(|s| s.create_retries < RETRY_MAX_RETRIES);
                        if retriable {
                            let s = self.producers.get_mut(&handle).expect("checked");
                            let delay = http_backoff(s.create_retries);
                            s.create_retries += 1;
                            simfault::with_faults(ctx, |inj, _| inj.stats.http_retries += 1);
                            self.arm_timer(ctx, delay, TimerPurpose::CreateRetry(handle));
                        } else {
                            events.push(RgmaEvent::ProducerFailed(handle, reason));
                        }
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::ProducerFailed(
                    handle,
                    format!("unexpected response (status {status})"),
                )),
            },
            ReqPurpose::Insert(handle) => {
                let info = self.insert_info.remove(&req_id);
                match body.downcast::<ProducerResponse>() {
                    Ok(r) => match *r {
                        ProducerResponse::InsertOk => {
                            if let Some(info) = info {
                                // The synchronous insert() has returned.
                                let now = ctx.now();
                                probe::sent(ctx, info.probe, now);
                            }
                        }
                        ProducerResponse::Error { reason } => {
                            let retriable = status >= 500
                                && self.cfg.recover
                                && info.as_ref().is_some_and(|i| i.retries < RETRY_MAX_RETRIES);
                            if retriable {
                                let mut info = info.expect("checked");
                                let delay = http_backoff(info.retries);
                                info.retries += 1;
                                simfault::with_faults(ctx, |inj, _| inj.stats.http_retries += 1);
                                let retry = TimerPurpose::InsertRetry(handle, info);
                                self.arm_timer(ctx, delay, retry);
                            } else {
                                events.push(RgmaEvent::InsertFailed(handle, reason));
                            }
                        }
                        _ => {}
                    },
                    Err(_) => events.push(RgmaEvent::InsertFailed(handle, "bad response".into())),
                }
            }
            ReqPurpose::CreateConsumer(handle) => match body.downcast::<ConsumerResponse>() {
                Ok(r) => match *r {
                    ConsumerResponse::Created { consumer } => {
                        if let Some(s) = self.subscribers.get_mut(&handle) {
                            s.server = Some(consumer);
                            s.polling = true;
                        }
                        events.push(RgmaEvent::SubscriberReady(handle));
                        self.arm_poll(ctx, handle);
                    }
                    ConsumerResponse::Error { reason } => {
                        events.push(RgmaEvent::SubscriberFailed(handle, reason));
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::SubscriberFailed(handle, "bad response".into())),
            },
            ReqPurpose::OneTimeQuery(handle) => match body.downcast::<ConsumerResponse>() {
                Ok(r) => match *r {
                    ConsumerResponse::QueryResult { entries } => {
                        events.push(RgmaEvent::QueryCompleted(handle, entries));
                    }
                    ConsumerResponse::Error { reason } => {
                        events.push(RgmaEvent::QueryFailed(handle, reason));
                    }
                    _ => {}
                },
                Err(_) => events.push(RgmaEvent::QueryFailed(handle, "bad response".into())),
            },
            ReqPurpose::Poll(handle) => {
                if let Ok(r) = body.downcast::<ConsumerResponse>() {
                    if let ConsumerResponse::PollResult { entries } = *r {
                        let n = entries.len();
                        // Client-side processing of the poll result.
                        let cost = CLIENT_HTTP + SimDuration::from_micros(50 * n as u64);
                        let done = self.cpu(ctx, cost);
                        for (probe, _) in entries {
                            // The subscriber has the tuple once the
                            // poll-result processing is done.
                            probe::delivered(ctx, probe, done);
                        }
                        let delivered = n as u64;
                        telemetry::with_metrics(ctx, |m, _| {
                            m.add_counter("tuples_delivered", delivered)
                        });
                        events.push(RgmaEvent::Polled(handle, n));
                    }
                }
                // Schedule the next poll regardless of result.
                if self.subscribers.get(&handle).is_some_and(|s| s.polling) {
                    self.arm_poll(ctx, handle);
                }
            }
        }
        events
    }

    /// Handle a poll or retry timer.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_>, timer: RgmaTimer) {
        let Some(purpose) = self.timers.remove(&timer.0) else {
            return;
        };
        match purpose {
            TimerPurpose::Poll(handle) => self.send_poll(ctx, handle),
            TimerPurpose::InsertRetry(handle, info) => {
                telemetry::with_metrics(ctx, |m, _| m.add_counter("retries", 1));
                if self
                    .producers
                    .get(&handle)
                    .is_some_and(|s| s.server.is_some())
                {
                    self.send_insert(ctx, handle, info);
                }
            }
            TimerPurpose::CreateRetry(handle) => {
                telemetry::with_metrics(ctx, |m, _| m.add_counter("retries", 1));
                self.send_create(ctx, handle);
            }
        }
    }
}
