//! The server side of a connection, written once: what a connection costs
//! the process that serves it — a thread and some heap, refused when
//! either cannot be paid for — who may talk on it, and what a crash of
//! that process takes with it.
//!
//! A server (narada's broker, gridlog's log broker, R-GMA's servlets)
//! keeps its own per-connection state in an [`Acceptor`] and routes its
//! input through [`Acceptor::inbound`] (frame protocols) or
//! [`Acceptor::admit`] (HTTP), and keeps only what is its own: what a
//! frame means, which profiler component pays for it, what it answers.

use crate::http::{HttpRequest, Reply};
use crate::{ConnId, Delivery, Endpoint, NetworkFabric};
use simcore::{Context, FastMap, Payload, SimDuration, SimTime, Site};
use simfault::FaultSignal;
use simos::{Bytes, NodeId, OomError, OsModel, ProcessId};
use simprof::Component;
use std::any::Any;

/// Run `cost` on `node`'s CPU, charged to `component`; returns the
/// completion time. Every client and server submits its metered CPU
/// work here, except narada's `Broker::cpu_matched`, which splits one
/// submission between route and match.
#[inline]
pub fn cpu(
    ctx: &mut Context<'_>,
    node: NodeId,
    component: Component,
    cost: SimDuration,
) -> SimTime {
    ctx.with_service::<OsModel, _>(|os, ctx| {
        let t0 = ctx.wall_start();
        let (done, effective) = os.execute_metered(node, ctx.now(), cost);
        ctx.wall_record(Site::OsExecute, t0);
        simprof::charge(ctx, component, effective);
        done
    })
}

/// What a message to a server actor amounted to at the gate.
pub enum Inbound<S, F> {
    /// Fault injection killed the process: the connections it held, in
    /// [`ConnId`] order, their threads and heap already freed.
    Crashed(Vec<(ConnId, S)>),
    /// Fault injection brought the process back up.
    Restarted,
    /// A frame the server may act on: any frame on a connection it holds,
    /// or an opening frame on one it does not.
    Frame {
        /// Connection the frame arrived on.
        conn: ConnId,
        /// Size on the wire.
        bytes: usize,
        /// The frame.
        frame: F,
    },
    /// Consumed at the gate: a frame to a dead process (counted), a frame
    /// on a connection nobody accepted, a repeated open or fault signal.
    Dropped,
    /// Not a client frame: the server's own timers and control messages,
    /// or a delivery carrying another protocol (peer links).
    NotMine(Payload),
}

/// The connections one server process holds and what they cost it.
/// `S` is the server's own per-connection state.
pub struct Acceptor<S> {
    node: NodeId,
    proc: ProcessId,
    heap_per_conn: Bytes,
    conns: FastMap<ConnId, S>,
    /// True while the process is fault-crashed: network input evaporates.
    down: bool,
}

impl<S> Acceptor<S> {
    /// An acceptor for the server actor hosted on `node` inside `proc`.
    /// Every connection costs one thread and `heap_per_conn` of heap
    /// (zero: thread only).
    pub fn new(node: NodeId, proc: ProcessId, heap_per_conn: Bytes) -> Self {
        Acceptor {
            node,
            proc,
            heap_per_conn,
            conns: FastMap::default(),
            down: false,
        }
    }

    /// The node the server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The server actor's end of every connection it serves.
    pub fn endpoint(&self, ctx: &Context<'_>) -> Endpoint {
        Endpoint::new(self.node, ctx.self_id())
    }

    /// Take `conn` on: a service thread, then the heap, the thread given
    /// back if the heap fails. The error is why the connection must be
    /// refused. A connection already held is already paid for: nothing
    /// more is taken and its state stays.
    pub fn accept(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        state: S,
    ) -> Result<(), OomError> {
        if self.holds(conn) {
            return Ok(());
        }
        let (proc, heap) = (self.proc, self.heap_per_conn);
        ctx.with_service::<OsModel, _>(|os, _| {
            os.spawn_thread(proc)?;
            os.alloc(proc, heap).inspect_err(|_| os.kill_thread(proc))
        })?;
        self.conns.insert(conn, state);
        Ok(())
    }

    /// Let `conn` go, giving back exactly what [`accept`](Self::accept)
    /// took; `None` for a connection not held.
    pub fn release(&mut self, ctx: &mut Context<'_>, conn: ConnId) -> Option<S> {
        let state = self.conns.remove(&conn)?;
        self.give_back(ctx, 1);
        Some(state)
    }

    fn give_back(&self, ctx: &mut Context<'_>, conns: usize) {
        let (proc, heap) = (self.proc, self.heap_per_conn);
        ctx.with_service::<OsModel, _>(|os, _| {
            for _ in 0..conns {
                os.kill_thread(proc);
                os.free(proc, heap);
            }
        });
    }

    /// The process dies: every connection is dropped and freed and input
    /// evaporates until [`restart`](Self::restart). Returns what was held,
    /// in [`ConnId`] order.
    pub fn crash(&mut self, ctx: &mut Context<'_>) -> Vec<(ConnId, S)> {
        self.down = true;
        let mut held: Vec<(ConnId, S)> = self.conns.drain().collect();
        held.sort_unstable_by_key(|(conn, _)| conn.0);
        self.give_back(ctx, held.len());
        held
    }

    /// The process is back up, holding nothing.
    pub fn restart(&mut self) {
        self.down = false;
    }

    /// Does the server hold `conn`?
    pub fn holds(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn)
    }

    /// The server's state for `conn`, if held.
    pub fn state(&self, conn: ConnId) -> Option<&S> {
        self.conns.get(&conn)
    }

    /// Mutable access to the server's state for `conn`.
    pub fn state_mut(&mut self, conn: ConnId) -> Option<&mut S> {
        self.conns.get_mut(&conn)
    }

    /// The state of every held connection, in no particular order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.conns.values()
    }

    /// Run `cost` on the server's CPU, charged to `component`; returns
    /// the completion time.
    pub fn cpu(&self, ctx: &mut Context<'_>, component: Component, cost: SimDuration) -> SimTime {
        cpu(ctx, self.node, component, cost)
    }

    /// Allocate heap in the server's process beyond its connections'.
    pub fn alloc(&self, ctx: &mut Context<'_>, bytes: Bytes) -> Result<(), OomError> {
        let proc = self.proc;
        ctx.with_service::<OsModel, _>(|os, _| os.alloc(proc, bytes))
    }

    /// Give heap taken with [`alloc`](Self::alloc) back.
    pub fn free(&self, ctx: &mut Context<'_>, bytes: Bytes) {
        let proc = self.proc;
        ctx.with_service::<OsModel, _>(|os, _| os.free(proc, bytes));
    }

    /// Put `frame` on `conn` once the server's CPU work completes at `at`.
    /// Outbound is not gated: peer links and parked answers go out on
    /// connections the acceptor does not hold.
    pub fn send_at<F: Any + Send>(
        &self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        bytes: usize,
        frame: F,
        at: SimTime,
    ) {
        let me = self.endpoint(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, me, bytes, Box::new(frame), at);
        });
    }

    /// The endpoint at the other end of `conn`.
    pub fn peer(&self, ctx: &Context<'_>, conn: ConnId) -> Endpoint {
        ctx.service::<NetworkFabric>()
            .peer_of(conn, self.endpoint(ctx))
    }

    /// The one way in for a frame protocol `F`: sorts a message to the
    /// server actor into crash / restart, a frame it may act on, or not
    /// its business. `opens` says which frames open a connection; they
    /// alone are served on a connection the acceptor does not hold, and
    /// only there.
    pub fn inbound<F: Any>(
        &mut self,
        ctx: &mut Context<'_>,
        msg: Payload,
        opens: impl Fn(&F) -> bool,
    ) -> Inbound<S, F> {
        let delivery = match msg.downcast::<Delivery>() {
            Ok(d) => d,
            // Crash/restart signals arrive directly from the fault driver,
            // not over the network, so a dead process hears its restart.
            Err(msg) => {
                return match msg.downcast_ref::<FaultSignal>().copied() {
                    Some(FaultSignal::BrokerCrash) if !self.down => {
                        Inbound::Crashed(self.crash(ctx))
                    }
                    Some(FaultSignal::BrokerRestart) if self.down => {
                        self.restart();
                        Inbound::Restarted
                    }
                    Some(_) => Inbound::Dropped,
                    None => Inbound::NotMine(msg),
                }
            }
        };
        if self.down {
            // A dead process: every frame aimed at it evaporates.
            simfault::with_faults(ctx, |inj, _| inj.stats.crash_drops += 1);
            telemetry::with_metrics(ctx, |m, _| m.add_counter("fault_drops", 1));
            return Inbound::Dropped;
        }
        if !delivery.payload.is::<F>() {
            return Inbound::NotMine(delivery);
        }
        let Delivery {
            conn,
            bytes,
            payload,
            ..
        } = *delivery;
        let frame = *payload.downcast::<F>().expect("checked above");
        // Neither a repeated open on a held connection nor anything else
        // on one nobody accepted reaches the server.
        if self.holds(conn) == opens(&frame) {
            return Inbound::Dropped;
        }
        Inbound::Frame { conn, bytes, frame }
    }
}

impl Acceptor<()> {
    /// The one way in for an HTTP servlet. The first request on a
    /// connection costs a Tomcat service thread — kept for good, HTTP has
    /// no goodbye — and running out is the paper's "cannot accept N
    /// concurrent connections". A stalled servlet (Tomcat GC pause /
    /// overload, fault injection) and one out of threads answer 503 with
    /// `refusal(reason)` now, no work done. Otherwise returns the request's
    /// [`Reply`] and its body; `None` for a body that is not a `B` (which
    /// still cost its connection a thread).
    pub fn admit<B: Any, E: Any + Send>(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        request: HttpRequest,
        refusal: impl FnOnce(String) -> E,
    ) -> Option<(Reply, B)> {
        let HttpRequest { req_id, body, .. } = request;
        let from = self.endpoint(ctx);
        let reply = Reply { conn, req_id, from };
        let refused = if simfault::node_stalled(ctx, self.node) {
            simfault::with_faults(ctx, |inj, _| inj.stats.stall_rejections += 1);
            telemetry::with_metrics(ctx, |m, _| m.add_counter("fault_rejections", 1));
            Some("servlet stalled".to_owned())
        } else {
            self.accept(ctx, conn, ()).err().map(|e| e.to_string())
        };
        if let Some(reason) = refused {
            let now = ctx.now();
            reply.send_at(ctx, 503, 64, refusal(reason), now);
            return None;
        }
        Some((reply, *body.downcast::<B>().ok()?))
    }
}
