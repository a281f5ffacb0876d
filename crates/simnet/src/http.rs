//! HTTP request/response modelling on top of TCP connections.
//!
//! R-GMA carries everything over HTTP into Java servlets. The fabric gives
//! us reliable FIFO bytes; this layer adds the HTTP framing overhead and a
//! correlation id so a servlet actor can respond to the right outstanding
//! request. (Persistent connections — HTTP/1.1 keep-alive — are assumed,
//! as Tomcat and the R-GMA clients used them; connection setup is paid
//! once at `open`.)
//!
//! Every request in the workspace leaves through a [`Caller`] and every
//! response through the [`Reply`] its request was turned into.

use crate::addr::Endpoint;
use crate::fabric::{ConnId, NetworkFabric, Transport};
use simcore::{Context, Payload, SimTime};
use simos::NodeId;
use std::any::Any;

/// Bytes of request line + headers on a typical R-GMA servlet call.
pub const REQUEST_OVERHEAD: usize = 220;
/// Bytes of status line + headers on the response.
pub const RESPONSE_OVERHEAD: usize = 180;

/// An HTTP request as delivered to a servlet actor (inside
/// [`crate::Delivery::payload`]).
pub struct HttpRequest {
    /// Correlation id: echo into the [`HttpResponse`].
    pub req_id: u64,
    /// Resource path (servlet routing).
    pub path: &'static str,
    /// Application payload.
    pub body: Payload,
}

/// An HTTP response as delivered back to the client actor.
pub struct HttpResponse {
    /// Correlation id from the request.
    pub req_id: u64,
    /// HTTP-ish status code (200, 503…).
    pub status: u16,
    /// Application payload.
    pub body: Payload,
}

/// The calling side of HTTP for one actor on `node`: opens connections,
/// writes requests and mints their correlation ids.
pub struct Caller {
    node: NodeId,
    next_req: u64,
}

impl Caller {
    /// A caller for an actor hosted on `node`; ids count up from 0.
    pub fn new(node: NodeId) -> Self {
        Caller { node, next_req: 0 }
    }

    fn endpoint(&self, ctx: &Context<'_>) -> Endpoint {
        Endpoint::new(self.node, ctx.self_id())
    }

    /// Open a keep-alive connection from the calling actor to `to`.
    pub fn open(&self, ctx: &mut Context<'_>, to: Endpoint) -> ConnId {
        let me = self.endpoint(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Http, me, to)
        })
    }

    /// Send a request for `path` over `conn` now. `bytes` is the entity
    /// size; the path and the framing overhead are added here. Returns the
    /// correlation id the response will carry.
    #[inline]
    pub fn request<B: Any + Send>(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        path: &'static str,
        bytes: usize,
        body: B,
    ) -> u64 {
        let now = ctx.now();
        self.request_at(ctx, conn, path, bytes + path.len(), body, now)
    }

    /// Like [`request`](Self::request), leaving once the caller's CPU work
    /// completes at `at`. `bytes` goes on the wire as given, plus the
    /// framing overhead: whether the path is in it is the caller's count
    /// (R-GMA's insert leaves it out, ROADMAP item 4).
    #[inline]
    pub fn request_at<B: Any + Send>(
        &mut self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        path: &'static str,
        bytes: usize,
        body: B,
        at: SimTime,
    ) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        let from = self.endpoint(ctx);
        let body: Payload = Box::new(body);
        let request = Box::new(HttpRequest { req_id, path, body });
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, from, bytes + REQUEST_OVERHEAD, request, at);
        });
        req_id
    }
}

/// What a servlet needs to answer a request: the connection it arrived
/// on, its correlation id and the servlet's own end of the connection.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Connection the request arrived on.
    pub conn: ConnId,
    /// Correlation id of the request.
    pub req_id: u64,
    /// The answering servlet's endpoint.
    pub from: Endpoint,
}

impl Reply {
    /// Answer with `bytes` of entity plus the response framing, leaving
    /// at `at`.
    #[inline]
    pub fn send_at<B: Any + Send>(
        self,
        ctx: &mut Context<'_>,
        status: u16,
        bytes: usize,
        body: B,
        at: SimTime,
    ) {
        let Reply { conn, req_id, from } = self;
        let body: Payload = Box::new(body);
        let response = Box::new(HttpResponse {
            req_id,
            status,
            body,
        });
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, from, bytes + RESPONSE_OVERHEAD, response, at);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Delivery, FabricConfig};
    use simcore::{Actor, FnActor, SimDuration, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A loop-back servlet: answers every request with double its id.
    struct EchoServlet {
        node: NodeId,
    }
    impl Actor for EchoServlet {
        fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
            let d = msg.downcast::<Delivery>().unwrap();
            let req = d.payload.downcast::<HttpRequest>().unwrap();
            let reply = Reply {
                conn: d.conn,
                req_id: req.req_id,
                from: Endpoint::new(self.node, ctx.self_id()),
            };
            let now = ctx.now();
            reply.send_at(ctx, 200, 64, req.req_id * 2, now);
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let mut sim = Simulation::new(7);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        let servlet = sim.add_actor(EchoServlet { node: NodeId(1) });
        let answers: Rc<RefCell<Vec<(u64, u16, u64)>>> = Default::default();
        let answers2 = answers.clone();
        let mut http = Caller::new(NodeId(0));
        let client = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            if let Ok(d) = msg.downcast::<Delivery>() {
                let resp = d.payload.downcast::<HttpResponse>().unwrap();
                let doubled = *resp.body.downcast::<u64>().unwrap();
                answers2
                    .borrow_mut()
                    .push((resp.req_id, resp.status, doubled));
            } else {
                // Kick-off: open a connection and fire three requests
                // (id 0 doubles to itself; 1 and 2 tell).
                let conn = http.open(ctx, Endpoint::new(NodeId(1), servlet));
                assert_eq!(http.request(ctx, conn, "/rgma/insert", 300, ()), 0);
                assert_eq!(http.request(ctx, conn, "/rgma/insert", 300, ()), 1);
                assert_eq!(http.request(ctx, conn, "/rgma/insert", 300, ()), 2);
            }
        }));
        sim.schedule(SimDuration::ZERO, client, Box::new("go"));
        sim.run_to_completion(100);
        assert_eq!(
            *answers.borrow(),
            vec![(0, 200, 0), (1, 200, 2), (2, 200, 4)]
        );
    }

    #[test]
    fn overheads_are_charged() {
        let mut sim = Simulation::new(8);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        let sink = sim.add_actor(simcore::NullActor);
        let mut http = Caller::new(NodeId(0));
        let client = sim.add_actor(FnActor(move |_msg: Payload, ctx: &mut Context| {
            let conn = http.open(ctx, Endpoint::new(NodeId(1), sink));
            http.request(ctx, conn, "/x", 100, ());
        }));
        sim.schedule(SimDuration::ZERO, client, Box::new(()));
        sim.run_to_completion(10);
        let stats = sim.service::<NetworkFabric>().unwrap().stats();
        assert_eq!(stats.bytes_sent as usize, 100 + REQUEST_OVERHEAD + 2);
    }
}
