//! HTTP request/response modelling on top of TCP connections.
//!
//! R-GMA carries everything over HTTP into Java servlets. The fabric gives
//! us reliable FIFO bytes; this layer adds the HTTP framing overhead and a
//! correlation id so a servlet actor can respond to the right outstanding
//! request. (Persistent connections — HTTP/1.1 keep-alive — are assumed,
//! as Tomcat and the R-GMA clients used them; connection setup is paid
//! once at `open`.)

use crate::addr::Endpoint;
use crate::fabric::{ConnId, NetworkFabric};
use simcore::{Context, Payload, SimTime};

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
    /// When the client issued the request.
    pub issued_at: SimTime,
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

/// Send an HTTP request over `conn` from `from`. `body_bytes` is the
/// entity size; framing overhead is added here.
#[allow(clippy::too_many_arguments)]
pub fn send_request(
    net: &mut NetworkFabric,
    ctx: &mut Context<'_>,
    conn: ConnId,
    from: Endpoint,
    req_id: u64,
    path: &'static str,
    body_bytes: usize,
    body: Payload,
) -> Option<SimTime> {
    let bytes = body_bytes + REQUEST_OVERHEAD + path.len();
    let issued_at = ctx.now();
    net.send(
        ctx,
        conn,
        from,
        bytes,
        Box::new(HttpRequest {
            req_id,
            path,
            body,
            issued_at,
        }),
    )
}

/// Send an HTTP response over `conn` from the server endpoint `from`.
#[allow(clippy::too_many_arguments)]
pub fn send_response(
    net: &mut NetworkFabric,
    ctx: &mut Context<'_>,
    conn: ConnId,
    from: Endpoint,
    req_id: u64,
    status: u16,
    body_bytes: usize,
    body: Payload,
) -> Option<SimTime> {
    let bytes = body_bytes + RESPONSE_OVERHEAD;
    net.send(
        ctx,
        conn,
        from,
        bytes,
        Box::new(HttpResponse {
            req_id,
            status,
            body,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Delivery, FabricConfig, Transport};
    use simcore::{Actor, FnActor, SimDuration, Simulation};
    use simos::NodeId;
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
            let me = Endpoint::new(self.node, ctx.self_id());
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                send_response(
                    net,
                    ctx,
                    d.conn,
                    me,
                    req.req_id,
                    200,
                    64,
                    Box::new(req.req_id * 2),
                );
            });
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let mut sim = Simulation::new(7);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        let servlet = sim.add_actor(EchoServlet { node: NodeId(1) });
        let answers: Rc<RefCell<Vec<(u64, u16, u64)>>> = Default::default();
        let answers2 = answers.clone();
        let client = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            if let Ok(d) = msg.downcast::<Delivery>() {
                let resp = d.payload.downcast::<HttpResponse>().unwrap();
                let doubled = *resp.body.downcast::<u64>().unwrap();
                answers2
                    .borrow_mut()
                    .push((resp.req_id, resp.status, doubled));
            } else {
                // Kick-off: open a connection and fire two requests.
                let me = Endpoint::new(NodeId(0), ctx.self_id());
                let srv = Endpoint::new(NodeId(1), servlet);
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    let conn = net.open(ctx.now(), Transport::Http, me, srv);
                    send_request(net, ctx, conn, me, 1, "/rgma/insert", 300, Box::new(()));
                    send_request(net, ctx, conn, me, 2, "/rgma/insert", 300, Box::new(()));
                });
            }
        }));
        sim.schedule(SimDuration::ZERO, client, Box::new("go"));
        sim.run_to_completion(100);
        assert_eq!(*answers.borrow(), vec![(1, 200, 2), (2, 200, 4)]);
    }

    #[test]
    fn overheads_are_charged() {
        let mut sim = Simulation::new(8);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        let sink = sim.add_actor(simcore::NullActor);
        let client = sim.add_actor(FnActor(move |_msg: Payload, ctx: &mut Context| {
            let me = Endpoint::new(NodeId(0), ctx.self_id());
            let srv = Endpoint::new(NodeId(1), sink);
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                let conn = net.open(ctx.now(), Transport::Http, me, srv);
                send_request(net, ctx, conn, me, 1, "/x", 100, Box::new(()));
            });
        }));
        sim.schedule(SimDuration::ZERO, client, Box::new(()));
        sim.run_to_completion(10);
        let stats = sim.service::<NetworkFabric>().unwrap().stats();
        assert_eq!(stats.bytes_sent as usize, 100 + REQUEST_OVERHEAD + 2);
    }
}
