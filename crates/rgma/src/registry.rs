//! The Registry servlet: R-GMA's directory service.
//!
//! Producers register `(table, servlet endpoint, instance id)`; consumers
//! look up producers for their query's table. Registrations become
//! visible only after the propagation delay (replication between registry
//! instances / mediator caches in gLite) — the mechanism behind the
//! paper's warm-up data loss. (The Schema half of the real servlet is
//! not modelled here: the servlets get their table replicas at deployment,
//! through `ProducerControl` / `ConsumerControl`.)

use crate::config::{REGISTRY_OP, REGISTRY_PROPAGATION, SERVLET_DISPATCH};
use crate::directory::{Directory, RegistrationId, TransferMode};
use crate::protocol::{ProducerId, RegistryRequest, RegistryResponse};
use simcore::{Actor, Context, FastMap, Payload};
use simfault::FaultSignal;
use simnet::http::Reply;
use simnet::{server, Delivery, Endpoint, HttpRequest};
use simos::{NodeId, ProcessId};

/// The registry servlet actor.
pub struct RegistryActor {
    node: NodeId,
    directory: Directory,
    /// Parallel map: registration → producer instance id.
    instance_of: FastMap<RegistrationId, ProducerId>,
    /// Idempotence for soft-state refreshes: `(table, endpoint)` pairs
    /// already registered. Wiped (with the directory) on restart, so the
    /// next refresh re-lands the entry.
    registered: FastMap<(String, Endpoint), RegistrationId>,
}

impl RegistryActor {
    /// New registry on `node`. It takes its host process like the
    /// servlets do, but holds no per-process memory to account there and
    /// takes no thread for a connection (ROADMAP item 4).
    pub fn new(node: NodeId, _proc: ProcessId) -> Self {
        RegistryActor {
            node,
            directory: Directory::new(REGISTRY_PROPAGATION),
            instance_of: FastMap::default(),
            registered: FastMap::default(),
        }
    }

    /// A Tomcat restart: every soft-state registration is lost.
    fn on_restart(&mut self) {
        self.directory = Directory::new(REGISTRY_PROPAGATION);
        self.instance_of.clear();
        self.registered.clear();
    }

    fn handle_request(&mut self, ctx: &mut Context<'_>, reply: Reply, body: Payload) {
        let cost = SERVLET_DISPATCH + REGISTRY_OP;
        server::cpu(ctx, self.node, simprof::Component::RgmaRegistry, cost);
        let resp = match body.downcast::<RegistryRequest>().map(|b| *b) {
            Ok(RegistryRequest::RegisterProducer { table, endpoint }) => {
                // Producer id travels in the endpoint's port field by
                // convention (see producer servlet). Soft-state
                // refreshes of a live entry are no-ops.
                if !self.registered.contains_key(&(table.clone(), endpoint)) {
                    let pid = ProducerId(u32::from(endpoint.port));
                    let reg = self.directory.register_producer(
                        ctx.now(),
                        endpoint,
                        table.clone(),
                        vec![TransferMode::PublishSubscribe, TransferMode::QueryResponse],
                    );
                    self.instance_of.insert(reg, pid);
                    self.registered.insert((table, endpoint), reg);
                }
                RegistryResponse::Registered
            }
            Ok(RegistryRequest::RegisterConsumer { table, endpoint }) => {
                if !self.registered.contains_key(&(table.clone(), endpoint)) {
                    let reg = self.directory.register_consumer();
                    self.registered.insert((table, endpoint), reg);
                }
                RegistryResponse::Registered
            }
            Ok(RegistryRequest::LookupProducers { table }) => {
                let endpoints = self
                    .directory
                    .find_producers(ctx.now(), &table)
                    .into_iter()
                    .map(|p| p.endpoint)
                    .collect();
                RegistryResponse::Producers { endpoints }
            }
            Err(_) => RegistryResponse::Error {
                reason: "malformed registry request".into(),
            },
        };
        // The answer leaves now, whatever the CPU charge above returned,
        // and is 96 bytes however long the list (ROADMAP item 4).
        let now = ctx.now();
        reply.send_at(ctx, 200, 96, resp, now);
    }
}

impl Actor for RegistryActor {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<FaultSignal>() {
            Ok(sig) => {
                if matches!(*sig, FaultSignal::RegistryRestart) {
                    self.on_restart();
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = msg.downcast::<Delivery>() {
            let Delivery { conn, payload, .. } = *d;
            if let Ok(req) = payload.downcast::<HttpRequest>() {
                let reply = Reply {
                    conn,
                    req_id: req.req_id,
                    from: Endpoint::new(self.node, ctx.self_id()),
                };
                self.handle_request(ctx, reply, req.body);
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-registry"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FnActor, SimDuration, SimTime, Simulation};
    use simnet::http::Caller;
    use simnet::{FabricConfig, HttpResponse, NetworkFabric};
    use simos::{NodeSpec, OsModel, ProcessSpec};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn register_then_lookup_respects_propagation() {
        let mut sim = Simulation::new(5);
        let mut os = OsModel::new();
        let n0 = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let _n1 = os.add_node(NodeSpec::hydra("hydra2", 0.0));
        let proc = os.add_process(n0, ProcessSpec::jvm_1g());
        sim.add_service(os);
        sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
        // The lookups below at 1 s and 6 s straddle the propagation delay.
        const _: () = assert!(REGISTRY_PROPAGATION.as_micros() == 4_000_000);
        let reg = sim.add_actor(RegistryActor::new(n0, proc));
        let reg_ep = Endpoint::new(n0, reg);

        let results: Rc<RefCell<Vec<usize>>> = Default::default();
        let results2 = results.clone();
        struct Probe;
        let mut lookups = Caller::new(NodeId(1));
        let client = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            let msg = match msg.downcast::<Probe>() {
                Ok(_) => {
                    // Lookup phase, on a connection of its own each time.
                    let conn = lookups.open(ctx, reg_ep);
                    let table = "generator".into();
                    let lookup = RegistryRequest::LookupProducers { table };
                    lookups.request(ctx, conn, "/registry", 64, lookup);
                    return;
                }
                Err(m) => m,
            };
            if let Ok(d) = msg.downcast::<Delivery>() {
                if let Ok(resp) = d.payload.downcast::<HttpResponse>() {
                    if let Ok(r) = resp.body.downcast::<RegistryResponse>() {
                        if let RegistryResponse::Producers { endpoints } = *r {
                            results2.borrow_mut().push(endpoints.len());
                        }
                    }
                }
            }
        }));
        // Register at t=0 (from the client actor's node 1, producer id 7).
        struct Kick;
        let mut registrations = Caller::new(NodeId(1));
        let starter = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            if msg.downcast::<Kick>().is_err() {
                return; // ignore our own HTTP response
            }
            let conn = registrations.open(ctx, reg_ep);
            let register = RegistryRequest::RegisterProducer {
                table: "generator".into(),
                endpoint: Endpoint::with_port(NodeId(1), ctx.self_id(), 7),
            };
            registrations.request(ctx, conn, "/registry", 96, register);
        }));
        sim.schedule(SimDuration::ZERO, starter, Box::new(Kick));
        // Lookup at t=1s (before propagation) and t=6s (after).
        sim.schedule(SimDuration::from_secs(1), client, Box::new(Probe));
        sim.schedule(SimDuration::from_secs(6), client, Box::new(Probe));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(
            *results.borrow(),
            vec![0, 1],
            "propagation gates visibility"
        );
    }
}
