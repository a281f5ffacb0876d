//! The Broker Network Map: full-mesh broker deployments with a Broker
//! Discovery Node (the paper's "unit controller" that assigned addresses
//! to the other broker nodes). In a full mesh every broker is one hop
//! from every other, so no route is ever computed.

use crate::broker::{Broker, BrokerControl, StatsHandle};
use simcore::{Actor, ActorId, Context, Payload, SimDuration, Simulation};
use simnet::{Endpoint, NetworkFabric, Transport};
use simos::{NodeId, ProcessId};

/// A deployed broker network.
pub struct BrokerNetwork {
    /// Broker actor ids, by broker index.
    pub brokers: Vec<ActorId>,
    /// Broker endpoints, by broker index.
    pub endpoints: Vec<Endpoint>,
    /// Stats handles, by broker index.
    pub stats: Vec<StatsHandle>,
}

impl BrokerNetwork {
    /// Deploy brokers on the given `(node, process)` pairs, fully meshed
    /// over TCP, beside a Broker Discovery Node. Each broker's peer links
    /// arrive after `assign_delay` (the unit controller handing out
    /// addresses). `dbn_broadcast` as in [`Broker::new`].
    pub fn deploy(
        sim: &mut Simulation,
        dbn_broadcast: bool,
        hosts: &[(NodeId, ProcessId)],
        assign_delay: SimDuration,
    ) -> BrokerNetwork {
        let mut brokers = Vec::new();
        let mut endpoints = Vec::new();
        let mut stats = Vec::new();
        for &(node, proc) in hosts {
            let b = Broker::new(dbn_broadcast, node, proc);
            stats.push(b.stats_handle());
            sim.on_node(node.0);
            let id = sim.add_actor(b);
            brokers.push(id);
            endpoints.push(Endpoint::new(node, id));
        }
        // Full mesh of TCP links.
        let mut links = vec![Vec::new(); hosts.len()];
        {
            let net = sim
                .service_mut::<NetworkFabric>()
                .expect("NetworkFabric service registered");
            for i in 0..hosts.len() {
                for j in (i + 1)..hosts.len() {
                    let conn = net.open(
                        simcore::SimTime::ZERO,
                        Transport::Tcp,
                        endpoints[i],
                        endpoints[j],
                    );
                    links[i].push((j as u16, conn));
                    links[j].push((i as u16, conn));
                }
            }
        }
        // The BDN lives on the first broker host (the paper's unit
        // controller machine); peers arrive after the assignment delay.
        sim.on_node(hosts[0].0 .0);
        sim.add_actor(BrokerDiscoveryNode);
        for (ix, peers) in links.into_iter().enumerate() {
            sim.schedule(
                assign_delay,
                brokers[ix],
                Box::new(BrokerControl::SetPeers {
                    my_ix: ix as u16,
                    peers,
                }),
            );
        }
        BrokerNetwork {
            brokers,
            endpoints,
            stats,
        }
    }
}

/// The Broker Discovery Node: the paper's unit controller, which handed
/// the other brokers their addresses.
///
/// Here [`BrokerNetwork::deploy`] schedules each broker's
/// [`BrokerControl::SetPeers`] itself and every client is handed its
/// broker, so the actor receives nothing. It stays because its slot in
/// the actor table fixes the actor index, event lane, RNG stream and
/// probe ids of every actor added after it: removing it would change
/// every DBN output.
pub struct BrokerDiscoveryNode;

impl Actor for BrokerDiscoveryNode {
    fn handle(&mut self, _: Payload, _: &mut Context<'_>) {}

    fn name(&self) -> &str {
        "broker-discovery-node"
    }
}
