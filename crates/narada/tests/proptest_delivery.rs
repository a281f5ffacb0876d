//! Property test: over reliable transports, every published message is
//! delivered exactly once to every subscription whose selector matches —
//! for arbitrary fleets of publishers, subscribers and selector bounds.

use narada::{Broker, ClientEvent, ClientTimer, ConnSettings, NaradaClientSet};
use proptest::prelude::*;
use simcore::{Actor, Context, FastMap, Payload, SimDuration, SimTime, Simulation};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric, Transport};
use simos::{NodeId, NodeSpec, OsModel, ProcessSpec, VmstatLog};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::RttCollector;
use wire::{Headers, Message, MessageId, Value};

#[derive(Debug, Clone)]
struct Scenario {
    transport: Transport,
    /// Subscriber selector upper bounds: subscription i matches id < bound.
    sub_bounds: Vec<i32>,
    /// Published message ids (one publisher connection per scenario).
    pub_ids: Vec<i32>,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![Just(Transport::Tcp), Just(Transport::Nio)],
        proptest::collection::vec(0i32..100, 1..5),
        proptest::collection::vec(0i32..100, 1..30),
        any::<u64>(),
    )
        .prop_map(|(transport, sub_bounds, pub_ids, seed)| Scenario {
            transport,
            sub_bounds,
            pub_ids,
            seed,
        })
}

type Arrivals = Rc<RefCell<FastMap<(usize, i32), u32>>>; // (sub_ix, msg_id) -> count

struct Host {
    scenario: Scenario,
    broker_ep: Endpoint,
    set: Option<NaradaClientSet>,
    sub_conns: Vec<ConnId>,
    pub_conn: Option<ConnId>,
    subscribed: usize,
    arrivals: Arrivals,
    sub_of_conn: FastMap<ConnId, usize>,
    id_of_probe: FastMap<u64, i32>,
}

struct PublishAll;

impl Actor for Host {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let settings = ConnSettings {
            transport: self.scenario.transport,
            ack_mode: jms::AckMode::Auto,
            reconnect: None,
        };
        let mut set = NaradaClientSet::new(NodeId(1));
        for i in 0..self.scenario.sub_bounds.len() {
            let c = set.connect(ctx, self.broker_ep, settings);
            self.sub_conns.push(c);
            self.sub_of_conn.insert(c, i);
        }
        self.pub_conn = Some(set.connect(ctx, self.broker_ep, settings));
        self.set = Some(set);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        ClientEvent::Connected(conn) => {
                            if let Some(&ix) = self.sub_of_conn.get(&conn) {
                                let bound = self.scenario.sub_bounds[ix];
                                let set = self.set.as_mut().unwrap();
                                set.subscribe(ctx, conn, 0, "t", format!("id < {bound}"));
                            }
                        }
                        ClientEvent::Subscribed(_, _) => {
                            self.subscribed += 1;
                            if self.subscribed == self.scenario.sub_bounds.len() {
                                ctx.timer(SimDuration::from_millis(200), PublishAll);
                            }
                        }
                        ClientEvent::MessageArrived { conn, probe, .. } => {
                            let ix = self.sub_of_conn[&conn];
                            let id = self.id_of_probe[&probe.0];
                            *self.arrivals.borrow_mut().entry((ix, id)).or_insert(0) += 1;
                        }
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ClientTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<PublishAll>().is_ok() {
            let conn = self.pub_conn.expect("connected");
            let ids = self.scenario.pub_ids.clone();
            for (n, id) in ids.into_iter().enumerate() {
                let m = Message::text(Headers::new(MessageId(n as u64), "t", ctx.now()), "x")
                    .with_property("id", Value::Int(id));
                let probe = set.publish(ctx, conn, m);
                self.id_of_probe.insert(probe.0, id);
            }
        }
    }
}

fn run(scenario: &Scenario) -> FastMap<(usize, i32), u32> {
    let mut sim = Simulation::new(scenario.seed);
    let mut os = OsModel::new();
    let n0 = os.add_node(NodeSpec::hydra("hydra1", 0.0005));
    let _n1 = os.add_node(NodeSpec::hydra("hydra2", 0.0001));
    let proc = os.add_process(n0, ProcessSpec::jvm_1g());
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(
        FabricConfig {
            udp_loss_prob: 0.0,
            ..FabricConfig::default()
        },
        2,
    ));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());
    let broker = sim.add_actor(Broker::new(true, n0, proc));
    let arrivals: Arrivals = Default::default();
    sim.add_actor(Host {
        scenario: scenario.clone(),
        broker_ep: Endpoint::new(n0, broker),
        set: None,
        sub_conns: Vec::new(),
        pub_conn: None,
        subscribed: 0,
        arrivals: arrivals.clone(),
        sub_of_conn: FastMap::default(),
        id_of_probe: FastMap::default(),
    });
    sim.run_until(SimTime::from_secs(60));
    let out = arrivals.borrow().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exactly_once_per_matching_subscription(scenario in arb_scenario()) {
        let arrivals = run(&scenario);
        // Expected: subscription i receives message id iff id < bound_i,
        // exactly once. Count per (sub, id) pair, accounting for
        // duplicate ids in the publish list.
        let mut expected: FastMap<(usize, i32), u32> = FastMap::default();
        for (i, &bound) in scenario.sub_bounds.iter().enumerate() {
            for &id in &scenario.pub_ids {
                if id < bound {
                    *expected.entry((i, id)).or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(arrivals, expected);
    }
}
