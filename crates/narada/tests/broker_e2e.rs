//! End-to-end broker tests on a simulated two-node cluster: publish →
//! match → deliver → acknowledge across every transport the paper tests.

use jms::AckMode;
use narada::protocol::{BrokerToClient, ClientToBroker};
use narada::{Broker, BrokerNetwork, ClientEvent, ClientTimer, ConnSettings, NaradaClientSet};
use simcore::{Actor, Context, Payload, SimDuration, SimTime, Simulation};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric, Transport};
use simos::{Bytes, NodeId, NodeSpec, OsModel, ProcessId, ProcessSpec, VmstatLog};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::RttCollector;
use wire::{Headers, Message, MessageId, Value};

/// Build a world with `n` Hydra nodes; returns (sim, node ids).
fn build_world(n: usize, fabric: FabricConfig, seed: u64) -> (Simulation, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    let mut os = OsModel::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| os.add_node(NodeSpec::hydra(format!("hydra{}", i + 1), 0.0005)))
        .collect();
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(fabric, n));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());
    (sim, nodes)
}

fn jvm(sim: &mut Simulation, node: NodeId) -> ProcessId {
    sim.service_mut::<OsModel>()
        .unwrap()
        .add_process(node, ProcessSpec::jvm_1g())
}

/// Counters shared with the test body.
#[derive(Default)]
struct Shared {
    connected: u32,
    refused: u32,
    arrived: u32,
    abandoned: u32,
}

/// A scripted driver: opens `pub_conns` publisher connections and one
/// subscriber connection, subscribes, then publishes `msgs_per_conn`
/// messages per publisher at `interval`, with message ids 0,1,2,… per
/// connection.
struct Driver {
    node: NodeId,
    broker_ep: Endpoint,
    settings: ConnSettings,
    selector: String,
    pub_conns: usize,
    msgs_per_conn: u32,
    interval: SimDuration,
    set: Option<NaradaClientSet>,
    sub_conn: Option<ConnId>,
    publishers: Vec<ConnId>,
    shared: Rc<RefCell<Shared>>,
    next_msg_id: u64,
    /// Forced delivery gap: the first-transmission `Deliver` frame with
    /// this index (0-based, in arrival order) is lost before the client
    /// sees it.
    lose_delivery: Option<u32>,
    deliveries_seen: u32,
}

struct PublishTick {
    conn_ix: usize,
    remaining: u32,
    msg_ix: u32,
}

impl Driver {
    fn new(
        node: NodeId,
        broker_ep: Endpoint,
        settings: ConnSettings,
        selector: &str,
        pub_conns: usize,
        msgs_per_conn: u32,
        shared: Rc<RefCell<Shared>>,
    ) -> Self {
        Driver {
            node,
            broker_ep,
            settings,
            selector: selector.to_owned(),
            pub_conns,
            msgs_per_conn,
            interval: SimDuration::from_millis(200),
            set: None,
            sub_conn: None,
            publishers: Vec::new(),
            shared,
            next_msg_id: 0,
            lose_delivery: None,
            deliveries_seen: 0,
        }
    }

    fn monitoring_message(&mut self, topic: &str, id: i32) -> Message {
        self.next_msg_id += 1;
        Message::map(
            Headers::new(MessageId(self.next_msg_id), topic, SimTime::ZERO),
            [
                ("power".to_string(), Value::Double(850.5)),
                ("voltage".to_string(), Value::Float(229.9)),
            ],
        )
        .with_property("id", id)
    }
}

impl Actor for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = NaradaClientSet::new(self.node);
        // Subscriber connection first.
        let sub = set.connect(ctx, self.broker_ep, self.settings);
        self.sub_conn = Some(sub);
        for _ in 0..self.pub_conns {
            let c = set.connect(ctx, self.broker_ep, self.settings);
            self.publishers.push(c);
        }
        self.set = Some(set);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                if let Some(BrokerToClient::Deliver {
                    retransmit: false, ..
                }) = d.payload.downcast_ref::<BrokerToClient>()
                {
                    self.deliveries_seen += 1;
                    if self.lose_delivery == Some(self.deliveries_seen - 1) {
                        return;
                    }
                }
                let events = set.handle_delivery(ctx, *d);
                for ev in events {
                    match ev {
                        ClientEvent::Connected(conn) => {
                            self.shared.borrow_mut().connected += 1;
                            if Some(conn) == self.sub_conn {
                                set.subscribe(ctx, conn, 0, "power.monitor", &self.selector);
                            }
                        }
                        ClientEvent::Refused(_, _) => {
                            self.shared.borrow_mut().refused += 1;
                        }
                        ClientEvent::Subscribed(_, _) => {
                            // Start all publishers.
                            for ix in 0..self.publishers.len() {
                                ctx.timer(
                                    SimDuration::from_millis(50 * (ix as u64 + 1)),
                                    PublishTick {
                                        conn_ix: ix,
                                        remaining: self.msgs_per_conn,
                                        msg_ix: 0,
                                    },
                                );
                            }
                        }
                        ClientEvent::MessageArrived { .. } => {
                            self.shared.borrow_mut().arrived += 1;
                        }
                        ClientEvent::PublishAbandoned { .. } => {
                            self.shared.borrow_mut().abandoned += 1;
                        }
                        // Reconnect machinery is off (reconnect: None).
                        ClientEvent::Reconnecting { .. }
                        | ClientEvent::Reconnected(_)
                        | ClientEvent::ConnectionLost(_) => unreachable!("reconnect disabled"),
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ClientTimer>() {
            Ok(t) => {
                for ev in set.handle_timer(ctx, *t) {
                    if let ClientEvent::PublishAbandoned { .. } = ev {
                        self.shared.borrow_mut().abandoned += 1;
                    }
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(tick) = msg.downcast::<PublishTick>() {
            let PublishTick {
                conn_ix,
                remaining,
                msg_ix,
            } = *tick;
            if remaining == 0 {
                return;
            }
            let conn = self.publishers[conn_ix];
            if set.is_ready(conn) {
                let m = self.monitoring_message("power.monitor", msg_ix as i32);
                let set = self.set.as_mut().unwrap();
                set.publish(ctx, conn, m);
                ctx.timer(
                    self.interval,
                    PublishTick {
                        conn_ix,
                        remaining: remaining - 1,
                        msg_ix: msg_ix + 1,
                    },
                );
            } else {
                // Not ready yet; retry shortly.
                ctx.timer(SimDuration::from_millis(100), *tick);
            }
        }
    }
}

fn quiet_fabric() -> FabricConfig {
    FabricConfig {
        udp_loss_prob: 0.0,
        ..FabricConfig::default()
    }
}

/// One broker on node 0, one driver on node 1.
fn single_broker_run(
    settings: ConnSettings,
    selector: &str,
    msgs: u32,
    fabric: FabricConfig,
) -> (Simulation, Rc<RefCell<Shared>>) {
    let (mut sim, nodes) = build_world(2, fabric, 11);
    let broker_proc = jvm(&mut sim, nodes[0]);
    let broker = Broker::new(true, nodes[0], broker_proc);
    let broker_id = sim.add_actor(broker);
    let broker_ep = Endpoint::new(nodes[0], broker_id);
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver::new(
        nodes[1],
        broker_ep,
        settings,
        selector,
        1,
        msgs,
        shared.clone(),
    ));
    sim.run_until(SimTime::from_secs(120));
    (sim, shared)
}

#[test]
fn tcp_publish_subscribe_end_to_end() {
    let (sim, shared) =
        single_broker_run(ConnSettings::tcp_auto(), "id < 10000", 10, quiet_fabric());
    let s = shared.borrow();
    assert_eq!(s.connected, 2);
    assert_eq!(s.arrived, 10);
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 10);
    assert_eq!(summary.received, 10);
    assert_eq!(summary.loss_rate, 0.0);
    // Uncontended TCP RTT on the testbed: single-digit milliseconds.
    assert!(
        summary.rtt_mean_ms > 0.5 && summary.rtt_mean_ms < 20.0,
        "rtt = {}",
        summary.rtt_mean_ms
    );
    // Decomposition: all three phases short, PT dominated by broker hop.
    assert!(summary.prt_mean_ms < 5.0);
    assert!(summary.srt_mean_ms < 5.0);
    assert!(
        (summary.rtt_mean_ms - (summary.prt_mean_ms + summary.pt_mean_ms + summary.srt_mean_ms))
            .abs()
            < 0.01
    );
}

#[test]
fn selector_filters_messages() {
    let (sim, shared) = single_broker_run(ConnSettings::tcp_auto(), "id < 5", 10, quiet_fabric());
    assert_eq!(shared.borrow().arrived, 5, "ids 0..4 match id < 5");
    let summary = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(summary.sent, 10);
    assert_eq!(summary.received, 5);
}

#[test]
fn udp_publish_is_slower_than_tcp() {
    let (tcp_sim, _) = single_broker_run(ConnSettings::tcp_auto(), "", 20, quiet_fabric());
    let udp = ConnSettings {
        transport: Transport::Udp,
        ack_mode: AckMode::Auto,
        reconnect: None,
    };
    let (udp_sim, shared) = single_broker_run(udp, "", 20, quiet_fabric());
    assert_eq!(shared.borrow().arrived, 20, "no loss at p=0");
    let tcp = tcp_sim.service::<RttCollector>().unwrap().summary();
    let udp = udp_sim.service::<RttCollector>().unwrap().summary();
    // The synchronous publish-ack makes UDP's PRT (and RTT) larger.
    assert!(
        udp.prt_mean_ms > tcp.prt_mean_ms * 2.0,
        "udp PRT {} vs tcp PRT {}",
        udp.prt_mean_ms,
        tcp.prt_mean_ms
    );
    assert!(udp.rtt_mean_ms > tcp.rtt_mean_ms);
}

#[test]
fn nio_slightly_slower_than_tcp() {
    let nio = ConnSettings {
        transport: Transport::Nio,
        ack_mode: AckMode::Auto,
        reconnect: None,
    };
    let (nio_sim, shared) = single_broker_run(nio, "", 20, quiet_fabric());
    assert_eq!(shared.borrow().arrived, 20);
    let (tcp_sim, _) = single_broker_run(ConnSettings::tcp_auto(), "", 20, quiet_fabric());
    let nio = nio_sim.service::<RttCollector>().unwrap().summary();
    let tcp = tcp_sim.service::<RttCollector>().unwrap().summary();
    assert!(
        nio.rtt_mean_ms > tcp.rtt_mean_ms,
        "nio {} should exceed tcp {}",
        nio.rtt_mean_ms,
        tcp.rtt_mean_ms
    );
    assert!(nio.rtt_mean_ms < tcp.rtt_mean_ms * 2.0, "but not wildly");
}

#[test]
fn udp_loss_surfaces_in_summary() {
    let fabric = FabricConfig {
        udp_loss_prob: 0.05, // exaggerated for a short test
        ..FabricConfig::default()
    };
    let udp = ConnSettings {
        transport: Transport::Udp,
        ack_mode: AckMode::Auto,
        reconnect: None,
    };
    let (sim, _) = single_broker_run(udp, "", 200, fabric);
    let s = sim.service::<RttCollector>().unwrap().summary();
    assert_eq!(s.sent, 200);
    assert!(s.received < 200, "some deliveries must drop at 5% loss");
    assert!(s.received > 150, "publish retransmit keeps most");
    assert!(s.loss_rate > 0.0);
}

#[test]
fn client_ack_recovers_losses() {
    let fabric = FabricConfig {
        udp_loss_prob: 0.05,
        ..FabricConfig::default()
    };
    let cli = ConnSettings {
        transport: Transport::Udp,
        ack_mode: AckMode::Client,
        reconnect: None,
    };
    let (cli_sim, _) = single_broker_run(cli, "", 200, fabric.clone());
    let auto = ConnSettings {
        transport: Transport::Udp,
        ack_mode: AckMode::Auto,
        reconnect: None,
    };
    let (auto_sim, _) = single_broker_run(auto, "", 200, fabric);
    let cli = cli_sim.service::<RttCollector>().unwrap().summary();
    let auto = auto_sim.service::<RttCollector>().unwrap().summary();
    assert!(
        cli.loss_rate < auto.loss_rate,
        "CLIENT-ack gap recovery should reduce loss: {} vs {}",
        cli.loss_rate,
        auto.loss_rate
    );
}

#[test]
fn broker_refuses_connections_when_out_of_memory() {
    let (mut sim, nodes) = build_world(2, quiet_fabric(), 17);
    // A tiny process: native pool fits only a handful of threads.
    let proc = sim.service_mut::<OsModel>().unwrap().add_process(
        nodes[0],
        ProcessSpec {
            heap_cap: Bytes::mib(1500),
            stack_size: Bytes::mib(64),
            baseline: Bytes::mib(16),
        },
    );
    let broker = Broker::new(true, nodes[0], proc);
    let stats = broker.stats_handle();
    let broker_id = sim.add_actor(broker);
    let broker_ep = Endpoint::new(nodes[0], broker_id);
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver::new(
        nodes[1],
        broker_ep,
        ConnSettings::tcp_auto(),
        "",
        20, // 21 connections total vs ~4 thread slots
        1,
        shared.clone(),
    ));
    sim.run_until(SimTime::from_secs(60));
    let s = shared.borrow();
    assert!(s.refused > 0, "some connections must be refused");
    assert!(s.connected > 0, "but the first few are accepted");
    assert_eq!(u64::from(s.refused), stats.borrow().refused);
}

#[test]
fn dbn_broadcast_reaches_uninterested_brokers_routed_does_not() {
    for (broadcast, expect_waste) in [(true, true), (false, false)] {
        let (mut sim, nodes) = build_world(4, quiet_fabric(), 23);
        let procs: Vec<ProcessId> = (0..3).map(|i| jvm(&mut sim, nodes[i])).collect();
        let hosts: Vec<(NodeId, ProcessId)> = (0..3).map(|i| (nodes[i], procs[i])).collect();
        let network =
            BrokerNetwork::deploy(&mut sim, broadcast, &hosts, SimDuration::from_millis(10));
        // Driver connects to broker 0 only; brokers 1 and 2 have no
        // subscribers.
        let shared = Rc::new(RefCell::new(Shared::default()));
        sim.add_actor(Driver::new(
            nodes[3],
            network.endpoints[0],
            ConnSettings::tcp_auto(),
            "",
            1,
            10,
            shared.clone(),
        ));
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(shared.borrow().arrived, 10, "local delivery always works");
        let waste: u64 =
            network.stats[1].borrow().from_peers + network.stats[2].borrow().from_peers;
        if expect_waste {
            assert!(
                waste >= 20,
                "v1.1.3 broadcasts every message to every peer (got {waste})"
            );
        } else {
            assert_eq!(waste, 0, "routed mode prunes uninterested brokers");
        }
    }
}

#[test]
fn cross_broker_delivery_works() {
    // Subscriber on broker 1, publisher on broker 0: message must cross
    // the broker network.
    let (mut sim, nodes) = build_world(4, quiet_fabric(), 29);
    let procs: Vec<ProcessId> = (0..2).map(|i| jvm(&mut sim, nodes[i])).collect();
    let hosts: Vec<(NodeId, ProcessId)> = (0..2).map(|i| (nodes[i], procs[i])).collect();
    let network = BrokerNetwork::deploy(&mut sim, true, &hosts, SimDuration::from_millis(10));

    // Subscriber driver (no publishers) on broker 1.
    let sub_shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver::new(
        nodes[2],
        network.endpoints[1],
        ConnSettings::tcp_auto(),
        "",
        0,
        0,
        sub_shared.clone(),
    ));
    // Publisher driver on broker 0 (its own subscriber conn also gets the
    // messages; the interesting count is the cross-broker one).
    let pub_shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver::new(
        nodes[3],
        network.endpoints[0],
        ConnSettings::tcp_auto(),
        "",
        1,
        10,
        pub_shared.clone(),
    ));
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        sub_shared.borrow().arrived,
        10,
        "messages crossed the broker network"
    );
    assert_eq!(pub_shared.borrow().arrived, 10, "local subscriber too");
}

/// Connection churn: a broker at its thread ceiling accepts new
/// connections again once old ones disconnect (resources are freed).
struct ChurnDriver {
    node: NodeId,
    broker_ep: Endpoint,
    set: Option<NaradaClientSet>,
    first_wave: Vec<ConnId>,
    outcomes: Rc<RefCell<(u32, u32)>>, // (accepted, refused)
    phase: u8,
}

struct NextPhase;

impl Actor for ChurnDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = NaradaClientSet::new(self.node);
        // Phase 1: fill the broker to its ceiling (the tiny test process
        // below fits ~6 threads).
        for _ in 0..6 {
            self.first_wave
                .push(set.connect(ctx, self.broker_ep, ConnSettings::tcp_auto()));
        }
        self.set = Some(set);
        ctx.timer(SimDuration::from_secs(2), NextPhase);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        ClientEvent::Connected(_) => self.outcomes.borrow_mut().0 += 1,
                        ClientEvent::Refused(_, _) => self.outcomes.borrow_mut().1 += 1,
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<narada::ClientTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<NextPhase>().is_ok() {
            match self.phase {
                0 => {
                    // Phase 2: a 7th connection must be refused.
                    set.connect(ctx, self.broker_ep, ConnSettings::tcp_auto());
                    self.phase = 1;
                    ctx.timer(SimDuration::from_secs(2), NextPhase);
                }
                1 => {
                    // Phase 3: free two connections…
                    let a = self.first_wave[0];
                    let b = self.first_wave[1];
                    set.disconnect(ctx, a);
                    set.disconnect(ctx, b);
                    self.phase = 2;
                    ctx.timer(SimDuration::from_secs(2), NextPhase);
                }
                _ => {
                    // …then two more connections must be accepted again.
                    set.connect(ctx, self.broker_ep, ConnSettings::tcp_auto());
                    set.connect(ctx, self.broker_ep, ConnSettings::tcp_auto());
                }
            }
        }
    }
}

#[test]
fn disconnect_frees_broker_threads_for_new_connections() {
    let (mut sim, nodes) = build_world(2, quiet_fabric(), 71);
    // Tiny native pool: exactly 6 thread slots (native pool = 2048 − 256
    // OS − 1500 heap = 292 MiB; 292 / 48 = 6.08).
    let proc = sim.service_mut::<OsModel>().unwrap().add_process(
        nodes[0],
        ProcessSpec {
            heap_cap: Bytes::mib(1500),
            stack_size: Bytes::mib(48),
            baseline: Bytes::mib(16),
        },
    );
    let broker = Broker::new(true, nodes[0], proc);
    let broker_id = sim.add_actor(broker);
    let outcomes: Rc<RefCell<(u32, u32)>> = Default::default();
    sim.add_actor(ChurnDriver {
        node: nodes[1],
        broker_ep: Endpoint::new(nodes[0], broker_id),
        set: None,
        first_wave: Vec::new(),
        outcomes: outcomes.clone(),
        phase: 0,
    });
    sim.run_until(SimTime::from_secs(20));
    let (accepted, refused) = *outcomes.borrow();
    assert_eq!(refused, 1, "the 7th connection is refused at the ceiling");
    assert_eq!(
        accepted, 8,
        "6 initial + 2 after churn are accepted (threads were freed)"
    );
}

/// (cumulative seq, selective list) of every ack, in arrival order.
type AckLog = Vec<(u64, Vec<u64>)>;

/// A broker whose incoming `Ack` frames the test can read.
struct AckTap {
    broker: Broker,
    acks: Rc<RefCell<AckLog>>,
}

impl Actor for AckTap {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.broker.on_start(ctx);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        if let Some(ClientToBroker::Ack {
            cumulative_seq,
            extra,
        }) = msg
            .downcast_ref::<Delivery>()
            .and_then(|d| d.payload.downcast_ref::<ClientToBroker>())
        {
            self.acks
                .borrow_mut()
                .push((*cumulative_seq, extra.clone()));
        }
        self.broker.handle(msg, ctx);
    }
}

struct GapRun {
    arrived: u32,
    acks: AckLog,
    retransmissions: u64,
}

/// One publisher, one subscriber over loss-free UDP; the subscriber's
/// second delivery (seq 1) is lost on the way in, so every later one
/// arrives above a gap.
fn udp_run_with_delivery_gap(ack_mode: AckMode, msgs: u32) -> GapRun {
    let (mut sim, nodes) = build_world(2, quiet_fabric(), 31);
    let proc = jvm(&mut sim, nodes[0]);
    let broker = Broker::new(true, nodes[0], proc);
    let stats = broker.stats_handle();
    let acks = Rc::new(RefCell::new(Vec::new()));
    let broker_id = sim.add_actor(AckTap {
        broker,
        acks: acks.clone(),
    });
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut driver = Driver::new(
        nodes[1],
        Endpoint::new(nodes[0], broker_id),
        ConnSettings {
            transport: Transport::Udp,
            ack_mode,
            reconnect: None,
        },
        "",
        1,
        msgs,
        shared.clone(),
    );
    driver.lose_delivery = Some(1);
    sim.add_actor(driver);
    sim.run_until(SimTime::from_secs(120));
    let arrived = shared.borrow().arrived;
    let retransmissions = stats.borrow().retransmissions;
    let acks = acks.borrow().clone();
    GapRun {
        arrived,
        acks,
        retransmissions,
    }
}

#[test]
fn udp_auto_acks_carry_no_selective_list_after_a_gap() {
    let run = udp_run_with_delivery_gap(AckMode::Auto, 30);
    assert_eq!(run.arrived, 29, "AUTO never recovers the lost delivery");
    assert_eq!(run.retransmissions, 0);
    assert_eq!(run.acks.len(), 29, "one ack per delivery");
    assert_eq!(
        run.acks.last().unwrap().0,
        0,
        "the prefix is stuck at the gap"
    );
    assert!(
        run.acks.iter().all(|(_, extra)| extra.is_empty()),
        "a broker that retains nothing is told nothing: {:?}",
        run.acks
    );
}

#[test]
fn udp_client_ack_lists_the_gap_and_broker_retransmits_once() {
    let run = udp_run_with_delivery_gap(AckMode::Client, 30);
    assert_eq!(run.arrived, 30, "the retransmission fills the gap");
    assert_eq!(run.retransmissions, 1);
    let (cumulative, extra) = run
        .acks
        .iter()
        .find(|(_, extra)| !extra.is_empty())
        .expect("an ack flushed while the gap was open");
    assert_eq!(*cumulative, 0);
    assert_eq!(extra[0], 2, "seq 1 is the one missing");
    assert!(
        extra.windows(2).all(|w| w[0] < w[1]),
        "ascending: {extra:?}"
    );
    let (last_cumulative, last_extra) = run.acks.last().unwrap();
    assert_eq!(*last_cumulative, 29);
    assert!(last_extra.is_empty(), "the set drained once the gap closed");
}

/// Scaling-shape guard (no wall clock): what the subscriber ships in
/// acks must not grow with the length of the run after a gap. Before the
/// AUTO ack stopped listing its undrainable out-of-order set, twice the
/// messages meant four times the entries, and the host time with them.
#[test]
fn udp_auto_ack_volume_is_flat_in_run_length() {
    let entries = |run: &GapRun| run.acks.iter().map(|(_, e)| e.len()).sum::<usize>();
    let short = udp_run_with_delivery_gap(AckMode::Auto, 40);
    let long = udp_run_with_delivery_gap(AckMode::Auto, 80);
    assert_eq!(long.arrived, 2 * short.arrived + 1);
    assert_eq!(
        long.acks.len(),
        2 * short.acks.len() + 1,
        "one ack per delivery"
    );
    assert_eq!(entries(&long), entries(&short));
}

// ---------------------------------------------------------------------
// Who may talk on a connection: only a peer the broker accepted. A raw
// peer speaks the protocol by hand, beside the scripted driver (one
// subscriber, one publisher).
// ---------------------------------------------------------------------

/// What a raw peer got back from the broker.
#[derive(Debug, Default, PartialEq)]
struct Heard {
    connect_ok: u32,
    refused: u32,
    /// `sub_id` of every `SubscribeOk`.
    subscribed: Vec<u32>,
    deliveries: u32,
}

struct Say(usize);

/// Opens one TCP connection and puts `script`'s frames on it at the
/// given instants, whatever the broker answers.
struct RawPeer {
    node: NodeId,
    broker_ep: Endpoint,
    script: Vec<(SimDuration, Option<ClientToBroker>)>,
    conn: Option<ConnId>,
    heard: Rc<RefCell<Heard>>,
}

impl Actor for RawPeer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = Endpoint::new(self.node, ctx.self_id());
        self.conn = Some(ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), Transport::Tcp, me, self.broker_ep)
        }));
        for (ix, (at, _)) in self.script.iter().enumerate() {
            ctx.timer(*at, Say(ix));
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<Say>() {
            Ok(say) => {
                let me = Endpoint::new(self.node, ctx.self_id());
                let conn = self.conn.expect("opened on start");
                let frame = self.script[say.0].1.take().expect("said once");
                ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                    net.send(ctx, conn, me, 96, Box::new(frame));
                });
                return;
            }
            Err(m) => m,
        };
        let d = msg.downcast::<Delivery>().expect("a frame from the broker");
        let mut heard = self.heard.borrow_mut();
        match *d
            .payload
            .downcast::<BrokerToClient>()
            .expect("its protocol")
        {
            BrokerToClient::ConnectOk => heard.connect_ok += 1,
            BrokerToClient::ConnectRefused { .. } => heard.refused += 1,
            BrokerToClient::SubscribeOk { sub_id } => heard.subscribed.push(sub_id),
            BrokerToClient::Deliver { .. } => heard.deliveries += 1,
            BrokerToClient::PublishAck { .. } | BrokerToClient::Pong => {}
        }
    }
}

fn subscribe(sub_id: u32, selector: &str) -> Option<ClientToBroker> {
    Some(ClientToBroker::Subscribe(narada::protocol::Subscribe {
        sub_id,
        topic: "power.monitor".into(),
        selector: selector.into(),
        ack_mode: AckMode::Auto,
    }))
}

struct PeerRun {
    heard: Heard,
    stats: narada::BrokerStats,
    /// Messages the driver's own (accepted) subscriber received.
    arrived: u32,
    broker_threads: u32,
}

/// The driver publishes `msgs` messages 200 ms apart from about t = 0.1 s
/// to its own subscriber, while a raw peer plays `script` against a
/// broker whose process fits `thread_slots` threads.
fn run_beside_raw_peer(
    thread_slots: u64,
    msgs: u32,
    script: Vec<(SimDuration, Option<ClientToBroker>)>,
) -> PeerRun {
    let (mut sim, nodes) = build_world(3, quiet_fabric(), 29);
    // Native pool = 2048 − 256 OS − 1500 heap = 292 MiB.
    let proc = sim.service_mut::<OsModel>().unwrap().add_process(
        nodes[0],
        ProcessSpec {
            heap_cap: Bytes::mib(1500),
            stack_size: Bytes(Bytes::mib(292).0 / thread_slots),
            baseline: Bytes::mib(16),
        },
    );
    let broker = Broker::new(true, nodes[0], proc);
    let stats = broker.stats_handle();
    let broker_id = sim.add_actor(broker);
    let broker_ep = Endpoint::new(nodes[0], broker_id);
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.add_actor(Driver::new(
        nodes[1],
        broker_ep,
        ConnSettings::tcp_auto(),
        "",
        1,
        msgs,
        shared.clone(),
    ));
    let heard: Rc<RefCell<Heard>> = Default::default();
    sim.add_actor(RawPeer {
        node: nodes[2],
        broker_ep,
        script,
        conn: None,
        heard: heard.clone(),
    });
    sim.run_until(SimTime::from_secs(30));
    let broker_threads = sim.service::<OsModel>().unwrap().mem(proc).threads();
    let (heard, stats) = (heard.take(), stats.borrow().clone());
    let arrived = shared.borrow().arrived;
    PeerRun {
        heard,
        stats,
        arrived,
        broker_threads,
    }
}

const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

#[test]
fn a_connection_nobody_accepted_cannot_subscribe() {
    // Subscribe with no Connect, before the first publish; the goodbye
    // at the end must find nothing to clean up either.
    let script = vec![
        (MS(10), subscribe(0, "")),
        (MS(5_000), Some(ClientToBroker::Disconnect)),
    ];
    let run = run_beside_raw_peer(100, 5, script);
    assert_eq!(run.heard, Heard::default(), "the squatter hears nothing");
    assert_eq!(run.arrived, 5, "the accepted subscriber is served");
    assert_eq!(run.stats.delivered, 5, "and is the only one delivered to");
    assert_eq!((run.stats.accepted, run.broker_threads), (2, 2));
}

#[test]
fn a_refused_peer_that_subscribes_anyway_gets_nothing() {
    // Two thread slots, both the driver's: the peer's Connect at 1 s is
    // refused, and its Subscribe rides in behind it all the same.
    let script = vec![
        (MS(1_000), Some(ClientToBroker::Connect)),
        (MS(1_500), subscribe(0, "")),
    ];
    let run = run_beside_raw_peer(2, 20, script);
    let refused_only = Heard {
        refused: 1,
        ..Heard::default()
    };
    assert_eq!(run.heard, refused_only);
    assert_eq!((run.arrived, run.stats.delivered), (20, 20));
    assert_eq!((run.stats.accepted, run.stats.refused), (2, 1));
    assert_eq!(run.broker_threads, 2);
}

#[test]
fn an_invalid_selector_is_counted_and_the_connection_lives_on() {
    // JMS: InvalidSelectorException, nothing created. The same
    // connection's next, valid subscribe is served — as any accepted
    // peer's is. `LIKE` is outside the selector grammar the broker
    // keeps (column op literal under AND / OR / NOT), so it is refused
    // like a malformed selector.
    let script = vec![
        (MS(1), Some(ClientToBroker::Connect)),
        (MS(5), subscribe(0, "a = = 1")),
        (MS(7), subscribe(2, "site LIKE 'a%'")),
        (MS(10), subscribe(1, "")),
    ];
    let run = run_beside_raw_peer(100, 5, script);
    assert_eq!(run.stats.invalid_selectors, 2);
    let served = Heard {
        connect_ok: 1,
        subscribed: vec![1],
        deliveries: 5,
        ..Heard::default()
    };
    assert_eq!(run.heard, served);
    assert_eq!((run.arrived, run.stats.delivered), (5, 10));
}
