//! The `narada.broker<i>.pending_acks` gauge (deliveries awaiting a
//! CLIENT ack) is a running count, kept wherever an entry comes or goes:
//! a delivery or resync adds one, an ack drains, the gap-recovery
//! give-up drops, a crash or a disconnect takes a connection's whole set.
//! The broker's debug build checks the count against the sum over its
//! connections at every gauge write. The first run passes through each
//! of those places but the disconnect, so dropping the count's update on
//! delivery, resync, ack, give-up or crash fails it; it also pins the
//! series the metrics plane exports, which the sum over connections
//! produced before the count replaced it. The second run has a
//! subscriber leave with deliveries unacked, so dropping the update on
//! disconnect fails it.

use gridmon_core::{run_experiment, ExperimentSpec, FaultSchedule, SystemUnderTest};
use jms::AckMode;
use narada::{Broker, ClientEvent, ClientTimer, ConnSettings, NaradaClientSet};
use simcore::{Actor, Context, Payload, SimDuration, SimTime, Simulation};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric, Transport};
use simos::{NodeId, NodeSpec, OsModel, ProcessSpec, VmstatLog};
use std::cell::Cell;
use std::rc::Rc;
use telemetry::{MetricsRegistry, RttCollector};
use wire::{Headers, Message, MessageId, Value};

/// The gauge's CSV rows, digested (FNV-1a, 64-bit).
const SERIES_DIGEST: u64 = 0xd6dc_8f23_1ac9_fae8;

const GAUGE: &str = "narada.broker0.pending_acks";

fn fnv1a<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    lines
        .flat_map(|line| line.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn pending_ack_count_follows_acks_drains_and_a_crash() {
    let mut spec =
        ExperimentSpec::paper_default("pending-acks", SystemUnderTest::NaradaSingle, 12).scaled(20);
    spec.transport = Transport::Udp;
    spec.ack_mode = AckMode::Client;
    let crash = FaultSchedule::scenario("broker-crash").expect("known scenario");
    let r = run_experiment(&spec.profiled().traced().with_faults(crash));

    let faults = r.fault_stats.expect("faulted run");
    assert!(faults.reconnects > 0, "the crash dropped the connections");
    assert!(
        faults.recovered > 0,
        "a resync re-delivered from stable storage"
    );
    let trace = r.trace.expect("traced");
    assert!(
        trace.jsonl.contains("\"kind\":\"retransmit\""),
        "a lost delivery was recovered through the pending set"
    );
    let csv = r.profile.expect("profiled").metrics_csv;
    let series = || {
        csv.lines()
            .filter(|l| l.contains(",narada.broker0.pending_acks,"))
    };
    assert!(series().count() > 100, "the gauge is sampled every second");
    assert_eq!(fnv1a(series()), SERIES_DIGEST);
}

/// Publishes `PUBLISHES` messages 200 ms apart on a TCP connection to its
/// own UDP CLIENT-ack subscriber, which disconnects on its `LEAVE_AT`-th
/// delivery: before the 1 s ack flush, so the broker still holds some.
struct Leaver {
    node: NodeId,
    broker: Endpoint,
    set: Option<NaradaClientSet>,
    sub: Option<ConnId>,
    publisher: Option<ConnId>,
    published: u32,
    arrived: u32,
    /// The gauge as the broker last wrote it before the disconnect.
    held_at_leave: Rc<Cell<f64>>,
}

const PUBLISHES: u32 = 20;
const LEAVE_AT: u32 = 8;

struct Tick;

impl Actor for Leaver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = NaradaClientSet::new(self.node);
        let udp_client = ConnSettings {
            transport: Transport::Udp,
            ack_mode: AckMode::Client,
            reconnect: None,
        };
        self.sub = Some(set.connect(ctx, self.broker, udp_client));
        self.publisher = Some(set.connect(ctx, self.broker, ConnSettings::tcp_auto()));
        self.set = Some(set);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        ClientEvent::Connected(conn) if Some(conn) == self.sub => {
                            set.subscribe(ctx, conn, 0, "power.monitor", "");
                        }
                        ClientEvent::Subscribed(..) => {
                            ctx.timer(SimDuration::from_millis(200), Tick);
                        }
                        ClientEvent::MessageArrived { conn, .. } => {
                            self.arrived += 1;
                            if self.arrived == LEAVE_AT {
                                let held = &self.held_at_leave;
                                telemetry::with_metrics(ctx, |m, _| {
                                    held.set(m.gauge(GAUGE).expect("written per publish"));
                                });
                                set.disconnect(ctx, conn);
                            }
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
        if msg.downcast::<Tick>().is_ok() && self.published < PUBLISHES {
            let publisher = self.publisher.expect("opened on start");
            if set.is_ready(publisher) {
                self.published += 1;
                let id = MessageId(u64::from(self.published));
                let headers = Headers::new(id, "power.monitor", SimTime::ZERO);
                let reading = Message::map(headers, [("power", Value::Double(850.5))]);
                set.publish(ctx, publisher, reading);
            }
            ctx.timer(SimDuration::from_millis(200), Tick);
        }
    }
}

#[test]
fn pending_ack_count_drops_what_a_disconnect_leaves_unacked() {
    let mut sim = Simulation::new(7);
    let mut os = OsModel::new();
    let nodes: Vec<NodeId> = (1..=2)
        .map(|i| os.add_node(NodeSpec::hydra(format!("hydra{i}"), 0.0005)))
        .collect();
    let proc = os.add_process(nodes[0], ProcessSpec::jvm_1g());
    sim.add_service(os);
    let quiet = FabricConfig {
        udp_loss_prob: 0.0,
        ..FabricConfig::default()
    };
    sim.add_service(NetworkFabric::new(quiet, nodes.len()));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());
    sim.add_service(MetricsRegistry::new());
    let broker = sim.add_actor(Broker::new(true, nodes[0], proc));
    let held_at_leave = Rc::new(Cell::new(0.0));
    sim.add_actor(Leaver {
        node: nodes[1],
        broker: Endpoint::new(nodes[0], broker),
        set: None,
        sub: None,
        publisher: None,
        published: 0,
        arrived: 0,
        held_at_leave: held_at_leave.clone(),
    });
    sim.run_until(SimTime::from_secs(10));

    assert!(
        held_at_leave.get() > 0.0,
        "the subscriber left with deliveries unacked"
    );
    let metrics = sim.service::<MetricsRegistry>().expect("registered");
    assert_eq!(
        metrics.counter("narada.broker0.publishes"),
        u64::from(PUBLISHES),
        "the gauge was written after the disconnect"
    );
    assert_eq!(metrics.gauge(GAUGE), Some(0.0), "they left with it");
}
