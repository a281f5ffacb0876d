//! End-to-end log-broker tests on a simulated two-node cluster: produce →
//! append → long-poll fetch → deliver, through a consumer group whose two
//! members join back to back (the shape every gridlog experiment has).

use gridlog::{
    BrokerToClient, ClientEvent, ClientTimer, ClientToBroker, GridlogClientSet, LogBroker,
    LogBrokerStats, Membership, OffsetReset,
};
use simcore::{Actor, Context, FastMap, Payload, SimDuration, SimTime, Simulation};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric};
use simos::{NodeId, NodeSpec, OsModel, ProcessSpec};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::RttCollector;
use wire::{Headers, Message, MessageId, Value};

const TOPIC: &str = "power.monitor";
const GROUP: &str = "power-consumers";
const RECORDS: u32 = 40;
/// Two joins, two rebalances: the epoch every member settles on.
const FINAL_EPOCH: u64 = 2;

/// What the two taps (broker inbound, client inbound) see between them.
#[derive(Default)]
struct Watch {
    /// Final-epoch fetches the broker has received and not yet answered,
    /// per (connection, partition). The broker answers each exactly once
    /// — at once, on the next append, or when the long poll expires.
    outstanding: FastMap<(ConnId, u32), u32>,
    most_outstanding: u32,
    arrived: u32,
    /// `Assigned` events by epoch, in arrival order.
    assigned_epochs: Vec<u64>,
    /// Events the client set returned for the replayed assignment.
    replay_events: Option<usize>,
}

/// The broker, with every inbound final-epoch `Fetch` counted.
struct FetchTap {
    broker: LogBroker,
    watch: Rc<RefCell<Watch>>,
}

impl Actor for FetchTap {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.broker.on_start(ctx);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        if let Some(d) = msg.downcast_ref::<Delivery>() {
            if let Some(&ClientToBroker::Fetch {
                epoch: FINAL_EPOCH,
                partition,
                ..
            }) = d.payload.downcast_ref::<ClientToBroker>()
            {
                let mut w = self.watch.borrow_mut();
                let n = w.outstanding.entry((d.conn, partition)).or_insert(0);
                *n += 1;
                let n = *n;
                w.most_outstanding = w.most_outstanding.max(n);
            }
        }
        self.broker.handle(msg, ctx);
    }
}

struct ProduceTick(u32);
struct ReplayAssignment;

/// One producer and a two-member group in one client set. Producing
/// starts at 1 s, when both members hold their final assignment (a
/// reset-to-latest member skips what was appended before it joined).
struct Driver {
    node: NodeId,
    broker_ep: Endpoint,
    set: Option<GridlogClientSet>,
    producer: Option<ConnId>,
    member0: Option<ConnId>,
    /// Member 0's last assignment push as the frame a stale-epoch request
    /// makes the broker push again: same epoch, same partitions, start
    /// offsets at the (by then further) log end — here far beyond it, so
    /// an adopted position would show as records never read.
    repush: Option<(u64, Delivery)>,
    replay_at: Option<SimTime>,
    watch: Rc<RefCell<Watch>>,
}

impl Actor for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = GridlogClientSet::new(self.node);
        self.producer = Some(set.connect_producer(ctx, self.broker_ep, 7, TOPIC, None));
        for member in 0..2 {
            let join = Membership {
                group: GROUP.to_owned(),
                member,
                topic: TOPIC.to_owned(),
                reset: OffsetReset::Latest,
            };
            let conn = set.connect_consumer(ctx, self.broker_ep, join, None);
            if member == 0 {
                self.member0 = Some(conn);
            }
        }
        self.set = Some(set);
        ctx.timer(SimDuration::from_secs(1), ProduceTick(0));
        if let Some(at) = self.replay_at {
            ctx.timer(at.saturating_since(ctx.now()), ReplayAssignment);
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                match d.payload.downcast_ref::<BrokerToClient>() {
                    Some(&BrokerToClient::Records {
                        epoch: FINAL_EPOCH,
                        partition,
                        ..
                    }) => {
                        let mut w = self.watch.borrow_mut();
                        let n = w.outstanding.get_mut(&(d.conn, partition));
                        *n.expect("a response to a fetch the broker received") -= 1;
                    }
                    Some(BrokerToClient::Assignment {
                        group,
                        epoch,
                        partitions,
                    }) if Some(d.conn) == self.member0 => {
                        let again = BrokerToClient::Assignment {
                            group: group.clone(),
                            epoch: *epoch,
                            partitions: partitions.iter().map(|&(p, at)| (p, at + 1_000)).collect(),
                        };
                        self.repush = Some((
                            *epoch,
                            Delivery {
                                payload: Box::new(again),
                                ..*d
                            },
                        ));
                    }
                    _ => {}
                }
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        ClientEvent::RecordArrived { .. } => self.watch.borrow_mut().arrived += 1,
                        ClientEvent::Assigned { epoch, .. } => {
                            self.watch.borrow_mut().assigned_epochs.push(epoch)
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
        let msg = match msg.downcast::<ProduceTick>() {
            Ok(tick) => {
                let ProduceTick(i) = *tick;
                let reading = Message::map(
                    Headers::new(MessageId(u64::from(i)), TOPIC, ctx.now()),
                    [("power_kw", Value::Double(850.5 + f64::from(i)))],
                );
                // The key picks the partition: walk all of them.
                set.produce(ctx, self.producer.expect("opened"), i, reading);
                if i + 1 < RECORDS {
                    ctx.timer(SimDuration::from_millis(100), ProduceTick(i + 1));
                }
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<ReplayAssignment>().is_ok() {
            let (epoch, frame) = self.repush.take().expect("member 0 was assigned");
            assert_eq!(epoch, FINAL_EPOCH);
            let events = set.handle_delivery(ctx, frame);
            self.watch.borrow_mut().replay_events = Some(events.len());
        }
    }
}

/// Broker on node 0, the driver on node 1, 30 s of virtual time: 40
/// records between 1 s and 5 s, then idle long polls.
fn run(replay_at: Option<SimTime>) -> (LogBrokerStats, Watch) {
    let mut sim = Simulation::new(17);
    let mut os = OsModel::new();
    let nodes: Vec<NodeId> = (0..2)
        .map(|i| os.add_node(NodeSpec::hydra(format!("hydra{}", i + 1), 0.0005)))
        .collect();
    let proc = os.add_process(nodes[0], ProcessSpec::jvm_1g());
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
    sim.add_service(RttCollector::new());
    let broker = LogBroker::new(nodes[0], proc);
    let stats = broker.stats_handle();
    let watch = Rc::new(RefCell::new(Watch::default()));
    let broker_id = sim.add_actor(FetchTap {
        broker,
        watch: watch.clone(),
    });
    sim.add_actor(Driver {
        node: nodes[1],
        broker_ep: Endpoint::new(nodes[0], broker_id),
        set: None,
        producer: None,
        member0: None,
        repush: None,
        replay_at,
        watch: watch.clone(),
    });
    sim.run_until(SimTime::from_secs(30));
    drop(sim);
    let stats = stats.borrow().clone();
    let watch = Rc::try_unwrap(watch)
        .ok()
        .expect("actors dropped")
        .into_inner();
    (stats, watch)
}

#[test]
fn a_two_member_group_reads_each_record_once() {
    let (stats, watch) = run(None);
    assert_eq!(stats.appended, u64::from(RECORDS));
    assert_eq!(watch.arrived, RECORDS);
    assert_eq!(stats.rebalances, FINAL_EPOCH);
    // Member 0 is pushed epoch 1, then epoch 2; member 1 epoch 2. The
    // re-pushes its overtaken epoch-1 fetches provoke are not news.
    assert_eq!(watch.assigned_epochs, [1, 2, 2]);
    assert_eq!(
        stats.records_served, stats.appended,
        "one fetch loop per partition serves each record once"
    );
    assert_eq!(
        watch.most_outstanding, 1,
        "fetches waiting at the broker per (connection, partition)"
    );
}

#[test]
fn a_repeated_assignment_of_the_same_epoch_changes_nothing() {
    let (stats, watch) = run(Some(SimTime::from_secs(3)));
    assert_eq!(watch.replay_events, Some(0), "no `Assigned` for old news");
    assert_eq!(watch.most_outstanding, 1, "the replay sent a second fetch");
    // A moved position would leave the rest of member 0's partitions
    // unread: the replay lands mid-stream.
    assert_eq!(watch.arrived, RECORDS);
    assert_eq!(stats.records_served, stats.appended);
}
