//! The gridlog side of the driver programs: one batching producer per
//! generator, and a subscriber actor hosting a consumer group whose
//! members split the topic's partitions between them.

use crate::fleet::{dispatch, ClientSet, FleetProtocol, Signal};
use crate::generator::{GeneratorState, TOPIC};
use gridlog::{
    ClientEvent, ClientTimer, GridlogClientSet, Membership, OffsetReset, ReconnectPolicy,
};
use simcore::{Actor, Context, FastMap, Payload};
use simnet::{ConnId, Delivery, Endpoint};
use simos::NodeId;

impl ClientSet for GridlogClientSet {
    type Timer = ClientTimer;
    type Event = ClientEvent;

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: ClientTimer) -> Vec<ClientEvent> {
        self.handle_timer(ctx, timer)
    }

    fn on_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<ClientEvent> {
        self.handle_delivery(ctx, delivery)
    }
}

/// Log producing for [`Fleet`](crate::Fleet): one producer connection
/// per generator, the generator id as stable producer id and partitioning
/// key.
pub struct GridlogPublisher {
    set: GridlogClientSet,
    reconnect: Option<ReconnectPolicy>,
    payload_repeat: usize,
}

impl GridlogPublisher {
    /// Publisher for a driver on `node`: `reconnect` is `None` outside
    /// fault campaigns, `payload_repeat` the payload multiplier.
    pub fn new(node: NodeId, reconnect: Option<ReconnectPolicy>, payload_repeat: usize) -> Self {
        GridlogPublisher {
            set: GridlogClientSet::new(node),
            reconnect,
            payload_repeat,
        }
    }
}

impl FleetProtocol for GridlogPublisher {
    type Client = GridlogClientSet;
    type Handle = ConnId;
    const RNG_SALT: u64 = 1;
    const NAME: &'static str = "gridlog-fleet";

    fn client(&mut self) -> &mut GridlogClientSet {
        &mut self.set
    }

    fn open(&mut self, ctx: &mut Context<'_>, broker_ep: Endpoint, gen_id: u32) -> ConnId {
        self.set
            .connect_producer(ctx, broker_ep, u64::from(gen_id), TOPIC, self.reconnect)
    }

    fn publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, gen: &GeneratorState, msg_id: u64) {
        let message = gen.narada_message(msg_id, ctx.now(), self.payload_repeat);
        self.set.produce(ctx, conn, gen.id, message);
    }

    fn classify(event: &ClientEvent) -> Option<Signal<ConnId>> {
        match *event {
            ClientEvent::Connected(conn) => Some(Signal::Ready(conn)),
            ClientEvent::Refused(conn, _) => Some(Signal::Refused(conn)),
            ClientEvent::Reconnecting { old, new } => Some(Signal::Remapped { old, new }),
            ClientEvent::ConnectionLost(conn) => Some(Signal::Lost(conn)),
            ClientEvent::ProduceAbandoned { .. } => Some(Signal::Abandoned),
            _ => None,
        }
    }
}

/// The receiving program: a consumer group of `members` connections that
/// split the topic's partitions. The set-level duplicate filter inside
/// [`GridlogClientSet`] keeps each record surfacing once across partition
/// handoffs.
pub struct GridlogSubscriber {
    broker_ep: Endpoint,
    members: u32,
    reset: OffsetReset,
    reconnect: Option<ReconnectPolicy>,
    set: GridlogClientSet,
    member_of_conn: FastMap<ConnId, u64>,
}

impl GridlogSubscriber {
    /// New subscriber hosting `members` group members.
    pub fn new(
        node: NodeId,
        broker_ep: Endpoint,
        members: u32,
        reset: OffsetReset,
        reconnect: Option<ReconnectPolicy>,
    ) -> Self {
        GridlogSubscriber {
            broker_ep,
            members,
            reset,
            reconnect,
            set: GridlogClientSet::new(node),
            member_of_conn: FastMap::default(),
        }
    }

    fn join(&mut self, ctx: &mut Context<'_>, member: u64) {
        let join = Membership {
            group: "power-consumers".to_owned(),
            member,
            topic: TOPIC.to_owned(),
            reset: self.reset,
        };
        let conn = self
            .set
            .connect_consumer(ctx, self.broker_ep, join, self.reconnect);
        self.member_of_conn.insert(conn, member);
    }
}

impl Actor for GridlogSubscriber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for m in 0..self.members {
            self.join(ctx, u64::from(m));
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        for event in dispatch(&mut self.set, msg, ctx) {
            match event {
                ClientEvent::Refused(conn, _) => {
                    self.member_of_conn.remove(&conn);
                }
                ClientEvent::Reconnecting { old, new } => {
                    if let Some(m) = self.member_of_conn.remove(&old) {
                        self.member_of_conn.insert(new, m);
                    }
                }
                // The subscriber is the experiment's measurement tap, so
                // a member that exhausts its reconnect budget is
                // bootstrapped again from scratch under the same member
                // identity.
                ClientEvent::ConnectionLost(conn) => {
                    if let Some(m) = self.member_of_conn.remove(&conn) {
                        self.join(ctx, m);
                    }
                }
                _ => {}
            }
        }
    }

    fn name(&self) -> &str {
        "gridlog-subscriber"
    }
}
