//! The Narada side of the driver programs: generators publishing over
//! JMS (one connection each), and a subscriber actor using the JMS
//! notification mechanism with the paper's selector.

use crate::fleet::{dispatch, ClientSet, FleetProtocol, Signal};
use crate::generator::{GeneratorState, PAPER_SELECTOR, TOPIC};
use narada::{ClientEvent, ClientTimer, ConnSettings, NaradaClientSet};
use simcore::{Actor, Context, Payload};
use simnet::{ConnId, Delivery, Endpoint};
use simos::NodeId;

impl ClientSet for NaradaClientSet {
    type Timer = ClientTimer;
    type Event = ClientEvent;

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: ClientTimer) -> Vec<ClientEvent> {
        self.handle_timer(ctx, timer)
    }

    fn on_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<ClientEvent> {
        self.handle_delivery(ctx, delivery)
    }
}

/// JMS publishing for [`Fleet`](crate::Fleet): one connection per
/// generator, one MapMessage per reading.
pub struct NaradaPublisher {
    set: NaradaClientSet,
    settings: ConnSettings,
    payload_repeat: usize,
}

impl NaradaPublisher {
    /// Publisher for a driver on `node`: `settings` is the transport + ack
    /// mode (Table II), `payload_repeat` the payload multiplier (the
    /// "Triple" test used 3).
    pub fn new(node: NodeId, settings: ConnSettings, payload_repeat: usize) -> Self {
        NaradaPublisher {
            set: NaradaClientSet::new(node),
            settings,
            payload_repeat,
        }
    }
}

impl FleetProtocol for NaradaPublisher {
    type Client = NaradaClientSet;
    type Handle = ConnId;
    const RNG_SALT: u64 = 1;
    const NAME: &'static str = "narada-fleet";

    fn client(&mut self) -> &mut NaradaClientSet {
        &mut self.set
    }

    fn open(&mut self, ctx: &mut Context<'_>, broker_ep: Endpoint, _gen_id: u32) -> ConnId {
        self.set.connect(ctx, broker_ep, self.settings)
    }

    fn publish(&mut self, ctx: &mut Context<'_>, conn: ConnId, gen: &GeneratorState, msg_id: u64) {
        let message = gen.narada_message(msg_id, ctx.now(), self.payload_repeat);
        self.set.publish(ctx, conn, message);
    }

    fn classify(event: &ClientEvent) -> Option<Signal<ConnId>> {
        match *event {
            ClientEvent::Connected(conn) => Some(Signal::Ready(conn)),
            ClientEvent::Refused(conn, _) => Some(Signal::Refused(conn)),
            ClientEvent::Reconnecting { old, new } => Some(Signal::Remapped { old, new }),
            ClientEvent::ConnectionLost(conn) => Some(Signal::Lost(conn)),
            ClientEvent::PublishAbandoned { .. } => Some(Signal::Abandoned),
            _ => None,
        }
    }
}

/// The receiving program: one JMS connection, one topic subscription with
/// the paper's selector.
pub struct NaradaSubscriber {
    broker_ep: Endpoint,
    settings: ConnSettings,
    set: NaradaClientSet,
}

impl NaradaSubscriber {
    /// New subscriber with the paper's selector.
    pub fn new(node: NodeId, broker_ep: Endpoint, settings: ConnSettings) -> Self {
        NaradaSubscriber {
            broker_ep,
            settings,
            set: NaradaClientSet::new(node),
        }
    }
}

impl Actor for NaradaSubscriber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.set.connect(ctx, self.broker_ep, self.settings);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        for event in dispatch(&mut self.set, msg, ctx) {
            match event {
                // Reconnects re-subscribe internally; only a first
                // connect needs the subscription created.
                ClientEvent::Connected(conn) => {
                    self.set.subscribe(ctx, conn, 0, TOPIC, PAPER_SELECTOR);
                }
                // The subscriber is the experiment's measurement tap, so
                // it never stays down: if the client library exhausts its
                // reconnect budget, the host bootstraps a fresh connection
                // from scratch — exactly what a monitoring operator (or an
                // `ExceptionListener` restart loop) would do.
                ClientEvent::ConnectionLost(_) => {
                    self.set.connect(ctx, self.broker_ep, self.settings);
                }
                _ => {}
            }
        }
    }

    fn name(&self) -> &str {
        "narada-subscriber"
    }
}
