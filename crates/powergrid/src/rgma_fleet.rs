//! The R-GMA side of the driver programs: Primary Producer clients
//! inserting one tuple per reading, and a subscriber polling the Consumer
//! servlet every 100 ms.

use crate::fleet::{dispatch, ClientSet, FleetProtocol, Signal};
use crate::generator::{GeneratorState, TABLE};
use rgma::{ProducerHandle, RgmaClientSet, RgmaConfig, RgmaEvent, RgmaTimer};
use simcore::{Actor, Context, Payload};
use simnet::{Delivery, Endpoint};
use simos::NodeId;

impl ClientSet for RgmaClientSet {
    type Timer = RgmaTimer;
    type Event = RgmaEvent;

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: RgmaTimer) -> Vec<RgmaEvent> {
        self.handle_timer(ctx, timer);
        Vec::new()
    }

    fn on_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<RgmaEvent> {
        self.handle_delivery(ctx, delivery)
    }
}

/// SQL-INSERT publishing for [`Fleet`](crate::Fleet): one Primary
/// Producer (one HTTP connection) per generator.
pub struct RgmaPublisher {
    set: RgmaClientSet,
}

impl RgmaPublisher {
    /// Publisher for a driver on `node`.
    pub fn new(node: NodeId, rgma: RgmaConfig) -> Self {
        RgmaPublisher {
            set: RgmaClientSet::new(rgma, node),
        }
    }
}

impl FleetProtocol for RgmaPublisher {
    type Client = RgmaClientSet;
    type Handle = ProducerHandle;
    const RNG_SALT: u64 = 0x5EC0;
    const NAME: &'static str = "rgma-fleet";

    fn client(&mut self) -> &mut RgmaClientSet {
        &mut self.set
    }

    fn open(
        &mut self,
        ctx: &mut Context<'_>,
        producer_ep: Endpoint,
        _gen_id: u32,
    ) -> ProducerHandle {
        self.set.create_producer(ctx, producer_ep, TABLE)
    }

    fn publish(
        &mut self,
        ctx: &mut Context<'_>,
        handle: ProducerHandle,
        gen: &GeneratorState,
        _msg_id: u64,
    ) {
        let (row, sql_len) = gen.rgma_insert();
        self.set.insert(ctx, handle, row, sql_len);
    }

    fn classify(event: &RgmaEvent) -> Option<Signal<ProducerHandle>> {
        match *event {
            RgmaEvent::ProducerReady(handle) => Some(Signal::Ready(handle)),
            RgmaEvent::ProducerFailed(handle, _) => Some(Signal::Refused(handle)),
            _ => None,
        }
    }
}

/// The subscriber program: creates one consumer running the continuous
/// query and polls it every 100 ms.
pub struct RgmaSubscriber {
    consumer_ep: Endpoint,
    query: String,
    set: RgmaClientSet,
}

impl RgmaSubscriber {
    /// New subscriber running `query`.
    pub fn new(
        node: NodeId,
        consumer_ep: Endpoint,
        query: impl Into<String>,
        rgma: RgmaConfig,
    ) -> Self {
        RgmaSubscriber {
            consumer_ep,
            query: query.into(),
            set: RgmaClientSet::new(rgma, node),
        }
    }
}

impl Actor for RgmaSubscriber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.set
            .create_subscriber(ctx, self.consumer_ep, &self.query);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        // The client set polls on its own; arrivals are counted by the
        // shared `RttCollector`, so no event needs a reaction here.
        dispatch(&mut self.set, msg, ctx);
    }

    fn name(&self) -> &str {
        "rgma-subscriber"
    }
}
