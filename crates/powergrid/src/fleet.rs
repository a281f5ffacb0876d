//! The paper's driver program, once: a fleet actor that simulates many
//! generators publishing through one middleware client set (one
//! connection each, staggered creation, random warm-up sleep, fixed
//! publish period). Every contender is a GMA producer/consumer pair, so
//! the driver differs only in the protocol call — that part is the
//! [`FleetProtocol`] each middleware module implements.

use crate::generator::GeneratorState;
use simcore::{Actor, Context, FastMap, Payload, SimDuration, SimRng};
use simnet::{Delivery, Endpoint};
use simos::{OsModel, ProcessId};
use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

/// Counters shared with the experiment driver.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Connections established.
    pub connected: u32,
    /// Connections refused by the middleware.
    pub refused: u32,
    /// Messages published.
    pub published: u64,
    /// Publishes the client gave up on (retries or reconnects exhausted).
    pub abandoned: u64,
    /// Connections lost for good after exhausting reconnect attempts.
    pub lost: u32,
}

/// Shared handle to fleet statistics.
pub type FleetStatsHandle = Rc<RefCell<FleetStats>>;

/// Configuration of one generator fleet (one driver JVM), whatever the
/// middleware.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The driver's JVM (generator threads are accounted here).
    pub proc: ProcessId,
    /// Server to publish through (broker or Producer servlet).
    pub server_ep: Endpoint,
    /// Number of simulated generators.
    pub n_generators: usize,
    /// First generator id (offset for multi-node fleets).
    pub first_id: u32,
    /// Interval between generator creations (paper: 0.5 s Narada, 1 s
    /// R-GMA).
    pub creation_interval: SimDuration,
    /// Warm-up sleep range before the first publish (paper: 10–20 s; the
    /// R-GMA no-warm-up loss test sets this near zero).
    pub warmup: (SimDuration, SimDuration),
    /// Publish period (paper: 10 s; the "80" test used 1 s).
    pub publish_interval: SimDuration,
    /// Messages each generator publishes (paper: 30 min at 10 s = 180).
    pub msgs_per_generator: u32,
}

/// A middleware client set as its host actor sees it: timer tokens and
/// network deliveries in, events out.
pub trait ClientSet {
    /// Timer payload the set schedules on its host actor.
    type Timer: 'static;
    /// What the set reports back.
    type Event;
    /// Route one of the set's timers back to it.
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Self::Timer) -> Vec<Self::Event>;
    /// Route a network delivery to the set.
    fn on_delivery(&mut self, ctx: &mut Context<'_>, delivery: Delivery) -> Vec<Self::Event>;
}

/// The host-actor dispatch shell the fleets and the subscribers share:
/// hand `msg` to `set` if it is one of its timers or a delivery.
pub fn dispatch<C: ClientSet>(set: &mut C, msg: Payload, ctx: &mut Context<'_>) -> Vec<C::Event> {
    match msg.downcast::<C::Timer>() {
        Ok(timer) => set.on_timer(ctx, *timer),
        Err(msg) => match msg.downcast::<Delivery>() {
            Ok(delivery) => set.on_delivery(ctx, *delivery),
            Err(_) => Vec::new(),
        },
    }
}

/// What a client event means to the fleet, whichever middleware raised it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal<H> {
    /// The connection is up; the generator may start its warm-up.
    Ready(H),
    /// The middleware refused the connection.
    Refused(H),
    /// A reconnect is in flight; the generator continues under `new`.
    Remapped {
        /// Handle being abandoned.
        old: H,
        /// Its replacement.
        new: H,
    },
    /// The connection is gone for good.
    Lost(H),
    /// One publish was given up on.
    Abandoned,
}

/// The protocol call that tells one contender's driver from another's.
pub trait FleetProtocol {
    /// The middleware's client set.
    type Client: ClientSet;
    /// What identifies one generator's connection.
    type Handle: Copy + Eq + Hash;
    /// Added to `first_id` to pick the fleet's generator RNG stream.
    const RNG_SALT: u64;
    /// Actor name of the fleet.
    const NAME: &'static str;
    /// The client set, for timer and delivery dispatch.
    fn client(&mut self) -> &mut Self::Client;
    /// Open the connection of generator `gen_id` to `server_ep`.
    fn open(&mut self, ctx: &mut Context<'_>, server_ep: Endpoint, gen_id: u32) -> Self::Handle;
    /// Publish `gen`'s current reading as the fleet's `msg_id`-th message.
    fn publish(
        &mut self,
        ctx: &mut Context<'_>,
        handle: Self::Handle,
        gen: &GeneratorState,
        msg_id: u64,
    );
    /// What `event` means to the fleet, if anything.
    fn classify(event: &<Self::Client as ClientSet>::Event) -> Option<Signal<Self::Handle>>;
}

struct CreateGen(usize);
struct PubTick {
    ix: usize,
    remaining: u32,
}

/// The fleet actor.
pub struct Fleet<P: FleetProtocol> {
    cfg: FleetConfig,
    protocol: P,
    gens: Vec<GeneratorState>,
    handle_of: Vec<Option<P::Handle>>,
    gen_of_handle: FastMap<P::Handle, usize>,
    rng: Option<SimRng>,
    stats: FleetStatsHandle,
    next_msg_id: u64,
}

impl<P: FleetProtocol> Fleet<P> {
    /// New fleet; clone the stats handle before `add_actor`.
    pub fn new(cfg: FleetConfig, protocol: P) -> Self {
        let n = cfg.n_generators;
        Fleet {
            cfg,
            protocol,
            gens: Vec::with_capacity(n),
            handle_of: vec![None; n],
            gen_of_handle: FastMap::default(),
            rng: None,
            stats: FleetStatsHandle::default(),
            next_msg_id: 0,
        }
    }

    /// Statistics handle.
    pub fn stats_handle(&self) -> FleetStatsHandle {
        self.stats.clone()
    }

    /// The generator behind `handle` has no connection any more: its
    /// publish ticks stop instead of publishing into a dead handle.
    fn clear_slot(&mut self, handle: P::Handle) {
        if let Some(ix) = self.gen_of_handle.remove(&handle) {
            self.handle_of[ix] = None;
        }
    }

    fn note(&mut self, signal: Signal<P::Handle>, ctx: &mut Context<'_>) {
        match signal {
            Signal::Ready(handle) => {
                self.stats.borrow_mut().connected += 1;
                if let Some(&ix) = self.gen_of_handle.get(&handle) {
                    // One rule for every contender: always draw, even for
                    // an empty range (no scenario has one).
                    let (lo, hi) = self.cfg.warmup;
                    let delay = ctx.rng().duration_between(lo, hi);
                    let remaining = self.cfg.msgs_per_generator;
                    ctx.timer(delay, PubTick { ix, remaining });
                }
            }
            Signal::Refused(handle) => {
                self.clear_slot(handle);
                self.stats.borrow_mut().refused += 1;
            }
            Signal::Remapped { old, new } => {
                if let Some(ix) = self.gen_of_handle.remove(&old) {
                    self.handle_of[ix] = Some(new);
                    self.gen_of_handle.insert(new, ix);
                }
            }
            Signal::Lost(handle) => {
                self.clear_slot(handle);
                self.stats.borrow_mut().lost += 1;
            }
            Signal::Abandoned => self.stats.borrow_mut().abandoned += 1,
        }
    }
}

impl<P: FleetProtocol> Actor for Fleet<P> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut rng = ctx.rng().derive(u64::from(self.cfg.first_id) + P::RNG_SALT);
        for ix in 0..self.cfg.n_generators {
            self.gens
                .push(GeneratorState::new(self.cfg.first_id + ix as u32, &mut rng));
            ctx.timer(
                self.cfg.creation_interval.saturating_mul(ix as u64),
                CreateGen(ix),
            );
        }
        self.rng = Some(rng);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<CreateGen>() {
            Ok(c) => {
                let ix = c.0;
                // One generator thread in the driver JVM.
                let proc = self.cfg.proc;
                let _ = ctx.with_service::<OsModel, _>(|os, _| os.spawn_thread(proc));
                let gen_id = self.cfg.first_id + ix as u32;
                let handle = self.protocol.open(ctx, self.cfg.server_ep, gen_id);
                self.handle_of[ix] = Some(handle);
                self.gen_of_handle.insert(handle, ix);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PubTick>() {
            Ok(t) => {
                let PubTick { ix, remaining } = *t;
                if remaining == 0 {
                    return;
                }
                let Some(handle) = self.handle_of[ix] else {
                    return;
                };
                let rng = self.rng.as_mut().expect("started");
                let gen = &mut self.gens[ix];
                gen.step(rng, self.cfg.publish_interval.as_secs_f64());
                self.next_msg_id += 1;
                self.protocol.publish(ctx, handle, gen, self.next_msg_id);
                self.stats.borrow_mut().published += 1;
                if remaining > 1 {
                    let remaining = remaining - 1;
                    ctx.timer(self.cfg.publish_interval, PubTick { ix, remaining });
                }
                return;
            }
            Err(m) => m,
        };
        for event in dispatch(self.protocol.client(), msg, ctx) {
            if let Some(signal) = P::classify(&event) {
                self.note(signal, ctx);
            }
        }
    }

    fn name(&self) -> &str {
        P::NAME
    }
}
