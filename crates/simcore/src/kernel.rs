//! The simulation kernel: actor slot table, event loop, and the
//! [`Context`] through which actors touch the world.
//!
//! ## Sharding model
//!
//! A simulation can be partitioned across *shards* (see `crates/simshard`):
//! each shard thread builds the **whole** world identically (replicated
//! build), but only hosts the actors whose node the shard's locality filter
//! claims. Remote actors become *ghosts*: they occupy their slot index (so
//! ids, lanes and connection numbering stay identical on every shard) but
//! hold no behaviour and never execute. Messages addressed to a ghost are
//! handed to the [`RemoteRouter`] carrying their full deterministic key
//! `(at, lane, lane_seq)`; the owning shard injects them verbatim, so the
//! merged event history is byte-identical to a serial run.
//!
//! A few actors (fault driver, samplers) are *replicated*: they run
//! identically on every shard and only touch shard-local state. Their
//! self-sends are accounted only on the *primary* shard so that summed
//! [`KernelStats`] match a serial run exactly. The external lane (build-
//! time [`Simulation::schedule`]) is a replicated sender too, so one
//! enqueue rule serves it and every actor.
//!
//! Every randomness draw goes through a per-actor RNG stream derived from
//! `(seed, actor index)` — never a shared sequential stream — so the draw
//! sequence an actor sees is independent of how actors interleave across
//! shards.

use crate::actor::{Actor, ActorId};
use crate::event::{
    EventQueue, EventTypeStat, Payload, ScheduledEvent, Site, WallAccum, EXTERNAL_LANE,
};
use crate::rng::SimRng;
use crate::service::ServiceMap;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel run statistics: a snapshot of the kernel's one accounting
/// record, the per-type table. Every total is a column sum of `by_type`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events dispatched so far (the `executed` column).
    pub events_processed: u64,
    /// Events dropped because their target actor was never registered
    /// (the `dropped` column).
    pub events_dropped: u64,
    /// Total events ever scheduled (the `scheduled` column).
    pub scheduled_total: u64,
    /// Of `scheduled_total`, how many were timer self-sends
    /// ([`Context::timer`]; the `timers` column).
    pub timer_scheduled: u64,
    /// Of `scheduled_total`, how many were ordinary messages.
    pub message_scheduled: u64,
    /// High-watermark of pending events.
    pub peak_queue_depth: u64,
    /// Per-payload-type counters, sorted by scheduled count descending then
    /// name.
    pub by_type: Vec<EventTypeStat>,
}

impl KernelStats {
    /// Sort `by_type` and derive every total from it.
    fn from_types(mut by_type: Vec<EventTypeStat>, peak_queue_depth: u64) -> KernelStats {
        by_type.sort_by(|a, b| b.scheduled.cmp(&a.scheduled).then(a.name.cmp(&b.name)));
        let sum = |col: fn(&EventTypeStat) -> u64| by_type.iter().map(col).sum::<u64>();
        let (scheduled_total, timer_scheduled) = (sum(|t| t.scheduled), sum(|t| t.timers));
        KernelStats {
            events_processed: sum(|t| t.executed),
            events_dropped: sum(|t| t.dropped),
            scheduled_total,
            timer_scheduled,
            message_scheduled: scheduled_total - timer_scheduled,
            peak_queue_depth,
            by_type,
        }
    }

    /// Merge per-shard statistics into the totals a serial run would have
    /// produced. All event counters sum exactly (cross-shard events are
    /// scheduled on the sender shard and executed on the receiver shard;
    /// replicated actors are accounted on the primary shard only).
    ///
    /// `peak_queue_depth` is a *shard-local observation*, not a conserved
    /// quantity, and is excluded from
    /// [`determinism_digest`](Self::determinism_digest): it is merged as
    /// the max over shards, and a serial run holding every shard's events
    /// in one heap generally peaks higher.
    pub fn merged(parts: &[KernelStats]) -> KernelStats {
        let mut by_name: BTreeMap<&str, EventTypeStat> = BTreeMap::new();
        for t in parts.iter().flat_map(|p| &p.by_type) {
            let e = by_name.entry(&t.name).or_insert_with(|| EventTypeStat {
                name: t.name.clone(),
                ..EventTypeStat::default()
            });
            e.scheduled += t.scheduled;
            e.executed += t.executed;
            e.dropped += t.dropped;
            e.timers += t.timers;
        }
        let peak = parts.iter().map(|p| p.peak_queue_depth).max().unwrap_or(0);
        KernelStats::from_types(by_name.into_values().collect(), peak)
    }

    /// Canonical text of every *conserved* kernel counter — the quantities
    /// that must be byte-identical between serial and sharded runs of the
    /// same seed. Excludes `peak_queue_depth`, which measures shard-local
    /// heap shape rather than simulation behaviour.
    pub fn determinism_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "processed={} dropped={} scheduled={} timers={} messages={}",
            self.events_processed,
            self.events_dropped,
            self.scheduled_total,
            self.timer_scheduled,
            self.message_scheduled
        );
        for t in &self.by_type {
            let _ = writeln!(
                s,
                "type {} scheduled={} executed={} dropped={} timers={}",
                t.name, t.scheduled, t.executed, t.dropped, t.timers
            );
        }
        s
    }
}

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event-count limit was hit (runaway protection).
    EventLimit,
}

/// An event addressed to an actor hosted on another shard, carrying its
/// sender-side deterministic key so the owning shard can enqueue it exactly
/// where a serial run would have.
pub struct RemoteEnvelope {
    /// When the event fires.
    pub at: SimTime,
    /// Sender's scheduling lane.
    pub lane: u32,
    /// Sender's FIFO sequence within the lane.
    pub lane_seq: u64,
    /// Receiving actor (a ghost on the sending shard).
    pub target: ActorId,
    /// Message payload.
    pub payload: Payload,
    /// Static payload type name for receiver-side accounting, if known.
    pub type_name: Option<&'static str>,
}

/// Delivers [`RemoteEnvelope`]s to the shard owning `target_node`.
/// Installed by the shard executor; never consulted in serial runs (no
/// ghosts exist).
pub trait RemoteRouter {
    /// Route one envelope. `target_node` is the simulated node hosting the
    /// target actor.
    fn route(&mut self, env: RemoteEnvelope, target_node: u16);
}

/// One row of the actor table: everything the kernel keeps per actor.
struct Slot {
    /// The behaviour; `None` for a ghost, and while the actor runs.
    actor: Option<Box<dyn Actor>>,
    /// The actor's RNG stream, a pure function of `(seed, index)`, so its
    /// draw sequence never depends on which other actors ran before it —
    /// the property that makes randomness shard-invariant.
    rng: SimRng,
    /// Simulated node the actor was registered under, if declared.
    node: Option<u16>,
    /// Lives on another shard; holds no behaviour here.
    ghost: bool,
    /// Runs identically on every shard (accounted on primary only).
    replicated: bool,
}

type LocalityFn = Box<dyn Fn(u16) -> bool>;

/// Everything a [`Context`] reaches: the state an event can touch.
struct World {
    now: SimTime,
    queue: EventQueue,
    services: ServiceMap,
    slots: Vec<Slot>,
    /// The root every actor's RNG stream is derived from.
    rng: SimRng,
    router: Option<Box<dyn RemoteRouter>>,
    /// The shard's locality filter; `None` in a serial world.
    locality: Option<LocalityFn>,
    primary: bool,
    started: bool,
}

impl World {
    /// Append a slot; a ghost keeps no behaviour. A world already started
    /// runs the newcomer's `on_start` at once.
    fn add(
        &mut self,
        actor: Box<dyn Actor>,
        node: Option<u16>,
        ghost: bool,
        replicated: bool,
    ) -> ActorId {
        let id = ActorId::from_index(self.slots.len());
        self.slots.push(Slot {
            actor: (!ghost).then_some(actor),
            rng: self.rng.derive(id.index() as u64 + 1),
            node,
            ghost,
            replicated,
        });
        if self.started {
            self.with_actor(id, |actor, ctx| actor.on_start(ctx));
        }
        id
    }

    /// Run `f` on actor `id` with a [`Context`] for it — the one place a
    /// context is built. The actor leaves its slot meanwhile (so it can
    /// reach the world through the context) and goes back after. False if
    /// the slot holds no actor: never registered, or a ghost.
    fn with_actor(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn Actor, &mut Context<'_>),
    ) -> bool {
        let ix = id.index();
        let Some(mut actor) = self.slots.get_mut(ix).and_then(|s| s.actor.take()) else {
            return false;
        };
        f(
            actor.as_mut(),
            &mut Context {
                world: self,
                self_id: id,
            },
        );
        // The slot is still empty (actors are only ever registered at fresh
        // indices), so this cannot clobber.
        self.slots[ix].actor = Some(actor);
        true
    }

    /// The one enqueue rule, for the external lane and every actor lane.
    /// The event takes `lane`'s next key, then the shard policy applies:
    ///
    /// * target hosted here — enqueue, and account unless the target is
    ///   replicated and this is not the primary shard;
    /// * ghost target, sender running on every shard (the external lane or
    ///   a replicated actor) — drop: the sender's copy on the target's own
    ///   shard makes the send there;
    /// * ghost target, any other sender — account here (sender side) and
    ///   hand the keyed envelope to the router.
    fn enqueue(
        &mut self,
        at: SimTime,
        lane: u32,
        target: ActorId,
        payload: Payload,
        name: Option<&'static str>,
        timer: bool,
    ) {
        let lane_seq = self.queue.next_lane_seq(lane);
        let (ghost, replicated, node) = self
            .slots
            .get(target.index())
            .map_or((false, false, None), |s| (s.ghost, s.replicated, s.node));
        if ghost && (lane == EXTERNAL_LANE || self.slots[lane as usize].replicated) {
            return;
        }
        let type_ix = self.queue.intern_type(payload.as_ref().type_id(), name);
        if self.primary || !replicated {
            self.queue.count_scheduled(type_ix, timer);
        }
        if !ghost {
            self.queue.push_keyed(ScheduledEvent {
                at,
                lane,
                lane_seq,
                target,
                payload,
                type_ix,
            });
            return;
        }
        let env = RemoteEnvelope {
            at,
            lane,
            lane_seq,
            target,
            payload,
            type_name: name,
        };
        self.router
            .as_mut()
            .expect("message to a ghost actor but no router installed")
            .route(env, node.expect("ghost actor has no node"));
    }
}

/// A complete simulated world (or, in sharded runs, one shard's replica of
/// it — see the module docs).
pub struct Simulation {
    world: World,
    current_node: Option<u16>,
}

impl Simulation {
    /// New empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                services: ServiceMap::new(),
                slots: Vec::new(),
                rng: SimRng::new(seed),
                router: None,
                locality: None,
                primary: true,
                started: false,
            },
            current_node: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Kernel statistics so far: the per-type event accounting, its
    /// totals, and the queue-depth high-watermark.
    pub fn stats(&self) -> KernelStats {
        let q = &self.world.queue;
        KernelStats::from_types(q.type_stats(), q.peak_depth() as u64)
    }

    /// Arm the wall-clock site table: every [`Site`] starts timing. Off by
    /// default; when off each site costs one `Option` discriminant check.
    /// Reading a monotonic clock touches no simulation state, so an armed
    /// run is byte-identical to a plain one.
    pub fn enable_hotpath_timing(&mut self) {
        self.world.queue.wall.get_or_insert_with(Box::default);
    }

    /// The wall-clock site table, indexed by `site as usize`, if
    /// [`enable_hotpath_timing`] was called.
    ///
    /// [`enable_hotpath_timing`]: Simulation::enable_hotpath_timing
    pub fn hotpath(&self) -> Option<[WallAccum; Site::COUNT]> {
        self.world.queue.wall.as_deref().copied()
    }

    /// Install the shard locality filter: `f(node)` answers "is this node
    /// hosted here?". From now on every [`add_actor`](Self::add_actor) must
    /// be preceded by [`on_node`](Self::on_node) (or use
    /// [`add_replicated_actor`](Self::add_replicated_actor)); actors on
    /// foreign nodes become ghosts.
    pub fn set_locality(&mut self, f: impl Fn(u16) -> bool + 'static) {
        self.world.locality = Some(Box::new(f));
    }

    /// Declare the simulated node that subsequently-registered actors live
    /// on (sticky until changed). Required between actors under sharding;
    /// optional (pure metadata) otherwise.
    pub fn on_node(&mut self, node: u16) {
        self.current_node = Some(node);
    }

    /// Mark this shard as the accounting primary (shard 0). Replicated
    /// actors' events are only counted on the primary so that summed
    /// [`KernelStats`] equal a serial run. Serial worlds are primary.
    pub fn set_primary(&mut self, primary: bool) {
        self.world.primary = primary;
    }

    /// Install the cross-shard router consulted for messages to ghosts.
    pub fn set_router(&mut self, r: impl RemoteRouter + 'static) {
        self.world.router = Some(Box::new(r));
    }

    /// Register an actor; returns its id. Actors registered before the
    /// first `run_*` call get `on_start` at t = 0 in registration order;
    /// actors spawned later (via [`Context::spawn`]) get it immediately.
    ///
    /// Under sharding the actor's node (from [`on_node`](Self::on_node))
    /// decides whether it is hosted here or becomes a ghost.
    pub fn add_actor(&mut self, actor: impl Actor + 'static) -> ActorId {
        let (ghost, node) = match &self.world.locality {
            Some(f) => {
                let n = self.current_node.expect(
                    "sharded build: declare the actor's node with on_node(..) \
                     before add_actor (or use add_replicated_actor)",
                );
                (!f(n), Some(n))
            }
            None => (false, self.current_node),
        };
        self.world.add(Box::new(actor), node, ghost, false)
    }

    /// Register an actor that runs identically on *every* shard (e.g. the
    /// fault driver or a sampler whose state is shard-local). Never a
    /// ghost; its events are accounted on the primary shard only.
    pub fn add_replicated_actor(&mut self, actor: impl Actor + 'static) -> ActorId {
        self.world.add(Box::new(actor), None, false, true)
    }

    /// Register a shared service.
    pub fn add_service<S: 'static>(&mut self, svc: S) {
        self.world.services.insert(svc);
    }

    /// Immutable access to a service (between runs; e.g. to read metrics).
    pub fn service<S: 'static>(&self) -> Option<&S> {
        self.world.services.get::<S>()
    }

    /// Mutable access to a service (between runs).
    pub fn service_mut<S: 'static>(&mut self) -> Option<&mut S> {
        self.world.services.get_mut::<S>()
    }

    /// Schedule a message from outside the actor system (e.g. test setup or
    /// experiment wiring). Uses the external scheduling lane: a replicated
    /// build makes the same schedule on every shard, so the lane's keys
    /// agree everywhere, and only the shard hosting the target enqueues it.
    pub fn schedule(&mut self, delay: SimDuration, target: ActorId, payload: Payload) {
        let at = self.world.now + delay;
        self.world
            .enqueue(at, EXTERNAL_LANE, target, payload, None, false);
    }

    /// Inject an event that crossed the shard boundary. Its `scheduled`
    /// accounting happened on the sender shard; here it is only enqueued
    /// (and will be accounted as executed/dropped where it dispatches).
    pub fn inject_remote(&mut self, env: RemoteEnvelope) {
        debug_assert!(
            env.at >= self.world.now,
            "remote envelope arrived in this shard's past: lookahead violated"
        );
        let queue = &mut self.world.queue;
        let type_ix = queue.intern_type(env.payload.as_ref().type_id(), env.type_name);
        queue.push_keyed(ScheduledEvent {
            at: env.at,
            lane: env.lane,
            lane_seq: env.lane_seq,
            target: env.target,
            payload: env.payload,
            type_ix,
        });
    }

    /// Time of the earliest pending event (the shard's contribution to the
    /// lower-bound-timestamp computation).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.world.queue.peek_time()
    }

    /// Run `on_start` for every registered actor now (idempotent). The
    /// `run_*` methods do this lazily, but the shard executor must force
    /// it *before* the first lower-bound-timestamp round: `on_start`
    /// timers are part of the initial event population, and a shard whose
    /// only events come from them would otherwise report an empty queue.
    pub fn start(&mut self) {
        if self.world.started {
            return;
        }
        self.world.started = true;
        for ix in 0..self.world.slots.len() {
            self.world
                .with_actor(ActorId::from_index(ix), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Dispatch exactly one event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let w = &mut self.world;
        let Some(ev) = w.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= w.now, "event queue went backwards");
        w.now = ev.at;
        // Replicated actors execute on every shard but are accounted only
        // on the primary, so summed shard stats equal a serial run. The
        // wall-clock dispatch sample follows the same rule, keeping the
        // merged timing count equal to the merged event count.
        let count_it = w.primary || !w.slots.get(ev.target.index()).is_some_and(|s| s.replicated);
        let t0 = if count_it { w.queue.wall_start() } else { None };
        let executed = w.with_actor(ev.target, |actor, ctx| actor.handle(ev.payload, ctx));
        if executed {
            w.queue.wall_record(Site::KernelDispatch, t0);
        }
        if count_it {
            w.queue.count_dispatched(ev.type_ix, executed);
        }
        true
    }

    /// Run until the queue is empty or `horizon` is reached. Events at
    /// exactly `horizon` still fire; the clock ends at
    /// `min(horizon, last event time)`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.start();
        loop {
            match self.world.queue.peek_time() {
                None => return RunOutcome::QueueEmpty,
                Some(t) if t > horizon => {
                    self.world.now = horizon;
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Execute every pending event with `at < end` (and `at <= horizon`),
    /// then stop — the conservative-lockstep inner loop. Unlike
    /// [`run_until`](Self::run_until) this neither advances the clock to
    /// `end` nor drains events *at* `end`; the shard executor owns the
    /// window bookkeeping.
    pub fn run_window(&mut self, end: SimTime, horizon: SimTime) {
        self.start();
        while let Some(t) = self.world.queue.peek_time() {
            if t >= end || t > horizon {
                break;
            }
            self.step();
        }
    }

    /// Advance the clock to `t` without executing anything (end-of-run
    /// normalisation by the shard executor).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.world.now, "cannot move the clock backwards");
        self.world.now = t;
    }

    /// Run until the queue drains, with a hard event-count limit as runaway
    /// protection.
    pub fn run_to_completion(&mut self, max_events: u64) -> RunOutcome {
        self.start();
        let mut left = max_events;
        while !self.world.queue.is_empty() {
            if left == 0 {
                return RunOutcome::EventLimit;
            }
            left -= 1;
            self.step();
        }
        RunOutcome::QueueEmpty
    }
}

/// The world as seen from inside an actor callback.
pub struct Context<'a> {
    world: &'a mut World,
    self_id: ActorId,
}

impl Context<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// This actor's deterministic RNG stream. Derived from
    /// `(seed, actor index)`, so the draw sequence is independent of event
    /// interleaving with other actors (and therefore of sharding).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.slots[self.self_id.index()].rng
    }

    /// True on the accounting-primary shard (and in serial runs). Lets
    /// replicated actors count a side effect exactly once across shards.
    pub fn accounting_primary(&self) -> bool {
        self.world.primary
    }

    /// Open a wall-clock probe: `Some(now)` only when the site table is
    /// armed ([`Simulation::enable_hotpath_timing`]), so a plain run never
    /// reads the clock.
    #[inline]
    pub fn wall_start(&self) -> Option<Instant> {
        self.world.queue.wall_start()
    }

    /// Close a probe opened by [`wall_start`](Self::wall_start), adding
    /// the elapsed wall-clock nanoseconds to `site`. No-op when `t0` is
    /// `None`.
    #[inline]
    pub fn wall_record(&mut self, site: Site, t0: Option<Instant>) {
        self.world.queue.wall_record(site, t0);
    }

    /// Send a message to `target` after `delay`. The value is boxed here
    /// (passing a [`Payload`] to this method would nest the box).
    pub fn send_in<T: std::any::Any + Send>(
        &mut self,
        delay: SimDuration,
        target: ActorId,
        value: T,
    ) {
        let name = Some(std::any::type_name::<T>());
        self.send(delay, target, Box::new(value), name, false);
    }

    /// Every actor send: this actor's lane through the one enqueue rule.
    /// `name` is the payload's type name, captured by the typed senders
    /// before boxing erases it.
    fn send(
        &mut self,
        delay: SimDuration,
        target: ActorId,
        payload: Payload,
        name: Option<&'static str>,
        timer: bool,
    ) {
        let at = self.world.now + delay;
        let lane = self.self_id.lane();
        self.world.enqueue(at, lane, target, payload, name, timer);
    }

    /// Send a message to `target` at the current instant. Among events for
    /// the same instant, ordering follows the scheduling-lane key (sender
    /// lane, then FIFO within the lane).
    pub fn send_now<T: std::any::Any + Send>(&mut self, target: ActorId, value: T) {
        self.send_in(SimDuration::ZERO, target, value);
    }

    /// Send a message to self after `delay` (a timer). Counted separately
    /// from ordinary messages in the kernel's event accounting.
    pub fn timer<T: std::any::Any + Send>(&mut self, delay: SimDuration, value: T) {
        let name = Some(std::any::type_name::<T>());
        self.send(delay, self.self_id, Box::new(value), name, true);
    }

    /// Spawn a new actor mid-simulation; `on_start` runs immediately.
    ///
    /// Not supported in sharded runs: mid-run registration would have to be
    /// replayed identically on every shard to keep actor ids aligned, and
    /// no production component needs it.
    pub fn spawn(&mut self, actor: impl Actor + 'static) -> ActorId {
        assert!(
            self.world.locality.is_none(),
            "Context::spawn is not supported in sharded runs"
        );
        self.world.add(Box::new(actor), None, false, false)
    }

    /// Exclusive access to a shared service while retaining the ability to
    /// schedule events and touch *other* services from inside the closure.
    ///
    /// Panics if the service was never registered, or is already taken
    /// (re-entrant access), saying which.
    pub fn with_service<S: 'static, R>(
        &mut self,
        f: impl FnOnce(&mut S, &mut Context<'_>) -> R,
    ) -> R {
        let services = &mut self.world.services;
        let mut svc = services
            .take::<S>()
            .unwrap_or_else(|| panic_missing::<S>(services));
        let r = f(&mut svc, self);
        self.world.services.put(svc);
        r
    }

    /// Plain mutable access to a service when no scheduling is needed.
    pub fn service_mut<S: 'static>(&mut self) -> &mut S {
        let services = &mut self.world.services;
        if !services.contains::<S>() {
            panic_missing::<S>(services);
        }
        services.get_mut::<S>().expect("checked above")
    }

    /// Plain shared access to a service.
    pub fn service<S: 'static>(&self) -> &S {
        let services = &self.world.services;
        services
            .get::<S>()
            .unwrap_or_else(|| panic_missing::<S>(services))
    }

    /// Mutable access to a service that may not be registered (e.g. the
    /// optional trace collector). Returns `None` instead of panicking so
    /// instrumentation can no-op when the service is absent.
    #[inline]
    pub fn try_service_mut<S: 'static>(&mut self) -> Option<&mut S> {
        self.world.services.get_mut::<S>()
    }
}

#[cold]
fn panic_missing<S: 'static>(services: &ServiceMap) -> ! {
    let name = std::any::type_name::<S>();
    if services.registered::<S>() {
        panic!("service {name} is already taken (re-entrant access)")
    }
    panic!("service {name} was never registered")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::FnActor;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    #[derive(Debug, PartialEq)]
    struct Tick(u32);

    #[test]
    fn delivers_in_time_order_and_advances_clock() {
        let mut sim = Simulation::new(1);
        let log: Arc<Mutex<Vec<(u64, u32)>>> = Default::default();
        let log2 = log.clone();
        let a = sim.add_actor(FnActor(move |msg: Payload, ctx: &mut Context| {
            let t = msg.downcast::<Tick>().unwrap();
            log2.lock().unwrap().push((ctx.now().as_micros(), t.0));
        }));
        sim.schedule(SimDuration::from_millis(5), a, Box::new(Tick(2)));
        sim.schedule(SimDuration::from_millis(1), a, Box::new(Tick(1)));
        sim.schedule(SimDuration::from_millis(9), a, Box::new(Tick(3)));
        assert_eq!(sim.run_to_completion(100), RunOutcome::QueueEmpty);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(1_000, 1), (5_000, 2), (9_000, 3)]
        );
        assert_eq!(sim.now(), SimTime::from_millis(9));
        assert_eq!(sim.stats().events_processed, 3);
    }

    #[test]
    fn timers_chain() {
        struct Ticker {
            remaining: u32,
            fired: Arc<AtomicU32>,
        }
        impl Actor for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), Tick(0));
            }
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.timer(SimDuration::from_secs(1), Tick(0));
                }
            }
        }
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(2);
        sim.add_actor(Ticker {
            remaining: 5,
            fired: fired.clone(),
        });
        sim.run_to_completion(100);
        assert_eq!(fired.load(Ordering::Relaxed), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn horizon_stops_and_freezes_clock() {
        let mut sim = Simulation::new(3);
        let a = sim.add_actor(crate::actor::NullActor);
        sim.schedule(SimDuration::from_secs(10), a, Box::new(()));
        let outcome = sim.run_until(SimTime::from_secs(4));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(10)));
        // Resume past the event.
        assert_eq!(
            sim.run_until(SimTime::from_secs(20)),
            RunOutcome::QueueEmpty
        );
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn event_at_horizon_still_fires() {
        let mut sim = Simulation::new(4);
        let hits: Arc<AtomicU32> = Default::default();
        let h = hits.clone();
        let a = sim.add_actor(FnActor(move |_m: Payload, _c: &mut Context| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        sim.schedule(SimDuration::from_secs(5), a, Box::new(()));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_window_is_half_open() {
        let mut sim = Simulation::new(44);
        let hits: Arc<AtomicU32> = Default::default();
        let h = hits.clone();
        let a = sim.add_actor(FnActor(move |_m: Payload, _c: &mut Context| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        sim.schedule(SimDuration::from_secs(1), a, Box::new(()));
        sim.schedule(SimDuration::from_secs(2), a, Box::new(()));
        sim.schedule(SimDuration::from_secs(3), a, Box::new(()));
        // Window [_, 2): only the t=1 event fires; t=2 stays pending.
        sim.run_window(SimTime::from_secs(2), SimTime::from_secs(100));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(2)));
        // The clock does not jump to the window end on its own.
        assert_eq!(sim.now(), SimTime::from_secs(1));
        sim.run_window(SimTime::from_secs(10), SimTime::from_secs(2));
        // Horizon caps execution even inside the window.
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        sim.advance_to(SimTime::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn messages_to_retired_actor_are_dropped() {
        // Nothing retires any more; the empty slot an event can still find
        // is one no actor was ever registered in.
        let mut sim = Simulation::new(5);
        let alive = sim.add_actor(crate::actor::NullActor);
        let nobody = ActorId::from_index(7);
        sim.schedule(SimDuration::from_secs(1), alive, Box::new(()));
        sim.schedule(SimDuration::from_secs(2), nobody, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(sim.stats().events_processed, 1);
        assert_eq!(sim.stats().events_dropped, 1);
    }

    #[test]
    fn spawn_mid_run_receives_messages() {
        struct Parent;
        impl Actor for Parent {
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                let child = ctx.spawn(FnActor(|msg: Payload, ctx: &mut Context| {
                    let n = msg.downcast::<u32>().unwrap();
                    assert_eq!(*n, 42);
                    // Store proof in a service.
                    *ctx.service_mut::<u32>() += 1;
                }));
                ctx.send_in(SimDuration::from_secs(1), child, 42u32);
            }
        }
        let mut sim = Simulation::new(6);
        sim.add_service(0u32);
        let p = sim.add_actor(Parent);
        sim.schedule(SimDuration::from_secs(1), p, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(*sim.service::<u32>().unwrap(), 1);
    }

    #[test]
    fn with_service_allows_scheduling_inside() {
        struct Net {
            delivered: u32,
        }
        let mut sim = Simulation::new(7);
        sim.add_service(Net { delivered: 0 });
        let sink = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            ctx.with_service::<Net, _>(|net, _| net.delivered += 1);
        }));
        let src = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            ctx.with_service::<Net, _>(|_net, inner| {
                inner.send_in(SimDuration::from_millis(3), sink, ());
            });
        }));
        sim.schedule(SimDuration::ZERO, src, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(sim.service::<Net>().unwrap().delivered, 1);
    }

    #[test]
    #[should_panic(expected = "service u32 is already taken (re-entrant access)")]
    fn reentrant_with_service_says_taken() {
        let mut sim = Simulation::new(7);
        sim.add_service(0u32);
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            ctx.with_service::<u32, _>(|_, inner| inner.with_service::<u32, _>(|_, _| ()));
        }));
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        sim.run_to_completion(10);
    }

    #[test]
    #[should_panic(expected = "service u32 was never registered")]
    fn service_on_an_empty_world_says_never_registered() {
        let mut sim = Simulation::new(7);
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            ctx.service::<u32>();
        }));
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        sim.run_to_completion(10);
    }

    #[test]
    fn run_to_completion_event_limit() {
        struct Forever;
        impl Actor for Forever {
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), ());
            }
        }
        let mut sim = Simulation::new(8);
        let a = sim.add_actor(Forever);
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        assert_eq!(sim.run_to_completion(50), RunOutcome::EventLimit);
    }

    #[test]
    fn stats_type_counts_sum_to_scheduled_total() {
        #[derive(Debug)]
        struct Ping;
        struct Echo;
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_secs(1), Tick(0));
            }
            fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
                if msg.downcast_ref::<Tick>().is_some() {
                    let me = ctx.self_id();
                    ctx.send_now(me, Ping);
                }
            }
        }
        let mut sim = Simulation::new(42);
        let e = sim.add_actor(Echo);
        let ghost = ActorId::from_index(77);
        sim.schedule(SimDuration::from_secs(2), ghost, Box::new(()));
        sim.schedule(SimDuration::from_secs(3), e, Box::new(Tick(9)));
        sim.run_to_completion(100);

        let stats = sim.stats();
        let by_type_scheduled: u64 = stats.by_type.iter().map(|t| t.scheduled).sum();
        let by_type_executed: u64 = stats.by_type.iter().map(|t| t.executed).sum();
        let by_type_dropped: u64 = stats.by_type.iter().map(|t| t.dropped).sum();
        assert_eq!(by_type_scheduled, stats.scheduled_total);
        assert_eq!(by_type_executed, stats.events_processed);
        assert_eq!(by_type_dropped, stats.events_dropped);
        assert_eq!(
            stats.timer_scheduled + stats.message_scheduled,
            stats.scheduled_total
        );
        // One timer from on_start; the sim.schedule / send_now paths are
        // messages.
        assert_eq!(stats.timer_scheduled, 1);
        assert_eq!(stats.events_dropped, 1);
        assert!(stats.peak_queue_depth >= 1);
        // Typed sends carry their short type names; raw schedule() is
        // <untyped>.
        assert!(stats.by_type.iter().any(|t| t.name == "Ping"));
        assert!(stats.by_type.iter().any(|t| t.name == "Tick"));
        assert!(stats.by_type.iter().any(|t| t.name == "<untyped>"));
    }

    #[test]
    fn hotpath_timing_is_gated_and_counts_dispatches() {
        let mut sim = Simulation::new(13);
        assert_eq!(sim.hotpath(), None);
        sim.enable_hotpath_timing();
        let a = sim.add_actor(crate::actor::NullActor);
        for i in 0..4u64 {
            sim.schedule(SimDuration::from_secs(i), a, Box::new(()));
        }
        sim.run_to_completion(100);
        let hp = sim.hotpath().unwrap();
        assert_eq!(hp[Site::KernelDispatch as usize].count, 4);
        assert_eq!(hp[Site::KernelQueuePush as usize].count, 4);
        assert_eq!(hp[Site::KernelQueuePop as usize].count, 4);
    }

    #[test]
    fn identical_seeds_identical_histories() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let trace: Arc<Mutex<Vec<u64>>> = Default::default();
            let t2 = trace.clone();
            struct Jitter {
                n: u32,
                trace: Arc<Mutex<Vec<u64>>>,
            }
            impl Actor for Jitter {
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    let d = ctx.rng().duration_between(
                        SimDuration::from_millis(1),
                        SimDuration::from_millis(100),
                    );
                    ctx.timer(d, ());
                }
                fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                    self.trace.lock().unwrap().push(ctx.now().as_micros());
                    if self.n > 0 {
                        self.n -= 1;
                        let d = ctx.rng().exp_duration(SimDuration::from_millis(10));
                        ctx.timer(d, ());
                    }
                }
            }
            sim.add_actor(Jitter { n: 20, trace: t2 });
            sim.run_to_completion(1000);
            let v = trace.lock().unwrap().clone();
            v
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn actor_rng_streams_are_interleaving_invariant() {
        // Two actors drawing alternately see the same per-actor sequences as
        // two actors drawing back-to-back: streams are keyed by actor index,
        // not by global draw order.
        fn draws(seed: u64, schedule: &[(usize, u64)]) -> Vec<(usize, u64)> {
            let mut sim = Simulation::new(seed);
            let out: Arc<Mutex<Vec<(usize, u64)>>> = Default::default();
            let mut ids = Vec::new();
            for ix in 0..2usize {
                let o = out.clone();
                ids.push(
                    sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
                        o.lock().unwrap().push((ix, ctx.rng().next_u64()));
                    })),
                );
            }
            for &(actor, at_ms) in schedule {
                let at = SimTime::from_millis(at_ms).saturating_since(sim.now());
                sim.schedule(at, ids[actor], Box::new(()));
            }
            sim.run_to_completion(100);
            let mut v = out.lock().unwrap().clone();
            v.sort();
            v
        }
        let interleaved = draws(7, &[(0, 1), (1, 2), (0, 3), (1, 4)]);
        let grouped = draws(7, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(interleaved, grouped);
    }

    #[test]
    fn ghosts_route_remotely_and_replicas_account_on_primary_only() {
        // A tiny two-"shard" world driven by hand: shard A hosts node 0,
        // shard B hosts node 1. A loopback router records what A tried to
        // send across.
        #[derive(Default)]
        struct Captured(Arc<Mutex<Vec<(u64, u32, u64)>>>);
        impl RemoteRouter for Captured {
            fn route(&mut self, env: RemoteEnvelope, target_node: u16) {
                assert_eq!(target_node, 1);
                self.0
                    .lock()
                    .unwrap()
                    .push((env.at.as_micros(), env.lane, env.lane_seq));
            }
        }
        let captured: Arc<Mutex<Vec<(u64, u32, u64)>>> = Default::default();

        let mut sim = Simulation::new(9);
        sim.set_locality(|node| node == 0);
        sim.set_router(Captured(captured.clone()));
        sim.set_primary(false);
        sim.on_node(0);
        let remote_target = {
            // Build order: local sender is actor 0, ghost is actor 1.
            let g: Arc<Mutex<Vec<(u64, u32, u64)>>> = Default::default();
            let _ = g;
            ActorId::from_index(1)
        };
        let sender = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            ctx.send_in(SimDuration::from_millis(5), remote_target, 7u32);
        }));
        sim.on_node(1);
        let ghost = sim.add_actor(crate::actor::NullActor);
        assert_eq!(ghost, remote_target);

        // A replicated ticker: executes here but is not accounted (not
        // primary), and its send to the ghost is dropped, not routed.
        struct Rep {
            ghost: ActorId,
        }
        impl Actor for Rep {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.timer(SimDuration::from_millis(1), Tick(0));
            }
            fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
                assert!(!ctx.accounting_primary());
                ctx.send_now(self.ghost, Tick(1));
            }
        }
        sim.add_replicated_actor(Rep { ghost });

        // External schedule to the ghost: consumes a lane seq, enqueues
        // nothing (the owning shard will enqueue its own copy).
        sim.schedule(SimDuration::from_millis(2), ghost, Box::new(()));
        // External schedule to the local sender.
        sim.schedule(SimDuration::from_millis(3), sender, Box::new(()));

        sim.run_to_completion(100);
        // Only the normal sender's message crossed the boundary.
        assert_eq!(&*captured.lock().unwrap(), &[(8_000, 0, 0)]);
        let stats = sim.stats();
        // Accounted: the external send to the local sender (the ghost
        // external was skipped) plus the routed cross-shard send (sender
        // side). The replicated timer/tick are primary-only, so invisible.
        assert_eq!(stats.scheduled_total, 2);
        assert_eq!(stats.timer_scheduled, 0);
        assert_eq!(stats.events_processed, 1);
        assert_eq!(stats.events_dropped, 0);
    }

    #[test]
    fn inject_remote_preserves_keys_and_counts_executed_only() {
        let mut sim = Simulation::new(10);
        let log: Arc<Mutex<Vec<u32>>> = Default::default();
        let l = log.clone();
        let a = sim.add_actor(FnActor(move |m: Payload, _c: &mut Context| {
            l.lock().unwrap().push(*m.downcast::<u32>().unwrap());
        }));
        // A local event and a remote envelope at the same instant: the
        // envelope's lane (0) beats the external lane.
        sim.schedule(SimDuration::from_millis(1), a, Box::new(2u32));
        sim.inject_remote(RemoteEnvelope {
            at: SimTime::from_millis(1),
            lane: 0,
            lane_seq: 0,
            target: a,
            payload: Box::new(1u32),
            type_name: Some("u32"),
        });
        sim.run_to_completion(10);
        assert_eq!(&*log.lock().unwrap(), &[1, 2]);
        let stats = sim.stats();
        // The injected event was scheduled on its sender shard: here it
        // only counts as executed.
        assert_eq!(stats.scheduled_total, 1);
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    fn kernel_stats_merge_and_digest() {
        let mk = |name: &str, sched: u64, exec: u64| EventTypeStat {
            name: name.into(),
            scheduled: sched,
            executed: exec,
            dropped: 0,
            timers: 0,
        };
        let a = KernelStats::from_types(vec![mk("Tick", 3, 2), mk("Ping", 2, 1)], 4);
        let b = KernelStats::from_types(vec![mk("Tick", 2, 2)], 9);
        assert_eq!((a.events_processed, a.scheduled_total), (3, 5));
        let m = KernelStats::merged(&[a.clone(), b]);
        assert_eq!(m.events_processed, 5);
        assert_eq!(m.scheduled_total, 7);
        assert_eq!(m.peak_queue_depth, 9);
        let tick = m.by_type.iter().find(|t| t.name == "Tick").unwrap();
        assert_eq!(tick.scheduled, 5);
        assert_eq!(tick.executed, 4);
        // Digest ignores the carve-out: same conserved counters, different
        // peak depth → same digest.
        let mut a2 = a.clone();
        a2.peak_queue_depth = 999;
        assert_eq!(a.determinism_digest(), a2.determinism_digest());
        assert_ne!(a.determinism_digest(), m.determinism_digest());
        // merged of a single part is digest-identical to the part.
        assert_eq!(
            KernelStats::merged(std::slice::from_ref(&a)).determinism_digest(),
            a.determinism_digest()
        );
    }
}
