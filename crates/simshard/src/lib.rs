#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # simshard — conservative parallel execution of a partitioned world
//!
//! Splits one simulated cluster into per-node-group *shards*, each a full
//! replica of the world (`simcore`'s ghost/replicated build) advancing in
//! conservative lockstep, CMB/HELICS style:
//!
//! 1. every shard posts the timestamp of its earliest pending event;
//! 2. a barrier; the global minimum is the **LBTS** (lower bound on
//!    timestamp) — no shard can receive anything earlier;
//! 3. every shard executes its events in the half-open window
//!    `[LBTS, LBTS + lookahead)`, routing messages for foreign actors
//!    through per-destination mailboxes;
//! 4. a barrier; mailboxes drain, and the cycle repeats.
//!
//! The *lookahead* is the minimum cross-shard latency (in this project:
//! `simnet`'s fabric `base_latency`) — a message sent during a window can
//! never land inside that same window, so every shard may execute its
//! window without hearing from the others first. Violations trip a
//! `debug_assert` in [`Simulation::inject_remote`].
//!
//! Determinism does **not** depend on barrier or mailbox timing: every
//! event carries its sender-assigned key `(at, lane, lane_seq)` and the
//! kernel queue is totally ordered on that key, so the merged event history
//! is byte-identical to a serial run of the same seed no matter how the
//! shards interleave. The differential suite in `tests/shard_equivalence.rs`
//! and the proptests in this crate enforce exactly that.
//!
//! [`Simulation::inject_remote`]: simcore::Simulation::inject_remote

use simcore::{RemoteEnvelope, RemoteRouter, SimDuration, SimTime, Simulation};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Node-to-shard assignment for one run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    node_shard: Arc<Vec<usize>>,
    shards: usize,
}

impl ShardPlan {
    /// Build a plan from an explicit node → shard map (e.g.
    /// `simnet::partition_nodes`). `shards` may exceed the largest
    /// assigned shard (empty shards idle at the barrier); it must cover
    /// every assignment in the map.
    pub fn new(node_shard: Vec<usize>, shards: usize) -> ShardPlan {
        assert!(shards > 0, "need at least one shard");
        assert!(
            node_shard.iter().all(|&s| s < shards),
            "node assigned to a shard >= shard count"
        );
        ShardPlan {
            node_shard: Arc::new(node_shard),
            shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard hosting `node`. Nodes beyond the map (no such node was
    /// declared at plan time) fall back to shard 0 rather than panicking,
    /// so ad-hoc test nodes stay usable.
    pub fn shard_of(&self, node: u16) -> usize {
        self.node_shard.get(node as usize).copied().unwrap_or(0)
    }

    /// The locality predicate for one shard, suitable for
    /// [`Simulation::set_locality`].
    ///
    /// [`Simulation::set_locality`]: simcore::Simulation::set_locality
    pub fn locality(&self, shard: usize) -> impl Fn(u16) -> bool + 'static {
        let map = Arc::clone(&self.node_shard);
        move |node| map.get(node as usize).copied().unwrap_or(0) == shard
    }
}

/// Sense-reversing barrier that spins briefly then yields. The simulation
/// is routinely run on machines with fewer cores than shards (CI boxes,
/// the 1-core container this project develops in), where pure spinning
/// would deadlock-by-starvation; after a short spin the waiters yield the
/// CPU so the straggler can run.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
}

/// Spins before the first `yield_now`. Small: on an undersubscribed
/// machine the other shard almost certainly is not running *right now*.
const SPINS_BEFORE_YIELD: u32 = 64;

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Wait for all `n` participants. `local_sense` is the caller's
    /// thread-local phase flag (start `false`, pass the same variable to
    /// every wait). Panics if a peer poisoned the barrier (its thread
    /// panicked mid-round) instead of spinning forever.
    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("peer shard panicked; barrier poisoned");
                }
                spins += 1;
                if spins < SPINS_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }
}

/// Sentinel for "no pending events" in the per-shard time slots.
const NO_EVENTS: u64 = u64::MAX;

/// State shared by every shard of one lockstep run: cross-shard mailboxes,
/// per-shard next-event-time slots, and the round barrier.
pub struct SharedLockstep {
    mailboxes: Vec<Mutex<Vec<RemoteEnvelope>>>,
    times: Vec<AtomicU64>,
    barrier: SpinBarrier,
}

impl SharedLockstep {
    /// Shared state for `shards` participants.
    pub fn new(shards: usize) -> SharedLockstep {
        assert!(shards > 0);
        SharedLockstep {
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            times: (0..shards).map(|_| AtomicU64::new(NO_EVENTS)).collect(),
            barrier: SpinBarrier::new(shards),
        }
    }

    /// Deposit one envelope for `dst_shard` (used by [`MailboxRouter`]).
    /// Arrival order into the mailbox is timing-dependent and deliberately
    /// irrelevant: the kernel queue totally orders events by their
    /// sender-assigned `(at, lane, lane_seq)` key.
    pub fn post(&self, dst_shard: usize, env: RemoteEnvelope) {
        self.mailboxes[dst_shard]
            .lock()
            .expect("mailbox poisoned")
            .push(env);
    }
}

/// The [`RemoteRouter`] installed on every shard: resolves the target
/// node's owning shard from the plan and drops the envelope in that
/// shard's mailbox.
pub struct MailboxRouter {
    shared: Arc<SharedLockstep>,
    plan: ShardPlan,
}

impl MailboxRouter {
    /// Router posting into `shared` according to `plan`.
    pub fn new(shared: Arc<SharedLockstep>, plan: ShardPlan) -> MailboxRouter {
        MailboxRouter { shared, plan }
    }
}

impl RemoteRouter for MailboxRouter {
    fn route(&mut self, env: RemoteEnvelope, target_node: u16) {
        self.shared.post(self.plan.shard_of(target_node), env);
    }
}

/// Poisons the barrier if the owning thread unwinds, so peer shards
/// blocked on [`SpinBarrier::wait`] panic instead of spinning forever.
struct PoisonOnPanic<'a>(&'a SharedLockstep);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.barrier.poison();
        }
    }
}

/// Drive one shard to completion in conservative lockstep with its peers
/// (every shard of the run must call this with the same `shared`,
/// `horizon` and `lookahead`).
///
/// `on_inject` receives each envelope this shard owns; it must end by
/// calling [`Simulation::inject_remote`] (after any service-side
/// materialisation, e.g. `simnet`'s `ensure_conn`).
///
/// On return the shard clock matches a serial `run_until(horizon)`:
/// `horizon` if events remain beyond it anywhere, otherwise the time of
/// the globally last executed event.
///
/// [`Simulation::inject_remote`]: simcore::Simulation::inject_remote
pub fn run_lockstep(
    shard_ix: usize,
    sim: &mut Simulation,
    shared: &SharedLockstep,
    horizon: SimTime,
    lookahead: SimDuration,
    mut on_inject: impl FnMut(&mut Simulation, RemoteEnvelope),
) {
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative lockstep needs strictly positive lookahead"
    );
    let _poison = PoisonOnPanic(shared);
    let mut sense = false;
    // Force `on_start` before the first LBTS round: its timers are part
    // of the initial event population this shard is about to report.
    sim.start();
    let drained = loop {
        // Drain the mailbox. No peer writes between the execute barrier
        // and the post barrier, so this sees every envelope of the
        // previous window and nothing else.
        let incoming =
            std::mem::take(&mut *shared.mailboxes[shard_ix].lock().expect("mailbox poisoned"));
        for env in incoming {
            on_inject(sim, env);
        }
        let next = sim.next_event_time().map_or(NO_EVENTS, |t| t.as_micros());
        shared.times[shard_ix].store(next, Ordering::Release);
        shared.barrier.wait(&mut sense);
        // Every shard reads the same slot values here (writes only happen
        // after the *next* execute barrier), so all compute the same LBTS
        // and take the same branch.
        let lbts = shared
            .times
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        if lbts == NO_EVENTS {
            break true;
        }
        let lbts = SimTime::from_micros(lbts);
        if lbts > horizon {
            break false;
        }
        sim.run_window(lbts + lookahead, horizon);
        shared.barrier.wait(&mut sense);
    };
    // End-of-run clock normalisation, matching serial `run_until`: the
    // horizon when events remain past it, else the globally last executed
    // instant. Reuses the time slots for one more max-reduction round —
    // but only after a barrier: overwriting a slot while a slower peer is
    // still reading the all-drained verdict would send that peer down the
    // loop path and desynchronise the barrier counts (a deadlock).
    if drained {
        shared.barrier.wait(&mut sense);
        shared.times[shard_ix].store(sim.now().as_micros(), Ordering::Release);
        shared.barrier.wait(&mut sense);
        let last = shared
            .times
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .max()
            .expect("at least one shard");
        sim.advance_to(SimTime::from_micros(last));
    } else {
        sim.advance_to(horizon);
    }
}

/// Build, run and tear down a whole sharded simulation on scoped threads.
///
/// Each shard thread constructs its own full replica of the world
/// (`build` runs once per shard, *after* the locality filter, accounting
/// primary and mailbox router are installed, so plain `on_node` +
/// `add_actor` sequences shard correctly), drives it with
/// [`run_lockstep`], then reduces it to a `Send` partial via `extract`.
/// Returns the partials in shard order.
///
/// `build`'s return value is handed to `extract` on the same thread, so
/// thread-local build artifacts (e.g. `Rc` stats handles the world's
/// actors share with the driver) flow to extraction without needing to
/// be `Send`; only the extracted partial crosses threads.
pub fn run_sharded<B, T: Send>(
    plan: &ShardPlan,
    seed: u64,
    horizon: SimTime,
    lookahead: SimDuration,
    build: impl Fn(usize, &mut Simulation) -> B + Sync,
    inject: impl Fn(&mut Simulation, RemoteEnvelope) + Sync,
    extract: impl Fn(usize, Simulation, B) -> T + Sync,
) -> Vec<T> {
    let shards = plan.shards();
    let shared = Arc::new(SharedLockstep::new(shards));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard_ix| {
                let shared = Arc::clone(&shared);
                let plan = plan.clone();
                let build = &build;
                let inject = &inject;
                let extract = &extract;
                scope.spawn(move || {
                    let mut sim = Simulation::new(seed);
                    sim.set_locality(plan.locality(shard_ix));
                    sim.set_primary(shard_ix == 0);
                    sim.set_router(MailboxRouter::new(Arc::clone(&shared), plan));
                    let world = build(shard_ix, &mut sim);
                    run_lockstep(shard_ix, &mut sim, &shared, horizon, lookahead, |s, env| {
                        inject(s, env)
                    });
                    extract(shard_ix, sim, world)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Actor, Context, KernelStats, Payload, SimDuration, SimTime};
    use std::sync::{Arc, Mutex};

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(150);

    /// Execution log one shard accumulates: (at, actor ix, counter value).
    #[derive(Default)]
    struct Log(Vec<(u64, usize, u64)>);

    /// Ring of `n` actors (one per node): each receipt logs the counter,
    /// draws a per-actor random delay >= lookahead, and forwards
    /// counter+1 around the ring until `limit`.
    struct RingHop {
        ix: usize,
        next: simcore::ActorId,
        limit: u64,
    }

    impl Actor for RingHop {
        fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
            let n = *msg.downcast::<u64>().unwrap();
            let at = ctx.now().as_micros();
            let ix = self.ix;
            ctx.service_mut::<Log>().0.push((at, ix, n));
            if n < self.limit {
                let extra = ctx
                    .rng()
                    .duration_between(SimDuration::ZERO, SimDuration::from_micros(400));
                ctx.send_in(LOOKAHEAD + extra, self.next, n + 1);
            }
        }
        fn name(&self) -> &str {
            "ring-hop"
        }
    }

    /// Build the ring world: actor i on node i.
    fn build_ring(sim: &mut Simulation, nodes: usize, limit: u64) {
        let ids: Vec<simcore::ActorId> = (0..nodes).map(simcore::ActorId::from_index).collect();
        sim.add_service(Log::default());
        for i in 0..nodes {
            sim.on_node(i as u16);
            let id = sim.add_actor(RingHop {
                ix: i,
                next: ids[(i + 1) % nodes],
                limit,
            });
            assert_eq!(id, ids[i]);
        }
        // Two independent tokens so shards genuinely overlap.
        sim.schedule(SimDuration::from_micros(200), ids[0], Box::new(0u64));
        sim.schedule(
            SimDuration::from_micros(350),
            ids[nodes / 2],
            Box::new(1000u64),
        );
    }

    /// Canonical history: merged shard logs sorted by (at, actor, value).
    /// Each actor runs on exactly one shard and is internally FIFO, so
    /// this is a total order in both serial and sharded worlds.
    fn canonical(parts: Vec<Log>) -> Vec<(u64, usize, u64)> {
        let mut all: Vec<_> = parts.into_iter().flat_map(|l| l.0).collect();
        all.sort_unstable();
        all
    }

    fn serial_run(
        nodes: usize,
        limit: u64,
        horizon: SimTime,
    ) -> (Vec<(u64, usize, u64)>, KernelStats, SimTime) {
        let mut sim = Simulation::new(42);
        build_ring(&mut sim, nodes, limit);
        sim.run_until(horizon);
        let log = std::mem::take(sim.service_mut::<Log>().unwrap());
        (canonical(vec![log]), sim.stats(), sim.now())
    }

    fn sharded_run(
        shards: usize,
        nodes: usize,
        limit: u64,
        horizon: SimTime,
    ) -> (Vec<(u64, usize, u64)>, KernelStats, SimTime) {
        let plan = ShardPlan::new((0..nodes).map(|n| n % shards).collect(), shards);
        let parts = run_sharded(
            &plan,
            42,
            horizon,
            LOOKAHEAD,
            |_, sim| build_ring(sim, nodes, limit),
            |sim, env| sim.inject_remote(env),
            |_, mut sim, ()| {
                let log = std::mem::take(sim.service_mut::<Log>().unwrap());
                (log, sim.stats(), sim.now())
            },
        );
        let nows: Vec<SimTime> = parts.iter().map(|p| p.2).collect();
        assert!(
            nows.windows(2).all(|w| w[0] == w[1]),
            "shard clocks disagree"
        );
        let stats = KernelStats::merged(&parts.iter().map(|p| p.1.clone()).collect::<Vec<_>>());
        let now = nows[0];
        (
            canonical(parts.into_iter().map(|p| p.0).collect()),
            stats,
            now,
        )
    }

    #[test]
    fn sharded_ring_matches_serial_exactly() {
        let horizon = SimTime::from_secs(60);
        let (serial_log, serial_stats, serial_now) = serial_run(8, 40, horizon);
        assert!(!serial_log.is_empty());
        for shards in [1, 2, 4] {
            let (log, stats, now) = sharded_run(shards, 8, 40, horizon);
            assert_eq!(log, serial_log, "{shards} shards: event history diverged");
            assert_eq!(
                stats.determinism_digest(),
                serial_stats.determinism_digest(),
                "{shards} shards: kernel accounting diverged"
            );
            assert_eq!(now, serial_now, "{shards} shards: final clock diverged");
        }
    }

    #[test]
    fn horizon_cuts_sharded_and_serial_at_the_same_instant() {
        // Horizon inside the run: events remain, clock normalises to it.
        let horizon = SimTime::from_millis(5);
        let (serial_log, _, serial_now) = serial_run(6, 1_000, horizon);
        assert_eq!(serial_now, horizon);
        let (log, _, now) = sharded_run(3, 6, 1_000, horizon);
        assert_eq!(log, serial_log);
        assert_eq!(now, horizon);
    }

    #[test]
    fn empty_shards_idle_at_the_barrier() {
        // 4 shards, 2 nodes: shards 2 and 3 host nothing and must still
        // terminate.
        let horizon = SimTime::from_secs(60);
        let (serial_log, _, _) = serial_run(2, 10, horizon);
        let plan = ShardPlan::new(vec![0, 1], 4);
        let parts = run_sharded(
            &plan,
            42,
            horizon,
            LOOKAHEAD,
            |_, sim| build_ring(sim, 2, 10),
            |sim, env| sim.inject_remote(env),
            |_, mut sim, ()| std::mem::take(sim.service_mut::<Log>().unwrap()),
        );
        assert_eq!(canonical(parts), serial_log);
    }

    #[test]
    fn plan_rejects_out_of_range_assignments() {
        let r = std::panic::catch_unwind(|| ShardPlan::new(vec![0, 3], 2));
        assert!(r.is_err());
        let plan = ShardPlan::new(vec![0, 1, 0], 2);
        assert_eq!(plan.shard_of(1), 1);
        assert_eq!(plan.shard_of(99), 0, "unmapped nodes fall back to shard 0");
        assert!(plan.locality(1)(1));
        assert!(!plan.locality(1)(0));
    }

    #[test]
    fn barrier_poisoning_unblocks_peers() {
        let plan = ShardPlan::new(vec![0, 1], 2);
        let result = std::panic::catch_unwind(|| {
            run_sharded(
                &plan,
                1,
                SimTime::from_secs(1),
                LOOKAHEAD,
                |shard_ix, sim| {
                    sim.on_node(shard_ix as u16);
                    struct Bomb;
                    impl Actor for Bomb {
                        fn on_start(&mut self, ctx: &mut Context<'_>) {
                            ctx.timer(SimDuration::from_micros(10), ());
                        }
                        fn handle(&mut self, _m: Payload, _c: &mut Context<'_>) {
                            panic!("boom");
                        }
                    }
                    // Both shards build both actors; only one hosts the bomb.
                    sim.on_node(0);
                    sim.add_actor(Bomb);
                    sim.on_node(1);
                    sim.add_actor(simcore::NullActor);
                },
                |sim, env| sim.inject_remote(env),
                |_, _, ()| (),
            )
        });
        assert!(result.is_err(), "panic must propagate, not deadlock");
    }

    #[test]
    fn mailbox_order_is_irrelevant() {
        // Post two envelopes to one shard in "wrong" wall order; the keyed
        // queue still fires them in key order.
        let shared = SharedLockstep::new(1);
        let mut sim = Simulation::new(7);
        let seen: Arc<Mutex<Vec<u32>>> = Default::default();
        let s2 = Arc::clone(&seen);
        let a = sim.add_actor(simcore::FnActor(move |m: Payload, _c: &mut Context| {
            s2.lock().unwrap().push(*m.downcast::<u32>().unwrap());
        }));
        for (lane_seq, val) in [(1, 2u32), (0, 1u32)] {
            shared.post(
                0,
                RemoteEnvelope {
                    at: SimTime::from_micros(500),
                    lane: 9,
                    lane_seq,
                    target: a,
                    payload: Box::new(val),
                    type_name: Some("u32"),
                },
            );
        }
        run_lockstep(
            0,
            &mut sim,
            &shared,
            SimTime::from_secs(1),
            LOOKAHEAD,
            |s, env| s.inject_remote(env),
        );
        assert_eq!(&*seen.lock().unwrap(), &[1, 2]);
    }
}
