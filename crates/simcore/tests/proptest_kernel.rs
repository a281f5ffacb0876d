//! Property tests for the simulation kernel: global time ordering with
//! deterministic tie-breaks, event conservation in the kernel's one
//! accounting record, and RNG stream independence.

use proptest::prelude::*;
use simcore::{
    Actor, ActorId, Context, EventQueue, Payload, RunOutcome, SimDuration, SimRng, SimTime,
    Simulation,
};

/// Ids from here up are never registered: a send to one is dropped.
const NOBODY: usize = 10_000;

/// One scripted instruction, carried to an actor by the external lane and
/// passed on from actor to actor until `hops` runs out.
#[derive(Clone, Copy, Debug)]
struct Cmd {
    op: u8,
    arg: u8,
    hops: u8,
}

#[derive(Debug)]
struct Ping;

#[derive(Debug)]
struct Tick;

/// Events handed to a live actor, counted by the actors themselves.
struct Handled(u64);

/// Obeys each `Cmd` with the actor path's kinds of send: to a peer, a
/// timer, a spawned child, an already-boxed forward, an id nobody holds.
struct Scripted {
    peers: usize,
}

impl Actor for Scripted {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        ctx.service_mut::<Handled>().0 += 1;
        let Ok(cmd) = msg.downcast::<Cmd>() else {
            return;
        };
        let peer = ActorId::from_index(usize::from(cmd.arg) % self.peers);
        let delay = SimDuration::from_micros(ctx.rng().range_u64(0, 50));
        match cmd.op % 5 {
            0 => ctx.send_in(delay, peer, Ping),
            1 => ctx.timer(delay, Tick),
            2 => {
                let child = ctx.spawn(Scripted { peers: self.peers });
                ctx.send_now(child, Ping);
            }
            3 => ctx.send_in(delay, peer, u64::from(cmd.arg)),
            _ => ctx.send_in(
                delay,
                ActorId::from_index(NOBODY + usize::from(cmd.arg)),
                Ping,
            ),
        }
        if cmd.hops > 0 {
            let next = Cmd {
                op: cmd.op.wrapping_add(cmd.arg),
                arg: cmd.arg.wrapping_mul(7).wrapping_add(1),
                hops: cmd.hops - 1,
            };
            ctx.send_in(delay, peer, next);
        }
    }
}

/// Run one script: `(op, arg, delay_us)` triples, each an external
/// schedule of a `Cmd` to one of `actors` — or, for `op` 5, of a bare
/// `()` to an id nobody registered.
fn run_script(seed: u64, actors: usize, script: &[(u8, u8, u16)]) -> (Simulation, u64) {
    let mut sim = Simulation::new(seed);
    sim.add_service(Handled(0));
    for _ in 0..actors {
        sim.add_actor(Scripted { peers: actors });
    }
    for &(op, arg, delay) in script {
        let delay = SimDuration::from_micros(u64::from(delay));
        if op == 5 {
            sim.schedule(
                delay,
                ActorId::from_index(NOBODY + usize::from(arg)),
                Box::new(()),
            );
        } else {
            let target = ActorId::from_index(usize::from(arg) % actors);
            sim.schedule(delay, target, Box::new(Cmd { op, arg, hops: 3 }));
        }
    }
    assert_eq!(sim.run_to_completion(1_000_000), RunOutcome::QueueEmpty);
    let handled = sim.service::<Handled>().unwrap().0;
    (sim, handled)
}

proptest! {
    #[test]
    fn queue_pops_in_time_then_fifo_order(
        times in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), ActorId::from_index(0), Box::new(i));
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            let ix = *ev.payload.downcast::<usize>().unwrap();
            popped.push((ev.at.as_micros(), ix));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    #[test]
    fn queue_conserves_events(
        times in proptest::collection::vec(0u64..1000, 0..100),
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_micros(t), ActorId::from_index(1), Box::new(()));
        }
        prop_assert_eq!(q.len(), times.len());
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        prop_assert_eq!(n, times.len());
        prop_assert!(q.is_empty());
    }

    #[test]
    fn kernel_conserves_events_by_type(
        seed in any::<u64>(),
        actors in 1usize..5,
        script in proptest::collection::vec((0u8..6, any::<u8>(), 0u16..500), 0..40),
    ) {
        let (sim, handled) = run_script(seed, actors, &script);
        let stats = sim.stats();
        for t in &stats.by_type {
            prop_assert_eq!(t.scheduled, t.executed + t.dropped, "type {}", t.name);
        }
        let column = |f: fn(&simcore::EventTypeStat) -> u64| -> u64 {
            stats.by_type.iter().map(f).sum()
        };
        prop_assert_eq!(stats.scheduled_total, column(|t| t.scheduled));
        prop_assert_eq!(stats.events_processed, column(|t| t.executed));
        prop_assert_eq!(stats.events_dropped, column(|t| t.dropped));
        prop_assert_eq!(stats.timer_scheduled, column(|t| t.timers));
        prop_assert_eq!(
            stats.message_scheduled,
            stats.scheduled_total - stats.timer_scheduled
        );
        prop_assert_eq!(stats.events_processed, handled);
        let (again, _) = run_script(seed, actors, &script);
        prop_assert_eq!(stats.determinism_digest(), again.stats().determinism_digest());
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let root = SimRng::new(seed);
        let mut s1 = root.derive(a);
        let mut s1b = root.derive(a);
        let mut s2 = root.derive(b);
        let v1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let v1b: Vec<u64> = (0..8).map(|_| s1b.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        prop_assert_eq!(&v1, &v1b, "same stream id must replay");
        prop_assert_ne!(&v1, &v2, "distinct stream ids must differ");
    }

    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let v = rng.range_u64(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }
}
