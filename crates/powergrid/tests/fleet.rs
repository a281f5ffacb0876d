//! The generic fleet driver against a scripted protocol: creation stagger,
//! warm-up, publish count and cadence, and its reaction to every signal.

use powergrid::{ClientSet, Fleet, FleetConfig, FleetProtocol, GeneratorState, Signal};
use simcore::{ActorId, Context, FastMap, SimDuration, SimTime, Simulation};
use simnet::{Delivery, Endpoint};
use simos::{NodeId, NodeSpec, OsModel, ProcessSpec};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Up(u32),
    No(u32),
    Moved(u32, u32),
    Gone(u32),
    GaveUp,
    /// Something the fleet has no use for.
    Noise,
}

/// Fires `events` on the fleet `after` the connection was opened.
struct Cue {
    after: SimDuration,
    events: Vec<Event>,
}

struct Fired(u64);

/// A client set that plays back, per generator, the cues of a script.
struct Scripted {
    script: FastMap<u32, Vec<Cue>>,
    armed: FastMap<u64, Vec<Event>>,
    next_token: u64,
}

impl ClientSet for Scripted {
    type Timer = Fired;
    type Event = Event;

    fn on_timer(&mut self, _: &mut Context<'_>, timer: Fired) -> Vec<Event> {
        self.armed.remove(&timer.0).expect("armed once")
    }

    fn on_delivery(&mut self, _: &mut Context<'_>, _: Delivery) -> Vec<Event> {
        unreachable!("nothing is on the network")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Open {
        gen_id: u32,
        handle: u32,
    },
    Publish {
        gen_id: u32,
        handle: u32,
        msg_id: u64,
    },
}

struct Fake {
    set: Scripted,
    calls: Rc<RefCell<Vec<(SimTime, Call)>>>,
}

impl FleetProtocol for Fake {
    type Client = Scripted;
    type Handle = u32;
    const RNG_SALT: u64 = 99;
    const NAME: &'static str = "fake-fleet";

    fn client(&mut self) -> &mut Scripted {
        &mut self.set
    }

    /// Generator `g` gets handle `100 + g`.
    fn open(&mut self, ctx: &mut Context<'_>, _: Endpoint, gen_id: u32) -> u32 {
        let handle = 100 + gen_id;
        let call = Call::Open { gen_id, handle };
        self.calls.borrow_mut().push((ctx.now(), call));
        for cue in self.set.script.remove(&gen_id).unwrap_or_default() {
            self.set.next_token += 1;
            self.set.armed.insert(self.set.next_token, cue.events);
            ctx.timer(cue.after, Fired(self.set.next_token));
        }
        handle
    }

    fn publish(&mut self, ctx: &mut Context<'_>, handle: u32, gen: &GeneratorState, msg_id: u64) {
        let call = Call::Publish {
            gen_id: gen.id,
            handle,
            msg_id,
        };
        self.calls.borrow_mut().push((ctx.now(), call));
    }

    fn classify(event: &Event) -> Option<Signal<u32>> {
        match *event {
            Event::Up(h) => Some(Signal::Ready(h)),
            Event::No(h) => Some(Signal::Refused(h)),
            Event::Moved(old, new) => Some(Signal::Remapped { old, new }),
            Event::Gone(h) => Some(Signal::Lost(h)),
            Event::GaveUp => Some(Signal::Abandoned),
            Event::Noise => None,
        }
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn fleet_drives_every_generator_through_its_script() {
    const FIRST_ID: u32 = 40;
    const MSGS: u32 = 3;
    let creation = ms(500);
    let warmup = (ms(1_000), ms(2_000));
    let period = ms(1_000);
    let cue = |after, events: &[Event]| Cue {
        after: ms(after),
        events: events.to_vec(),
    };
    // Handles are 100 + generator id; every connection answers 100 ms
    // after it was opened.
    let script = FastMap::from_iter([
        // Connects and runs to completion.
        (40, vec![cue(100, &[Event::Noise, Event::Up(140)])]),
        // Connects, fails over between its first publish (≤ 2.1 s after
        // opening) and its second (≥ 2.1 s), and the reconnect is refused.
        (
            41,
            vec![
                cue(100, &[Event::Up(141)]),
                cue(2_100, &[Event::Moved(141, 941), Event::No(941)]),
            ],
        ),
        // Connects, fails over to handle 942 likewise, and carries on.
        (
            42,
            vec![
                cue(100, &[Event::Up(142)]),
                cue(2_100, &[Event::Moved(142, 942)]),
            ],
        ),
        // Connects, then is lost for good right after its first publish,
        // taking two buffered publishes with it.
        (
            43,
            vec![
                cue(100, &[Event::Up(143)]),
                cue(2_100, &[Event::Gone(143), Event::GaveUp, Event::GaveUp]),
            ],
        ),
    ]);

    let mut sim = Simulation::new(11);
    let mut os = OsModel::new();
    let node = os.add_node(NodeSpec::hydra("driver", 0.0));
    let proc = os.add_process(node, ProcessSpec::jvm_1g());
    sim.add_service(os);
    let calls: Rc<RefCell<Vec<(SimTime, Call)>>> = Default::default();
    let fleet = Fleet::new(
        FleetConfig {
            proc,
            server_ep: Endpoint::new(NodeId(0), ActorId::NONE),
            n_generators: 4,
            first_id: FIRST_ID,
            creation_interval: creation,
            warmup,
            publish_interval: period,
            msgs_per_generator: MSGS,
        },
        Fake {
            set: Scripted {
                script,
                armed: FastMap::default(),
                next_token: 0,
            },
            calls: calls.clone(),
        },
    );
    let stats = fleet.stats_handle();
    sim.add_actor(fleet);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let calls = calls.borrow();

    // Creation stagger: generator i opens at i × creation_interval.
    let opens: Vec<(SimTime, Call)> = calls
        .iter()
        .copied()
        .filter(|(_, c)| matches!(c, Call::Open { .. }))
        .collect();
    for (i, &(at, call)) in opens.iter().enumerate() {
        let gen_id = FIRST_ID + i as u32;
        let handle = 100 + gen_id;
        assert_eq!(at, SimTime::ZERO + creation.saturating_mul(i as u64));
        assert_eq!(call, Call::Open { gen_id, handle });
    }
    assert_eq!(opens.len(), 4);

    let publishes = |gen: u32| -> Vec<(SimTime, u32)> {
        calls
            .iter()
            .filter_map(|&(at, c)| match c {
                Call::Publish { gen_id, handle, .. } if gen_id == gen => Some((at, handle)),
                _ => None,
            })
            .collect()
    };
    // Warm-up in range after *ready*, then exactly `msgs_per_generator`
    // publishes one period apart.
    let p40 = publishes(40);
    let ready = SimTime::ZERO + ms(100);
    let first = p40[0].0;
    assert!(ready + warmup.0 <= first && first <= ready + warmup.1);
    let times: Vec<SimTime> = p40.iter().map(|&(at, _)| at).collect();
    assert_eq!(times, [first, first + period, first + period + period]);
    assert!(p40.iter().all(|&(_, h)| h == 140));
    // Refused (here: a refused reconnect, the one refusal that can find
    // ticks running): slot cleared, the ticks stop.
    assert_eq!(publishes(41).len(), 1);
    // Remapped: all three go out, the later ones on the new handle.
    let handles: Vec<u32> = publishes(42).iter().map(|&(_, h)| h).collect();
    assert_eq!(handles, [142, 942, 942]);
    // Lost: the ticks stop after the one publish that preceded the loss.
    assert_eq!(publishes(43).len(), 1);

    // Message ids are dense across the fleet, in publish order.
    let ids: Vec<u64> = calls
        .iter()
        .filter_map(|&(_, c)| match c {
            Call::Publish { msg_id, .. } => Some(msg_id),
            _ => None,
        })
        .collect();
    assert_eq!(ids, (1..=8).collect::<Vec<u64>>());

    let s = stats.borrow();
    assert_eq!(
        (s.connected, s.refused, s.published, s.abandoned, s.lost),
        (4, 1, 8, 2, 1)
    );
}
