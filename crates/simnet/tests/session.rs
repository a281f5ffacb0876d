//! The shared broker session, driven by a toy protocol against a scripted
//! broker: backoff schedule, connect deadlines, attempt budget, give-up.

use simcore::{Actor, Context, Payload, SimDuration, SimRng, SimTime, Simulation};
use simnet::session::{
    backoff_step, ClientTimer, Fired, ReconnectPolicy, SessionProtocol, SessionSet,
};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric, Transport};
use simos::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Connect,
    Disconnect,
    Ping,
}

/// Broker→client: the only answer the toy protocol has.
struct Ack;

struct Toy;

impl SessionProtocol for Toy {
    type Frame = Frame;
    type Timer = ();
    /// Times the connection was abandoned for a replacement.
    type State = u32;
    const COMPONENT: simprof::Component = simprof::Component::NetFabric;
    const RECONNECT_COUNTER: &'static str = "toy.reconnect_attempts";
    const CONTROL_FRAME_BYTES: usize = 32;
    const CONNECT: Frame = Frame::Connect;
    const DISCONNECT: Frame = Frame::Disconnect;

    fn heartbeat(_: &u32) -> Frame {
        Frame::Ping
    }
    fn abandon(abandoned: &mut u32, _: &mut Context<'_>) {
        *abandoned += 1;
    }
}

/// What the host saw, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Connected(ConnId),
    Reconnected(ConnId),
    Reconnecting { old: ConnId, new: ConnId },
    Lost { conn: ConnId, abandoned: u32 },
}

type Log<T> = Rc<RefCell<Vec<(SimTime, T)>>>;

struct Host {
    sessions: SessionSet<Toy>,
    broker_ep: Endpoint,
    policy: ReconnectPolicy,
    seen: Log<Seen>,
}

impl Actor for Host {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.sessions
            .open(ctx, self.broker_ep, Transport::Tcp, Some(self.policy), 0);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let msg = match msg.downcast::<ClientTimer>() {
            Ok(timer) => {
                match self.sessions.fire(ctx, *timer) {
                    Fired::Idle => {}
                    Fired::Own(()) => unreachable!("the toy arms no timers of its own"),
                    Fired::Reconnecting { old, new } => {
                        let seen = Seen::Reconnecting { old, new };
                        self.seen.borrow_mut().push((now, seen));
                    }
                    Fired::Lost(conn, abandoned) => {
                        let seen = Seen::Lost { conn, abandoned };
                        self.seen.borrow_mut().push((now, seen));
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let d = msg.downcast::<Delivery>().expect("timer or delivery");
        self.sessions.heard_from(ctx, d.conn);
        let ready = self.sessions.get(d.conn).is_some_and(|s| s.is_ready());
        if !ready {
            // The first Ack on a connection is its ConnectOk.
            if let Some(was_reconnect) = self.sessions.connect_ok(ctx, d.conn) {
                let seen = if was_reconnect {
                    Seen::Reconnected(d.conn)
                } else {
                    Seen::Connected(d.conn)
                };
                self.seen.borrow_mut().push((now, seen));
                self.sessions.start_heartbeat(ctx, d.conn);
            }
        }
    }
}

/// Acks every frame (but a goodbye) received inside one of its `up`
/// windows and stays silent otherwise, like a crashed broker.
struct Broker {
    node: NodeId,
    up: Vec<(SimTime, SimTime)>,
    frames: Log<(ConnId, Frame)>,
}

impl Actor for Broker {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let d = msg.downcast::<Delivery>().expect("deliveries only");
        let frame = *d.payload.downcast::<Frame>().expect("toy frame");
        let now = ctx.now();
        self.frames.borrow_mut().push((now, (d.conn, frame)));
        let up = self.up.iter().any(|&(from, to)| from <= now && now < to);
        if up && frame != Frame::Disconnect {
            let me = Endpoint::new(self.node, ctx.self_id());
            ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                net.send(ctx, d.conn, me, 32, Box::new(Ack));
            });
        }
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn policy() -> ReconnectPolicy {
    ReconnectPolicy {
        heartbeat_interval: SimDuration::from_millis(500),
        detect_timeout: SimDuration::from_secs(2),
        backoff_initial: SimDuration::from_millis(200),
        backoff_max: SimDuration::from_secs(1),
        max_attempts: 3,
    }
}

type Run = (Vec<(SimTime, Seen)>, Vec<(SimTime, (ConnId, Frame))>);

/// One host against a broker that is up during the `up` windows, for 60
/// simulated seconds: what the host saw and what reached the broker.
fn run(up: &[(SimTime, SimTime)]) -> Run {
    let mut sim = Simulation::new(7);
    sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
    let frames: Log<(ConnId, Frame)> = Default::default();
    let seen: Log<Seen> = Default::default();
    let broker = sim.add_actor(Broker {
        node: NodeId(0),
        up: up.to_vec(),
        frames: frames.clone(),
    });
    sim.add_actor(Host {
        sessions: SessionSet::new(NodeId(1)),
        broker_ep: Endpoint::new(NodeId(0), broker),
        policy: policy(),
        seen: seen.clone(),
    });
    sim.run_until(secs(60));
    let seen = seen.borrow().clone();
    let frames = frames.borrow().clone();
    (seen, frames)
}

fn kinds(seen: &[(SimTime, Seen)]) -> Vec<&'static str> {
    seen.iter()
        .map(|(_, s)| match s {
            Seen::Connected(_) => "connected",
            Seen::Reconnected(_) => "reconnected",
            Seen::Reconnecting { .. } => "reconnecting",
            Seen::Lost { .. } => "lost",
        })
        .collect()
}

#[test]
fn backoff_is_equal_jitter_capped_and_the_shift_saturates() {
    let p = policy();
    let mut rng = SimRng::new(1);
    for attempt in (0..40).chain([u32::MAX]) {
        let base = backoff_step(p.backoff_initial, p.backoff_max, attempt.saturating_sub(1));
        assert!(base <= p.backoff_max);
        for _ in 0..50 {
            let b = p.backoff(attempt, &mut rng);
            assert!(base / 2 <= b && b <= base, "attempt {attempt}: {b:?}");
        }
    }
    let ms = SimDuration::from_millis;
    assert_eq!(backoff_step(ms(200), ms(1000), 0), ms(200));
    assert_eq!(backoff_step(ms(200), ms(1000), 2), ms(800));
    assert_eq!(backoff_step(ms(200), ms(1000), 3), ms(1000));
    // Past 20 doublings the shift saturates instead of overflowing.
    assert_eq!(
        backoff_step(ms(1), SimDuration::MAX, 64),
        backoff_step(ms(1), SimDuration::MAX, 20)
    );
}

#[test]
fn unanswered_initial_connect_retries_through_backoff_then_gives_up() {
    let (seen, frames) = run(&[]);
    let p = policy();
    assert_eq!(
        kinds(&seen),
        ["reconnecting", "reconnecting", "reconnecting", "lost"]
    );
    // The deadline of the initial connect (attempt 0) and of attempt 1
    // back off from the first step, attempt 2 from the doubled one; each
    // retry dials one detect timeout plus that jittered wait after the
    // previous dial, over a chain of replacement connections.
    let mut dialled = SimTime::ZERO;
    let mut conn = None;
    for (&(at, s), doublings) in seen.iter().zip([0, 0, 1]) {
        let Seen::Reconnecting { old, new } = s else {
            unreachable!("checked above");
        };
        assert!(conn.is_none_or(|c| c == old));
        let base = backoff_step(p.backoff_initial, p.backoff_max, doublings);
        let waited = at.saturating_since(dialled);
        assert!(
            p.detect_timeout + base / 2 <= waited && waited <= p.detect_timeout + base,
            "waited {waited:?} before dialling {new:?}"
        );
        dialled = at;
        conn = Some(new);
    }
    // The last attempt's deadline finds the budget spent.
    let lost = Seen::Lost {
        conn: conn.expect("reconnected"),
        abandoned: 3,
    };
    assert_eq!(seen[3], (dialled + p.detect_timeout, lost));
    // On the wire: four Connects, and a goodbye on every abandoned
    // connection so a slow-but-alive broker can free its thread.
    let count = |f: Frame| frames.iter().filter(|(_, (_, g))| *g == f).count();
    assert_eq!(count(Frame::Connect), 4);
    assert_eq!(count(Frame::Disconnect), 4);
    assert_eq!(count(Frame::Ping), 0);
}

#[test]
fn late_first_connect_is_a_connect_and_stale_deadlines_are_ignored() {
    // The broker comes up after the first deadline: attempt 0 times out,
    // the retry connects. That is still the *first* connect.
    let (seen, frames) = run(&[(secs(2), SimTime::MAX)]);
    assert_eq!(kinds(&seen), ["reconnecting", "connected"]);
    // The retry's own deadline fires 2 s later on a Ready connection, and
    // nothing comes of it: heartbeats keep the session alive to the end.
    let Seen::Connected(conn) = seen[1].1 else {
        unreachable!("checked above");
    };
    let pings = frames
        .iter()
        .filter(|(_, (c, f))| *c == conn && *f == Frame::Ping)
        .count();
    assert!(pings > 100, "a ping every 500 ms for ~57 s, saw {pings}");
}

#[test]
fn an_outage_is_detected_and_a_successful_connect_refunds_the_budget() {
    let p = policy();
    // Up, down long enough to burn most of the three attempts, up again.
    let (seen, _) = run(&[(SimTime::ZERO, secs(5)), (secs(11), SimTime::MAX)]);
    let k = kinds(&seen);
    assert_eq!(k[0], "connected");
    assert_eq!(*k.last().unwrap(), "reconnected", "{k:?}");
    let failed = k.len() - 2;
    assert!((2..=3).contains(&failed), "{k:?}");
    // Silence is only declared once the detect timeout has passed.
    assert!(seen[1].0 + p.heartbeat_interval >= secs(5) + p.detect_timeout);

    // Same outage, but the broker dies for good right after recovering:
    // the second outage gets the full three attempts, not the leftover.
    let (seen, _) = run(&[(SimTime::ZERO, secs(5)), (secs(11), secs(14))]);
    let k2 = kinds(&seen);
    assert_eq!(k2[..k.len()], k[..]);
    assert_eq!(
        k2[k.len()..],
        ["reconnecting", "reconnecting", "reconnecting", "lost"]
    );
    // Every failed attempt of either outage went through the abandon hook.
    let Seen::Lost { abandoned, .. } = seen.last().unwrap().1 else {
        unreachable!("checked above");
    };
    assert_eq!(abandoned as usize, failed + 3);
}
