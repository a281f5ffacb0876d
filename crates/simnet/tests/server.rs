//! The shared server skeleton, driven by a scripted raw client against a
//! toy server in a tiny process: what a connection costs, refusal at
//! either limit, the inbound gate, crash and restart, and the servlets'
//! thread-only way in.

use simcore::{Actor, Context, Payload, SimDuration, SimTime, Simulation};
use simfault::{FaultInjector, FaultSignal};
use simnet::http::{Caller, HttpResponse};
use simnet::server::{Acceptor, Inbound};
use simnet::{ConnId, Delivery, Endpoint, FabricConfig, NetworkFabric, Transport};
use simos::{Bytes, NodeId, NodeSpec, OsModel, ProcessId, ProcessSpec};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Connect,
    Disconnect,
    Say(u32),
}

/// Server→client. `Heard` echoes the number said and the serial the server
/// accepted the connection under.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Accepted,
    Refused(String),
    Heard { said: u32, serial: u32 },
}

/// What the toy server saw at its gate, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Gate {
    Crashed(Vec<(ConnId, u32)>),
    Restarted,
    Dropped,
    NotMine,
}

type Log<T> = Rc<RefCell<Vec<T>>>;

/// A server on the skeleton: its per-connection state is the serial
/// number it accepted the connection under.
struct Toy {
    server: Acceptor<u32>,
    accepted: u32,
    gate: Log<Gate>,
}

impl Actor for Toy {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let opens = |f: &Frame| *f == Frame::Connect;
        let (conn, frame) = match self.server.inbound(ctx, msg, opens) {
            Inbound::Frame { conn, frame, .. } => (conn, frame),
            Inbound::Crashed(held) => return self.gate.borrow_mut().push(Gate::Crashed(held)),
            Inbound::Restarted => return self.gate.borrow_mut().push(Gate::Restarted),
            Inbound::Dropped => return self.gate.borrow_mut().push(Gate::Dropped),
            Inbound::NotMine(_) => return self.gate.borrow_mut().push(Gate::NotMine),
        };
        let now = ctx.now();
        let answer = match frame {
            Frame::Connect => match self.server.accept(ctx, conn, self.accepted) {
                Ok(()) => {
                    self.accepted += 1;
                    Answer::Accepted
                }
                Err(e) => Answer::Refused(e.to_string()),
            },
            Frame::Disconnect => {
                self.server.release(ctx, conn).expect("the gate checked");
                return;
            }
            Frame::Say(said) => {
                let serial = *self.server.state(conn).expect("the gate checked");
                Answer::Heard { said, serial }
            }
        };
        self.server.send_at(ctx, conn, 32, answer, now);
    }
}

/// One line of the client's script. Connections are named by the order
/// they are opened in.
#[derive(Debug, Clone, Copy)]
enum Step {
    Open,
    Tell(usize, Frame),
    /// Hand the server a fault signal, as the fault driver does.
    Signal(FaultSignal),
    /// Hand the server something that is no frame at all.
    Poke,
    /// Record the server process's `(threads, heap used)`.
    Observe,
}

struct Due(usize);

struct Client {
    node: NodeId,
    server: Endpoint,
    proc: ProcessId,
    script: Vec<Step>,
    conns: Log<ConnId>,
    answers: Log<(usize, Answer)>,
    observed: Log<(u32, Bytes)>,
}

impl Actor for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for ix in 0..self.script.len() {
            ctx.timer(SimDuration::from_millis(100 * (ix as u64 + 1)), Due(ix));
        }
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let msg = match msg.downcast::<Due>() {
            Ok(due) => {
                let me = Endpoint::new(self.node, ctx.self_id());
                match self.script[due.0] {
                    Step::Open => {
                        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                            net.open(ctx.now(), Transport::Tcp, me, self.server)
                        });
                        self.conns.borrow_mut().push(conn);
                    }
                    Step::Tell(ix, frame) => {
                        let conn = self.conns.borrow()[ix];
                        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
                            net.send(ctx, conn, me, 32, Box::new(frame));
                        });
                    }
                    Step::Signal(signal) => {
                        ctx.send_in(SimDuration::ZERO, self.server.actor, signal)
                    }
                    Step::Poke => ctx.send_in(SimDuration::ZERO, self.server.actor, "poke"),
                    Step::Observe => {
                        let mem = ctx.service::<OsModel>().mem(self.proc);
                        let seen = (mem.threads(), Bytes(mem.heap_used().0 - BASELINE.0));
                        self.observed.borrow_mut().push(seen);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let d = msg.downcast::<Delivery>().expect("timer or delivery");
        let ix = self.conns.borrow().iter().position(|&c| c == d.conn);
        let answer = *d.payload.downcast::<Answer>().expect("toy answer");
        self.answers.borrow_mut().push((ix.expect("mine"), answer));
    }
}

const BASELINE: Bytes = Bytes::mib(24);

/// A process on a Hydra node (1792 MiB free) that fits `threads` threads
/// and `heap_mib` of heap beyond its baseline.
fn tiny(threads: u64, heap_mib: u64) -> ProcessSpec {
    let heap_cap = Bytes(BASELINE.0 + Bytes::mib(heap_mib).0);
    ProcessSpec {
        heap_cap,
        stack_size: Bytes((Bytes::mib(1792).0 - heap_cap.0) / threads),
        baseline: BASELINE,
    }
}

struct Run {
    /// `(connection, answer)` in arrival order.
    answers: Vec<(usize, Answer)>,
    /// `(threads, heap beyond the baseline)` per `Observe`.
    observed: Vec<(u32, Bytes)>,
    gate: Vec<Gate>,
    conns: Vec<ConnId>,
    crash_drops: u64,
}

/// A server node with one `spec` process on it, a client node, the
/// fabric between them and a fault injector to count crash drops.
fn world(spec: ProcessSpec) -> (Simulation, NodeId, NodeId, ProcessId) {
    let mut sim = Simulation::new(7);
    let mut os = OsModel::new();
    let server_node = os.add_node(NodeSpec::hydra("hydra1", 0.0));
    let client_node = os.add_node(NodeSpec::hydra("hydra2", 0.0));
    let proc = os.add_process(server_node, spec);
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
    sim.add_service(FaultInjector::new(7));
    (sim, server_node, client_node, proc)
}

/// Play `script`, one step every 100 ms, against a toy server in a
/// `spec` process that charges `heap_per_conn` per connection.
fn run(spec: ProcessSpec, heap_per_conn: Bytes, script: &[Step]) -> Run {
    let (mut sim, server_node, client_node, proc) = world(spec);
    let gate: Log<Gate> = Default::default();
    let toy = sim.add_actor(Toy {
        server: Acceptor::new(server_node, proc, heap_per_conn),
        accepted: 0,
        gate: gate.clone(),
    });
    let answers: Log<(usize, Answer)> = Default::default();
    let observed: Log<(u32, Bytes)> = Default::default();
    let conns: Log<ConnId> = Default::default();
    sim.add_actor(Client {
        node: client_node,
        server: Endpoint::new(server_node, toy),
        proc,
        script: script.to_vec(),
        conns: conns.clone(),
        answers: answers.clone(),
        observed: observed.clone(),
    });
    sim.run_until(SimTime::from_secs(60));
    let crash_drops = sim.service::<FaultInjector>().unwrap().stats.crash_drops;
    let (answers, observed) = (answers.borrow().clone(), observed.borrow().clone());
    let (gate, conns) = (gate.borrow().clone(), conns.borrow().clone());
    Run {
        answers,
        observed,
        gate,
        conns,
        crash_drops,
    }
}

use Step::{Observe, Open, Poke, Signal, Tell};

fn mib(n: u64) -> Bytes {
    Bytes::mib(n)
}

#[test]
fn refuses_at_the_heap_limit_and_gives_the_thread_back() {
    // 1000 MiB of heap, 400 MiB a connection: the third does not fit.
    let script = [
        Open,
        Tell(0, Frame::Connect),
        Open,
        Tell(1, Frame::Connect),
        Open,
        Tell(2, Frame::Connect),
        Observe,
    ];
    let run = run(tiny(100, 1000), mib(400), &script);
    assert_eq!(run.answers[0], (0, Answer::Accepted));
    assert_eq!(run.answers[1], (1, Answer::Accepted));
    let (2, Answer::Refused(reason)) = &run.answers[2] else {
        panic!("third connect not refused: {:?}", run.answers[2]);
    };
    // The reason the client sees is the OomError's own text.
    assert!(
        reason.starts_with("out of heap memory: requested"),
        "{reason}"
    );
    // Two connections' worth held; the refused one's thread went back.
    assert_eq!(run.observed, [(2, mib(800))]);
}

#[test]
fn refuses_at_the_thread_limit_with_the_heap_untouched() {
    let script = [
        Open,
        Tell(0, Frame::Connect),
        Open,
        Tell(1, Frame::Connect),
        Open,
        Tell(2, Frame::Connect),
        Observe,
    ];
    let run = run(tiny(2, 1000), mib(10), &script);
    let (2, Answer::Refused(reason)) = &run.answers[2] else {
        panic!("third connect not refused: {:?}", run.answers[2]);
    };
    assert!(
        reason.starts_with("out of native memory: requested"),
        "{reason}"
    );
    assert_eq!(run.observed, [(2, mib(20))]);
}

#[test]
fn release_frees_what_accept_took_and_a_refused_peer_can_retry() {
    let script = [
        Open,
        Tell(0, Frame::Connect),
        Open,
        Tell(1, Frame::Connect), // refused: one thread only
        Tell(1, Frame::Say(1)),  // and a refused peer is not heard
        Observe,
        Tell(0, Frame::Disconnect),
        Observe,
        Tell(0, Frame::Say(2)), // nor one that left
        Tell(1, Frame::Connect),
        Tell(1, Frame::Say(3)),
        Observe,
    ];
    let run = run(tiny(1, 1000), mib(10), &script);
    let answers: Vec<_> = run.answers.iter().map(|(ix, a)| (*ix, a.clone())).collect();
    assert_eq!(answers[0], (0, Answer::Accepted));
    assert!(matches!(answers[1], (1, Answer::Refused(_))));
    assert_eq!(answers[2], (1, Answer::Accepted));
    // The retried connection is the second the server accepted.
    let heard = Answer::Heard { said: 3, serial: 1 };
    assert_eq!(answers[3..], [(1, heard)]);
    assert_eq!(run.observed, [(1, mib(10)), (0, mib(0)), (1, mib(10))]);
    assert_eq!(run.gate, [Gate::Dropped, Gate::Dropped]);
}

#[test]
fn a_second_connect_takes_no_second_thread() {
    let script = [
        Open,
        Tell(0, Frame::Connect),
        Tell(0, Frame::Connect),
        Observe,
        Tell(0, Frame::Say(1)),
        Tell(0, Frame::Disconnect),
        Observe,
    ];
    let run = run(tiny(4, 1000), mib(10), &script);
    // The repeat is consumed at the gate: one answer, one thread, and
    // the state the connection was accepted with.
    let heard = Answer::Heard { said: 1, serial: 0 };
    assert_eq!(run.answers, [(0, Answer::Accepted), (0, heard)]);
    assert_eq!(run.gate, [Gate::Dropped]);
    assert_eq!(run.observed, [(1, mib(10)), (0, mib(0))]);
}

#[test]
fn crash_frees_everything_in_conn_order_and_restart_accepts_again() {
    let script = [
        Open,
        Open,
        Open,
        // Accepted out of id order: serials 0, 1, 2 on connections 2, 0, 1.
        Tell(2, Frame::Connect),
        Tell(0, Frame::Connect),
        Tell(1, Frame::Connect),
        Observe,
        Signal(FaultSignal::BrokerCrash),
        Observe,
        Signal(FaultSignal::BrokerCrash), // already down
        Tell(0, Frame::Say(1)),           // evaporates, counted
        Tell(1, Frame::Connect),          // so does a Connect
        Poke,                             // the server's own business still arrives
        Signal(FaultSignal::BrokerRestart),
        Signal(FaultSignal::BrokerRestart), // already up
        Tell(0, Frame::Say(2)),             // pre-crash connection: not held any more
        Tell(1, Frame::Connect),
        Tell(1, Frame::Say(3)),
        Observe,
    ];
    let run = run(tiny(4, 1000), mib(10), &script);
    let c = &run.conns;
    assert!(c[0].0 < c[1].0 && c[1].0 < c[2].0);
    assert_eq!(
        run.gate,
        [
            Gate::Crashed(vec![(c[0], 1), (c[1], 2), (c[2], 0)]),
            Gate::Dropped, // second crash signal
            Gate::Dropped, // Say while down
            Gate::Dropped, // Connect while down
            Gate::NotMine,
            Gate::Restarted,
            Gate::Dropped, // second restart signal
            Gate::Dropped, // Say on a connection the crash took
        ]
    );
    assert_eq!(
        run.crash_drops, 2,
        "frames to a dead process, counted once each"
    );
    assert_eq!(run.observed, [(3, mib(30)), (0, mib(0)), (1, mib(10))]);
    // Serials restart with the connections: none survived.
    let heard = Answer::Heard { said: 3, serial: 3 };
    assert_eq!(run.answers[3..], [(1, Answer::Accepted), (1, heard)]);
}

/// The servlets' way in: `heap_per_conn = 0`, the thread taken on a
/// connection's first HTTP request and kept; out of threads is a 503.
#[test]
fn admit_is_the_thread_only_accept_on_the_first_request() {
    struct Servlet(Acceptor<()>);
    impl Actor for Servlet {
        fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
            let d = msg.downcast::<Delivery>().expect("deliveries only");
            let Delivery { conn, payload, .. } = *d;
            let request = *payload.downcast().expect("an HTTP request");
            let admitted = self.0.admit::<u32, _>(ctx, conn, request, |reason| reason);
            if let Some((reply, n)) = admitted {
                let now = ctx.now();
                reply.send_at(ctx, 200, 8, n + 1, now);
            }
        }
    }
    struct Go(u32);
    let (mut sim, server_node, client_node, proc) = world(tiny(2, 1000));
    let servlet = sim.add_actor(Servlet(Acceptor::new(server_node, proc, Bytes(0))));
    let servlet = Endpoint::new(server_node, servlet);
    let statuses: Log<(u64, u16)> = Default::default();
    let seen = statuses.clone();
    let mut http = Caller::new(client_node);
    let mut first = None;
    let client = sim.add_actor(simcore::FnActor(move |msg: Payload, ctx: &mut Context| {
        let msg = match msg.downcast::<Go>() {
            Ok(go) => {
                let conn = *first.get_or_insert_with(|| http.open(ctx, servlet));
                match go.0 {
                    0 | 1 => http.request(ctx, conn, "/x", 8, 10 * go.0),
                    // A body the servlet cannot read still costs its
                    // connection a thread: the third finds none left.
                    2 => {
                        let second = http.open(ctx, servlet);
                        http.request(ctx, second, "/x", 8, "garbage")
                    }
                    _ => {
                        let third = http.open(ctx, servlet);
                        http.request(ctx, third, "/x", 8, 30u32)
                    }
                };
                return;
            }
            Err(m) => m,
        };
        let d = msg.downcast::<Delivery>().expect("a response");
        let response = d.payload.downcast::<HttpResponse>().expect("a response");
        seen.borrow_mut().push((response.req_id, response.status));
        if response.status == 503 {
            let reason = response.body.downcast::<String>().expect("the refusal");
            assert!(reason.starts_with("out of native memory"), "{reason}");
        }
    }));
    for step in 0..4 {
        let at = SimDuration::from_secs(u64::from(step));
        sim.schedule(at, client, Box::new(Go(step)));
    }
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(*statuses.borrow(), [(0, 200), (1, 200), (3, 503)]);
    let os = sim.service::<OsModel>().unwrap();
    assert_eq!(os.mem(proc).threads(), 2);
    assert_eq!(os.mem(proc).heap_used(), BASELINE);
}
