//! The broker session every connection-oriented client shares: connect →
//! live → suspect → jittered backoff → reconnect, plus the timer-token
//! table the host actor routes [`ClientTimer`]s through.
//!
//! A client (narada's JMS sessions, gridlog's producers and consumers)
//! plugs its frames, its simprof component and its per-connection state in
//! through [`SessionProtocol`] and keeps only what is its own: what to
//! re-send once a reconnect succeeds, and its own timers. R-GMA's client
//! is request/response HTTP with no session; it shares [`backoff_step`]
//! only.

use crate::{ConnId, Endpoint, NetworkFabric, Transport};
use simcore::{Context, FastMap, SimDuration, SimRng, SimTime};
use simos::NodeId;

/// Timer payload the host actor must route back via its client set's
/// `handle_timer`.
pub struct ClientTimer(pub u64);

/// Client-side reconnect behaviour across broker crashes: liveness
/// heartbeats, crash detection, and exponentially backed-off reconnect
/// attempts. `None` wherever a policy is optional (the default) disables
/// all of it and reproduces the paper's fail-stop, heartbeat-free clients
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// How often an idle connection sends a liveness heartbeat.
    pub heartbeat_interval: SimDuration,
    /// Silence longer than this declares the broker dead.
    pub detect_timeout: SimDuration,
    /// First reconnect backoff step.
    pub backoff_initial: SimDuration,
    /// Backoff ceiling.
    pub backoff_max: SimDuration,
    /// Reconnect attempts before the connection is abandoned for good.
    pub max_attempts: u32,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            heartbeat_interval: SimDuration::from_secs(1),
            detect_timeout: SimDuration::from_secs(5),
            backoff_initial: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(4),
            max_attempts: 10,
        }
    }
}

impl ReconnectPolicy {
    /// Wait before reconnect attempt `attempt + 1`: exponential backoff
    /// with equal jitter, in `[base/2, base]`. The jitter de-synchronizes
    /// the reconnect herd after a broker restart: hundreds of clients
    /// detect the crash within one heartbeat interval of each other, and
    /// identical backoff schedules would slam the recovering broker with
    /// simultaneous Connects, pushing ConnectOk latency past the attempt
    /// deadline for everyone.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let base = backoff_step(
            self.backoff_initial,
            self.backoff_max,
            attempt.saturating_sub(1),
        );
        base / 2 + rng.duration_between(SimDuration::ZERO, base / 2)
    }
}

/// `initial` doubled `doublings` times (the shift saturates at 20),
/// capped at `max`: the one exponential-backoff step in the workspace.
pub fn backoff_step(initial: SimDuration, max: SimDuration, doublings: u32) -> SimDuration {
    initial.saturating_mul(1u64 << doublings.min(20)).min(max)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    /// Connect sent (first time or a reconnect attempt), no answer yet.
    Connecting,
    Ready,
    Refused,
}

/// What a client supplies to run its connections over the shared session.
pub trait SessionProtocol {
    /// Client→broker frame type.
    type Frame: Send + 'static;
    /// The client's own timer kinds, kept in the shared token table.
    type Timer;
    /// The client's own per-connection state.
    type State;
    /// Profiler component client CPU is charged to.
    const COMPONENT: simprof::Component;
    /// Metrics counter bumped on every reconnect attempt.
    const RECONNECT_COUNTER: &'static str;
    /// Wire size of a control frame.
    const CONTROL_FRAME_BYTES: usize;
    /// The frame that opens a session.
    const CONNECT: Self::Frame;
    /// The frame that closes one.
    const DISCONNECT: Self::Frame;
    /// The liveness probe for a connection in `state`.
    fn heartbeat(state: &Self::State) -> Self::Frame;
    /// The connection is being abandoned for a replacement: reset what
    /// does not survive a broker restart.
    fn abandon(state: &mut Self::State, ctx: &mut Context<'_>);
}

/// One logical connection: the shared session core around the client's
/// own state. It survives reconnects under a changing [`ConnId`].
pub struct Session<S> {
    /// Underlying transport.
    pub transport: Transport,
    /// Crash detection + reconnect policy (`None` = fail-stop).
    pub policy: Option<ReconnectPolicy>,
    /// The client's own state.
    pub state: S,
    broker_ep: Endpoint,
    phase: ConnPhase,
    /// Last instant the broker was heard from (crash detection).
    last_seen: SimTime,
    /// Reconnect attempts made so far (0 = never lost). Refunded on every
    /// successful connect: the cap bounds one outage, not a lifetime.
    attempt: u32,
    /// True once this connection reached `Ready` at least once;
    /// distinguishes a retried *initial* connect from a true reconnect.
    ever_connected: bool,
}

impl<S> Session<S> {
    /// Has the broker accepted this connection?
    pub fn is_ready(&self) -> bool {
        self.phase == ConnPhase::Ready
    }

    /// Is a (re)connect in flight that the session will see through?
    /// Work issued now should be buffered, not dropped.
    pub fn reconnecting(&self) -> bool {
        self.phase == ConnPhase::Connecting && self.policy.is_some()
    }

    /// Has the broker been silent for longer than the detect timeout?
    pub fn broker_silent(&self, now: SimTime) -> bool {
        self.policy
            .is_some_and(|p| now.saturating_since(self.last_seen) > p.detect_timeout)
    }
}

enum SessionTimer<T> {
    Own(T),
    Heartbeat(ConnId),
    ReconnectTry(ConnId),
    ReconnectDeadline { conn: ConnId, attempt: u32 },
}

/// What a [`ClientTimer`] amounted to.
pub enum Fired<T, S> {
    /// Stale, or session housekeeping with nothing to report.
    Idle,
    /// One of the client's own timers.
    Own(T),
    /// The broker stopped answering and a reconnect attempt began; the
    /// logical connection continues under `new`.
    Reconnecting {
        /// Connection id abandoned.
        old: ConnId,
        /// Replacement connection (currently connecting).
        new: ConnId,
    },
    /// Every reconnect attempt failed; the connection is gone for good and
    /// this was its state.
    Lost(ConnId, S),
}

/// The connections of one host actor and their timers.
pub struct SessionSet<P: SessionProtocol> {
    node: NodeId,
    conns: FastMap<ConnId, Session<P::State>>,
    timers: FastMap<u64, SessionTimer<P::Timer>>,
    next_timer: u64,
}

impl<P: SessionProtocol> SessionSet<P> {
    /// Empty set for a host actor on `node`.
    pub fn new(node: NodeId) -> Self {
        SessionSet {
            node,
            conns: FastMap::default(),
            timers: FastMap::default(),
            next_timer: 0,
        }
    }

    /// The host actor's end of every connection in the set.
    pub fn endpoint(&self, ctx: &Context<'_>) -> Endpoint {
        Endpoint::new(self.node, ctx.self_id())
    }

    /// Run `cost` on the host node's CPU, charged to the client's
    /// component; returns the completion time.
    pub fn cpu(&self, ctx: &mut Context<'_>, cost: SimDuration) -> SimTime {
        crate::server::cpu(ctx, self.node, P::COMPONENT, cost)
    }

    /// Put `frame` on `conn` now.
    pub fn send(&self, ctx: &mut Context<'_>, conn: ConnId, bytes: usize, frame: P::Frame) {
        let now = ctx.now();
        self.send_at(ctx, conn, bytes, frame, now);
    }

    /// Put `frame` on `conn` once the client's CPU work completes at `at`.
    pub fn send_at(
        &self,
        ctx: &mut Context<'_>,
        conn: ConnId,
        bytes: usize,
        frame: P::Frame,
        at: SimTime,
    ) {
        let me = self.endpoint(ctx);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.send_at(ctx, conn, me, bytes, Box::new(frame), at);
        });
    }

    fn arm_timer(
        &mut self,
        ctx: &mut Context<'_>,
        delay: SimDuration,
        timer: SessionTimer<P::Timer>,
    ) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, timer);
        ctx.timer(delay, ClientTimer(token));
        token
    }

    /// Arm one of the client's own timers; returns its token.
    pub fn arm(&mut self, ctx: &mut Context<'_>, delay: SimDuration, timer: P::Timer) -> u64 {
        self.arm_timer(ctx, delay, SessionTimer::Own(timer))
    }

    /// Cancel a timer: its [`ClientTimer`] will fire as [`Fired::Idle`].
    pub fn cancel(&mut self, token: u64) {
        self.timers.remove(&token);
    }

    /// Dial the broker of `s` on a fresh connection and put `s` on it.
    fn dial(&mut self, ctx: &mut Context<'_>, s: Session<P::State>) -> ConnId {
        let me = self.endpoint(ctx);
        let conn = ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            net.open(ctx.now(), s.transport, me, s.broker_ep)
        });
        self.send(ctx, conn, P::CONTROL_FRAME_BYTES, P::CONNECT);
        // With recovery enabled every attempt, the *initial* one included,
        // gets a deadline, so a Connect a crashed broker swallows cannot
        // strand the client in `Connecting` (it retries with backoff). A
        // fault-free run arms no policy and so no deadline: a UDP Connect or
        // ConnectOk the fabric drops leaves the client `Connecting` all run,
        // neither connected nor refused. That is why Table II's UDP tests
        // send 797 × 180 readings; a retry here would change Table II.
        let deadline = s.policy.map(|p| (p.detect_timeout, s.attempt));
        self.conns.insert(conn, s);
        if let Some((timeout, attempt)) = deadline {
            let timer = SessionTimer::ReconnectDeadline { conn, attempt };
            self.arm_timer(ctx, timeout, timer);
        }
        conn
    }

    /// Open a connection to `broker_ep`. The broker's answer arrives as a
    /// delivery the client reports through [`connect_ok`](Self::connect_ok)
    /// or [`refused`](Self::refused).
    pub fn open(
        &mut self,
        ctx: &mut Context<'_>,
        broker_ep: Endpoint,
        transport: Transport,
        policy: Option<ReconnectPolicy>,
        state: P::State,
    ) -> ConnId {
        let s = Session {
            transport,
            policy,
            state,
            broker_ep,
            phase: ConnPhase::Connecting,
            last_seen: ctx.now(),
            attempt: 0,
            ever_connected: false,
        };
        self.dial(ctx, s)
    }

    /// The session on `conn`, if it is (still) current.
    pub fn get(&self, conn: ConnId) -> Option<&Session<P::State>> {
        self.conns.get(&conn)
    }

    /// Mutable access to the session on `conn`.
    pub fn get_mut(&mut self, conn: ConnId) -> Option<&mut Session<P::State>> {
        self.conns.get_mut(&conn)
    }

    /// Forget `conn` without a word to the broker; the caller says goodbye.
    pub fn remove(&mut self, conn: ConnId) -> Option<Session<P::State>> {
        self.conns.remove(&conn)
    }

    /// Any broker frame counts as liveness for crash detection.
    pub fn heard_from(&mut self, ctx: &Context<'_>, conn: ConnId) {
        if let Some(s) = self.conns.get_mut(&conn) {
            s.last_seen = ctx.now();
        }
    }

    /// The broker accepted `conn`. Returns whether this completes a
    /// reconnect (the client then re-sends what the outage held back) or a
    /// first connect; `None` for an unknown connection. Call
    /// [`start_heartbeat`](Self::start_heartbeat) once recovery is done.
    pub fn connect_ok(&mut self, ctx: &mut Context<'_>, conn: ConnId) -> Option<bool> {
        let s = self.conns.get_mut(&conn)?;
        s.phase = ConnPhase::Ready;
        let was_reconnect = s.ever_connected && s.attempt > 0;
        // A successful (re)connect refunds the attempt budget: the cap
        // bounds one outage, not the connection's lifetime.
        s.attempt = 0;
        s.ever_connected = true;
        if was_reconnect {
            simfault::with_faults(ctx, |inj, _| inj.stats.reconnects += 1);
        }
        Some(was_reconnect)
    }

    /// Arm the next liveness heartbeat of an accepted connection (no-op
    /// without a reconnect policy).
    pub fn start_heartbeat(&mut self, ctx: &mut Context<'_>, conn: ConnId) {
        if let Some(policy) = self.conns.get(&conn).and_then(|s| s.policy) {
            let timer = SessionTimer::Heartbeat(conn);
            self.arm_timer(ctx, policy.heartbeat_interval, timer);
        }
    }

    /// The broker refused `conn`; false for an unknown connection.
    pub fn refused(&mut self, conn: ConnId) -> bool {
        let Some(s) = self.conns.get_mut(&conn) else {
            return false;
        };
        s.phase = ConnPhase::Refused;
        true
    }

    /// Abandon `old` and open a replacement connection to the same broker,
    /// carrying the client's state over. Returns the new id, or `None` when
    /// `old` is unknown or has no reconnect policy.
    pub fn begin_reconnect(&mut self, ctx: &mut Context<'_>, old: ConnId) -> Option<ConnId> {
        self.conns.get(&old)?.policy?;
        let mut s = self.conns.remove(&old)?;
        s.attempt += 1;
        s.phase = ConnPhase::Connecting;
        P::abandon(&mut s.state, ctx);
        // Best-effort goodbye on the abandoned connection: if the broker
        // is actually up (slow, not dead), this frees its service thread.
        // Without it every superseded connect attempt leaks a broker
        // thread and the reconnect herd exhausts the accept capacity.
        self.send(ctx, old, P::CONTROL_FRAME_BYTES, P::DISCONNECT);
        simfault::with_faults(ctx, |inj, _| inj.stats.reconnect_attempts += 1);
        telemetry::with_metrics(ctx, |m, _| m.add_counter(P::RECONNECT_COUNTER, 1));
        Some(self.dial(ctx, s))
    }

    fn fail_over(&mut self, ctx: &mut Context<'_>, old: ConnId) -> Fired<P::Timer, P::State> {
        match self.begin_reconnect(ctx, old) {
            Some(new) => Fired::Reconnecting { old, new },
            None => Fired::Idle,
        }
    }

    /// Resolve a [`ClientTimer`] delivered to the host actor: session
    /// housekeeping runs here, the client's own timers come back as
    /// [`Fired::Own`].
    pub fn fire(&mut self, ctx: &mut Context<'_>, timer: ClientTimer) -> Fired<P::Timer, P::State> {
        match self.timers.remove(&timer.0) {
            None => Fired::Idle, // stale (cancelled)
            Some(SessionTimer::Own(t)) => Fired::Own(t),
            Some(SessionTimer::Heartbeat(conn)) => {
                let Some(s) = self.conns.get(&conn) else {
                    return Fired::Idle; // conn replaced or closed
                };
                if !s.is_ready() {
                    return Fired::Idle;
                }
                if s.broker_silent(ctx.now()) {
                    return self.fail_over(ctx, conn);
                }
                let probe = P::heartbeat(&s.state);
                self.send(ctx, conn, P::CONTROL_FRAME_BYTES, probe);
                self.start_heartbeat(ctx, conn);
                Fired::Idle
            }
            Some(SessionTimer::ReconnectTry(conn)) => self.fail_over(ctx, conn),
            Some(SessionTimer::ReconnectDeadline { conn, attempt }) => {
                let Some(s) = self.conns.get(&conn) else {
                    return Fired::Idle;
                };
                if s.phase != ConnPhase::Connecting || s.attempt != attempt {
                    return Fired::Idle; // connected meanwhile or superseded
                }
                let policy = s.policy.expect("deadline armed without a policy");
                if attempt >= policy.max_attempts {
                    // Give up for good; everything unflushed is lost. Say
                    // goodbye so a slow-but-alive broker frees the thread.
                    self.send(ctx, conn, P::CONTROL_FRAME_BYTES, P::DISCONNECT);
                    let s = self.conns.remove(&conn).expect("checked above");
                    return Fired::Lost(conn, s.state);
                }
                let backoff = policy.backoff(attempt, ctx.rng());
                self.arm_timer(ctx, backoff, SessionTimer::ReconnectTry(conn));
                Fired::Idle
            }
        }
    }
}
