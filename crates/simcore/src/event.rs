//! The pending-event set: a time-ordered priority queue with deterministic
//! tie-breaking.
//!
//! Two events scheduled for the same instant fire in *scheduling-lane*
//! order: each scheduling source (an actor, or the external/build path) owns
//! a lane, and the key `(at, lane, lane_seq)` orders ties first by lane,
//! then FIFO within the lane. The key is a pure function of *who* scheduled
//! the event and *how many* events that lane had scheduled before — never of
//! the global interleaving — so a simulation partitioned across shards
//! produces byte-identical event orderings to a serial run (see
//! `crates/simshard`). Within one lane the order is still FIFO, which keeps
//! single-source schedules (and the classic external-schedule tests) stable.
//!
//! The queue also keeps the kernel's one accounting record, always on and
//! allocation-free: per-payload-type scheduled / executed / dropped /
//! timer counts (every total in `KernelStats` is a column sum of it) and
//! the queue-depth high-watermark. Counting happens on the schedule/pop
//! path with one `FastMap<TypeId, u16>` probe per schedule (one multiply
//! to hash, no allocation after the first event of each type) and plain
//! integer increments elsewhere, so it is cheap enough to leave on for
//! every run. It also holds the kernel's one wall-clock site table (a
//! [`WallAccum`] per [`Site`]), off unless armed.

use crate::actor::ActorId;
use crate::time::SimTime;
use crate::FastMap;
use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Opaque payload delivered to an actor. Actors downcast to their own
/// message enum. `Send` so cross-shard deliveries can travel through the
/// shard mailboxes.
pub type Payload = Box<dyn Any + Send>;

/// Lane used by events scheduled from outside any actor (build-time
/// `Simulation::schedule`). Sorts *after* every actor lane at equal time.
pub const EXTERNAL_LANE: u32 = u32::MAX;

/// A scheduled delivery.
pub struct ScheduledEvent {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling lane: the index of the actor that scheduled this event,
    /// or [`EXTERNAL_LANE`] for build-time schedules. Breaks same-instant
    /// ties deterministically and shard-invariantly.
    pub lane: u32,
    /// FIFO sequence within the lane.
    pub lane_seq: u64,
    /// Receiving actor.
    pub target: ActorId,
    /// Message payload.
    pub payload: Payload,
    /// Index into the queue's per-type accounting table.
    pub(crate) type_ix: u16,
}

impl ScheduledEvent {
    /// The deterministic ordering key `(at, lane, lane_seq)`.
    pub fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.lane, self.lane_seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the lowest key pops first.
        other.key().cmp(&self.key())
    }
}

/// Lifetime counters for one payload type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTypeStat {
    /// Short payload type name (e.g. `Delivery`), or `<untyped>` for events
    /// scheduled through the raw (already-boxed) paths.
    pub name: String,
    /// Events of this type ever scheduled.
    pub scheduled: u64,
    /// Events of this type dispatched to a live actor.
    pub executed: u64,
    /// Events of this type dropped (target never registered).
    pub dropped: u64,
    /// Of `scheduled`, how many were timer self-sends.
    pub timers: u64,
}

#[derive(Default)]
struct TypeAccount {
    name: Option<&'static str>,
    scheduled: u64,
    executed: u64,
    dropped: u64,
    timers: u64,
}

/// Wall-clock accumulator for one instrumented hot-path site: total
/// monotonic nanoseconds and the number of timed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallAccum {
    /// Total wall-clock nanoseconds spent in the site.
    pub nanos: u64,
    /// Number of timed operations.
    pub count: u64,
}

impl WallAccum {
    /// Fold one timed operation into the accumulator.
    #[inline]
    pub fn add(&mut self, nanos: u64) {
        self.nanos += nanos;
        self.count += 1;
    }

    /// Fold another accumulator into this one (shard merge).
    #[inline]
    pub fn merge(&mut self, other: WallAccum) {
        self.nanos += other.nanos;
        self.count += other.count;
    }
}

/// The instrumented hot-path sites, one row each of the kernel's
/// wall-clock table, declared in report order (`site as usize` is the
/// row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Kernel event dispatch (actor `handle` callbacks).
    KernelDispatch,
    /// Event-heap push.
    KernelQueuePush,
    /// Event-heap pop.
    KernelQueuePop,
    /// `simnet` fabric send: MTU segmentation, latency/loss draws,
    /// delivery scheduling.
    NetFabricSend,
    /// JMS selector matching inside the broker publish/forward paths.
    JmsMatch,
    /// `OsModel::execute_metered`, timed by its callers.
    OsExecute,
}

impl Site {
    /// Number of sites.
    pub const COUNT: usize = 6;

    /// All sites in report order.
    pub const ALL: [Site; Site::COUNT] = [
        Site::KernelDispatch,
        Site::KernelQueuePush,
        Site::KernelQueuePop,
        Site::NetFabricSend,
        Site::JmsMatch,
        Site::OsExecute,
    ];

    /// Stable dotted name used in reports and collapsed stacks.
    pub fn name(self) -> &'static str {
        match self {
            Site::KernelDispatch => "kernel.dispatch",
            Site::KernelQueuePush => "kernel.queue.push",
            Site::KernelQueuePop => "kernel.queue.pop",
            Site::NetFabricSend => "net.fabric.send",
            Site::JmsMatch => "jms.match",
            Site::OsExecute => "os.execute",
        }
    }
}

/// Time-ordered queue of scheduled events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    lane_seqs: Vec<u64>,
    external_seq: u64,
    peak_depth: usize,
    type_ix: FastMap<TypeId, u16>,
    types: Vec<TypeAccount>,
    /// The wall-clock site table, one row per [`Site`], armed and read
    /// only through the [`Simulation`]. The queue times its own push/pop,
    /// the kernel its dispatch, and every other site writes it through
    /// [`Context::wall_record`]. `None` (the default) keeps every site
    /// down to one discriminant check.
    ///
    /// [`Simulation`]: crate::Simulation
    /// [`Context::wall_record`]: crate::Context::wall_record
    pub(crate) wall: Option<Box<[WallAccum; Site::COUNT]>>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push an event from the external lane, counted: the kernel's enqueue
    /// rule for a bare queue with no actor table (the kernel itself
    /// enqueues through `Simulation::schedule` and `Context`'s senders).
    pub fn schedule(&mut self, at: SimTime, target: ActorId, payload: Payload) {
        let lane_seq = self.next_lane_seq(EXTERNAL_LANE);
        let type_ix = self.intern_type(payload.as_ref().type_id(), None);
        self.count_scheduled(type_ix, false);
        self.push_keyed(ScheduledEvent {
            at,
            lane: EXTERNAL_LANE,
            lane_seq,
            target,
            payload,
            type_ix,
        });
    }

    /// Draw the next FIFO sequence number for `lane`, advancing the lane
    /// counter. Lanes are created on first use. Counters advance even for
    /// events that are ultimately dropped or routed to another shard — the
    /// key stream of a lane must not depend on where its targets live.
    pub(crate) fn next_lane_seq(&mut self, lane: u32) -> u64 {
        if lane == EXTERNAL_LANE {
            let s = self.external_seq;
            self.external_seq += 1;
            s
        } else {
            let ix = lane as usize;
            if ix >= self.lane_seqs.len() {
                self.lane_seqs.resize(ix + 1, 0);
            }
            let s = self.lane_seqs[ix];
            self.lane_seqs[ix] += 1;
            s
        }
    }

    /// Intern a payload type into the accounting table without counting
    /// anything. Returns the table index used by [`ScheduledEvent`].
    pub(crate) fn intern_type(&mut self, tid: TypeId, name: Option<&'static str>) -> u16 {
        let ix = match self.type_ix.get(&tid) {
            Some(&ix) => ix as usize,
            None => {
                let ix = self.types.len();
                // u16 bounds the taxonomy at 65k distinct payload types; the
                // whole stack defines a few dozen.
                let packed = u16::try_from(ix).expect("too many distinct payload types");
                self.type_ix.insert(tid, packed);
                self.types.push(TypeAccount::default());
                ix
            }
        };
        let acct = &mut self.types[ix];
        if acct.name.is_none() {
            acct.name = name;
        }
        ix as u16
    }

    /// Count one scheduled event of type `type_ix`. Split from
    /// [`push_keyed`](Self::push_keyed) so the kernel can decide *where*
    /// an event is accounted (sender shard vs. receiver shard, primary-only
    /// for replicated actors) independently of where it is enqueued.
    pub(crate) fn count_scheduled(&mut self, type_ix: u16, timer: bool) {
        let acct = &mut self.types[type_ix as usize];
        acct.scheduled += 1;
        acct.timers += u64::from(timer);
    }

    /// Push a fully-keyed event (key already assigned — e.g. one that
    /// crossed a shard boundary carrying its sender-side key).
    pub(crate) fn push_keyed(&mut self, ev: ScheduledEvent) {
        let t0 = self.wall_start();
        self.heap.push(ev);
        if self.heap.len() > self.peak_depth {
            self.peak_depth = self.heap.len();
        }
        self.wall_record(Site::KernelQueuePush, t0);
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let t0 = self.wall_start();
        let ev = self.heap.pop();
        self.wall_record(Site::KernelQueuePop, t0);
        ev
    }

    /// Open a timing probe: the clock is read only when the table is
    /// armed.
    #[inline]
    pub(crate) fn wall_start(&self) -> Option<Instant> {
        self.wall.as_ref().map(|_| Instant::now())
    }

    /// Close a probe opened by [`wall_start`](Self::wall_start), adding
    /// the elapsed nanoseconds to `site`'s row. No-op when `t0` is `None`.
    #[inline]
    pub(crate) fn wall_record(&mut self, site: Site, t0: Option<Instant>) {
        if let (Some(t0), Some(table)) = (t0, self.wall.as_mut()) {
            table[site as usize].add(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Count one popped event of type `type_ix`: dispatched to a live
    /// actor (`executed`), or dropped (target never registered).
    pub(crate) fn count_dispatched(&mut self, type_ix: u16, executed: bool) {
        let acct = &mut self.types[type_ix as usize];
        if executed {
            acct.executed += 1;
        } else {
            acct.dropped += 1;
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-watermark of pending events.
    pub(crate) fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Per-payload-type accounting snapshot, in interning order
    /// (`KernelStats` sorts it).
    pub(crate) fn type_stats(&self) -> Vec<EventTypeStat> {
        self.types
            .iter()
            .map(|t| EventTypeStat {
                name: t
                    .name
                    .map_or_else(|| "<untyped>".to_owned(), short_type_name),
                scheduled: t.scheduled,
                executed: t.executed,
                dropped: t.dropped,
                timers: t.timers,
            })
            .collect()
    }
}

/// Strip module paths from a `std::any::type_name` string:
/// `narada::protocol::BrokerMsg` becomes `BrokerMsg`, including inside
/// generic arguments.
pub(crate) fn short_type_name(full: &'static str) -> String {
    let mut out = String::new();
    let mut ident = String::new();
    for c in full.chars() {
        if c.is_alphanumeric() || c == '_' || c == ':' {
            ident.push(c);
        } else {
            out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
            ident.clear();
            out.push(c);
        }
    }
    out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: usize) -> ActorId {
        ActorId::from_index(n)
    }

    /// Enqueue `value` on `lane`, counted, as the kernel does for a
    /// target hosted here.
    fn push<T: Any + Send>(
        q: &mut EventQueue,
        at: SimTime,
        lane: u32,
        value: T,
        name: Option<&'static str>,
        timer: bool,
    ) {
        let lane_seq = q.next_lane_seq(lane);
        let type_ix = q.intern_type(TypeId::of::<T>(), name);
        q.count_scheduled(type_ix, timer);
        q.push_keyed(ScheduledEvent {
            at,
            lane,
            lane_seq,
            target: aid(0),
            payload: Box::new(value),
            type_ix,
        });
    }

    fn scheduled(q: &EventQueue) -> u64 {
        q.type_stats().iter().map(|t| t.scheduled).sum()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), aid(0), Box::new(3u32));
        q.schedule(SimTime::from_secs(1), aid(0), Box::new(1u32));
        q.schedule(SimTime::from_secs(2), aid(0), Box::new(2u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, aid(0), Box::new(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_lane_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Interleave schedules across lanes 1, 0 and the external lane; the
        // pop order must be lane 0's events FIFO, then lane 1's, then the
        // external lane's — independent of scheduling interleaving.
        push(&mut q, t, 1, 10u32, None, false);
        q.schedule(t, aid(0), Box::new(90u32));
        push(&mut q, t, 0, 0u32, None, false);
        push(&mut q, t, 1, 11u32, None, false);
        push(&mut q, t, 0, 1u32, None, false);
        q.schedule(t, aid(0), Box::new(91u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 10, 11, 90, 91]);
    }

    #[test]
    fn keyed_push_preserves_foreign_keys() {
        // A cross-shard event arrives carrying its sender-side key and must
        // order exactly as if it had been scheduled locally.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        push(&mut q, t, 2, 2u32, None, false);
        let ix = q.intern_type(TypeId::of::<u32>(), Some("u32"));
        q.push_keyed(ScheduledEvent {
            at: t,
            lane: 1,
            lane_seq: 0,
            target: aid(0),
            payload: Box::new(1u32),
            type_ix: ix,
        });
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(5), aid(1), Box::new(()));
        q.schedule(SimTime::from_secs(2), aid(1), Box::new(()));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        assert_eq!(q.len(), 2);
        assert_eq!(scheduled(&q), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(scheduled(&q), 2);
    }

    #[test]
    fn type_accounting_sums_to_scheduled_total() {
        let mut q = EventQueue::new();
        push(
            &mut q,
            SimTime::ZERO,
            EXTERNAL_LANE,
            1u32,
            Some("u32"),
            false,
        );
        push(
            &mut q,
            SimTime::ZERO,
            EXTERNAL_LANE,
            2u32,
            Some("u32"),
            true,
        );
        push(
            &mut q,
            SimTime::ZERO,
            EXTERNAL_LANE,
            "s",
            Some("&str"),
            false,
        );
        q.schedule(SimTime::ZERO, aid(0), Box::new(3.0f64));
        let stats = q.type_stats();
        assert_eq!(scheduled(&q), q.len() as u64);
        assert_eq!(stats.iter().map(|s| s.timers).sum::<u64>(), 1);
        assert_eq!(q.peak_depth(), 4);
        let u32_row = stats.iter().find(|s| s.name == "u32").unwrap();
        assert_eq!(u32_row.scheduled, 2);
        assert_eq!(u32_row.timers, 1);
        // The raw path gets the fallback display name.
        assert!(stats.iter().any(|s| s.name == "<untyped>"));
    }

    #[test]
    fn executed_and_dropped_tallies() {
        let mut q = EventQueue::new();
        push(
            &mut q,
            SimTime::ZERO,
            EXTERNAL_LANE,
            1u32,
            Some("u32"),
            false,
        );
        push(
            &mut q,
            SimTime::ZERO,
            EXTERNAL_LANE,
            2u32,
            Some("u32"),
            false,
        );
        let a = q.pop().unwrap();
        q.count_dispatched(a.type_ix, true);
        let b = q.pop().unwrap();
        q.count_dispatched(b.type_ix, false);
        let stats = q.type_stats();
        assert_eq!(stats[0].executed, 1);
        assert_eq!(stats[0].dropped, 1);
    }

    #[test]
    fn wall_table_counts_queue_operations() {
        let mut q = EventQueue::new();
        assert_eq!(q.wall_start(), None);
        q.wall = Some(Box::default());
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.schedule(SimTime::ZERO, aid(0), Box::new(()));
        q.pop();
        let table = q.wall.unwrap();
        assert_eq!(table[Site::KernelQueuePush as usize].count, 2);
        assert_eq!(table[Site::KernelQueuePop as usize].count, 1);
        assert_eq!(table[Site::KernelDispatch as usize].count, 0);
    }

    #[test]
    fn short_type_name_strips_paths() {
        assert_eq!(short_type_name("narada::protocol::BrokerMsg"), "BrokerMsg");
        assert_eq!(
            short_type_name("alloc::vec::Vec<core::option::Option<u32>>"),
            "Vec<Option<u32>>"
        );
        assert_eq!(short_type_name("()"), "()");
        assert_eq!(short_type_name("u32"), "u32");
    }
}
