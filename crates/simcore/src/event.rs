//! The pending-event set: a radix queue on the monotone clock, popping in
//! `(at, lane, lane_seq)` order.
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
//! The clock never runs backwards, so every event the kernel enqueues is at
//! or after the last instant popped, `last`, and the queue is keyed on
//! that. An event at `last` waits in the *now* set, a binary min-heap on
//! `(lane, lane_seq)`. A later one waits in bucket `63 − lzcnt(at ^ last)`:
//! the highest bit in which its instant differs from `last`. A `u64` mask
//! marks the non-empty buckets and each bucket keeps its minimum, so
//! `peek_time` is O(1). When the now set runs dry, a pop moves `last` to
//! the lowest non-empty bucket's minimum and files that bucket's entries
//! again; every one lands in the now set or a lower bucket, so an event is
//! filed at most once per bucket below the one it entered. A bucket
//! entry is 16 bytes, the instant and a slot; the rest of the event waits
//! in a slab. A bare-queue push earlier than `last` (the kernel never
//! makes one) lowers `last` to it and files everything again.
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
    /// Event-queue push.
    KernelQueuePush,
    /// Event-queue pop.
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

/// Buckets of the radix queue, one per bit of a [`SimTime`].
const BUCKETS: usize = 64;

/// The most storage, in entries, a drained bucket keeps for its next fill.
/// The buckets together then keep at most 8 192 emptied entries (128 KiB)
/// however many of them a timer population passes through on its way
/// down, while a bucket that held more is drained only once per 2^b µs
/// and grows back in about log2 of its size allocations. (Measured
/// against 64 and 256 in EXPERIMENTS.md, "Where the wall time goes".)
const KEPT_PER_BUCKET: usize = 128;

/// An event waiting in a bucket.
#[derive(Clone, Copy)]
struct Filed {
    at: u64,
    slot: u32,
}

/// An event waiting in the now set, at `last`.
#[derive(Clone, Copy)]
struct Now {
    lane: u32,
    slot: u32,
    lane_seq: u64,
}

impl Now {
    fn key(&self) -> (u32, u64) {
        (self.lane, self.lane_seq)
    }
}

/// The rest of a pending event, in the slab.
struct Waiting {
    lane: u32,
    type_ix: u16,
    lane_seq: u64,
    target: ActorId,
    payload: Payload,
}

/// The kernel's queue of scheduled events (see the module docs).
pub struct EventQueue {
    /// The instant every pending event is at or after: the last one
    /// popped, unless a bare-queue push went earlier.
    last: u64,
    /// Events at `last`, a binary min-heap on `(lane, lane_seq)`.
    now: Vec<Now>,
    /// Events after `last`, in bucket `63 − lzcnt(at ^ last)`.
    buckets: [Vec<Filed>; BUCKETS],
    /// Each bucket's earliest instant (`u64::MAX` when empty).
    bucket_min: [u64; BUCKETS],
    /// Bit `b` set while bucket `b` holds an event.
    occupied: u64,
    /// Every pending event's slot; `None` on the free list.
    slab: Vec<Option<Waiting>>,
    free: Vec<u32>,
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

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            last: 0,
            now: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            bucket_min: [u64::MAX; BUCKETS],
            occupied: 0,
            slab: Vec::new(),
            free: Vec::new(),
            lane_seqs: Vec::new(),
            external_seq: 0,
            peak_depth: 0,
            type_ix: FastMap::default(),
            types: Vec::new(),
            wall: None,
        }
    }
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
        let waiting = Waiting {
            lane: ev.lane,
            type_ix: ev.type_ix,
            lane_seq: ev.lane_seq,
            target: ev.target,
            payload: ev.payload,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(waiting);
                slot
            }
            None => {
                self.slab.push(Some(waiting));
                u32::try_from(self.slab.len() - 1).expect("more than 2^32 pending events")
            }
        };
        let at = ev.at.as_micros();
        if at < self.last {
            self.rewind(at);
        }
        self.file(at, slot);
        self.peak_depth = self.peak_depth.max(self.len());
        self.wall_record(Site::KernelQueuePush, t0);
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let t0 = self.wall_start();
        let ev = self.take_earliest();
        self.wall_record(Site::KernelQueuePop, t0);
        ev
    }

    fn take_earliest(&mut self) -> Option<ScheduledEvent> {
        if self.now.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let slot = self.now_pop().slot;
        let w = self.slab[slot as usize]
            .take()
            .expect("a queued slot holds its event");
        self.free.push(slot);
        Some(ScheduledEvent {
            at: SimTime::from_micros(self.last),
            lane: w.lane,
            lane_seq: w.lane_seq,
            target: w.target,
            payload: w.payload,
            type_ix: w.type_ix,
        })
    }

    /// File the event in `slot`, at `at ≥ last`: into the now set when it
    /// is at `last`, else into its bucket.
    fn file(&mut self, at: u64, slot: u32) {
        if at == self.last {
            let w = self.slab[slot as usize]
                .as_ref()
                .expect("a queued slot holds its event");
            let (lane, lane_seq) = (w.lane, w.lane_seq);
            self.now_push(Now {
                lane,
                slot,
                lane_seq,
            });
        } else {
            let b = 63 - (at ^ self.last).leading_zeros() as usize;
            self.buckets[b].push(Filed { at, slot });
            self.occupied |= 1 << b;
            self.bucket_min[b] = self.bucket_min[b].min(at);
        }
    }

    /// The now set is empty: move `last` to the earliest pending instant,
    /// the lowest non-empty bucket's minimum, and file that bucket's
    /// entries again. They share every bit above `b` with the new `last`
    /// and bit `b` too, so each lands in the now set or below `b`, and
    /// every higher bucket stays valid. The drained bucket keeps its
    /// storage up to [`KEPT_PER_BUCKET`] entries.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        self.last = std::mem::replace(&mut self.bucket_min[b], u64::MAX);
        let mut drained = std::mem::take(&mut self.buckets[b]);
        for e in drained.drain(..) {
            self.file(e.at, e.slot);
        }
        if drained.capacity() <= KEPT_PER_BUCKET {
            self.buckets[b] = drained;
        }
    }

    /// Lower `last` to `at`, before every pending event, and file
    /// everything again against it. Only a bare queue comes here: the
    /// kernel never schedules into its past.
    fn rewind(&mut self, at: u64) {
        let last = self.last;
        let mut all: Vec<Filed> = self
            .now
            .drain(..)
            .map(|n| Filed {
                at: last,
                slot: n.slot,
            })
            .collect();
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        self.occupied = 0;
        self.bucket_min = [u64::MAX; BUCKETS];
        self.last = at;
        for e in all {
            self.file(e.at, e.slot);
        }
    }

    fn now_push(&mut self, e: Now) {
        let now = &mut self.now;
        let mut i = now.len();
        now.push(e);
        while i > 0 {
            let parent = (i - 1) / 2;
            if now[parent].key() < e.key() {
                break;
            }
            now[i] = now[parent];
            i = parent;
        }
        now[i] = e;
    }

    fn now_pop(&mut self) -> Now {
        let now = &mut self.now;
        let tail = now.pop().expect("the now set holds an event");
        let Some(&top) = now.first() else {
            return tail;
        };
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= now.len() {
                break;
            }
            if child + 1 < now.len() && now[child + 1].key() < now[child].key() {
                child += 1;
            }
            if tail.key() < now[child].key() {
                break;
            }
            now[i] = now[child];
            i = child;
        }
        now[i] = tail;
        top
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
        let at = if !self.now.is_empty() {
            self.last
        } else if self.occupied != 0 {
            self.bucket_min[self.occupied.trailing_zeros() as usize]
        } else {
            return None;
        };
        Some(SimTime::from_micros(at))
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    fn aid(n: usize) -> ActorId {
        ActorId::from_index(n)
    }

    /// Enqueue `value` on `lane`, counted, as the kernel does for a
    /// target hosted here; returns the event's key.
    fn push<T: Any + Send>(
        q: &mut EventQueue,
        at: SimTime,
        lane: u32,
        value: T,
        name: Option<&'static str>,
        timer: bool,
    ) -> (SimTime, u32, u64) {
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
        (at, lane, lane_seq)
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

    /// The binary-heap queue this one replaced, kept as the reference: a
    /// max-heap of keys under its inverted `Ord`, copied verbatim.
    struct HeapEvent {
        at: SimTime,
        lane: u32,
        lane_seq: u64,
    }

    impl HeapEvent {
        fn key(&self) -> (SimTime, u32, u64) {
            (self.at, self.lane, self.lane_seq)
        }
    }

    impl PartialEq for HeapEvent {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl Eq for HeapEvent {}

    impl PartialOrd for HeapEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for HeapEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the lowest key pops first.
            other.key().cmp(&self.key())
        }
    }

    const LANES: [u32; 5] = [0, 1, 2, 7, EXTERNAL_LANE];

    /// A delay drawn from `word`: the same instant, a few µs, or between
    /// 10 s and 2^40 µs.
    fn delay(word: u64) -> u64 {
        match word % 3 {
            0 => 0,
            1 => 1 + (word >> 2) % 8,
            _ => 10_000_000 + (word >> 2) % ((1 << 40) - 10_000_000),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_queue_pops_in_the_binary_heaps_order(
            script in proptest::collection::vec((0u8..10, 0..LANES.len(), any::<u64>()), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut last = 0u64;
            for (op, lane, word) in script {
                match op {
                    // The kernel's pushes: at or after the last pop.
                    0..=4 => {
                        let at = if op == 4 {
                            SimTime::MAX
                        } else {
                            SimTime::from_micros(last.saturating_add(delay(word)))
                        };
                        let (at, lane, lane_seq) = push(&mut q, at, LANES[lane], (), None, false);
                        reference.push(HeapEvent { at, lane, lane_seq });
                    }
                    // A bare `schedule` earlier than the last pop.
                    5 => {
                        let at = SimTime::from_micros(word % last.max(1));
                        let lane_seq = q.external_seq;
                        q.schedule(at, aid(0), Box::new(()));
                        reference.push(HeapEvent { at, lane: EXTERNAL_LANE, lane_seq });
                    }
                    _ => {
                        let got = q.pop().map(|e| e.key());
                        prop_assert_eq!(got, reference.pop().map(|e| e.key()));
                        if let Some((at, _, _)) = got {
                            last = at.as_micros();
                        }
                    }
                }
                prop_assert_eq!(q.peek_time(), reference.peek().map(|e| e.at));
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop().map(|e| e.key()), Some(want.key()));
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
        }
    }

    /// Storage kept by the emptied buckets, in entries.
    fn retained(q: &EventQueue) -> usize {
        q.buckets
            .iter()
            .filter(|b| b.is_empty())
            .map(Vec::capacity)
            .sum()
    }

    #[test]
    fn emptied_buckets_keep_a_bounded_storage_under_a_fleet_of_timers() {
        // A fleet's shape: 4 000 timers re-armed every 10 s, each tick
        // sending three near events, for 30 periods.
        const TIMERS: u32 = 4_000;
        const PERIOD: u64 = 10_000_000;
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(7);
        for lane in 0..TIMERS {
            let at = SimTime::from_micros(rng.next_u64() % PERIOD);
            push(&mut q, at, lane, true, None, true);
        }
        let mut most = 0;
        while let Some(ev) = q.pop() {
            let now = ev.at.as_micros();
            if now > 30 * PERIOD {
                break;
            }
            if *ev.payload.downcast::<bool>().unwrap() {
                for d in [150, 420, 1_300] {
                    push(
                        &mut q,
                        SimTime::from_micros(now + d),
                        ev.lane,
                        false,
                        None,
                        false,
                    );
                }
                push(
                    &mut q,
                    SimTime::from_micros(now + PERIOD),
                    ev.lane,
                    true,
                    None,
                    true,
                );
            }
            most = most.max(retained(&q));
        }
        // Keeping every drained bucket's storage retains ~25 000 here.
        let bound = BUCKETS * KEPT_PER_BUCKET;
        assert!(most <= bound, "{most} entries retained, bound {bound}");
    }

    #[test]
    fn a_same_instant_burst_pops_in_lane_then_fifo_order() {
        // Half the burst is filed in a bucket before the clock reaches it,
        // half arrives at the clock's own instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let lane = |i: u32| (i * 7) % 13;
        let mut keys: Vec<_> = (0..50_000)
            .map(|i| push(&mut q, t, lane(i), (), None, false))
            .collect();
        let mut popped = vec![q.pop().unwrap().key()];
        keys.extend((50_000..100_000).map(|i| push(&mut q, t, lane(i), (), None, false)));
        popped.extend(std::iter::from_fn(|| q.pop()).map(|e| e.key()));
        keys.sort_unstable();
        assert_eq!(popped, keys);
    }
}
