//! The trace collector kernel service.
//!
//! Sharding model: every shard owns one collector recording only what
//! executes locally. Each record is keyed `(time, recorder lane,
//! per-lane seq)` — interleaving-invariant, because a lane's record
//! stream is a function of that actor's own deterministic execution —
//! and [`TraceCollector::merged`] re-sorts the union of per-shard
//! stores by that key. The counters and gauges the trace exports beside
//! its events live in the metrics registry (`telemetry::MetricsRegistry`).
//!
//! Retention rule: the trace keeps the newest `capacity` events *by
//! key*, not by insertion order — events are stamped in the future
//! (`NetDeliver` at its delivery instant, `NetDrop` at `tx_done`), so
//! the last `capacity` records made are not the last `capacity` of the
//! merged order. A store holds at most `capacity` records: when a full
//! one records another, the older by key of its oldest and the new one
//! is dropped. A record that `capacity` newer ones outrank can never be
//! among the newest again, so no store drops an event among the newest
//! `capacity` of the whole run, and the merge-time cut of the union is
//! exact at any shard count. `evicted()` is `recorded − retained`.
//!
//! The store is one ring in key order, and keeping it so is cheap
//! because records arrive nearly in key order: the kernel clock only
//! moves forward. A record stamped ahead of the clock (a frame's
//! delivery) would be passed by every record made while the frame is in
//! flight, so it is held back, in a min-heap on its key, until the clock
//! reaches its stamp. A held record is stamped after every record in the
//! ring, so the store's oldest is the ring's front (the heap's top when
//! the ring is empty). What enters the ring is out of order only among
//! same-instant records of different lanes, so it goes in a place or two
//! from the back. The merge of a single store appends its held records
//! in heap order; the union of several is far from key order, so it
//! selects the newest `capacity` and sorts only those.

use crate::event::{EventKind, TraceEvent, TraceId};
use simcore::{Context, FastMap, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use telemetry::{MetricsRegistry, Stamp};

/// Default store capacity, 2^18 events. A full store is an 8.5 MiB ring
/// of 34-byte records, and the JSONL and Chrome traces rendered from it
/// are about 70 MB.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// A [`Record`]'s tag bit saying it carries a trace id; the tag's other
/// bits are the kind's variant ([`EventKind::pack`]). A flag, not a
/// reserved id: every `u64` is a trace id a probe can have.
const TRACED: u8 = 0x80;

/// One event at rest, with the recorder lane and per-lane seq that key
/// it: 34 bytes, no padding. The instant is a [`Stamp`] and the kind a
/// tag byte and two `u32`s; [`event`](Record::event) gives the
/// [`TraceEvent`] back.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct Record {
    at: Stamp,
    lane: u32,
    seq: u32,
    actor: u32,
    trace: u64,
    tag: u8,
    a: u32,
    b: u32,
}

impl Record {
    fn new(lane: u32, seq: u32, ev: TraceEvent) -> Record {
        let (variant, a, b) = ev.kind.pack();
        let (tag, trace) = match ev.trace {
            Some(TraceId(id)) => (variant | TRACED, id),
            None => (variant, 0),
        };
        Record {
            at: Stamp::new(ev.at),
            lane,
            seq,
            actor: ev.actor,
            trace,
            tag,
            a,
            b,
        }
    }

    fn at(self) -> SimTime {
        self.at.get().expect("a record's instant is stamped")
    }

    /// `(time, recorder lane, per-lane seq)`: the order of the merged trace.
    fn key(self) -> (SimTime, u32, u32) {
        (self.at(), self.lane, self.seq)
    }

    fn event(self) -> TraceEvent {
        TraceEvent {
            at: self.at(),
            trace: (self.tag & TRACED != 0).then_some(TraceId(self.trace)),
            actor: self.actor,
            kind: EventKind::unpack(self.tag & !TRACED, self.a, self.b),
        }
    }
}

/// A record stamped ahead of the recorder clock. Ordered by key,
/// reversed, so the top of a [`BinaryHeap`] is the smallest key.
#[derive(Clone, Copy)]
struct Held(Record);

impl Ord for Held {
    fn cmp(&self, other: &Self) -> Ordering {
        #[cfg(test)]
        tests::KEY_COMPARES.with(|n| n.set(n.get() + 1));
        other.0.key().cmp(&self.0.key())
    }
}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Held {}

/// Event sink, registered as a kernel service. A store holds at most
/// `capacity` events, always the newest by key of those it recorded
/// (module doc); [`merged`](TraceCollector::merged), which every run
/// (any shard count) goes through before exporting, orders them.
pub struct TraceCollector {
    /// The records the clock has reached, in key order; after `merged`,
    /// every retained event.
    ring: VecDeque<Record>,
    /// Records stamped ahead of the recorder clock, until the clock
    /// reaches them.
    ahead: BinaryHeap<Held>,
    capacity: usize,
    /// Events ever recorded, retained or not.
    recorded: u64,
    cur_lane: u32,
    cur_at: SimTime,
    lane_seqs: FastMap<u32, u32>,
}

impl TraceCollector {
    /// Collector with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Collector bounded to `capacity` retained events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCollector {
            ring: VecDeque::new(),
            ahead: BinaryHeap::new(),
            capacity: capacity.max(1),
            recorded: 0,
            cur_lane: 0,
            cur_at: SimTime::ZERO,
            lane_seqs: FastMap::default(),
        }
    }

    /// Set the recording context for subsequent records; called by
    /// [`hop`] with the acting actor's lane and the kernel clock so
    /// record keys are shard-invariant.
    pub fn set_recorder(&mut self, lane: u32, at: SimTime) {
        self.cur_lane = lane;
        self.cur_at = at;
    }

    fn next_seq(&mut self) -> u32 {
        let seq = self.lane_seqs.entry(self.cur_lane).or_insert(0);
        let n = *seq;
        *seq = n
            .checked_add(1)
            .expect("a lane records fewer than 2^32 events");
        n
    }

    /// Put a record the clock has reached in its place in the ring, a
    /// place or two from the back.
    fn store(&mut self, ev: Record) {
        let key = ev.key();
        let after = self.ring.iter().rev().take_while(|r| r.key() > key);
        let at = self.ring.len() - after.count();
        self.ring.insert(at, ev);
    }

    /// Record one event; `at` may not pass [`Stamp::LAST`].
    #[inline]
    pub fn record(&mut self, at: SimTime, trace: Option<TraceId>, actor: u32, kind: EventKind) {
        let seq = self.next_seq();
        self.recorded += 1;
        let event = TraceEvent {
            at,
            trace,
            actor,
            kind,
        };
        let ev = Record::new(self.cur_lane, seq, event);
        while let Some(&Held(held)) = self.ahead.peek() {
            if held.at() > self.cur_at {
                break;
            }
            self.ahead.pop();
            self.store(held);
        }
        if self.len() == self.capacity {
            // Full: drop the older of the store's oldest and this one.
            let oldest = self.ring.front().or(self.ahead.peek().map(|h| &h.0));
            if oldest.is_some_and(|o| o.key() > ev.key()) {
                return;
            }
            if self.ring.pop_front().is_none() {
                self.ahead.pop();
            }
        }
        if at > self.cur_at {
            self.ahead.push(Held(ev));
        } else {
            self.store(ev);
        }
    }

    /// Retained events; oldest first once [`merged`](Self::merged).
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let held = self.ahead.iter().map(|h| &h.0);
        self.ring.iter().chain(held).map(|r| r.event())
    }

    /// Events recorded and still retained.
    pub fn len(&self) -> usize {
        self.ring.len() + self.ahead.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound so far (0 means the trace is
    /// complete): recorded minus retained.
    pub fn evicted(&self) -> u64 {
        self.recorded - self.len() as u64
    }

    /// Merge per-shard collectors into the canonical whole-run trace: the
    /// newest `capacity` events of the union by `(time, lane, seq)`,
    /// sorted by it (exact: see the module doc).
    ///
    /// Every run goes through this — a serial run is merged-of-one — so
    /// exports are byte-identical across shard counts by construction.
    pub fn merged(parts: impl IntoIterator<Item = TraceCollector>) -> TraceCollector {
        let mut capacity = 1;
        let mut recorded = 0;
        let mut ring = VecDeque::new();
        let mut stores = 0;
        for mut part in parts {
            capacity = capacity.max(part.capacity);
            recorded += part.recorded;
            if part.is_empty() {
                continue;
            }
            stores += 1;
            // Stamped after every record in the ring: in heap order they
            // extend its key order.
            while let Some(Held(held)) = part.ahead.pop() {
                part.ring.push_back(held);
            }
            if stores == 1 {
                ring = part.ring;
            } else {
                ring.extend(part.ring);
            }
        }
        if stores > 1 {
            // Several stores one after another are far from key order:
            // select the newest, then sort only those.
            let mut events = Vec::from(ring);
            if events.len() > capacity {
                events.select_nth_unstable_by_key(capacity - 1, |e| Reverse(e.key()));
                events.truncate(capacity);
            }
            events.sort_unstable_by_key(|e| e.key());
            ring = events.into();
        }
        TraceCollector {
            ring,
            recorded,
            ..Self::with_capacity(capacity)
        }
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `f` against the trace collector if one is registered; a no-op
/// otherwise: when tracing is off the service is simply absent and the
/// cost is one type-map probe — no allocation, no event, no branch on
/// message data. Sets the recorder context (acting actor's lane, kernel
/// clock) so records carry shard-invariant keys.
#[inline]
fn with_trace(ctx: &mut Context<'_>, f: impl FnOnce(&mut TraceCollector, SimTime)) {
    let now = ctx.now();
    let lane = ctx.self_id().lane();
    if let Some(tr) = ctx.try_service_mut::<TraceCollector>() {
        tr.set_recorder(lane, now);
        f(tr, now);
    }
}

/// One observed hop of the calling actor, the one call instrumentation
/// sites make: records `kind` at `at` (a stamp ahead of the clock is
/// held, see the module doc) when the trace plane is on, and adds the
/// counters it moves ([`EventKind::counters`]) to the metrics registry
/// when that is registered, at the kernel clock whatever the stamp. A
/// kind that moves no counter costs one type-map probe with every plane
/// off.
#[inline]
pub fn hop(ctx: &mut Context<'_>, at: SimTime, trace: Option<TraceId>, kind: EventKind) {
    let actor = ctx.self_id().lane();
    let event = TraceEvent {
        at,
        trace,
        actor,
        kind,
    };
    if kind.counters().next().is_none() {
        with_trace(ctx, |tr, _| tr.record(at, trace, actor, kind));
    } else {
        hops(ctx, [event], |_| {});
    }
}

/// Several hops made together, each under its own actor, plus the
/// registry writes `also` makes beside their counters (a gauge the site
/// sets with them): one probe of each store, as one [`hop`] costs.
#[inline]
pub fn hops<const N: usize>(
    ctx: &mut Context<'_>,
    events: [TraceEvent; N],
    also: impl FnOnce(&mut MetricsRegistry),
) {
    with_trace(ctx, |tr, _| {
        for ev in events {
            tr.record(ev.at, ev.trace, ev.actor, ev.kind);
        }
    });
    telemetry::with_metrics(ctx, |m, _| {
        for (name, delta) in events.iter().flat_map(|ev| ev.kind.counters()) {
            m.add_counter(name, delta);
        }
        also(m);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Key comparisons [`Held`]'s `Ord` made on this thread.
        pub(super) static KEY_COMPARES: Cell<u64> = const { Cell::new(0) };
    }

    fn ev(n: u64) -> (SimTime, Option<TraceId>, u32, EventKind) {
        (
            SimTime::from_micros(n),
            Some(TraceId(n)),
            0,
            EventKind::PublishBegin,
        )
    }

    #[test]
    fn a_record_at_rest_is_34_unpadded_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 34);
        assert_eq!(std::mem::size_of::<Held>(), 34);
        assert_eq!(std::mem::align_of::<Record>(), 1);
    }

    #[test]
    fn merge_trims_to_capacity_keeping_newest() {
        let mut c = TraceCollector::with_capacity(3);
        for n in 0..5 {
            let (at, t, a, k) = ev(n);
            c.set_recorder(0, at);
            c.record(at, t, a, k);
        }
        let ring: Vec<u64> = c.ring.iter().map(|r| r.event().trace.unwrap().0).collect();
        assert_eq!(ring, vec![2, 3, 4], "the ring holds the newest capacity");
        assert_eq!(c.evicted(), 2);
        let m = TraceCollector::merged([c]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.evicted(), 2);
        let ids: Vec<u64> = m.events().map(|e| e.trace.unwrap().0).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest first, newest retained");
    }

    #[test]
    fn newest_is_by_key_not_by_insertion_order() {
        // A future-stamped record made early (the fabric stamps
        // `NetDeliver` at its delivery instant) outlives later records
        // with older stamps.
        let mut c = TraceCollector::with_capacity(2);
        let (_, t, a, k) = ev(100);
        c.record(SimTime::from_micros(100), t, a, k);
        for n in 0..9 {
            let (at, t, a, k) = ev(n);
            c.record(at, t, a, k);
        }
        let m = TraceCollector::merged([c]);
        let ids: Vec<u64> = m.events().map(|e| e.trace.unwrap().0).collect();
        assert_eq!(ids, vec![8, 100]);
        assert_eq!(m.evicted(), 8);
    }

    #[test]
    fn the_store_stays_in_key_order_while_frames_are_in_flight() {
        // One send per µs, each delivered 10 µs later: more frames in
        // flight than the capacity, so the held records crowd the ring out.
        let mut c = TraceCollector::with_capacity(4);
        for n in 0..40 {
            c.set_recorder(0, SimTime::from_micros(n));
            let actor = n as u32;
            c.record(
                SimTime::from_micros(n),
                None,
                actor,
                EventKind::PublishBegin,
            );
            c.record(
                SimTime::from_micros(n + 10),
                None,
                actor,
                EventKind::PublishEnd,
            );
            let keys: Vec<_> = c.ring.iter().map(|r| r.key()).collect();
            assert!(keys.is_sorted(), "the ring out of key order after {n}");
            let oldest_held = c.ahead.peek().map(|h| h.0.key());
            assert!(keys.last().zip(oldest_held).is_none_or(|(r, h)| *r < h));
            assert!(c.len() <= 4);
        }
        let m = TraceCollector::merged([c]);
        let newest: Vec<u32> = m.events().map(|e| e.actor).collect();
        assert_eq!(newest, vec![36, 37, 38, 39], "the last four deliveries");
    }

    #[test]
    fn same_instant_records_enter_the_ring_in_key_order() {
        // Lane 3's record at 5 µs enters the ring before lanes 1, 2, 4
        // and 5 record at the same instant: by key it sits among them.
        // Lane 0's frame delivered at 10 µs is held throughout, so each
        // record past the capacity drops the ring's front.
        let mut c = TraceCollector::with_capacity(4);
        let steps = [(1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 10), (5, 3, 5)];
        let same_instant = [(5, 1, 5), (5, 2, 5), (5, 4, 5), (5, 5, 5)];
        for (now, lane, at) in steps.into_iter().chain(same_instant) {
            c.set_recorder(lane, SimTime::from_micros(now));
            c.record(
                SimTime::from_micros(at),
                None,
                lane,
                EventKind::PublishBegin,
            );
        }
        let m = TraceCollector::merged([c]);
        let lanes: Vec<u32> = m.events().map(|e| e.actor).collect();
        assert_eq!(lanes, vec![3, 4, 5, 0]);
    }

    #[test]
    fn a_held_record_costs_logarithmic_key_compares() {
        // Every frame in flight at once, each stamped before all those
        // held: in a key-ordered list each would go in front of the rest.
        const N: u64 = 200_000;
        let mut c = TraceCollector::with_capacity(1 << 18);
        let before = KEY_COMPARES.get();
        for n in 0..N {
            c.record(
                SimTime::from_micros(2 * N - n),
                None,
                n as u32,
                EventKind::Delivered,
            );
        }
        assert_eq!(c.ahead.len() as u64, N);
        // The clock reaches the latest stamp and releases them all.
        c.set_recorder(0, SimTime::from_micros(2 * N));
        c.record(
            SimTime::from_micros(2 * N),
            None,
            N as u32,
            EventKind::PublishBegin,
        );
        assert!(c.ahead.is_empty());
        let per_record = (KEY_COMPARES.get() - before) as f64 / N as f64;
        let bound = 2.0 * (N as f64).log2().ceil() + 4.0;
        assert!(per_record <= bound, "{per_record} key compares a record");
        // Released smallest key first: the stamp order, not the record order.
        let m = TraceCollector::merged([c]);
        assert!(m
            .events()
            .map(|e| u64::from(e.actor))
            .eq((0..N).rev().chain([N])));
    }

    #[test]
    fn store_never_holds_more_than_capacity() {
        for capacity in [1usize, 7, 64, 1000] {
            // Doubling from empty: never past the first power of two a
            // full ring or heap needs.
            let buffer = capacity.next_power_of_two().max(4);
            let mut c = TraceCollector::with_capacity(capacity);
            for n in 0..5 * capacity as u64 {
                // One record at the clock, one held until the clock
                // passes `capacity` µs later.
                let (at, t, a, k) = ev(n);
                c.set_recorder(0, at);
                c.record(at, t, a, k);
                let ahead = at + simcore::SimDuration::from_micros(capacity as u64);
                c.record(ahead, t, a, k);
                assert!(c.len() <= capacity, "capacity {capacity}");
                assert!(c.ring.capacity() <= buffer, "capacity {capacity}");
                assert!(c.ahead.capacity() <= buffer, "capacity {capacity}");
            }
            assert_eq!(c.evicted() + c.len() as u64, 10 * capacity as u64);
            assert_eq!(TraceCollector::merged([c]).evicted(), 9 * capacity as u64);
        }
    }

    #[test]
    fn merged_interleaves_shards() {
        // Shard A: lane 1 records at t=1,3. Shard B: lane 2 at t=2.
        let t = SimTime::from_micros;
        let mut a = TraceCollector::new();
        a.set_recorder(1, t(1));
        a.record(t(1), Some(TraceId(10)), 1, EventKind::PublishBegin);
        a.set_recorder(1, t(3));
        a.record(t(3), Some(TraceId(11)), 1, EventKind::PublishEnd);
        let mut b = TraceCollector::new();
        b.set_recorder(2, t(2));
        b.record(t(2), Some(TraceId(20)), 2, EventKind::Available);

        let m = TraceCollector::merged([a, b]);
        let order: Vec<u64> = m.events().map(|e| e.trace.unwrap().0).collect();
        assert_eq!(order, vec![10, 20, 11], "canonical (at, lane, seq) order");
    }

    /// A world whose one actor makes `hops` at 1 s, with the planes asked
    /// for registered; the registry is sampled at 1 s before the actor
    /// runs, then at 2 s.
    fn hop_world(
        trace: bool,
        metrics: bool,
        hops: impl FnMut(simcore::Payload, &mut Context) + 'static,
    ) -> simcore::Simulation {
        let t = SimTime::from_secs;
        let mut sim = simcore::Simulation::new(1);
        if trace {
            sim.add_service(TraceCollector::new());
        }
        if metrics {
            sim.add_service(MetricsRegistry::new());
        }
        let actor = sim.add_actor(simcore::FnActor(hops));
        sim.advance_to(t(1));
        if let Some(m) = sim.service_mut::<MetricsRegistry>() {
            m.sample(t(1));
        }
        sim.schedule(simcore::SimDuration::ZERO, actor, Box::new(()));
        sim.run_until(t(2));
        if let Some(m) = sim.service_mut::<MetricsRegistry>() {
            m.sample(t(2));
        }
        sim
    }

    #[test]
    fn a_hop_counts_only_into_a_registry_and_records_only_into_a_collector() {
        let selected = |_: simcore::Payload, ctx: &mut Context| {
            let now = ctx.now();
            let kind = EventKind::SelectorMatch {
                matched: 2,
                missed: 0,
            };
            hop(ctx, now, Some(TraceId(7)), kind);
        };
        let counted = hop_world(false, true, selected);
        assert!(counted.service::<TraceCollector>().is_none());
        let m = counted.service::<MetricsRegistry>().unwrap();
        assert_eq!(m.counter_at("selector_matches", 0), Some(2));
        // A zero delta is a write: the column starts with it.
        assert_eq!(m.counter_at("selector_misses", 0), Some(0));

        let traced = hop_world(true, false, selected);
        assert!(traced.service::<MetricsRegistry>().is_none());
        let tr = traced.service::<TraceCollector>().unwrap();
        let recorded: Vec<_> = tr.events().map(|e| (e.at, e.trace, e.kind)).collect();
        let kind = EventKind::SelectorMatch {
            matched: 2,
            missed: 0,
        };
        assert_eq!(recorded, [(SimTime::from_secs(1), Some(TraceId(7)), kind)]);
    }

    #[test]
    fn a_hop_stamped_ahead_counts_in_the_row_of_now() {
        let sim = hop_world(true, true, |_, ctx| {
            let now = ctx.now();
            let done = now + simcore::SimDuration::from_millis(500);
            hop(ctx, done, None, EventKind::StorageInsert { rows: 1 });
            let frame = |at, kind| TraceEvent {
                at,
                trace: None,
                actor: 3,
                kind,
            };
            let sent = frame(now, EventKind::NetSend { conn: 0, bytes: 9 });
            let delivered = frame(done, EventKind::NetDeliver { conn: 0 });
            hops(ctx, [sent, delivered], |m| {
                m.set_gauge("nic_backlog_us", 4.0)
            });
        });
        // Made at 1 s, after the 1 s snapshot: folded into its row, not
        // the 2 s one the stamps fall before.
        let m = sim.service::<MetricsRegistry>().unwrap();
        for counter in ["tuples_stored", "net_frames_sent", "net_frames_delivered"] {
            assert_eq!(m.counter_at(counter, 0), Some(1), "{counter}");
        }
        assert_eq!(m.gauge_at("nic_backlog_us", 0), Some(4.0));
        let tr = sim.service::<TraceCollector>().unwrap();
        let mut stamps: Vec<_> = tr.events().map(|e| (e.at.as_micros(), e.actor)).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, [(1_000_000, 3), (1_500_000, 0), (1_500_000, 3)]);
    }

    #[test]
    fn with_trace_is_noop_without_service() {
        let mut sim = simcore::Simulation::new(1);
        let probe = sim.add_actor(simcore::FnActor(
            |_m: simcore::Payload, ctx: &mut Context| {
                with_trace(ctx, |tr, now| {
                    tr.record(now, None, 0, EventKind::PublishBegin);
                });
            },
        ));
        sim.schedule(simcore::SimDuration::ZERO, probe, Box::new(()));
        sim.run_until(SimTime::from_secs(1));
        // No collector registered: nothing to observe, nothing panicked.
        assert!(sim.service::<TraceCollector>().is_none());
    }
}
