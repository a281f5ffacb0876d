//! Per-reading records stored where the reading's [`ProbeId`] says.
//!
//! A `ProbeId` is `lane << 32 | seq` with `seq` dense per publisher, so a
//! table of records keyed by it needs no search tree: each lane owns a
//! run of chunks indexed by `seq`. Chunks start at `FIRST` records and
//! double up to `CAP`, then stay at `CAP`: a chunk is never copied to
//! grow, a lane holds at most one partly filled chunk, and a sparse lane
//! (a receive-side shard that sees every tenth reading) allocates only the
//! chunks its records land in. An instant at rest is a [`Stamp`], five
//! bytes, so a reading's four instants take 20.

use crate::rtt::ProbeId;
use simcore::{FastMap, SimTime};

/// Records in a lane's first chunk.
const FIRST: u32 = 64;
/// Records in every chunk from the seventh on.
const CAP: u32 = 4096;
/// Chunks that double (64 … 2048 records) before they reach `CAP`.
const GROWING: u32 = CAP.ilog2() - FIRST.ilog2();
/// Records the doubling chunks hold together.
const GROWN: u32 = FIRST * ((1 << GROWING) - 1);

/// A record a [`ProbeTable`] keeps per probe: small, `Copy`, with one
/// value meaning "nothing recorded" and a fold for two records of the
/// same probe from different shards.
pub trait Slot: Copy + PartialEq {
    /// The record of a probe nothing was written for. Iteration skips
    /// slots equal to it.
    const VACANT: Self;

    /// Fold `other`, a record of the same probe, into `self`. Folding
    /// into [`VACANT`](Self::VACANT) must give `other`.
    fn fold(&mut self, other: Self);
}

/// An instant held in 40 bits: its microsecond count, five bytes
/// little-endian, with all ones meaning "not stamped". 2^40 µs is 12.7
/// simulated days; a run's horizon is held to half of that
/// (`gridmon_core::experiment::MAX_HORIZON`), which leaves the other half for
/// instants stamped ahead of the clock. A run's instants never use the
/// top 24 bits of a `SimTime`, and a `Stamp` does not keep them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Stamp([u8; 5]);

impl Stamp {
    /// "Not stamped": every bit set, above every instant a `Stamp` holds.
    pub const NONE: Stamp = Stamp([u8::MAX; 5]);
    /// The latest instant a `Stamp` holds, 2^40 − 2 µs.
    pub const LAST: SimTime = SimTime::from_micros((1 << 40) - 2);

    /// `t`, which must not pass [`LAST`](Self::LAST): the experiment
    /// layer refuses a horizon that could reach it.
    pub fn new(t: SimTime) -> Stamp {
        assert!(t <= Self::LAST, "instant {t} past a stamp's 40 bits");
        let [b0, b1, b2, b3, b4, ..] = t.as_micros().to_le_bytes();
        Stamp([b0, b1, b2, b3, b4])
    }

    /// The instant, `None` for [`NONE`](Self::NONE).
    pub fn get(self) -> Option<SimTime> {
        (self != Self::NONE).then(|| SimTime::from_micros(self.micros()))
    }

    /// The microsecond count; [`NONE`](Self::NONE) reads 2^40 − 1.
    fn micros(self) -> u64 {
        let [b0, b1, b2, b3, b4] = self.0;
        u64::from_le_bytes([b0, b1, b2, b3, b4, 0, 0, 0])
    }

    /// Keep the earlier of `self` and `t`.
    pub fn stamp(&mut self, t: SimTime) {
        self.fold(Stamp::new(t));
    }
}

impl std::fmt::Debug for Stamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(t) => write!(f, "Stamp({t})"),
            None => f.write_str("Stamp::NONE"),
        }
    }
}

/// The earliest instant: [`Stamp::NONE`] is "never", and reads above
/// every instant, so the minimum keeps a stamped one over it.
impl Slot for Stamp {
    const VACANT: Stamp = Stamp::NONE;

    fn fold(&mut self, other: Stamp) {
        if other.micros() < self.micros() {
            *self = other;
        }
    }
}

/// Which chunk of a lane holds `seq`, and where in it.
fn locate(seq: u32) -> (usize, usize) {
    if seq < GROWN {
        let v = seq + FIRST;
        let k = v.ilog2() - FIRST.ilog2();
        (k as usize, (v - (FIRST << k)) as usize)
    } else {
        let s = seq - GROWN;
        ((GROWING + s / CAP) as usize, (s % CAP) as usize)
    }
}

/// The first `seq` chunk `k` holds.
fn chunk_base(k: usize) -> u32 {
    let k = u32::try_from(k).expect("a lane has fewer than 2^32 chunks");
    if k <= GROWING {
        FIRST * ((1 << k) - 1)
    } else {
        GROWN + (k - GROWING) * CAP
    }
}

/// Records chunk `k` holds.
fn chunk_len(k: usize) -> usize {
    (FIRST << (k as u32).min(GROWING)) as usize
}

/// One publisher's records, chunk `k` covering `chunk_base(k)..` for
/// `chunk_len(k)` sequence numbers; `None` where nothing landed yet.
#[derive(Debug, Clone)]
struct Lane<T> {
    lane: u32,
    chunks: Vec<Option<Box<[T]>>>,
}

impl<T: Slot> Lane<T> {
    fn slot_mut(&mut self, k: usize, offset: usize) -> &mut T {
        if self.chunks.len() <= k {
            self.chunks.resize_with(k + 1, || None);
        }
        let chunk =
            self.chunks[k].get_or_insert_with(|| vec![T::VACANT; chunk_len(k)].into_boxed_slice());
        &mut chunk[offset]
    }

    /// `(seq, record)` of every written slot, in `seq` order.
    fn records(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(k, chunk)| {
            let base = chunk_base(k);
            chunk
                .iter()
                .flat_map(|c| c.iter().enumerate())
                .filter(|(_, t)| **t != T::VACANT)
                // A written slot's `seq` fits: it came from a `ProbeId`.
                .map(move |(offset, &t)| (base + offset as u32, t))
        })
    }
}

/// A map from [`ProbeId`] to a small record, laid out per publisher lane
/// in `seq`-indexed chunks (see the module docs). Iteration is in
/// `ProbeId` order — lanes ascending, then `seq` — and skips vacant
/// slots, so anything accumulated over it is a function of the keys,
/// never of the order the records were written in.
#[derive(Debug, Clone)]
pub struct ProbeTable<T> {
    /// Lane number → its position in `lanes` (insertion order).
    index: FastMap<u32, u32>,
    lanes: Vec<Lane<T>>,
}

impl<T> Default for ProbeTable<T> {
    fn default() -> Self {
        ProbeTable {
            index: FastMap::default(),
            lanes: Vec::new(),
        }
    }
}

impl<T: Slot> ProbeTable<T> {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn lane_mut(&mut self, lane: u32) -> &mut Lane<T> {
        let lanes = &mut self.lanes;
        let pos = *self.index.entry(lane).or_insert_with(|| {
            lanes.push(Lane {
                lane,
                chunks: Vec::new(),
            });
            u32::try_from(lanes.len() - 1).expect("fewer than 2^32 lanes")
        });
        &mut lanes[pos as usize]
    }

    /// The record of `id`, [`Slot::VACANT`] until something is written.
    pub fn slot_mut(&mut self, id: ProbeId) -> &mut T {
        let (k, offset) = locate(id.seq());
        self.lane_mut(id.lane()).slot_mut(k, offset)
    }

    /// The record of `id`, `None` while vacant.
    pub fn get(&self, id: ProbeId) -> Option<T> {
        let lane = &self.lanes[*self.index.get(&id.lane())? as usize];
        let (k, offset) = locate(id.seq());
        let t = lane.chunks.get(k)?.as_ref()?[offset];
        (t != T::VACANT).then_some(t)
    }

    /// Every written record, in `ProbeId` order.
    pub fn iter(&self) -> impl Iterator<Item = (ProbeId, T)> + '_ {
        let mut lanes: Vec<&Lane<T>> = self.lanes.iter().collect();
        lanes.sort_unstable_by_key(|l| l.lane);
        lanes.into_iter().flat_map(|l| {
            l.records()
                .map(move |(seq, t)| (ProbeId::compose(l.lane, seq), t))
        })
    }

    /// Every written record, mutably, in no particular order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.lanes
            .iter_mut()
            .flat_map(|l| l.chunks.iter_mut().flatten())
            .flat_map(|c| c.iter_mut())
            .filter(|t| **t != T::VACANT)
    }

    /// Written records (a walk of the table).
    pub fn count(&self) -> u64 {
        self.lanes.iter().map(|l| l.records().count() as u64).sum()
    }

    /// Fold every record of `other` into this table with [`Slot::fold`],
    /// slot by slot, freeing `other` a chunk at a time as it goes. Folding
    /// into an empty table is the same walk: merged-of-one is not a
    /// shortcut.
    pub fn fold_in(&mut self, other: ProbeTable<T>) {
        for src in other.lanes {
            let dst = self.lane_mut(src.lane);
            for (k, chunk) in src.chunks.into_iter().enumerate() {
                for (offset, &t) in chunk.iter().flat_map(|c| c.iter()).enumerate() {
                    if t != T::VACANT {
                        dst.slot_mut(k, offset).fold(t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_double_to_the_cap_and_tile_the_sequence_space() {
        assert_eq!((GROWING, GROWN), (6, 4032));
        let mut next = 0u64;
        for k in 0..12 {
            assert_eq!(u64::from(chunk_base(k)), next, "chunk {k}");
            let len = chunk_len(k);
            assert_eq!(len, (64usize << k).min(4096));
            let first = chunk_base(k);
            assert_eq!(locate(first), (k, 0));
            assert_eq!(locate(first + len as u32 - 1), (k, len - 1));
            next += len as u64;
        }
        let (k, offset) = locate(u32::MAX);
        assert_eq!(
            u64::from(chunk_base(k)) + offset as u64,
            u64::from(u32::MAX)
        );
        assert!(offset < chunk_len(k));
    }

    fn us(v: u64) -> Stamp {
        Stamp::new(SimTime::from_micros(v))
    }

    #[test]
    fn a_stamp_is_five_bytes_and_round_trips_to_its_last_instant() {
        assert_eq!(std::mem::size_of::<Stamp>(), 5);
        for v in [0, 1, 255, 256, 1 << 32, (1 << 39) + 7, (1 << 40) - 2] {
            let t = SimTime::from_micros(v);
            assert_eq!(Stamp::new(t).get(), Some(t));
        }
        assert_eq!(Stamp::NONE.get(), None);
        let mut s = Stamp::NONE;
        s.stamp(Stamp::LAST);
        assert_eq!(s.get(), Some(Stamp::LAST), "the last instant beats NONE");
        s.stamp(SimTime::from_micros(1 << 32));
        s.stamp(SimTime::from_micros(255));
        s.stamp(SimTime::from_micros(256));
        assert_eq!(s, us(255), "the earliest stamp wins across byte carries");
    }

    #[test]
    #[should_panic(expected = "past a stamp's 40 bits")]
    fn an_instant_past_forty_bits_is_refused() {
        Stamp::new(SimTime::from_micros((1 << 40) - 1));
    }

    #[test]
    fn iterates_in_probe_id_order_and_skips_vacant_slots() {
        let mut t: ProbeTable<Stamp> = ProbeTable::new();
        let ids = [
            ProbeId::compose(9, 5000),
            ProbeId::compose(3, 70),
            ProbeId::compose(u32::MAX, u32::MAX),
            ProbeId::compose(9, 0),
            ProbeId::compose(3, 1),
        ];
        for (i, &id) in ids.iter().enumerate() {
            t.slot_mut(id).stamp(SimTime::from_micros(i as u64));
        }
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let walked: Vec<ProbeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(walked, sorted);
        assert_eq!(t.count(), 5);
        assert_eq!(t.get(ProbeId::compose(3, 70)), Some(us(1)));
        assert_eq!(
            t.get(ProbeId::compose(3, 2)),
            None,
            "vacant in a live chunk"
        );
        assert_eq!(t.get(ProbeId::compose(4, 0)), None, "unknown lane");
        assert_eq!(t.get(ProbeId::compose(9, 100_000)), None, "past the chunks");
    }

    #[test]
    fn fold_in_keeps_the_earliest_instant_per_probe() {
        let (a, b) = (ProbeId::compose(1, 0), ProbeId::compose(1, 900));
        let mut left: ProbeTable<Stamp> = ProbeTable::new();
        *left.slot_mut(a) = us(7);
        let mut right: ProbeTable<Stamp> = ProbeTable::new();
        *right.slot_mut(a) = us(3);
        *right.slot_mut(b) = us(9);
        left.fold_in(right);
        let all: Vec<_> = left.iter().collect();
        assert_eq!(all, [(a, us(3)), (b, us(9))]);
    }
}
