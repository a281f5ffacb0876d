//! Primary Producer memory storage with latest/history retention.
//!
//! Each simulated generator gets one server-side producer instance with
//! its own storage, exactly as the paper configured ("Primary Producers
//! used memory storage to allow fast query. The latest retention period
//! was set to 30 seconds and history retention period was set to 1
//! minute.").

use simcore::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::ProbeId;
use wire::Tuple;

/// A stored tuple plus its telemetry probe.
#[derive(Debug, Clone)]
pub struct StoredTuple {
    /// The tuple (with `inserted_at` stamped), shared from here on:
    /// streaming, fetches and polls hand out this allocation.
    pub tuple: Arc<Tuple>,
    /// Telemetry probe of the insert.
    pub probe: ProbeId,
    /// `tuple.inserted_at` again, beside the pointer: the retention
    /// searches compare times without following it.
    pub inserted_at: SimTime,
}

/// In-memory tuple store with retention sweeping and stream cursors.
#[derive(Debug, Default)]
pub struct MemoryStorage {
    /// Live tuples in insertion order, hence in non-decreasing
    /// `inserted_at` order (what the binary searches below rely on).
    entries: Vec<StoredTuple>,
    /// Tuples evicted so far: cursor of `entries[0]`.
    evicted: usize,
    latest_retention: SimDuration,
    history_retention: SimDuration,
}

impl MemoryStorage {
    /// New storage with the given retention settings.
    pub fn new(latest_retention: SimDuration, history_retention: SimDuration) -> Self {
        MemoryStorage {
            entries: Vec::new(),
            evicted: 0,
            latest_retention,
            history_retention,
        }
    }

    /// Insert a tuple at `now` (never earlier than the previous insert);
    /// stamps `inserted_at`, the last write before the tuple is shared.
    /// Returns its cursor position (monotonic across evictions).
    pub fn insert(&mut self, mut tuple: Tuple, probe: ProbeId, now: SimTime) -> u64 {
        debug_assert!(self.entries.last().is_none_or(|e| e.inserted_at <= now));
        tuple.inserted_at = now;
        self.entries.push(StoredTuple {
            tuple: Arc::new(tuple),
            probe,
            inserted_at: now,
        });
        (self.evicted + self.entries.len() - 1) as u64
    }

    /// Index of the first live tuple inserted at or after `t`.
    fn first_at_or_after(&self, t: SimTime) -> usize {
        self.entries.partition_point(|e| e.inserted_at < t)
    }

    /// Evict tuples older than the history retention. Returns how many
    /// were evicted.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let cutoff_time = SimTime::from_micros(
            now.as_micros()
                .saturating_sub(self.history_retention.as_micros()),
        );
        // The common sweep evicts nothing: one compare says so.
        let oldest = self.entries.first();
        if oldest.is_none_or(|e| e.inserted_at >= cutoff_time) {
            return 0;
        }
        let keep_from = self.first_at_or_after(cutoff_time);
        self.entries.drain(..keep_from);
        self.evicted += keep_from;
        keep_from
    }

    /// Tuples inserted at or after `cursor`; advances the cursor. This is
    /// the continuous-query read path: a stream attached at cursor C sees
    /// only tuples inserted after attachment.
    pub fn read_from(&self, cursor: u64) -> (&[StoredTuple], u64) {
        let start = (cursor as usize).saturating_sub(self.evicted);
        let slice = if start >= self.entries.len() {
            &[][..]
        } else {
            &self.entries[start..]
        };
        let new_cursor = (self.evicted + self.entries.len()) as u64;
        (slice, new_cursor)
    }

    /// Cursor one past the newest tuple (attach point for a new stream).
    pub fn tail_cursor(&self) -> u64 {
        (self.evicted + self.entries.len()) as u64
    }

    /// Cursor positioned at the first live tuple inserted at or after
    /// `since` (attach point including a replay window).
    pub fn cursor_since(&self, since: SimTime) -> u64 {
        (self.evicted + self.first_at_or_after(since)) as u64
    }

    /// Latest query: the most recent tuple within the latest-retention
    /// window.
    pub fn latest(&self, now: SimTime) -> Option<&StoredTuple> {
        let cutoff = SimTime::from_micros(
            now.as_micros()
                .saturating_sub(self.latest_retention.as_micros()),
        );
        self.entries.last().filter(|e| e.inserted_at >= cutoff)
    }

    /// History query: all tuples still retained.
    pub fn history(&self) -> &[StoredTuple] {
        &self.entries
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no live tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Value;

    fn tup(v: i32) -> Tuple {
        Tuple::new("g", vec![Value::Int(v)])
    }

    fn storage() -> MemoryStorage {
        MemoryStorage::new(SimDuration::from_secs(30), SimDuration::from_secs(60))
    }

    #[test]
    fn insert_stamps_time_and_orders() {
        let mut s = storage();
        s.insert(tup(1), ProbeId(0), SimTime::from_secs(1));
        s.insert(tup(2), ProbeId(1), SimTime::from_secs(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.history()[0].tuple.inserted_at, SimTime::from_secs(1));
        assert_eq!(*s.history()[1].tuple.values, [Value::Int(2)]);
    }

    #[test]
    fn sweep_evicts_old_history() {
        let mut s = storage();
        s.insert(tup(1), ProbeId(0), SimTime::from_secs(0));
        s.insert(tup(2), ProbeId(1), SimTime::from_secs(50));
        // At t=70, the t=0 tuple exceeds 60 s history retention.
        assert_eq!(s.sweep(SimTime::from_secs(70)), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.history()[0].probe, ProbeId(1));
        // Sweeping again evicts nothing.
        assert_eq!(s.sweep(SimTime::from_secs(70)), 0);
    }

    #[test]
    fn stream_cursor_only_sees_new_tuples() {
        let mut s = storage();
        s.insert(tup(1), ProbeId(0), SimTime::from_secs(1));
        let attach = s.tail_cursor();
        s.insert(tup(2), ProbeId(1), SimTime::from_secs(2));
        s.insert(tup(3), ProbeId(2), SimTime::from_secs(3));
        let (chunk, next) = s.read_from(attach);
        assert_eq!(chunk.len(), 2, "only tuples after attachment");
        assert_eq!(chunk[0].probe, ProbeId(1));
        let (chunk2, _) = s.read_from(next);
        assert!(chunk2.is_empty(), "cursor drained");
    }

    #[test]
    fn cursor_survives_eviction() {
        let mut s = storage();
        s.insert(tup(1), ProbeId(0), SimTime::from_secs(0));
        s.insert(tup(2), ProbeId(1), SimTime::from_secs(1));
        let cursor = s.tail_cursor(); // = 2
        s.sweep(SimTime::from_secs(120)); // evicts both
        s.insert(tup(3), ProbeId(2), SimTime::from_secs(121));
        let (chunk, _) = s.read_from(cursor);
        assert_eq!(chunk.len(), 1);
        assert_eq!(chunk[0].probe, ProbeId(2));
    }

    #[test]
    fn latest_respects_retention_window() {
        let mut s = storage();
        s.insert(tup(1), ProbeId(0), SimTime::from_secs(0));
        assert_eq!(s.latest(SimTime::from_secs(10)).unwrap().probe, ProbeId(0));
        // At t=31 the latest-retention (30 s) window has passed.
        assert!(s.latest(SimTime::from_secs(31)).is_none());
        s.insert(tup(2), ProbeId(1), SimTime::from_secs(40));
        assert_eq!(s.latest(SimTime::from_secs(41)).unwrap().probe, ProbeId(1));
    }

    #[test]
    fn equal_timestamps_at_the_cut_off_are_kept() {
        // Three tuples share t=10 (one CPU completion instant), between
        // an older and a newer one; every cut-off is `>=`.
        let mut s = storage();
        for (probe, secs) in [(0, 5), (1, 10), (2, 10), (3, 10), (4, 20)] {
            s.insert(tup(probe as i32), ProbeId(probe), SimTime::from_secs(secs));
        }
        assert_eq!(s.cursor_since(SimTime::from_secs(10)), 1);
        assert_eq!(s.cursor_since(SimTime::from_micros(10_000_001)), 4);
        assert_eq!(s.cursor_since(SimTime::from_secs(21)), s.tail_cursor());
        // Latest retention 30 s: at t=50 the newest (t=20) sits exactly
        // on the cut-off and still answers; one microsecond later not.
        assert_eq!(s.latest(SimTime::from_secs(50)).unwrap().probe, ProbeId(4));
        assert!(s.latest(SimTime::from_micros(50_000_001)).is_none());
        // History retention 60 s: at t=70 the cut-off is t=10 — only the
        // t=5 tuple goes, all three t=10 tuples stay.
        assert_eq!(s.sweep(SimTime::from_secs(70)), 1);
        assert_eq!(s.history()[0].probe, ProbeId(1));
        assert_eq!(s.cursor_since(SimTime::from_secs(10)), 1, "cursors survive");
        assert_eq!(s.sweep(SimTime::from_micros(70_000_001)), 3);
        assert_eq!(s.history()[0].probe, ProbeId(4));
    }

    #[test]
    fn read_past_end_is_empty() {
        let s = storage();
        let (chunk, cursor) = s.read_from(999);
        assert!(chunk.is_empty());
        assert_eq!(cursor, 0);
    }
}
