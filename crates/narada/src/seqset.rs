//! An exact set of sequence numbers that stays small when they arrive
//! nearly in order.

use std::collections::BTreeSet;

/// The set of `u64` sequence numbers seen so far, held as the contiguous
/// prefix `0..next` plus the stragglers above it. Numbers handed out by
/// a counter and carried over a network arrive almost in order, so the
/// straggler set holds only what is in flight around a gap, where a hash
/// set of everything seen grows by one entry per message for ever.
/// Membership answers are the same as a plain set's.
#[derive(Debug, Default)]
pub(crate) struct SeqSet {
    /// Every seq below this one has been seen.
    next: u64,
    /// Seen seqs above the contiguous prefix; never contains `next`.
    above: BTreeSet<u64>,
}

impl SeqSet {
    /// Add `seq`; true if it was not in the set.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if seq > self.next {
            return self.above.insert(seq);
        }
        self.next += 1;
        while self.above.remove(&self.next) {
            self.next += 1;
        }
        true
    }

    /// Highest seq of the contiguous prefix, `None` while seq 0 is missing.
    pub(crate) fn contiguous_max(&self) -> Option<u64> {
        self.next.checked_sub(1)
    }

    /// Seen seqs above the contiguous prefix, ascending.
    pub(crate) fn above(&self) -> impl Iterator<Item = u64> + '_ {
        self.above.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::{FastMap, FastSet};

    #[test]
    fn in_order_stream_keeps_no_stragglers() {
        let mut s = SeqSet::default();
        assert_eq!(s.contiguous_max(), None);
        for seq in 0..1000 {
            assert!(s.insert(seq));
        }
        assert_eq!(s.contiguous_max(), Some(999));
        assert_eq!(s.above().count(), 0);
        assert!(!s.insert(17));
    }

    #[test]
    fn gap_holds_stragglers_until_filled() {
        let mut s = SeqSet::default();
        assert!(s.insert(0));
        assert!(s.insert(2));
        assert!(s.insert(3));
        assert!(!s.insert(2));
        assert_eq!(s.contiguous_max(), Some(0));
        assert_eq!(s.above().collect::<Vec<_>>(), vec![2, 3]);
        assert!(s.insert(1));
        assert_eq!(s.contiguous_max(), Some(3));
        assert_eq!(s.above().count(), 0);
    }

    proptest! {
        /// Per-origin `SeqSet`s answer exactly like one `HashSet` of
        /// `(origin, seq)` on permuted, duplicated and gapped streams —
        /// the broker's flood dedup before and after.
        #[test]
        fn matches_hash_set_reference(
            stream in proptest::collection::vec((0u16..4, 0u64..48), 0..400),
        ) {
            let mut reference: FastSet<(u16, u64)> = FastSet::default();
            let mut sets: FastMap<u16, SeqSet> = FastMap::default();
            for (origin, seq) in stream {
                prop_assert_eq!(
                    sets.entry(origin).or_default().insert(seq),
                    reference.insert((origin, seq))
                );
            }
            for (origin, set) in &sets {
                // Nothing at or below the prefix lingers as a straggler.
                prop_assert!(set.above().all(|s| s > set.next));
                let seen = set.next as usize + set.above().count();
                prop_assert_eq!(seen, reference.iter().filter(|(o, _)| o == origin).count());
            }
        }
    }
}
