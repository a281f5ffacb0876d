//! The one hasher for every table in the workspace.
//!
//! Every key hashed here is an id the simulator minted itself (a `TypeId`,
//! a connection / request / probe id, an actor lane) or a schema or topic
//! name it was configured with, so SipHash's flood resistance buys nothing
//! and its cost per probe was the largest per-event cost left. A fixed
//! hasher also draws no `RandomState` seed: same-seed runs allocate
//! identically. Hash *order* is repeatable now, not meaningful — anything
//! that iterates a table and schedules still collects and sorts first.

#![allow(clippy::disallowed_types)] // the two aliases below are the rule's one exception

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the workspace's fixed multiply hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` with the workspace's fixed multiply hasher.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// One folded multiply per word.
///
/// A plain `h * K` (the textbook FxHash) only carries key bits *upward*,
/// and hashbrown takes the bucket from the low bits of the hash: packed
/// ids (`lane << 32 | seq`, multiples of 2¹⁶) then share a handful of
/// buckets. XOR-ing the high half of the 128-bit product into the low
/// half brings every key bit down to where the bucket index is read, and
/// keeps it in the top seven bits hashbrown uses as the control byte.
#[derive(Default)]
pub struct FastHasher(u64);

/// 2⁶⁴ / φ, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Names: whole words, then the last eight bytes again (or, under
    /// eight, two overlapping halves or three bytes), then the length.
    /// Overlapping loads cover the tail without a byte loop or a `memcpy`;
    /// copying the tail into a zeroed word costs more than SipHash does on
    /// a short name.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                bytes[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        if n >= 8 {
            for at in (0..n - 8).step_by(8) {
                self.write_u64(word(at));
            }
            self.write_u64(word(n - 8));
        } else if n >= 4 {
            self.write_u64(half(0) | (half(n - 4) << 32));
        } else if n > 0 {
            let (first, mid, last) = (bytes[0], bytes[n / 2], bytes[n - 1]);
            self.write_u64(u64::from(first) | (u64::from(mid) << 8) | (u64::from(last) << 16));
        }
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, w: u8) {
        self.write_u64(u64::from(w));
    }
    #[inline]
    fn write_u16(&mut self, w: u16) {
        self.write_u64(u64::from(w));
    }
    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }
    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// The textbook FxHash, `finish() = h`: the negative control.
    #[derive(Default)]
    struct NaiveFx(u64);
    impl Hasher for NaiveFx {
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys only")
        }
        fn write_u64(&mut self, w: u64) {
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    /// hashbrown reads the bucket from the low bits of the hash and the
    /// control byte from the top seven: 4 096 keys must spread over both.
    fn spreads<H: Hasher + Default, T: Hash>(keys: impl Iterator<Item = T>) -> bool {
        let (mut buckets, mut tags, mut n) = (FastSet::default(), FastSet::default(), 0);
        for k in keys {
            let h = BuildHasherDefault::<H>::default().hash_one(k);
            buckets.insert(h & 0xFFF);
            tags.insert(h >> 57);
            n += 1;
        }
        assert_eq!(n, 4096);
        buckets.len() >= 2000 && tags.len() >= 100
    }

    /// The packed-id families the simulator mints, 4 096 keys each.
    fn families() -> Vec<(&'static str, Vec<u64>)> {
        let family = |key: fn(u64) -> u64| (0..4096).map(key).collect();
        vec![
            // ProbeId = lane << 32 | seq: 4 000 lanes x 60 seqs, walked both ways.
            ("probe, lane-major", family(|i| ((i / 60) << 32) | (i % 60))),
            (
                "probe, seq-major",
                family(|i| ((i % 4000) << 32) | (i / 4000)),
            ),
            // Runtime ConnId = 1 << 31 | count << 16 | opener.
            ("conn, one opener", family(|i| (1 << 31) | (i << 16) | 7)),
            (
                "conn, 64 openers",
                family(|i| (1 << 31) | ((i / 64) << 16) | (i % 64)),
            ),
            ("multiples of 2^16", family(|i| i << 16)),
            ("sequential", family(|i| i)),
        ]
    }

    #[test]
    fn packed_ids_spread_over_buckets_and_control_bytes() {
        for (name, keys) in families() {
            assert!(spreads::<FastHasher, _>(keys.into_iter()), "{name}");
        }
        let pairs = || (0..4096usize).map(|i| ((i % 4) as u16, i / 4));
        assert!(spreads::<FastHasher, _>(pairs()), "(u16, usize) pairs");
    }

    #[test]
    fn the_textbook_multiply_fails_the_same_check() {
        let failed: Vec<&str> = families()
            .into_iter()
            .filter(|(_, keys)| !spreads::<NaiveFx, _>(keys.iter().copied()))
            .map(|(name, _)| name)
            .collect();
        assert!(failed.contains(&"multiples of 2^16"), "{failed:?}");
        assert!(failed.contains(&"probe, lane-major"), "{failed:?}");
    }

    #[test]
    fn strings_differing_in_any_byte_differ_in_the_low_bits() {
        // A plain multiply keeps a word's top byte out of the low bits.
        let h = |s: &str| BuildHasherDefault::<FastHasher>::default().hash_one(s);
        let low: FastSet<u64> = (0..64)
            .map(|i| h(&format!("topic{i:03}")) & 0xFFF)
            .collect();
        assert!(low.len() >= 56, "{}", low.len());
        // The overlapping tail loads see the same bytes in runs of one
        // letter and in a name and its zero-padded twin: the length tells
        // them apart.
        let runs: FastSet<u64> = (0..=24).map(|n| h(&"a".repeat(n))).collect();
        assert_eq!(runs.len(), 25);
        assert_ne!(h("a"), h("a\0"));
        assert_ne!(h("12345678"), h("12345678\0"));
    }
}
