//! Integer-key hashing (replaces the `rustc-hash` crate).
//!
//! Std's default hasher is SipHash-1-3 behind a random seed: built to
//! withstand adversarial keys, it was 7.4 % of a monitored ring's SIGPROF
//! samples and 14 % of the offline planner's, and it changes iteration
//! order from run to run.  Every library map here is
//! keyed by ranks, tags, communicator ids and small enums, none of them
//! chosen by an adversary, so [`IdHasher`] is the FxHash multiply–rotate
//! used by rustc: each integer written costs one add and one multiply, and
//! the hash of a key is the same in every run and on every host.
//!
//! `hashbrown` (std's table) picks a bucket with the hash's *low* bits, and
//! a multiply carries entropy only upwards, so [`Hasher::finish`] rotates
//! the product's high bits down, as rustc-hash 2 does.
//!
//! This module is the only library file that names std's `HashMap` /
//! `HashSet` (`tests/repo_rules.rs`, rule 9): every other map is an
//! [`IdMap`] or an [`IdSet`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`]; build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`]; build one with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// rustc-hash 2's multiplier: odd, with well-mixed high bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`Hasher::finish`] rotates the product left (rustc-hash 2's).
const ROTATE: u32 = 26;

/// FxHash: `hash = (hash + word) · K` per integer written, then a rotate.
/// Not collision-resistant against chosen keys; never key it by outside
/// input.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    /// Bytes (strings, slices of `u8`) one little-endian 8-byte word at a
    /// time, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// A fieldless enum's derived `Hash` writes its discriminant here.
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_one(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Shaped like `mim_mpisim::envelope::Ctx`: fieldless, derived `Hash`.
    #[derive(Hash)]
    #[allow(dead_code)]
    enum Ctx {
        Pt2pt,
        Coll,
    }

    /// The hasher is part of the determinism contract: a map's iteration
    /// order is a pure function of its keys and insertion history, so these
    /// values may change only together with every order that rests on them.
    #[test]
    fn hash_values_are_pinned() {
        // The unexpected queue's channel key: `(src_world, tag)`.
        assert_eq!(hash_one((3usize, 7u32)), 0xbbab_bee4_bb53_b637);
        // Its group key: `(comm_id, ctx)`.
        assert_eq!(hash_one((7u64, Ctx::Coll)), 0x9ac9_1a13_d1f9_2e64);
        // A membership-derived communicator id (top bit set).
        assert_eq!(hash_one(0x8000_0000_dead_beefu64), 0xd060_f6d3_ae1a_89db);
    }

    /// One round per integer written, whatever its width; a fieldless enum
    /// is one round through `write_isize`.
    #[test]
    fn each_integer_is_one_round() {
        let round = |h: u64, word: u64| h.wrapping_add(word).wrapping_mul(K);
        let finish = |h: u64| h.rotate_left(ROTATE);
        assert_eq!(hash_one(5u32), finish(round(0, 5)));
        assert_eq!(hash_one(5u64), finish(round(0, 5)));
        assert_eq!(hash_one(5usize), finish(round(0, 5)));
        assert_eq!(hash_one(-1isize), finish(round(0, u64::MAX)));
        assert_eq!(hash_one(Ctx::Coll), finish(round(0, 1)));
        assert_eq!(hash_one((5u32, 9usize)), finish(round(round(0, 5), 9)));
        // Bytes: one round per little-endian word, the last zero-padded.
        let mut bytes = IdHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(bytes.finish(), finish(round(round(0, 1), 2)));
    }

    /// Distinct keys, and no bucket of a 1024-bucket table (the low ten
    /// bits, where hashbrown looks) holding over four times the mean.
    fn assert_spread(hashes: Vec<u64>) {
        let n = hashes.len();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "colliding hashes");
        let mut buckets = [0usize; 1024];
        for h in hashes {
            buckets[(h & 1023) as usize] += 1;
        }
        let worst = buckets.iter().max().copied().unwrap_or(0);
        assert!(worst * 1024 <= 4 * n, "a bucket holds {worst} of {n} keys");
    }

    #[test]
    fn grid_and_top_bit_keys_spread_over_the_low_bits() {
        // The mailbox probe's 100 × 100 `(src, tag)` grid.
        let grid = (0..100usize).flat_map(|s| (0..100u32).map(move |t| hash_one((s, t))));
        assert_spread(grid.collect());
        // Ids with the top bit set, as membership derives them.
        assert_spread((0..10_000u64).map(|i| hash_one((1u64 << 63) | i)).collect());
    }
}
