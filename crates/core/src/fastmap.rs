//! A fast hash map for small integer keys.
//!
//! Its one user is [`DynamicOrpKw`](crate::dynamic::DynamicOrpKw)'s
//! live-handle set, which a query consults once per reported object of
//! every block. The keys are `u64` handle ids, so a multiply-rotate
//! hash (the FxHash construction used across rustc) is
//! collision-adequate and several times faster than the standard
//! library's SipHash. (The framework tree's per-node keyword lookups
//! binary-search sorted tables instead; DESIGN §17.)

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: word-at-a-time multiply-rotate. Not DoS
/// resistant — fine for internal integer keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert(i, i * 7);
        }
        for i in 0..10_000u32 {
            assert_eq!(m.get(&i), Some(&(i * 7)));
        }
        assert_eq!(m.get(&10_001), None);
    }

    #[test]
    fn hash_distributes() {
        // Sequential keys should not collapse into few buckets: check
        // that low bits vary.
        use std::hash::BuildHasher;
        let bh = BuildHasherDefault::<FxHasher>::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u32 {
            let mut h = bh.build_hasher();
            h.write_u32(i);
            low_bits.insert(h.finish() & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }
}
