//! The Fx hash (rustc's `FxHasher`): per word, one rotate, xor and multiply.
//!
//! It replaces SipHash in the maps whose keys the program, the topology, the
//! BDD store or SHA-1 chose (query ids hash a root the deployment numbers),
//! where resistance to chosen keys buys nothing; maps keyed by what a client
//! sends keep SipHash, a caching query session's target VIDs included.  No output reads either
//! kind's iteration order: every dump, snapshot and listing sorts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx hasher.  Unseeded, so deterministic across runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
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

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_deterministic_and_separates_one_byte_differences() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        let input: Vec<u8> = (1..=17).collect();
        for len in 0..=17 {
            assert_eq!(hash(&input[..len]), hash(&input[..len]));
            for i in 0..len {
                let mut other = input[..len].to_vec();
                other[i] ^= 0x80;
                assert_ne!(hash(&input[..len]), hash(&other), "{len} bytes, byte {i}");
            }
        }
    }
}
