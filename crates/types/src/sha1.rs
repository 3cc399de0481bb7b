//! A from-scratch SHA-1 implementation.
//!
//! ExSPAN identifies every vertex of the distributed provenance graph with a
//! 20-byte SHA-1 digest of its contents (paper §4.1): tuple vertices hash the
//! relation name, location and attribute values; rule-execution vertices hash
//! the rule label, location and the VIDs of their input tuples.  Only
//! collision resistance for identification purposes is required, so a compact
//! local implementation avoids an external cryptography dependency.
//!
//! Two block functions compute the same compression of a 64-byte block.  On
//! an x86_64 CPU that reports the SHA extensions, SSSE3 and SSE4.1, [`Sha1`]
//! runs the `sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2` instructions; std's
//! `is_x86_feature_detected!` decides, and caches its answer.  Other CPUs and
//! other targets run the portable 80 rounds, which are also the reference the
//! tests compare the accelerated function against.  Every digest is the same
//! either way.

/// A 20-byte SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the `null` RID that marks
    /// base tuples in the `prov` table).
    pub const ZERO: Digest = Digest([0u8; 20]);

    /// Returns the digest as a hexadecimal string.
    pub fn to_hex(&self) -> String {
        hex(&self.0, &mut [0; 40]).to_owned()
    }

    /// Returns a short (8 hex character) prefix, convenient for display.
    pub fn short(&self) -> String {
        hex(&self.0[..4], &mut [0; 8]).to_owned()
    }
}

/// Renders `bytes` as lower-case hex into `buf`, two characters a byte.
fn hex<'a>(bytes: &[u8], buf: &'a mut [u8]) -> &'a str {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for (pair, b) in buf.chunks_exact_mut(2).zip(bytes) {
        pair[0] = DIGITS[usize::from(b >> 4)];
        pair[1] = DIGITS[usize::from(b & 0xf)];
    }
    std::str::from_utf8(buf).expect("hex digits are ASCII")
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({self:.8}..)")
    }
}

/// The 40 hex characters.  A precision truncates as it does for a string, so
/// `{:.8}` writes [`Digest::short`] without allocating it.
impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(hex(&self.0, &mut [0; 40]))
    }
}

/// Streaming SHA-1 hasher.
///
/// ```
/// use exspan_types::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher initialized with the standard SHA-1 IV.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, Self::process_block);
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(Self::process_block)
    }

    /// The block function: SHA-NI where the CPU has it, the portable rounds
    /// everywhere else.
    fn process_block(state: &mut [u32; 5], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::process_block(state, block) {
            return;
        }
        portable_block(state, block);
    }

    /// [`Sha1::update`] over the block function `process_block`.
    fn absorb(&mut self, data: &[u8], process_block: impl Fn(&mut [u32; 5], &[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-full buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                process_block(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Process whole blocks directly from the input.
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            process_block(&mut self.state, &block);
            input = &input[64..];
        }
        // Stash the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// [`Sha1::finalize`] over the block function `process_block`.
    fn finish(mut self, process_block: impl Fn(&mut [u32; 5], &[u8; 64])) -> Digest {
        // The 0x80 terminator, zeros up to 56 mod 64, then the bit length:
        // all within the buffered block when those nine bytes fit in it, the
        // length in one more block otherwise.
        let mut block = [0u8; 64];
        let buffered = &self.buffer[..self.buffer_len];
        block[..buffered.len()].copy_from_slice(buffered);
        block[buffered.len()] = 0x80;
        if buffered.len() >= 56 {
            process_block(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        process_block(&mut self.state, &block);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The portable block function: the 80 rounds of FIPS 180-4 in plain Rust.
fn portable_block(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let mut s = *state;
    rounds(&mut w, &mut s, 0..20, 0x5A827999, |b, c, d| {
        (b & c) | (!b & d)
    });
    rounds(&mut w, &mut s, 20..40, 0x6ED9EBA1, |b, c, d| b ^ c ^ d);
    rounds(&mut w, &mut s, 40..60, 0x8F1BBCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    rounds(&mut w, &mut s, 60..80, 0xCA62C1D6, |b, c, d| b ^ c ^ d);
    for (state, word) in state.iter_mut().zip(s) {
        *state = state.wrapping_add(word);
    }
}

/// One run of rounds sharing a function `f` and a constant `k`, over the
/// 16-word rolling message schedule `w`.
#[inline(always)]
fn rounds(
    w: &mut [u32; 16],
    s: &mut [u32; 5],
    range: std::ops::Range<usize>,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    for i in range {
        if i >= 16 {
            let next = w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15];
            w[i & 15] = next.rotate_left(1);
        }
        let [a, b, c, d, e] = *s;
        let temp = a.rotate_left(5).wrapping_add(f(b, c, d)).wrapping_add(e);
        *s = [
            temp.wrapping_add(k).wrapping_add(w[i & 15]),
            a,
            b.rotate_left(30),
            c,
            d,
        ];
    }
}

/// The block function on the x86 SHA extensions.  This is the one module of
/// the workspace's own crates allowed `unsafe`: on the toolchains the
/// workspace supports, the instructions are reachable only through `unsafe`
/// intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
        _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Whether this CPU has the instructions [`compress`] is compiled for
    /// (SSE2 is part of x86_64).  std caches the answer after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `block` into `state` and returns true, or returns false
    /// with `state` untouched on a CPU without the instructions.
    pub(super) fn process_block(state: &mut [u32; 5], block: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` has just confirmed that this CPU supports
        // SHA, SSSE3 and SSE4.1, and x86_64 implies SSE2: every feature
        // `compress` is compiled with.
        unsafe { compress(state, block) };
        true
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1 (see [`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let words = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is a `&[u8; 64]`, so the 16-byte loads at offsets
        // 0, 16, 32 and 48 read only its bytes; `_mm_loadu_si128` accepts
        // any alignment.
        let mut w = unsafe {
            [
                _mm_loadu_si128(words),
                _mm_loadu_si128(words.add(1)),
                _mm_loadu_si128(words.add(2)),
                _mm_loadu_si128(words.add(3)),
            ]
        };
        // Byte-reverses each lane: the four big-endian message words of a
        // load become integers with the first in the highest lane, where the
        // instructions expect it.
        let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        for four_words in &mut w {
            *four_words = _mm_shuffle_epi8(*four_words, reverse);
        }

        let abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let e = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        // Twenty groups of four rounds.  Group i takes message words 4i..4i+3,
        // held in `w[0]`, plus E, which `sha1nexte` derives from the ABCD
        // that entered group i−1 (group 0 adds the initial E itself).  `w`
        // then slides on by four words, scheduled from the 16 before them
        // (the last four groups schedule words no group uses).
        let mut h = abcd;
        let mut entered_previous = abcd;
        for i in 0..20 {
            let e_and_words = if i == 0 {
                _mm_add_epi32(e, w[0])
            } else {
                _mm_sha1nexte_epu32(entered_previous, w[0])
            };
            let mixed = _mm_xor_si128(_mm_sha1msg1_epu32(w[0], w[1]), w[2]);
            w = [w[1], w[2], w[3], _mm_sha1msg2_epu32(mixed, w[3])];
            entered_previous = h;
            // The round function and constant change every 20 rounds.
            h = match i / 5 {
                0 => _mm_sha1rnds4_epu32(h, e_and_words, 0),
                1 => _mm_sha1rnds4_epu32(h, e_and_words, 1),
                2 => _mm_sha1rnds4_epu32(h, e_and_words, 2),
                _ => _mm_sha1rnds4_epu32(h, e_and_words, 3),
            };
        }
        let abcd = _mm_add_epi32(abcd, h);
        let e = _mm_sha1nexte_epu32(entered_previous, e);

        state[0] = _mm_extract_epi32(abcd, 3) as u32;
        state[1] = _mm_extract_epi32(abcd, 2) as u32;
        state[2] = _mm_extract_epi32(abcd, 1) as u32;
        state[3] = _mm_extract_epi32(abcd, 0) as u32;
        state[4] = _mm_extract_epi32(e, 3) as u32;
    }
}

/// One-shot convenience wrapper: hashes `data` and returns the digest.
pub fn sha1_digest(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    type BlockFn = fn(&mut [u32; 5], &[u8; 64]);

    /// Every block function this CPU runs: the portable one, and SHA-NI
    /// where the CPU has it.
    fn block_functions() -> Vec<(&'static str, BlockFn)> {
        let mut functions: Vec<(&'static str, BlockFn)> = vec![("portable", portable_block)];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            functions.push(("sha-ni", |state, block| {
                assert!(shani::process_block(state, block));
            }));
        }
        functions
    }

    /// The digest of `data` with `process_block` as the block function.
    fn digest_with(data: &[u8], process_block: BlockFn) -> Digest {
        let mut h = Sha1::new();
        h.absorb(data, process_block);
        h.finish(process_block)
    }

    /// Asserts that `data` digests to `hex` through the dispatching hasher
    /// and through each block function.
    fn assert_digest(data: &[u8], hex: &str) {
        let len = data.len();
        assert_eq!(sha1_digest(data).to_hex(), hex, "dispatch, length {len}");
        for (name, process_block) in block_functions() {
            let digest = digest_with(data, process_block);
            assert_eq!(digest.to_hex(), hex, "{name}, length {len}");
        }
    }

    /// `len` bytes from an xorshift generator continuing from `state`.
    fn pseudo_random(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 24) as u8
            })
            .collect()
    }

    // Standard FIPS-180 test vectors.
    #[test]
    fn empty_string() {
        assert_digest(b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_digest(b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_digest(&data, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn padding_boundaries() {
        // Lengths either side of where the terminator and the bit length
        // stop fitting in the last block (digests from the reference
        // implementation, over bytes i mod 251).
        for (len, hex) in [
            (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (119, "41c89d06001bab4ab78736b44efe7ce18ce6ae08"),
            (120, "d3dbd653bd8597b7475321b60a36891278e6a04a"),
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_digest(&data, hex);
        }
    }

    #[test]
    fn block_functions_agree_on_every_length_to_300() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for len in 0..=300 {
            let data = pseudo_random(&mut state, len);
            let reference = digest_with(&data, portable_block);
            assert_eq!(sha1_digest(&data), reference, "dispatch, length {len}");
            for (name, process_block) in block_functions() {
                let digest = digest_with(&data, process_block);
                assert_eq!(digest, reference, "{name}, length {len}");
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1_digest(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 130] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_display_and_short() {
        let d = sha1_digest(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert_eq!(d.short().len(), 8);
        assert!(format!("{d:?}").contains(&d.short()));
    }

    #[test]
    fn hex_rendering_matches_per_byte_formatting() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut digests = vec![Digest::ZERO, Digest([0xff; 20])];
        for _ in 0..200 {
            let bytes = pseudo_random(&mut state, 20);
            digests.push(Digest(bytes.try_into().expect("20 bytes")));
        }
        for d in digests {
            let per_byte: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(d.to_hex(), per_byte);
            assert_eq!(d.to_string(), per_byte);
            assert_eq!(d.short(), per_byte[..8]);
            assert_eq!(format!("{d:.8}"), per_byte[..8]);
            assert_eq!(format!("{d:?}"), format!("Digest({}..)", &per_byte[..8]));
        }
    }

    #[test]
    fn zero_digest_is_zero() {
        assert_eq!(Digest::ZERO.0, [0u8; 20]);
        assert_ne!(sha1_digest(b""), Digest::ZERO);
    }
}
