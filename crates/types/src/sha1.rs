//! A from-scratch SHA-1 implementation.
//!
//! ExSPAN identifies every vertex of the distributed provenance graph with a
//! 20-byte SHA-1 digest of its contents (paper §4.1): tuple vertices hash the
//! relation name, location and attribute values; rule-execution vertices hash
//! the rule label, location and the VIDs of their input tuples.  Only
//! collision resistance for identification purposes is required, so a compact
//! local implementation avoids an external cryptography dependency.

/// A 20-byte SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the `null` RID that marks
    /// base tuples in the `prov` table).
    pub const ZERO: Digest = Digest([0u8; 20]);

    /// Returns the digest as a hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Returns a short (8 hex character) prefix, convenient for display.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}..)", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
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
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        // Process whole blocks directly from the input.
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.process_block(&block);
            input = &input[64..];
        }
        // Stash the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // The 0x80 terminator, zeros up to 56 mod 64, then the bit length:
        // all within the buffered block when those nine bytes fit in it, the
        // length in one more block otherwise.
        let mut block = [0u8; 64];
        let buffered = &self.buffer[..self.buffer_len];
        block[..buffered.len()].copy_from_slice(buffered);
        block[buffered.len()] = 0x80;
        if buffered.len() >= 56 {
            self.process_block(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.process_block(&block);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut s = self.state;
        rounds(&mut w, &mut s, 0..20, 0x5A827999, |b, c, d| {
            (b & c) | (!b & d)
        });
        rounds(&mut w, &mut s, 20..40, 0x6ED9EBA1, |b, c, d| b ^ c ^ d);
        rounds(&mut w, &mut s, 40..60, 0x8F1BBCDC, |b, c, d| {
            (b & c) | (b & d) | (c & d)
        });
        rounds(&mut w, &mut s, 60..80, 0xCA62C1D6, |b, c, d| b ^ c ^ d);
        for (state, word) in self.state.iter_mut().zip(s) {
            *state = state.wrapping_add(word);
        }
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

/// One-shot convenience wrapper: hashes `data` and returns the digest.
pub fn sha1_digest(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Standard FIPS-180 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha1_digest(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha1_digest(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha1_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_digest(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
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
            assert_eq!(sha1_digest(&data).to_hex(), hex, "length {len}");
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
    fn zero_digest_is_zero() {
        assert_eq!(Digest::ZERO.0, [0u8; 20]);
        assert_ne!(sha1_digest(b""), Digest::ZERO);
    }
}
