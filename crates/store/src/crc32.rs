//! CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) over byte
//! slices.  Every WAL record and every snapshot file carries one of these
//! checksums; recovery treats a mismatch as the torn tail of a crashed
//! write and stops replaying there.
//!
//! Hand-rolled (reflected polynomial `0xEDB8_8320`) because the build
//! environment is offline and the workspace vendors no checksum crate.  The
//! constants are the standard ones, so the on-disk format is checkable with
//! any external CRC-32 tool.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes, so eight input bytes fold into the running value with eight
//! independent look-ups instead of eight dependent ones (≈4× the bytewise
//! loop).  It is on every path that touches the disk: a recovery checks a
//! whole snapshot plus a log of the same size, and every snapshot write and
//! WAL commit checksums what it writes.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

    /// The one-look-up-per-byte loop the sliced version replaced, kept as
    /// the reference it must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn equals_the_bytewise_reference_at_every_length_and_alignment() {
        // xorshift64: arbitrary but reproducible bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u8> = (0..4_099 + 7).map(|_| next() as u8).collect();
        for len in 0..=4_099usize {
            let start = (next() % 8) as usize;
            let slice = &data[start..start + len];
            assert_eq!(
                crc32(slice),
                bytewise(slice),
                "length {len} at offset {start}"
            );
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"exspan-store");
        let mut corrupted = b"exspan-store".to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(base, crc32(&corrupted));
    }
}
