//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), as required by
//! the ZIP format. Implemented from the public specification; used for
//! archive integrity only, never for security.
//!
//! The hot path is slice-by-16: sixteen 256-entry tables let the update
//! loop fold sixteen input bytes per iteration instead of one table
//! lookup per byte — the Intel/zlib slicing technique, widened. The
//! crawler CRC-validates every APK, OBB and bundle response body and the
//! zip reader every entry it parses, so this kernel runs over each
//! downloaded byte twice. The store's side is cheaper: a model file's
//! CRC is computed once, when the file enters the artifact memo as a
//! [`Checksummed`] value, and an archive's CRC is combined from its
//! entries' ([`crc32_combine`]) instead of read again. The original
//! byte-at-a-time loop is kept in [`reference`] and pinned against the
//! sliced kernel by property tests.

use std::sync::Arc;

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Sixteen lookup tables: `TABLES[0]` is the classic byte table; table
/// `k` advances a byte through `k` additional zero bytes, which is what
/// lets sixteen lookups replace sixteen dependent shift-and-lookup steps.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Continue from the finished checksum `crc` of some bytes, so that
    /// feeding more bytes yields the checksum of their concatenation.
    pub fn resume(crc: u32) -> Self {
        Crc32 {
            state: crc ^ 0xFFFF_FFFF,
        }
    }

    /// Feed bytes, folding sixteen at a time while they last.
    pub fn update(&mut self, mut data: &[u8]) {
        let mut state = self.state;
        while let Some((chunk, rest)) = data.split_first_chunk::<16>() {
            let word =
                |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
            let (a, b, c, d) = (word(0) ^ state, word(4), word(8), word(12));
            let t =
                |table: usize, w: u32, shift: u32| TABLES[table][((w >> shift) & 0xFF) as usize];
            state = t(15, a, 0)
                ^ t(14, a, 8)
                ^ t(13, a, 16)
                ^ t(12, a, 24)
                ^ t(11, b, 0)
                ^ t(10, b, 8)
                ^ t(9, b, 16)
                ^ t(8, b, 24)
                ^ t(7, c, 0)
                ^ t(6, c, 8)
                ^ t(5, c, 16)
                ^ t(4, c, 24)
                ^ t(3, d, 0)
                ^ t(2, d, 8)
                ^ t(1, d, 16)
                ^ t(0, d, 24);
            data = rest;
        }
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        self.state = state;
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// `a·b mod P` over GF(2), both operands in CRC-32's reflected bit order
/// (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k) mod P`.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// CRC-32 of the concatenation `A ++ B`, from `crc32(A)`, `crc32(B)` and
/// the length of `B` alone: zlib's method, which shifts `crc_a` through
/// `len_b` zero bytes by multiplying it with `x^(8·len_b) mod P` (square
/// and multiply over [`X2N`]), so it costs O(log `len_b`), not a pass over
/// `B`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // x^(8·len_b): walk the bits of len_b, starting at x^(2^3) = x^8.
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b as u64;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

/// Bytes shared behind an [`Arc`] together with their CRC-32. The
/// constructor computes the checksum and the fields are private, so the
/// two can never disagree: a holder may pass the bytes on (a zip writer
/// copies them into an archive) and trust the CRC without reading them
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checksummed {
    bytes: Arc<[u8]>,
    crc: u32,
}

impl Checksummed {
    /// Share `bytes` and checksum them, once.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Checksummed {
        let bytes = bytes.into();
        let crc = crc32(&bytes);
        Checksummed { bytes, crc }
    }

    /// The bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Their CRC-32.
    pub fn crc(&self) -> u32 {
        self.crc
    }
}

/// The original byte-at-a-time implementation, kept so property tests can
/// pin the slice-by-16 kernel against it on arbitrary inputs.
pub mod reference {
    use super::TABLES;

    /// One-shot scalar CRC-32 of `data`.
    pub fn crc32(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            let idx = ((state ^ b as u32) & 0xFF) as usize;
            state = TABLES[0][idx] ^ (state >> 8);
        }
        state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_matches_reference_across_lengths() {
        // Cover the scalar tail (len < 16), the 16-byte boundary, and runs
        // long enough to exercise many folded iterations.
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for n in 0..160 {
            assert_eq!(crc32(&data[..n]), reference::crc32(&data[..n]), "len {n}");
        }
        assert_eq!(crc32(&data), reference::crc32(&data));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello crc32 world, long enough to fold sixteen bytes at a time";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(data), "split {split}");
            let mut resumed = Crc32::resume(crc32(&data[..split]));
            resumed.update(&data[split..]);
            assert_eq!(resumed.finalize(), crc32(data), "resumed at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"\x00\x00\x00\x00");
        let b = crc32(b"\x00\x00\x00\x01");
        assert_ne!(a, b);
    }

    #[test]
    fn combine_spans_a_mebibyte_zero_tail() {
        let head = b"a model file's header".to_vec();
        let tail = vec![0u8; 1 << 20];
        let whole: Vec<u8> = head.iter().chain(&tail).copied().collect();
        assert_eq!(
            crc32_combine(crc32(&head), crc32(&tail), tail.len()),
            crc32(&whole)
        );
        // Combining with an empty side is the identity.
        assert_eq!(crc32_combine(crc32(&head), crc32(b""), 0), crc32(&head));
        assert_eq!(crc32_combine(0, crc32(&tail), tail.len()), crc32(&tail));
    }

    #[test]
    fn checksummed_carries_the_crc_of_its_bytes() {
        let c = Checksummed::new(vec![7u8; 300]);
        assert_eq!(c.crc(), crc32(&[7u8; 300]));
        assert_eq!(c.bytes(), &[7u8; 300][..]);
        let empty = Checksummed::new(&[][..]);
        assert_eq!((empty.bytes(), empty.crc()), (&[][..], 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn combine_matches_the_crc_of_the_concatenation(
            a in prop::collection::vec(any::<u8>(), 0..=4096),
            b in prop::collection::vec(any::<u8>(), 0..=4096),
        ) {
            let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len()), crc32(&whole));
        }
    }
}
