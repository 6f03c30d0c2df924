//! CRC-32 (IEEE 802.3, reflected): the one checksum of the workspace.
//!
//! It seals the 24-byte wire fingerprints of the link-level
//! retransmission layer ([`crate::llr`]), every section and the trailer
//! of a snapshot file ([`crate::snapshot`]), the checkpoint envelope,
//! the `ResultStore` objects and run keys, and the golden-signature
//! table. The big inputs set the implementation: a snapshot is over a
//! megabyte, so bytes are folded eight at a time through
//! slicing-by-8 tables — 8 KB, filled at compile time, shared by every
//! caller.
//!
//! Folded so in one chain, bytes go at 1.3–1.5 GB/s, because each
//! 8-byte step waits on the register the last one wrote. An input of 8 KB or more
//! is therefore cut into four equal lanes whose chains advance in one
//! interleaved loop, so their table lookups overlap (about 4.5 GB/s).
//! The lane CRCs are then joined by the arithmetic behind
//! [`Crc32::combine`]. Shorter inputs, such as the LLR's fingerprints,
//! keep the single chain. Two, three, six and eight lanes were measured
//! slower than four.
//!
//! [`Crc32`] is the streaming form. Besides [`Crc32::update`] it has
//! [`Crc32::combine`], which extends the running value by a block of
//! which only the CRC and the length are known — so a file whose
//! sections each carry a CRC gets its whole-file checksum without a
//! second pass over the section bytes.

/// The generator polynomial, bit-reversed.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

#[expect(
    clippy::cast_possible_truncation,
    reason = "b counts to 256, in a const fn where `try_from` is not callable"
)]
const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// `X2N[k]` = x^(2^k) mod P, in the reflected representation (the
/// coefficient of x^0 is bit 31).
static X2N: [u32; 32] = x2n();

const fn x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
}

/// `a · b mod P` over GF(2), both reflected.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    product
}

/// x^(8·`len`) mod P: what appending `len` bytes multiplies a CRC by.
fn x_pow_bytes(mut len: usize) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut k = 3; // bytes → bits
    while len != 0 {
        if len & 1 != 0 {
            // x has order 2^32 − 1 modulo P, so the exponents 2^k repeat
            // with period 32 in k.
            p = mul_mod_p(X2N[k & 31], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// CRC-32 of `data`. On the per-cycle path under LLR, so it calls
/// nothing but `continued`.
pub fn crc32(data: &[u8]) -> u32 {
    continued(0, data)
}

/// Inputs at least this long are folded in four lanes; shorter ones,
/// the LLR's fingerprints among them, in one.
const LANE_MIN: usize = 8 << 10;

/// The CRC-32 of a byte string whose CRC so far is `crc`, continued by
/// `data`.
fn continued(crc: u32, data: &[u8]) -> u32 {
    if data.len() < LANE_MIN {
        serial(crc, data)
    } else {
        lanes(crc, data)
    }
}

/// The register after folding one 8-byte word into `crc` (both
/// complemented, as inside the loop). Inlined by force: left to the
/// optimiser it was once called out of line, and the lanes' lookups
/// then stop overlapping, which took a snapshot save back to the
/// single chain's time.
#[inline(always)]
fn word(crc: u32, w: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |word: u32, n: u32| ((word >> (8 * n)) & 0xFF) as usize;
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][byte(lo, 0)]
        ^ t[6][byte(lo, 1)]
        ^ t[5][byte(lo, 2)]
        ^ t[4][byte(lo, 3)]
        ^ t[3][byte(hi, 0)]
        ^ t[2][byte(hi, 1)]
        ^ t[1][byte(hi, 2)]
        ^ t[0][byte(hi, 3)]
}

/// [`continued`] in one chain: eight bytes per step through the sliced
/// tables, then the tail a byte at a time. Each step waits on the
/// last one's register.
fn serial(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = word(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// [`continued`] in four chains: the input's first `4 × lane` bytes
/// are cut into four equal lanes of whole words, folded in one
/// interleaved loop so that the lanes' table lookups overlap instead of
/// queueing on one register. The lane CRCs are then joined as by
/// [`Crc32::combine`] and the tail fed serially. Any length is valid;
/// [`continued`] calls it from [`LANE_MIN`] bytes up.
fn lanes(crc: u32, data: &[u8]) -> u32 {
    let lane = data.len() / 32 * 8;
    let (a, rest) = data.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, rest) = rest.split_at(lane);
    let (d, tail) = rest.split_at(lane);
    // Lane 0 continues `crc`; the others start from the empty string's.
    let [mut ra, mut rb, mut rc, mut rd] = [!crc, !0, !0, !0];
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
        .zip(d.chunks_exact(8));
    for (((wa, wb), wc), wd) in words {
        ra = word(ra, wa);
        rb = word(rb, wb);
        rc = word(rc, wc);
        rd = word(rd, wd);
    }
    let shift = x_pow_bytes(lane);
    let crc = [rb, rc, rd]
        .into_iter()
        .fold(!ra, |crc, r| mul_mod_p(shift, crc) ^ !r);
    serial(crc, tail)
}

/// A running CRC-32: the value of [`crc32`] over everything fed so far
/// (by default nothing, whose CRC is 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct Crc32(u32);

impl Crc32 {
    /// Feed `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.0 = continued(self.0, data);
    }

    /// Feed a block of `block_len` bytes known only by its CRC,
    /// `crc_of_block`: afterwards the value is that of the bytes fed so
    /// far followed by the block's. O(log `block_len`) — zlib's
    /// `crc32_combine`, and named after it.
    pub fn combine(&mut self, crc_of_block: u32, block_len: usize) {
        self.0 = mul_mod_p(x_pow_bytes(block_len), self.0) ^ crc_of_block;
    }

    /// The CRC-32 of everything fed.
    pub fn finish(self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: one bit at a time, straight from the polynomial.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn xorshift_bytes(n: usize, mut s: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn a_mebibyte_matches_the_bitwise_reference() {
        let data = xorshift_bytes(1 << 20, 0x2012_0FA2);
        assert_eq!(crc32(&data), bitwise(&data));
    }

    proptest! {
        /// Every length 0..=600 at each of the 8 start alignments of one
        /// buffer: the word loop, the byte tail and their seam.
        #[test]
        fn every_alignment_matches_the_bitwise_reference(
            buf in proptest::collection::vec(any::<u8>(), 608),
            len in 0usize..=600,
        ) {
            for start in 0..8 {
                let s = &buf[start..start + len];
                prop_assert_eq!(crc32(s), bitwise(s), "start {}, len {}", start, len);
            }
        }

        /// Any split into at most five chunks, empty ones included,
        /// streams to the one-shot value — on either side of the lane
        /// threshold, so a chunk may go through the lanes or not.
        #[test]
        fn update_is_split_invariant(
            len in 0..=2 * LANE_MIN + 64,
            seed in 1..u64::MAX,
            cuts in proptest::collection::vec(any::<u16>(), 0..5),
        ) {
            let data = xorshift_bytes(len, seed);
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| usize::from(c) % (len + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::default();
            let mut from = 0;
            for to in cuts.into_iter().chain([len]) {
                c.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(c.finish(), crc32(&data));
        }

        /// `combine` with a block's CRC and length equals feeding the block.
        #[test]
        fn combine_equals_feeding_the_block(
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut c = Crc32::default();
            c.update(&a);
            c.combine(crc32(&b), b.len());
            let whole = [a.as_slice(), b.as_slice()].concat();
            prop_assert_eq!(c.finish(), bitwise(&whole));
        }
    }

    /// The serial loop is the referee: the lanes give its value at every
    /// length up to two lane thresholds and a tail, whether they start
    /// the string or continue a running CRC.
    #[test]
    fn lanes_equal_the_serial_loop_at_every_length() {
        let data = xorshift_bytes(2 * LANE_MIN + 64, 0x0FA2_2012);
        for len in 0..=data.len() {
            let s = &data[..len];
            for crc in [0, 0xCBF4_3926] {
                assert_eq!(lanes(crc, s), serial(crc, s), "len {len}, crc {crc:#x}");
            }
        }
    }

    #[test]
    fn combine_spans_long_blocks() {
        // A length with bits set past 2^16, so the x^(2^k) table is
        // walked well beyond what the proptest sizes reach.
        let data = xorshift_bytes((1 << 20) + 77_003, 7);
        let (a, b) = data.split_at(12_345);
        let mut c = Crc32::default();
        c.update(a);
        c.combine(crc32(b), b.len());
        assert_eq!(c.finish(), crc32(&data));
    }
}
