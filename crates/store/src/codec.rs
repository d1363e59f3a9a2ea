//! The vendored LZ-class codec and checksum behind compressed trace
//! payloads and cold-segment integrity.
//!
//! The build is vendored-only (no crates.io access), so the segment tier
//! ships its own byte-oriented LZ77 codec in the LZ4 block style:
//! greedy hash-chain matching over a 64 KiB window, sequences of
//! `(literal run, back-reference)` packed behind a nibble token with
//! 255-run length extensions. It is deliberately simple — a few hundred
//! lines, `forbid(unsafe_code)`-clean, and a pure function of its input,
//! so compressed segments are bit-reproducible across runs and machines.
//! The size/speed trade-off against uncompressed segments is *measured*
//! (xbench's `store.seal_none_ns_per_event`, `store.seal_lz_ns_per_event`
//! and `store.lz_ratio`), not assumed.
//!
//! [`crc32`] / [`Crc32`] implement the standard reflected CRC-32
//! (polynomial `0xEDB88320`, the IEEE one used by gzip and zip), which
//! recovery uses to validate segment payloads after a crash.

use std::fmt;

/// Shortest back-reference the compressor emits (the LZ4 minimum).
const MIN_MATCH: usize = 4;

/// Largest back-reference distance (offsets are stored as `u16`).
const MAX_OFFSET: usize = u16::MAX as usize;

/// log2 of the match-finder hash-table size.
const HASH_BITS: u32 = 15;

/// Which codec a trace payload or cold segment was written with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Payload bytes are stored as-is.
    #[default]
    None,
    /// Payload bytes are compressed with the vendored LZ codec
    /// ([`lz_compress`] / [`lz_decompress`]).
    Lz,
}

impl Codec {
    /// The codec's stable name (used in segment provenance meta).
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Lz => "lz",
        }
    }

    /// Parses a codec from its stable name.
    pub fn from_name(name: &str) -> Option<Codec> {
        match name {
            "none" => Some(Codec::None),
            "lz" => Some(Codec::Lz),
            _ => None,
        }
    }

    /// The on-disk tag byte (trace format version 3).
    pub(crate) fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Lz => 1,
        }
    }

    /// Parses the on-disk tag byte.
    pub(crate) fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::None),
            1 => Some(Codec::Lz),
            _ => None,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Multiplicative hash of the next four bytes (Knuth's 2654435761).
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Appends a 255-run length extension (LZ4 style: `255` bytes until the
/// remainder, then the remainder byte).
fn write_len_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// One `(literals, back-reference)` sequence.
fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    let lit = literals.len();
    let ml = match_len - MIN_MATCH;
    out.push(((lit.min(15) as u8) << 4) | ml.min(15) as u8);
    if lit >= 15 {
        write_len_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if ml >= 15 {
        write_len_ext(out, ml - 15);
    }
}

/// Compresses `input` with the vendored LZ codec.
///
/// The output is a pure function of the input (fixed hash function, fixed
/// greedy policy — no randomization), so compressed segments are
/// bit-reproducible. Decompress with [`lz_decompress`] and the original
/// length.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }
    let mut table = vec![u32::MAX; 1 << HASH_BITS];
    let mut anchor = 0usize; // start of the pending literal run
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let h = hash4(&input[i..]);
        let cand = table[h];
        table[h] = i as u32;
        let cand = cand as usize;
        if cand != u32::MAX as usize
            && i - cand <= MAX_OFFSET
            && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            let mut len = MIN_MATCH;
            while i + len < n && input[cand + len] == input[i + len] {
                len += 1;
            }
            emit_sequence(&mut out, &input[anchor..i], (i - cand) as u16, len);
            i += len;
            anchor = i;
        } else {
            i += 1;
        }
    }
    if anchor < n {
        // Final literals-only sequence: match nibble unused, no offset
        // follows — the decoder detects the end by input exhaustion.
        let lit = n - anchor;
        out.push((lit.min(15) as u8) << 4);
        if lit >= 15 {
            write_len_ext(&mut out, lit - 15);
        }
        out.extend_from_slice(&input[anchor..]);
    }
    out
}

/// Reads a 255-run length extension.
fn read_len_ext(input: &[u8], i: &mut usize) -> Result<usize, String> {
    let mut v = 0usize;
    loop {
        let Some(&b) = input.get(*i) else {
            return Err("truncated length extension".to_owned());
        };
        *i += 1;
        v += b as usize;
        if b != 255 {
            return Ok(v);
        }
    }
}

/// Decompresses an [`lz_compress`] stream back to exactly `expected_len`
/// bytes.
///
/// Malformed input — truncation, an offset pointing before the start, a
/// length running past `expected_len` — is a clean `Err`, never a panic:
/// recovery feeds this torn and corrupted segment files.
pub fn lz_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    // Cap the up-front allocation: `expected_len` may come from a corrupt
    // length field, and the vector grows to the real size anyway.
    let mut out = Vec::with_capacity(expected_len.min(1 << 20));
    let mut i = 0usize;
    while i < input.len() {
        let token = input[i];
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit += read_len_ext(input, &mut i)?;
        }
        if i + lit > input.len() {
            return Err("truncated literal run".to_owned());
        }
        if out.len() + lit > expected_len {
            return Err("literal run exceeds the declared length".to_owned());
        }
        out.extend_from_slice(&input[i..i + lit]);
        i += lit;
        if i == input.len() {
            break; // final literals-only sequence
        }
        if i + 2 > input.len() {
            return Err("truncated back-reference offset".to_owned());
        }
        let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(format!(
                "back-reference offset {offset} outside the {} bytes produced",
                out.len()
            ));
        }
        let mut ml = (token & 15) as usize;
        if ml == 15 {
            ml += read_len_ext(input, &mut i)?;
        }
        ml += MIN_MATCH;
        if out.len() + ml > expected_len {
            return Err("back-reference exceeds the declared length".to_owned());
        }
        // Byte-wise copy: offsets shorter than the match length replicate
        // the just-written bytes (the classic LZ run encoding).
        let start = out.len() - offset;
        for k in 0..ml {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != expected_len {
        return Err(format!(
            "decompressed to {} bytes, expected {expected_len}",
            out.len()
        ));
    }
    Ok(out)
}

/// The reflected CRC-32 lookup table (polynomial `0xEDB88320`).
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// A streaming CRC-32 state (the gzip/zip polynomial) — recovery hashes
/// segment payloads as it reads them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC_TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The checksum of everything updated so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The CRC-32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic byte generator (xorshift) for round-trip
    /// soup — no RNG dependency, same stream every run.
    fn pseudo_random_bytes(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            out.push(seed as u8);
        }
        out
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming in pieces equals one shot.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_assorted_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcd".to_vec(),
            b"abcdabcdabcdabcd".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).collect(),
            b"the quick brown fox jumps over the lazy dog".repeat(40),
            pseudo_random_bytes(4096, 0xDEAD_BEEF),
            // Run encoding: offset shorter than match length.
            [b"ab".repeat(500), b"xyz".repeat(333)].concat(),
        ];
        for input in inputs {
            let packed = lz_compress(&input);
            let unpacked = lz_decompress(&packed, input.len())
                .unwrap_or_else(|e| panic!("{} bytes failed to round-trip: {e}", input.len()));
            assert_eq!(unpacked, input, "{} bytes diverged", input.len());
        }
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let input = b"start(put,r) complete(put,r) ".repeat(1000);
        let packed = lz_compress(&input);
        assert!(
            packed.len() * 10 < input.len(),
            "{} -> {} bytes: the codec must earn its keep on repetitive traces",
            input.len(),
            packed.len()
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let input = pseudo_random_bytes(2048, 42)
            .iter()
            .map(|b| b % 7) // some redundancy so matches occur
            .collect::<Vec<u8>>();
        assert_eq!(lz_compress(&input), lz_compress(&input));
    }

    #[test]
    fn truncated_and_corrupt_streams_fail_cleanly() {
        let input = b"abcdefgh".repeat(64);
        let packed = lz_compress(&input);
        for cut in 0..packed.len() {
            // Every truncation either errors or (for a cut that lands on
            // a sequence boundary of a prefix) produces the wrong length.
            if let Ok(out) = lz_decompress(&packed[..cut], input.len()) {
                panic!("truncation at {cut} produced {} bytes", out.len());
            }
        }
        // Flipping bytes must never panic.
        for i in 0..packed.len() {
            let mut bad = packed.clone();
            bad[i] ^= 0xFF;
            let _ = lz_decompress(&bad, input.len());
        }
    }

    #[test]
    fn wrong_expected_length_is_rejected() {
        let input = b"abcdabcdabcd".to_vec();
        let packed = lz_compress(&input);
        assert!(lz_decompress(&packed, input.len() + 1).is_err());
        assert!(lz_decompress(&packed, input.len().saturating_sub(1)).is_err());
    }

    #[test]
    fn codec_names_round_trip() {
        for codec in [Codec::None, Codec::Lz] {
            assert_eq!(Codec::from_name(codec.name()), Some(codec));
            assert_eq!(Codec::from_tag(codec.tag()), Some(codec));
            assert_eq!(format!("{codec}"), codec.name());
        }
        assert_eq!(Codec::from_name("zstd"), None);
        assert_eq!(Codec::from_tag(9), None);
    }
}
