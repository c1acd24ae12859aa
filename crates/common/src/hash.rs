//! A from-scratch SHA-256 implementation and the 32-byte [`Hash`](struct@Hash) digest type.
//!
//! The paper's storage experiments (Figures 11–13) depend on *real* hashing:
//! the Merkle Patricia Trie and Merkle Bucket Tree derive node identities from
//! content hashes, the ledger chains blocks by header hash, and the cost of a
//! hash grows with the record size (Section 5.3.3). Implementing SHA-256 here
//! (FIPS 180-4) avoids pulling a cryptography dependency into the workspace
//! while keeping digests collision-resistant enough for the data-structure
//! invariants the tests assert.
//!
//! Hashing sits under every layer of the simulator (transaction and block
//! digests, MPT/MBT nodes), so the compression function has two kernels
//! behind one entry point, `compress_blocks`: x86-64 SHA-NI where the CPU
//! reports it at run time, the portable scalar kernel everywhere else. The
//! choice depends on the CPU alone and digests are bit-identical, so no
//! seeded output can tell which one ran.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero hash, used as the genesis parent and the digest of an
    /// empty authenticated structure.
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Digest of `data` using the crate's SHA-256.
    pub fn of(data: &[u8]) -> Self {
        sha256(data)
    }

    /// Digest of the concatenation of several byte slices, without an
    /// intermediate allocation of the concatenated buffer.
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut hasher = Hasher::new();
        for p in parts {
            hasher.update(p);
        }
        hasher.finalize()
    }

    /// Combine two child hashes into a parent hash (Merkle interior node).
    pub fn combine(left: &Hash, right: &Hash) -> Self {
        Hash::of_parts(&[&left.0, &right.0])
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex string of the full digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// First eight bytes interpreted as a big-endian integer; handy for
    /// pseudo-random but deterministic placement decisions (e.g. PoW-based
    /// shard assignment).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("hash has 32 bytes"))
    }
}

/// Digests encode as their 32 raw bytes: the width is fixed, so no length
/// prefix is needed.
impl crate::codec::Encode for Hash {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl Default for Hash {
    fn default() -> Self {
        Hash::ZERO
    }
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher in the initial state.
    pub fn new() -> Self {
        Hasher {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Finish the hash and return the digest. Consumes the hasher.
    pub fn finalize(self) -> Hash {
        self.finish(compress_blocks)
    }

    /// `update` over an explicit kernel, so the tests can drive the buffering
    /// logic through each implementation.
    #[inline]
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially full buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Every whole block goes to the kernel in one call, straight from the
        // caller's slice; only the remainder is copied.
        let (blocks, rest) = input.split_at(input.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// `finalize` over an explicit kernel.
    #[inline]
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Hash {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
        // spills into a second block when fewer than 9 bytes are free.
        let mut tail = [0u8; 128];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let end = if self.buffer_len < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..end]);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash(out)
    }
}

/// Name of the compression kernel this process runs, for benchmark output: a
/// recorded hashing number must say which lane produced it. Never part of a
/// report, cache key or JSON document — digests are the same on both.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        return "sha-ni";
    }
    "scalar"
}

/// Apply the compression function to every 64-byte block of `blocks` (whose
/// length must be a multiple of 64). The SHA-NI kernel runs wherever the CPU
/// reports the extension; everything else runs the scalar kernel.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::try_compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable FIPS 180-4 kernel: the only path off x86-64 or without the
/// SHA extensions, and the reference the accelerated kernel is tested against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extensions kernel. The only module in the workspace that
/// contains `unsafe`: the instructions exist only as `core::arch` intrinsics
/// behind `#[target_feature]`.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "SHA-NI is reachable only through `core::arch` intrinsics behind `#[target_feature]`"
)]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every extension the kernel is compiled for. The
    /// standard library detects once and caches the answer.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Run the kernel if the CPU supports it; `false` means `state` is
    /// untouched and the caller must use the scalar kernel.
    #[inline]
    pub(super) fn try_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` has just confirmed through
        // `is_x86_feature_detected!` that this CPU implements sha, sse2,
        // ssse3 and sse4.1, the features `compress_blocks` is compiled with.
        unsafe { compress_blocks(state, blocks) };
        true
    }

    /// All blocks of one call with ABEF/CDGH held in registers throughout.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` target
    /// features (check with `is_x86_feature_detected!`). There is no other
    /// requirement: all loads and stores are unaligned and stay inside
    /// `state`, `K` and the whole 64-byte chunks of `blocks`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Big-endian message words to little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The rounds instruction wants the state as (A,B,E,F) and (C,D,G,H).
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words: *const __m128i = block.as_ptr().cast();
            // The message schedule's rolling window, four words a register.
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), byte_swap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), byte_swap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), byte_swap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), byte_swap);

            // Four rounds on message words `$w` with constants K[4i..4i+4].
            macro_rules! rounds {
                ($i:literal, $w:ident) => {
                    let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                };
            }
            // W[4i..4i+4] into `$a` from W[4i-16..4i], held oldest first in
            // `$a`, `$b`, `$c`, `$d`; then its four rounds. Written out for
            // every group, rotating the four names, so that the window never
            // leaves registers and no loop counter is kept.
            macro_rules! schedule_rounds {
                ($i:literal, $a:ident, $b:ident, $c:ident, $d:ident) => {
                    let sigma0 = _mm_sha256msg1_epu32($a, $b);
                    let w_minus_7 = _mm_alignr_epi8::<4>($d, $c);
                    $a = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), $d);
                    rounds!($i, $a);
                };
            }
            rounds!(0, w0);
            rounds!(1, w1);
            rounds!(2, w2);
            rounds!(3, w3);
            schedule_rounds!(4, w0, w1, w2, w3);
            schedule_rounds!(5, w1, w2, w3, w0);
            schedule_rounds!(6, w2, w3, w0, w1);
            schedule_rounds!(7, w3, w0, w1, w2);
            schedule_rounds!(8, w0, w1, w2, w3);
            schedule_rounds!(9, w1, w2, w3, w0);
            schedule_rounds!(10, w2, w3, w0, w1);
            schedule_rounds!(11, w3, w0, w1, w2);
            schedule_rounds!(12, w0, w1, w2, w3);
            schedule_rounds!(13, w1, w2, w3, w0);
            schedule_rounds!(14, w2, w3, w0, w1);
            schedule_rounds!(15, w3, w0, w1, w2);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::rng::{seeded, Rng};

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The SHA-NI kernel called directly, or `None` with a printed note when
    /// this host cannot run it: an accelerated arm never passes silently.
    fn sha_ni_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            return Some(|state, blocks| assert!(sha_ni::try_compress_blocks(state, blocks)));
        }
        eprintln!("skip: SHA-NI kernel not exercised, this CPU lacks sha/ssse3/sse4.1");
        None
    }

    /// Every kernel this host can run, called directly rather than through
    /// the run-time selection.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("scalar", compress_blocks_scalar)];
        all.extend(sha_ni_kernel().map(|k| ("sha-ni", k)));
        all
    }

    /// Digest of the concatenated `pieces`, one `update` per piece, with every
    /// compression done by `kernel`.
    fn digest_with(kernel: Kernel, pieces: &[&[u8]]) -> Hash {
        let mut h = Hasher::new();
        for piece in pieces {
            h.absorb(piece, kernel);
        }
        h.finish(kernel)
    }

    /// FIPS 180-4 / NIST test vectors, against each kernel and the selected
    /// one.
    #[test]
    fn nist_vectors_on_every_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (message, expected) in vectors {
            assert_eq!(sha256(message).to_hex(), expected, "selected kernel");
            for (name, kernel) in kernels() {
                assert_eq!(
                    digest_with(kernel, &[message]).to_hex(),
                    expected,
                    "{name} kernel, {} bytes",
                    message.len()
                );
            }
        }
    }

    /// Every length 0..=300 (so the 55/56/63/64-byte padding edges, exact
    /// blocks and multi-block slices all occur), fed whole and in seeded
    /// random pieces (so the buffered remainder is filled, topped up and
    /// bypassed): every kernel and the public one-shot agree.
    #[test]
    fn kernels_agree_over_lengths_and_split_points() {
        let mut rng = seeded(0x5a17);
        let data: Vec<u8> = (0..300).map(|_| rng.gen::<u8>()).collect();
        let kernels = kernels();
        for len in 0..=300usize {
            let message = &data[..len];
            let reference = digest_with(compress_blocks_scalar, &[message]);
            assert_eq!(sha256(message), reference, "one-shot, {len} bytes");
            for round in 0..8 {
                let mut pieces: Vec<&[u8]> = Vec::new();
                let mut rest = message;
                while !rest.is_empty() {
                    let take = rng.gen_range(0..=rest.len().min(130));
                    let (piece, tail) = rest.split_at(take);
                    pieces.push(piece);
                    rest = tail;
                }
                let streamed = pieces.iter().fold(Hasher::new(), |mut h, p| {
                    h.update(p);
                    h
                });
                assert_eq!(
                    streamed.finalize(),
                    reference,
                    "selected kernel, {len} bytes, round {round}"
                );
                for (name, kernel) in &kernels {
                    assert_eq!(
                        digest_with(*kernel, &pieces),
                        reference,
                        "{name} kernel, {len} bytes, round {round}, pieces {:?}",
                        pieces.iter().map(|p| p.len()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot_over_chunk_boundaries() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 512] {
            let mut h = Hasher::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn of_parts_equals_concatenation() {
        let a = b"hello ".to_vec();
        let b = b"world".to_vec();
        let concat = [a.clone(), b.clone()].concat();
        assert_eq!(Hash::of_parts(&[&a, &b]), Hash::of(&concat));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let l = Hash::of(b"left");
        let r = Hash::of(b"right");
        assert_ne!(Hash::combine(&l, &r), Hash::combine(&r, &l));
    }

    #[test]
    fn zero_hash_and_prefix() {
        assert_eq!(Hash::ZERO.prefix_u64(), 0);
        let h = Hash::of(b"prefix");
        assert_eq!(
            h.prefix_u64(),
            u64::from_be_bytes(h.0[..8].try_into().unwrap())
        );
    }

    #[test]
    fn debug_format_is_truncated() {
        let d = format!("{:?}", Hash::of(b"abc"));
        assert!(d.starts_with("Hash(ba7816bf8f01"));
    }
}
