//! SHA-256 (FIPS 180-4).
//!
//! Used throughout Veil for launch measurement of the CVM boot image (§5.1),
//! enclave measurement for remote attestation (§6.2), and as the compression
//! function inside [`crate::hmac`].

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of an internal SHA-256 block in bytes.
pub const BLOCK_LEN: usize = 64;

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use veil_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ve");
/// h.update(b"il");
/// assert_eq!(h.finalize(), Sha256::digest(b"veil"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: 0 }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&data[..BLOCK_LEN]);
            compress(&mut self.state, &block);
            data = &data[BLOCK_LEN..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Completes the hash, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update(&[0x80]);
        // `update` mutated total_len; the length we encode was latched above.
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.total_len = 0; // no longer meaningful
        let block_tail = bit_len.to_be_bytes();
        let mut last = [0u8; BLOCK_LEN];
        last[..56].copy_from_slice(&self.buf[..56]);
        last[56..].copy_from_slice(&block_tail);
        compress(&mut self.state, &last);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs one block through the SHA-NI path when the CPU has the SHA
/// extensions, else through the software reference [`compress_soft`].
/// Both produce the same state; the choice is made per block from the
/// (cached) CPUID probe, so no caller configures it.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `shani::compress` only requires the `sha`, `sse2`,
        // `ssse3` and `sse4.1` target features, and `shani::available`
        // just confirmed all four at run time on this CPU.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress(state, block);
        }
        return;
    }
    compress_soft(state, block);
}

/// The FIPS 180-4 compression function in portable Rust: the fallback on
/// CPUs without SHA-NI and the reference the hardware path is tested
/// against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86-64 SHA extensions (SHA-NI) block function.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Whether this CPU can run [`compress`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// One FIPS 180-4 block on the SHA-NI unit. `sha256rnds2` wants the
    /// working variables packed as `ABEF` and `CDGH` (lane 3 first), and
    /// every vector is built from and read back into scalars with the
    /// value-only `_mm_set_epi32` / `_mm_extract_epi32`, so no pointer
    /// is ever handed to an intrinsic.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let word = |i: usize| {
            i32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]])
        };
        let k = |i: usize| K[i] as i32;
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Rolling window of four message vectors, W[4j..4j+4] in lanes 0..3.
        let mut w = [0, 1, 2, 3]
            .map(|j| _mm_set_epi32(word(4 * j + 3), word(4 * j + 2), word(4 * j + 1), word(4 * j)));
        for j in 0..16 {
            if j >= 4 {
                // W[4j..] from W[4(j-4)..], W[4(j-3)..], W[4(j-2)..], W[4(j-1)..].
                let (w0, w1, w2, w3) = (w[j % 4], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                w[j % 4] = _mm_sha256msg2_epu32(t, w3);
            }
            let msg = _mm_add_epi32(
                w[j % 4],
                _mm_set_epi32(k(4 * j + 3), k(4 * j + 2), k(4 * j + 1), k(4 * j)),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(msg));
        }
        let out = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ];
        for (s, v) in state.iter_mut().zip(out) {
            *s = s.wrapping_add(v as u32);
        }
    }
}

/// Formats a digest as lowercase hex, e.g. for log output and test vectors.
pub fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    type BlockFn = fn(&mut [u32; 8], &[u8; BLOCK_LEN]);

    /// The software reference and the run-time dispatched block function
    /// (SHA-NI on CPUs that have it).
    const BLOCK_FNS: [(&str, BlockFn); 2] = [("software", compress_soft), ("dispatched", compress)];

    /// Pads and hashes `msg` with one block function, independently of
    /// `Sha256`'s buffering.
    fn digest_with(block_fn: BlockFn, msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            block_fn(&mut state, block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Checks one FIPS 180-4 / NIST CAVP known answer through `Sha256` and
    /// through each block function on its own.
    fn kat(msg: &[u8], want: &str) {
        assert_eq!(hex(&Sha256::digest(msg)), want, "Sha256::digest");
        for (name, block_fn) in BLOCK_FNS {
            assert_eq!(hex(&digest_with(block_fn, msg)), want, "{name} block function");
        }
    }

    #[test]
    fn empty_string() {
        kat(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc() {
        kat(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_message() {
        kat(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), want);
        kat(&vec![b'a'; 1_000_000], want);
    }

    #[test]
    fn dispatched_block_function_matches_software_reference() {
        let mut drbg = Drbg::from_seed(b"sha256 block differential");
        for i in 0..10_000 {
            let mut block = [0u8; BLOCK_LEN];
            drbg.fill(&mut block);
            let mut seed = [0u8; 32];
            drbg.fill(&mut seed);
            let start: [u32; 8] = std::array::from_fn(|j| {
                u32::from_le_bytes(seed[4 * j..4 * j + 4].try_into().unwrap())
            });
            let (mut soft, mut fast) = (start, start);
            compress_soft(&mut soft, &block);
            compress(&mut fast, &block);
            assert_eq!(fast, soft, "block {i}");
        }
        for len in 0..=200 {
            let mut msg = vec![0u8; len];
            drbg.fill(&mut msg);
            assert_eq!(Sha256::digest(&msg), digest_with(compress_soft, &msg), "length {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn exactly_block_sized_inputs() {
        // 55/56/63/64/65 bytes hit all padding branches.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; n];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {n}");
        }
    }
}
