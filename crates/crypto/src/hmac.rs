//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Veil uses HMAC-SHA-256 to sign chain attestation reports under the
//! measurement-bound attestation key, to authenticate sealed enclave
//! pages during collaborative demand paging (§6.2), to verify
//! kernel-module signatures in VeilS-KCI (§6.1), and to authenticate
//! log-retrieval requests in VeilS-LOG (§6.3).

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256.
///
/// # Example
///
/// ```
/// use veil_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 { inner, opad_key: opad }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC computation.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time verification of `tag` against `data` under `key`.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let want = Self::mac(key, data);
        crate::ct::eq(&want, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&HmacSha256::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), HmacSha256::mac(b"k", b"hello world"));
    }

    #[test]
    fn verify_rejects_truncated_tag() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..16]));
    }
}
