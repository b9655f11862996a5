//! Launch measurement.
//!
//! During CVM launch, a SHA-256 hash of the boot disk image is generated
//! and later carried in every attestation report to the remote user
//! (§5.1). [`measure_launch`] is the one definition of that digest: the
//! hypervisor's launch path records it and the VMPL-0 firmware stage
//! recomputes it before boot. The reports themselves are the VCEK-chain
//! [`crate::vcek::ChainReport`]s.

use crate::mem::PAGE_SIZE;
use veil_crypto::Sha256;

/// The launch digest of `boot_image` (`(gfn, bytes)` pairs, each padded
/// with zeros to a full frame) followed by the zeroed boot VMSA frame at
/// `vmsa_gfn` — models the SEV firmware's launch-update digest.
///
/// # Panics
///
/// If a boot-image page is larger than a frame.
pub fn measure_launch(boot_image: &[(u64, Vec<u8>)], vmsa_gfn: u64) -> [u8; 32] {
    let mut hasher = Sha256::new();
    let mut page = vec![0u8; PAGE_SIZE];
    let vmsa = (vmsa_gfn, Vec::new());
    for (gfn, data) in boot_image.iter().chain(std::iter::once(&vmsa)) {
        page.fill(0);
        page[..data.len()].copy_from_slice(data);
        hasher.update(&gfn.to_le_bytes());
        hasher.update(&page);
    }
    let pages = boot_image.len() as u64 + 1;
    let mut outer = Sha256::new();
    outer.update(b"veil-launch-v1");
    outer.update(&pages.to_le_bytes());
    outer.update(&hasher.finalize());
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_depends_on_content_and_address() {
        let image = |data: &[u8]| vec![(1, b"mon".to_vec()), (2, data.to_vec())];
        let a = measure_launch(&image(b"ser"), 3);
        assert_eq!(a, measure_launch(&image(b"ser"), 3), "deterministic");
        assert_ne!(a, measure_launch(&image(b"sfr"), 3), "content changes digest");
        let moved = [(1, b"mon".to_vec()), (4, b"ser".to_vec())];
        assert_ne!(a, measure_launch(&moved, 3), "load address changes digest");
        assert_ne!(a, measure_launch(&image(b"ser"), 4), "vmsa placement changes digest");
    }

    #[test]
    fn measurement_is_order_sensitive() {
        let a = measure_launch(&[(0, b"one".to_vec()), (1, b"two".to_vec())], 2);
        let b = measure_launch(&[(1, b"two".to_vec()), (0, b"one".to_vec())], 2);
        assert_ne!(a, b);
    }
}
