//! VMPL-0 firmware measurement stage: measured boot, pvmfw/NVRC style.
//!
//! Android's pvmfw and NVIDIA's NVRC both run a tiny trusted stage before
//! the payload: hash what is about to boot, compare against a provisioned
//! value, and *refuse to boot* on mismatch — fail-fast, before the payload
//! executes a single instruction. Veil's simulated firmware does the same
//! for the VeilMon + services image: [`enforce`] computes the launch
//! measurement the SEV firmware *will* produce for a staged boot image
//! ([`veil_snp::attest::measure_launch`], the same function the launch
//! path records) and rejects the boot with [`OsError::FirmwareRefused`]
//! when it does not match the expected value.
//!
//! The stage is pure computation over the staged bytes (no machine, no
//! cycles), so enabling enforcement never perturbs trace digests: a CVM
//! booted with enforcement is byte-identical to one booted without.
//!
//! Enforcement is opt-in per builder ([`crate::cvm::CvmBuilder::attest`]);
//! the expected measurement defaults to the canonical Veil image for the
//! chosen layout and can be pinned explicitly for golden tests.

use veil_os::error::OsError;
use veil_snp::attest::measure_launch;

/// The fail-fast gate: compares the pre-boot measurement of `boot_image`
/// against `expected` and refuses the boot on any difference.
///
/// # Errors
///
/// [`OsError::FirmwareRefused`] carrying both digests when they differ.
pub fn enforce(
    expected: [u8; 32],
    boot_image: &[(u64, Vec<u8>)],
    vmsa_gfn: u64,
) -> Result<[u8; 32], OsError> {
    let actual = measure_launch(boot_image, vmsa_gfn);
    if actual != expected {
        return Err(OsError::FirmwareRefused { expected, actual });
    }
    Ok(actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Vec<(u64, Vec<u8>)> {
        vec![(1, b"mon".to_vec()), (2, b"ser".to_vec())]
    }

    #[test]
    fn measure_is_deterministic_and_input_sensitive() {
        let a = measure_launch(&image(), 3);
        assert_eq!(a, measure_launch(&image(), 3));
        let mut mutated = image();
        mutated[0].1[0] ^= 1;
        assert_ne!(a, measure_launch(&mutated, 3), "content change must change digest");
        assert_ne!(a, measure_launch(&image(), 4), "vmsa placement must change digest");
    }

    #[test]
    fn enforce_accepts_exact_and_refuses_mutation() {
        let expected = measure_launch(&image(), 3);
        assert_eq!(enforce(expected, &image(), 3), Ok(expected));
        let mut mutated = image();
        mutated[1].1[2] ^= 0xff;
        match enforce(expected, &mutated, 3) {
            Err(OsError::FirmwareRefused { expected: e, actual }) => {
                assert_eq!(e, expected);
                assert_ne!(actual, expected);
            }
            other => panic!("expected FirmwareRefused, got {other:?}"),
        }
    }
}
