//! Revoke-then-fault regression tests.
//!
//! SEV-SNP requires that no translation or RMP verdict outlive the
//! operation that revokes it (`unmap`, `protect`, `RMPADJUST`,
//! `PVALIDATE`, page-state change, VMSA creation, a direct page-table
//! edit): a domain that keeps access the RMP or the page tables say it
//! no longer has breaks the paper's §3 isolation argument. Each test
//! here first uses an access, performs the revoking operation, and
//! proves the `#PF`/`#NPF` fires on the very next access. The machine
//! walks the page tables and consults the RMP on every access, so these
//! tests pin the property itself, not any caching strategy: one that
//! is added later must keep them green. One test drives the revocation
//! through the hypervisor's GHCB page-state-change flow with every
//! hostile [`HvPolicy`] knob engaged, so no policy combination can skip
//! it.
//!
//! [`HvPolicy`]: veil_hv::HvPolicy

use veil_hv::{HvPolicy, HvResponse, Hypervisor};
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::machine::{Machine, MachineConfig};
use veil_snp::perms::{Access, Cpl, Vmpl, VmplPerms};
use veil_snp::pt::{AddressSpace, PtError, PteFlags};

const FRAMES: usize = 128;

/// A machine with every frame from 1 validated and fully granted, plus a
/// VMPL-3 address space with one page mapped at `VADDR`.
fn setup() -> (Machine, AddressSpace, Vec<u64>, u64) {
    let mut m = Machine::new(MachineConfig { frames: FRAMES, ..Default::default() });
    let mut free: Vec<u64> = Vec::new();
    for gfn in 1..FRAMES as u64 {
        m.rmp_assign(gfn).unwrap();
        m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
        for v in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
            m.rmpadjust(Vmpl::Vmpl0, gfn, v, VmplPerms::all()).unwrap();
        }
        free.push(gfn);
    }
    free.reverse();
    let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
    let pfn = free.pop().unwrap();
    aspace.map(&mut m, Vmpl::Vmpl3, &mut free, VADDR, pfn, PteFlags::user_data()).unwrap();
    (m, aspace, free, pfn)
}

const VADDR: u64 = 0x4000_0000;

#[test]
fn stale_translation_after_unmap_faults() {
    let (mut m, aspace, _free, pfn) = setup();
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    assert_eq!(aspace.unmap(&mut m, Vmpl::Vmpl3, VADDR).unwrap(), pfn);

    // The old translation must not be honored after the unmap.
    assert!(matches!(aspace.translate(&m, VADDR), Err(PtError::NotMapped { .. })));
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
}

#[test]
fn stale_translation_after_protect_faults_on_write() {
    let (mut m, aspace, _free, _pfn) = setup();
    // Write first, so the writable mapping is the one in use.
    aspace.write_virt(&mut m, VADDR, b"warmup!!", Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    aspace.protect(&mut m, Vmpl::Vmpl3, VADDR, PteFlags::user_ro()).unwrap();

    // Reads still work; the writable PTE must be gone.
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
    assert!(matches!(
        aspace.write_virt(&mut m, VADDR, b"stale!!!", Vmpl::Vmpl3, Cpl::Cpl3),
        Err(PtError::PageFault { access: Access::Write, .. })
    ));
}

#[test]
fn stale_verdict_after_rmpadjust_revoke_faults() {
    let (mut m, aspace, _free, pfn) = setup();
    // Access granted through the virtual path and directly.
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
    m.read(Vmpl::Vmpl3, Machine::gpa(pfn), 8).unwrap();

    // VeilMon revokes VMPL-3 access (the §5.1 protection operation).
    m.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();

    // Both the physical and the virtual path must fault now.
    assert!(m.read(Vmpl::Vmpl3, Machine::gpa(pfn), 8).is_err());
    assert!(m.write(Vmpl::Vmpl3, Machine::gpa(pfn), b"x").is_err());
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
    // VMPL-0 retains access (revocation was targeted, not a wipe).
    m.read(Vmpl::Vmpl0, Machine::gpa(pfn), 8).unwrap();
}

#[test]
fn stale_verdict_after_exec_revoke_faults() {
    let (mut m, _aspace, mut free, _pfn) = setup();
    let code = free.pop().unwrap();
    m.check_exec(Vmpl::Vmpl3, Cpl::Cpl3, Machine::gpa(code)).unwrap();

    // Drop USER_EXEC but keep read/write: only execution is revoked.
    m.rmpadjust(Vmpl::Vmpl0, code, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();

    assert!(m.check_exec(Vmpl::Vmpl3, Cpl::Cpl3, Machine::gpa(code)).is_err());
    m.read(Vmpl::Vmpl3, Machine::gpa(code), 8).unwrap();
}

#[test]
fn stale_verdict_after_reassign_faults() {
    // Access granted while a page was validated must not survive the
    // page bouncing out to shared and back in as unvalidated.
    let (mut m, _aspace, mut free, _pfn) = setup();
    let gfn = free.pop().unwrap();
    m.read(Vmpl::Vmpl3, Machine::gpa(gfn), 8).unwrap();

    m.pvalidate(Vmpl::Vmpl0, gfn, false).unwrap();
    m.rmp_reclaim(gfn).unwrap(); // private -> shared (scrubbed)
    m.rmp_assign(gfn).unwrap(); // shared -> assigned, NOT validated

    // Unvalidated memory faults #NPF for every VMPL.
    assert!(m.read(Vmpl::Vmpl3, Machine::gpa(gfn), 8).is_err());
    assert!(m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());
}

#[test]
fn stale_verdict_after_vmsa_create_faults() {
    let (mut m, _aspace, mut free, _pfn) = setup();
    let gfn = free.pop().unwrap();
    m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();

    m.vmsa_create(Vmpl::Vmpl0, gfn, 0, Vmpl::Vmpl1, Cpl::Cpl0).unwrap();

    // VMSA pages are immutable to software at every VMPL.
    assert!(m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());

    m.vmsa_destroy(Vmpl::Vmpl0, gfn).unwrap();
    m.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();
}

#[test]
fn direct_pt_edit_is_snooped() {
    // The OS editing page tables *directly* (no map/unmap/protect, no
    // INVLPG) is the case hardware handles with a broadcast shootdown:
    // the next walk must see the edited tables.
    let (mut m, aspace, _free, _pfn) = setup();
    aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();

    // Find the leaf table frame and zero the whole thing through the
    // plain write path (a hostile or buggy kernel scribbling on tables).
    let tables = aspace.table_frames(&m);
    let leaf = *tables.last().unwrap();
    m.write(Vmpl::Vmpl0, Machine::gpa(leaf), &[0u8; 4096]).unwrap();

    // The translation for VADDR must be gone with the PTE.
    assert!(matches!(aspace.translate(&m, VADDR), Err(PtError::NotMapped { .. })));
    assert!(aspace.read_virt(&m, VADDR, 8, Vmpl::Vmpl3, Cpl::Cpl3).is_err());
}

/// RMPADJUST on one VMPL's permissions must revoke exactly that VMPL's
/// access to the gfn and leave every other VMPL's verdicts intact.
#[test]
fn rmpadjust_for_one_vmpl_keeps_other_vmpls_correct_on_same_gfn() {
    let (mut m, _aspace, _free, gfn) = setup();
    let gpa = Machine::gpa(gfn);
    m.read(Vmpl::Vmpl1, gpa, 8).unwrap();
    m.read(Vmpl::Vmpl2, gpa, 8).unwrap();

    // Revoke everything from VMPL-3 only.
    m.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
    m.read(Vmpl::Vmpl1, gpa, 8).unwrap();
    m.read(Vmpl::Vmpl2, gpa, 8).unwrap();
    assert!(m.read(Vmpl::Vmpl3, gpa, 8).is_err());

    // Drop VMPL-1 to read-only: its write dies, VMPL-2 is untouched.
    m.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl1, VmplPerms::r()).unwrap();
    assert!(m.write(Vmpl::Vmpl1, gpa, b"churn!!!").is_err());
    m.read(Vmpl::Vmpl1, gpa, 8).unwrap();
    m.read(Vmpl::Vmpl2, gpa, 8).unwrap();
    m.write(Vmpl::Vmpl2, gpa, b"churn!!!").unwrap();
}

#[test]
fn psc_to_shared_under_hostile_policy_kills_cached_state() {
    // Drive the revocation through the hypervisor's GHCB page-state
    // machinery with every hostile policy knob engaged. No knob may
    // let access granted while the page was validated private memory be
    // honored once the page has left and re-entered the private domain.
    let machine = Machine::new(MachineConfig { frames: 256, ..MachineConfig::default() });
    let mut hv = Hypervisor::new(machine);
    hv.policy = HvPolicy {
        relay_interrupts_to_unt: false,
        tamper_vmsa_on_switch: true,
        enforce_enclave_ghcb_scope: false,
        refuse_switches: true,
        misroute_switch_to: Some(Vmpl::Vmpl2),
    };
    hv.launch(&[(1u64, b"veilmon code".to_vec())], 3).unwrap();

    let gfn = 30u64;
    hv.machine.set_ghcb_msr(0, 20); // frame 20 is still shared
    let ghcb = Ghcb::at(&hv.machine, 20).unwrap();

    // Guest takes the page private, validates, and uses it.
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 1).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    hv.machine.write(Vmpl::Vmpl0, Machine::gpa(gfn), b"secret").unwrap();
    hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).unwrap();

    // Page-state change back to shared (hypervisor-observed), then the
    // host hands the same gfn back as private-but-unvalidated.
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, false).unwrap();
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 0).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);
    ghcb.write_request(&mut hv.machine, Vmpl::Vmpl0, GhcbExit::PageStateChange, gfn, 1).unwrap();
    assert_eq!(hv.vmgexit(0, false).unwrap(), HvResponse::PageStateChanged);

    // #NPF must fire: the pre-PSC access is dead, the page is not
    // validated, and the scrub removed the old contents.
    assert!(hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 8).is_err());
    hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    assert_eq!(hv.machine.read(Vmpl::Vmpl0, Machine::gpa(gfn), 6).unwrap(), vec![0u8; 6]);
}
