//! Differential proof of the batched gate path.
//!
//! Every Fig. 5 workload runs twice on identically-configured CVMs with
//! VeilS-LOG auditing on: once over the serial Fig. 3 gate protocol
//! (`batch(false)`) and once over the ring-and-doorbell batched protocol
//! (`batch(true)`). Each workload runs on two legs: unshielded in a
//! kernel process, and inside a VeilS-ENC enclave whose redirected
//! syscalls are audited by the kernel. The two runs must be
//! *observationally equivalent*:
//!
//! * identical workload results (ops, bytes, checksum);
//! * identical final per-GFN RMP state;
//! * identical protected log storage content, byte for byte;
//! * identical event-stream fold except for the switch plumbing itself
//!   (`vmgexits`, `vmenters`, `domain_switches`, `doorbells`);
//!
//! and the batched run must earn its keep on the model clock: fewer
//! model cycles than the serial run, and under one domain switch per
//! gate request where the serial protocol pays exactly two.

use veil::prelude::*;
use veil::trace::EventCounters;
use veil_os::audit::AuditMode;
use veil_os::error::OsError;
use veil_os::syscall::Sysno;
use veil_sdk::runtime::park_enclave;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_snp::perms::Vmpl;
use veil_workloads::driver::{EnclaveDriver, VeilUnshieldedDriver};
use veil_workloads::{
    compress::GzipWorkload, http::HttpWorkload, kvstore::UnqliteWorkload, minidb::SqliteWorkload,
    Workload, WorkloadStats,
};

/// Where the workload runs: a kernel process, or a VeilS-ENC enclave
/// parked before the final gate flush so the doorbell rings from VMPL3.
#[derive(Clone, Copy)]
enum Leg {
    Unshielded,
    Enclave,
}

/// One audited run of `workload` over the serial or batched protocol.
struct RunResult {
    stats: WorkloadStats,
    cvm: Cvm,
}

/// Boots an audited CVM: VeilS-LOG with the paper ruleset plus
/// positioned I/O, so every workload in the matrix crosses the gate
/// (kvstore's hot syscall is pwrite).
fn audited_cvm(leg: Leg, batched: bool) -> Cvm {
    let (frames, log_frames) = match leg {
        Leg::Unshielded => (4096, 256),
        Leg::Enclave => (8192, 1024),
    };
    let mut cvm = CvmBuilder::new()
        .frames(frames)
        .vcpus(1)
        .log_frames(log_frames)
        .trace(true)
        .batch(batched)
        .build()
        .expect("boot");
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.kernel.audit.rules.insert(Sysno::Pwrite64);
    cvm.kernel.audit.rules.insert(Sysno::Pread64);
    cvm
}

fn enclave_binary() -> EnclaveBinary {
    EnclaveBinary::build("differential", 16 * 1024, 8 * 1024).with_heap_pages(32)
}

fn run(workload: &mut dyn Workload, leg: Leg, batched: bool) -> RunResult {
    let mut cvm = audited_cvm(leg, batched);
    let pid = cvm.spawn();
    let stats = match leg {
        Leg::Unshielded => workload.run(&mut VeilUnshieldedDriver { cvm: &mut cvm, pid }),
        Leg::Enclave => {
            let handle = install_enclave(&mut cvm, pid, &enclave_binary()).expect("install");
            let rt = &mut EnclaveRuntime::new(handle);
            let stats = workload.run(&mut EnclaveDriver { cvm: &mut cvm, rt });
            park_enclave(&mut cvm, rt).expect("park");
            stats
        }
    }
    .expect("workload");
    cvm.flush_gate().expect("flush");
    RunResult { stats, cvm }
}

/// Zeroes the counters that legitimately differ between the serial and
/// batched protocols: the switch plumbing itself. Everything else —
/// audit appends, pvalidates, RMP transitions, page-state changes,
/// faults, I/O exits, enclave crossings — must fold identically.
fn masked(mut c: EventCounters) -> EventCounters {
    c.vmgexits = 0;
    c.vmenters = 0;
    c.domain_switches = 0;
    c.doorbells = 0;
    // Ring enqueues are the deferral bookkeeping itself: the serial
    // protocol never enqueues, so the counter is plumbing, not payload.
    c.ring_enqueues = 0;
    c
}

fn differential(name: &str, leg: Leg, mk: &dyn Fn() -> Box<dyn Workload>) {
    let serial = run(mk().as_mut(), leg, false);
    let batched = run(mk().as_mut(), leg, true);

    // Workload-visible results are identical.
    assert_eq!(serial.stats.ops, batched.stats.ops, "{name}: ops");
    assert_eq!(serial.stats.bytes, batched.stats.bytes, "{name}: bytes");
    assert_eq!(serial.stats.checksum, batched.stats.checksum, "{name}: checksum");

    // Both runs produced real gate traffic and shed nothing.
    let reqs = serial.cvm.gate.gate_requests();
    assert!(reqs > 0, "{name}: no gate traffic");
    assert_eq!(reqs, batched.cvm.gate.gate_requests(), "{name}: reqs");
    assert_eq!(batched.cvm.gate.deferred_errors(), 0, "{name}: drain shed requests");

    // Final RMP state is identical for every GFN.
    let s_rmp = serial.cvm.hv.machine.rmp();
    let b_rmp = batched.cvm.hv.machine.rmp();
    assert_eq!(s_rmp.frames(), b_rmp.frames(), "{name}: frame count");
    for (gfn, entry) in s_rmp.iter() {
        assert_eq!(Some(entry), b_rmp.entry(gfn), "{name}: RMP entry diverged at gfn {gfn}");
    }

    // Protected log storage holds the same records in the same order.
    // `tsc` is the one legitimately different field: the two protocols
    // have different cycle timelines by design.
    let s_log = serial.cvm.gate.services.log.read_all(&serial.cvm.hv).expect("read log");
    let b_log = batched.cvm.gate.services.log.read_all(&batched.cvm.hv).expect("read log");
    assert_eq!(s_log.len(), b_log.len(), "{name}: log record count diverged");
    assert!(!s_log.is_empty(), "{name}: audit produced no records");
    for (s, b) in s_log.iter().zip(&b_log) {
        let s = veil_os::audit::AuditRecord::from_bytes(s).expect("parse serial record");
        let b = veil_os::audit::AuditRecord::from_bytes(b).expect("parse batched record");
        assert_eq!(
            (s.seq, s.pid, s.uid, s.sysno, s.ret),
            (b.seq, b.pid, b.uid, b.sysno, b.ret),
            "{name}: log record diverged"
        );
    }

    // The event-stream folds agree on everything but the switch plumbing.
    let s_fold = EventCounters::from_records(&serial.cvm.trace_records());
    let b_fold = EventCounters::from_records(&batched.cvm.trace_records());
    assert_eq!(masked(s_fold), masked(b_fold), "{name}: masked event fold diverged");
    assert!(b_fold.doorbells > 0, "{name}: batched run never rang the doorbell");
    assert_eq!(s_fold.doorbells, 0, "{name}: serial run must not ring the doorbell");

    // The batch path pays on the model clock. The serial protocol spends
    // exactly two switches per gate request; every other switch (boot,
    // enclave crossings) is common to both runs.
    let (s_cycles, b_cycles) =
        (serial.cvm.hv.machine.cycles().total(), batched.cvm.hv.machine.cycles().total());
    assert!(b_cycles < s_cycles, "{name}: batched model cycles {b_cycles} >= serial {s_cycles}");
    let other = s_fold.domain_switches - 2 * reqs;
    let per_request = (b_fold.domain_switches - other) as f64 / reqs as f64;
    assert!(per_request < 1.0, "{name}: batched switches per gate request {per_request:.3} >= 1");
}

/// One serial-vs-batched test per workload and leg.
macro_rules! differential_tests {
    ($($test:ident: $leg:ident, $workload:expr;)*) => {$(
        #[test]
        fn $test() {
            differential(stringify!($test), Leg::$leg, &|| Box::new($workload));
        }
    )*};
}

differential_tests! {
    http_batched_equals_serial: Unshielded, HttpWorkload::nginx(40);
    kvstore_batched_equals_serial: Unshielded, UnqliteWorkload { entries: 300 };
    minidb_batched_equals_serial: Unshielded, SqliteWorkload { rows: 120 };
    compress_batched_equals_serial: Unshielded, GzipWorkload { input_len: 65536, chunk: 8192 };
    http_enclave_batched_equals_serial: Enclave, HttpWorkload::nginx(40);
    kvstore_enclave_batched_equals_serial: Enclave, UnqliteWorkload { entries: 300 };
    minidb_enclave_batched_equals_serial: Enclave, SqliteWorkload { rows: 120 };
    compress_enclave_batched_equals_serial: Enclave, GzipWorkload { input_len: 65536, chunk: 8192 };
}

/// The doorbell claims VMPL3, so the gate refuses to ring it while an
/// enclave is current; the batch waits, untouched, until the enclave is
/// parked.
#[test]
fn flush_refuses_enclave_current_until_parked() {
    let mut cvm = audited_cvm(Leg::Enclave, true);
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &enclave_binary()).expect("install");
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
        let fd = sys.open("/tmp/flush", OpenFlags::rdwr_create()).expect("open");
        sys.write(fd, b"audited").expect("write");
    }
    let depth = cvm.gate.pending_depth(0);
    assert!(depth > 0, "audited enclave syscalls left nothing deferred");
    let switches = cvm.hv.stats().domain_switches;

    let err = cvm.flush_gate().expect_err("flush with the enclave current");
    let want = "gate flush on vcpu 0 needs the kernel (VMPL3) current, found Some(Vmpl2)";
    assert!(matches!(&err, OsError::Config(msg) if msg == want), "{err:?}");
    assert_eq!(cvm.gate.pending_depth(0), depth, "refused flush must leave the batch pending");
    assert_eq!(cvm.hv.stats().domain_switches, switches, "refused flush must not switch");
    assert_eq!(cvm.hv.vcpu(0).unwrap().current_vmpl, Vmpl::Vmpl2);

    park_enclave(&mut cvm, &mut rt).expect("park");
    cvm.flush_gate().expect("flush from the kernel");
    assert_eq!(cvm.gate.pending_depth(0), 0);
    assert_eq!(cvm.gate.deferred_errors(), 0);
}
