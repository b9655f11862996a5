//! The workloads behind the in-process observer twins
//! (`metrics_invariants::metrics_are_observationally_inert` and
//! `trace_invariants::disabled_tracing_records_nothing_and_changes_no_behavior`).
//!
//! Each twin runs every [`TwinCase`] at `batch(false)` (the serial Fig. 3
//! gate) and `batch(true)` (the batched gate), once with its observer on
//! and once off, and requires identical behavior.

use veil::prelude::*;
use veil_os::audit::{paper_ruleset, AuditMode};
use veil_os::monitor::MonRequest;
use veil_workloads::driver::VeilUnshieldedDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::Workload;

/// One twin workload.
#[derive(Debug, Clone, Copy)]
pub enum TwinCase {
    /// `HttpWorkload::nginx(25)`, unshielded.
    Http,
    /// Audited kernel syscalls under the paper's VeilS-LOG ruleset.
    AuditedSyscalls,
    /// `inspect`'s workload: the §5.1 handshake plus enclave
    /// open/write/pread/close.
    Inspect,
    /// One gate request under a host that refuses every domain switch.
    HostilePolicy,
}

/// Every case, in table order.
pub const CASES: [TwinCase; 4] =
    [TwinCase::Http, TwinCase::AuditedSyscalls, TwinCase::Inspect, TwinCase::HostilePolicy];

/// Both gate protocols.
pub const BATCH: [bool; 2] = [false, true];

impl TwinCase {
    /// Builds a CVM from `builder` (with the case's memory size and the
    /// given gate protocol) and drives the case's workload on it.
    pub fn run(self, builder: CvmBuilder, batch: bool) -> Cvm {
        let (frames, vcpus) = match self {
            // `inspect`'s defaults: the enclave needs room.
            TwinCase::Inspect => (4096, 2),
            _ => (2048, 1),
        };
        let mut cvm = builder.frames(frames).vcpus(vcpus).batch(batch).build().unwrap();
        assert_eq!(cvm.gate.batching(), batch, "the batch knob reaches the gate");
        match self {
            TwinCase::Http => {
                let pid = cvm.spawn();
                let mut driver = VeilUnshieldedDriver { cvm: &mut cvm, pid };
                HttpWorkload::nginx(25).run(&mut driver).unwrap();
            }
            TwinCase::AuditedSyscalls => {
                cvm.kernel.audit.mode = AuditMode::VeilLog;
                cvm.kernel.audit.rules = paper_ruleset();
                let pid = cvm.spawn();
                let mut sys = cvm.sys(pid);
                let fd = sys.open("/tmp/twin", OpenFlags::rdwr_create()).unwrap();
                sys.write(fd, b"twin").unwrap();
                sys.close(fd).unwrap();
            }
            TwinCase::Inspect => veil_bench::observed_workload(&mut cvm),
            TwinCase::HostilePolicy => {
                let gfn = cvm.gate.monitor.layout.shared.start + 6;
                cvm.hv.machine.rmp_assign(gfn).unwrap();
                cvm.hv.policy = veil_hv::HvPolicy { refuse_switches: true, ..Default::default() };
                let (_, ctx) = cvm.kctx();
                let result =
                    ctx.gate.request(ctx.hv, 0, MonRequest::Pvalidate { gfn, validate: true });
                assert!(result.is_err(), "a refused switch must surface as an error");
            }
        }
        cvm
    }
}
