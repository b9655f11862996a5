//! The evaluation harness: one function per paper table/figure.
//!
//! Every experiment returns structured rows so two consumers share the
//! same code: the `reproduce` binary (paper-style tables and JSON) and
//! the regression tests. Paper reference values are embedded next to
//! each experiment so EXPERIMENTS.md can be regenerated mechanically.
//!
//! Scaling: the paper's testbed runs minutes of wall-clock work; the
//! simulation charges deterministic cycles, so experiments use scaled
//! operation counts (documented per experiment) and report *relative*
//! quantities — overheads, ratios, crossover shapes — which are
//! scale-invariant in this model once per-op costs dominate fixed costs.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::*;

use veil_crypto::DhKeyPair;
use veil_os::sys::{OpenFlags, Sys};
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};

/// The representative workload behind `inspect trace`, `metrics` and
/// `flame`: a secure-channel handshake (§5.1) followed by a few
/// enclave-redirected syscalls (§6.2), exercising domain switches,
/// VMGEXIT/VMENTER pairs, and the audit pipeline.
///
/// # Panics
///
/// On any boot-path error: the workload runs on a freshly built CVM.
pub fn observed_workload(cvm: &mut veil_services::Cvm) {
    let user = DhKeyPair::from_seed(&[7; 32]);
    let (_report, _mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, [7; 32]).expect("attest");
    cvm.gate.monitor.complete_channel(&mut cvm.hv, &user.public).expect("channel");

    let pid = cvm.spawn();
    let handle =
        install_enclave(cvm, pid, &EnclaveBinary::build("inspect", 2048, 0)).expect("enclave");
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(cvm, &mut rt).expect("enter");
        let fd = sys.open("/tmp/trace", OpenFlags::rdwr_create()).expect("open");
        sys.write(fd, b"veil-trace").expect("write");
        let mut buf = [0u8; 10];
        sys.pread(fd, &mut buf, 0).expect("pread");
        sys.close(fd).expect("close");
    }
    veil_sdk::runtime::park_enclave(cvm, &mut rt).expect("park");
}
