//! Kernel audit framework (kaudit) and its Veil-protected variant.
//!
//! Models Linux's kaudit as the paper configures it (§9.2 CS3): a ruleset
//! of syscall numbers (footnote 1's `auditctl` list), a record produced at
//! `audit_log_end`, and — following the paper's fairness fix — an
//! *in-memory* log rather than the inefficient auditd writeback.
//!
//! Under VeilS-LOG the same hook instead transcribes the record into the
//! IDCB and domain-switches to the protected service *before the syscall
//! returns* (execute-ahead, §6.3). The sink choice is [`AuditMode`].

use crate::syscall::Sysno;
use std::collections::BTreeSet;

/// Where audit records go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Auditing disabled (baseline for overhead measurements).
    Off,
    /// Native kaudit with in-memory log (the paper's fairness fix).
    Kaudit,
    /// Unmodified kaudit + auditd writing each record to disk — the
    /// configuration the paper replaced because auditd "is known to be
    /// very inefficient" (§9.2). Kept as an ablation.
    KauditDisk,
    /// VeilS-LOG protected logging (execute-ahead relay to `Dom_SER`).
    VeilLog,
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Issuing process.
    pub pid: u32,
    /// Issuing uid.
    pub uid: u32,
    /// The syscall.
    pub sysno: Sysno,
    /// Return value (or negative errno).
    pub ret: i64,
    /// Cycle timestamp at record creation.
    pub tsc: u64,
}

impl AuditRecord {
    /// Serializes to the wire format relayed through the IDCB.
    ///
    /// Format: `seq(8) pid(4) uid(4) sysno(8) ret(8) tsc(8)` little-endian,
    /// followed by the textual syscall name (as kaudit records carry).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
        out.extend_from_slice(&self.uid.to_le_bytes());
        out.extend_from_slice(&self.sysno.num().to_le_bytes());
        out.extend_from_slice(&self.ret.to_le_bytes());
        out.extend_from_slice(&self.tsc.to_le_bytes());
        out.extend_from_slice(self.sysno.name().as_bytes());
        out
    }

    /// Parses the wire format (used by log retrieval tooling).
    pub fn from_bytes(bytes: &[u8]) -> Option<AuditRecord> {
        if bytes.len() < 40 {
            return None;
        }
        let seq = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let pid = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let uid = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
        let sysno_num = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let ret = i64::from_le_bytes(bytes[24..32].try_into().ok()?);
        let tsc = u64::from_le_bytes(bytes[32..40].try_into().ok()?);
        let sysno = Sysno::ALL.iter().copied().find(|s| s.num() == sysno_num)?;
        Some(AuditRecord { seq, pid, uid, sysno, ret, tsc })
    }
}

/// The audit configuration + kaudit's in-memory store.
#[derive(Debug, Clone)]
pub struct AuditState {
    /// Active sink.
    pub mode: AuditMode,
    /// Syscalls that produce records.
    pub rules: BTreeSet<Sysno>,
    /// kaudit's in-memory log (used when `mode == Kaudit`).
    pub kaudit_log: Vec<AuditRecord>,
    /// Next sequence number.
    pub seq: u64,
}

impl Default for AuditState {
    fn default() -> Self {
        AuditState { mode: AuditMode::Off, rules: BTreeSet::new(), kaudit_log: Vec::new(), seq: 0 }
    }
}

impl AuditState {
    /// Disabled auditing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `sysno` matches the active ruleset.
    pub fn matches(&self, sysno: Sysno) -> bool {
        self.mode != AuditMode::Off && self.rules.contains(&sysno)
    }

    /// Builds the next record.
    pub fn make_record(
        &mut self,
        pid: u32,
        uid: u32,
        sysno: Sysno,
        ret: i64,
        tsc: u64,
    ) -> AuditRecord {
        let seq = self.seq;
        self.seq += 1;
        AuditRecord { seq, pid, uid, sysno, ret, tsc }
    }
}

/// The ruleset the paper configures with `auditctl` (§9.2 footnote 1):
/// "important file creation, network access, and process execution calls".
pub fn paper_ruleset() -> BTreeSet<Sysno> {
    use Sysno::*;
    [
        Read, Readv, Write, Writev, Sendto, Recvfrom, Sendmsg, Recvmsg, Mmap, Mprotect, Link,
        Symlink, Clone, Fork, Vfork, Execve, Open, Close, Creat, Openat, Mknodat, Dup, Dup2, Dup3,
        Bind, Accept, Accept4, Connect, Rename, Setuid, Setreuid, Setresuid, Chmod, Fchmod, Pipe,
        Pipe2, Truncate, Ftruncate, Sendfile, Unlink, Unlinkat, Socketpair, Splice,
    ]
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let rec = AuditRecord { seq: 7, pid: 42, uid: 1000, sysno: Sysno::Open, ret: 3, tsc: 999 };
        let parsed = AuditRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn record_rejects_short_input() {
        assert!(AuditRecord::from_bytes(&[0u8; 10]).is_none());
    }

    #[test]
    fn ruleset_matches_paper_footnote() {
        let rules = paper_ruleset();
        assert!(rules.contains(&Sysno::Execve));
        assert!(rules.contains(&Sysno::Sendfile));
        assert!(rules.contains(&Sysno::Splice));
        // Not in the footnote list:
        assert!(!rules.contains(&Sysno::Getpid));
        assert!(!rules.contains(&Sysno::Lseek));
        assert_eq!(rules.len(), 43);
    }

    #[test]
    fn matching_requires_enabled_mode() {
        let mut st = AuditState::new();
        st.rules = paper_ruleset();
        assert!(!st.matches(Sysno::Open), "mode Off");
        st.mode = AuditMode::Kaudit;
        assert!(st.matches(Sysno::Open));
        assert!(!st.matches(Sysno::Getpid));
    }

    #[test]
    fn sequence_increments() {
        let mut st = AuditState::new();
        let a = st.make_record(1, 0, Sysno::Open, 0, 0);
        let b = st.make_record(1, 0, Sysno::Close, 0, 0);
        assert_eq!((a.seq, b.seq), (0, 1));
    }
}
