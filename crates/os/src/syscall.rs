//! Syscall numbers and classification.
//!
//! Numbers follow Linux x86-64 so the audit ruleset of §9.2 (footnote 1)
//! can be written exactly as the paper configures `auditctl`, and so the
//! SDK's sanitizer specs (§7) key off realistic identifiers.

use std::fmt;

/// Linux x86-64 syscall numbers (subset used by the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // names mirror the syscall table
pub enum Sysno {
    Read = 0,
    Write = 1,
    Open = 2,
    Close = 3,
    Stat = 4,
    Fstat = 5,
    Lseek = 8,
    Mmap = 9,
    Mprotect = 10,
    Munmap = 11,
    Brk = 12,
    Ioctl = 16,
    Pread64 = 17,
    Pwrite64 = 18,
    Readv = 19,
    Writev = 20,
    Access = 21,
    Pipe = 22,
    Dup = 32,
    Dup2 = 33,
    Nanosleep = 35,
    Getpid = 39,
    Sendfile = 40,
    Socket = 41,
    Connect = 42,
    Accept = 43,
    Sendto = 44,
    Recvfrom = 45,
    Sendmsg = 46,
    Recvmsg = 47,
    Bind = 49,
    Listen = 50,
    Socketpair = 53,
    Clone = 56,
    Fork = 57,
    Vfork = 58,
    Execve = 59,
    Exit = 60,
    Rename = 82,
    Mkdir = 83,
    Rmdir = 84,
    Creat = 85,
    Link = 86,
    Unlink = 87,
    Symlink = 88,
    Chmod = 90,
    Fchmod = 91,
    Truncate = 76,
    Ftruncate = 77,
    Getdents = 78,
    Getuid = 102,
    Setuid = 105,
    Setreuid = 113,
    Setresuid = 117,
    ClockGettime = 228,
    Openat = 257,
    Mknodat = 259,
    Unlinkat = 263,
    Accept4 = 288,
    Dup3 = 292,
    Pipe2 = 293,
    Splice = 275,
}

impl Sysno {
    /// The raw syscall number.
    pub fn num(self) -> u64 {
        self as u64
    }

    /// The lowercase syscall name (`open`, `sendfile`, ...), as kaudit
    /// records and [`fmt::Display`] print it.
    pub fn name(self) -> &'static str {
        match self {
            Sysno::Read => "read",
            Sysno::Write => "write",
            Sysno::Open => "open",
            Sysno::Close => "close",
            Sysno::Stat => "stat",
            Sysno::Fstat => "fstat",
            Sysno::Lseek => "lseek",
            Sysno::Mmap => "mmap",
            Sysno::Mprotect => "mprotect",
            Sysno::Munmap => "munmap",
            Sysno::Brk => "brk",
            Sysno::Ioctl => "ioctl",
            Sysno::Pread64 => "pread64",
            Sysno::Pwrite64 => "pwrite64",
            Sysno::Readv => "readv",
            Sysno::Writev => "writev",
            Sysno::Access => "access",
            Sysno::Pipe => "pipe",
            Sysno::Dup => "dup",
            Sysno::Dup2 => "dup2",
            Sysno::Nanosleep => "nanosleep",
            Sysno::Getpid => "getpid",
            Sysno::Sendfile => "sendfile",
            Sysno::Socket => "socket",
            Sysno::Connect => "connect",
            Sysno::Accept => "accept",
            Sysno::Sendto => "sendto",
            Sysno::Recvfrom => "recvfrom",
            Sysno::Sendmsg => "sendmsg",
            Sysno::Recvmsg => "recvmsg",
            Sysno::Bind => "bind",
            Sysno::Listen => "listen",
            Sysno::Socketpair => "socketpair",
            Sysno::Clone => "clone",
            Sysno::Fork => "fork",
            Sysno::Vfork => "vfork",
            Sysno::Execve => "execve",
            Sysno::Exit => "exit",
            Sysno::Rename => "rename",
            Sysno::Mkdir => "mkdir",
            Sysno::Rmdir => "rmdir",
            Sysno::Creat => "creat",
            Sysno::Link => "link",
            Sysno::Unlink => "unlink",
            Sysno::Symlink => "symlink",
            Sysno::Chmod => "chmod",
            Sysno::Fchmod => "fchmod",
            Sysno::Truncate => "truncate",
            Sysno::Ftruncate => "ftruncate",
            Sysno::Getdents => "getdents",
            Sysno::Getuid => "getuid",
            Sysno::Setuid => "setuid",
            Sysno::Setreuid => "setreuid",
            Sysno::Setresuid => "setresuid",
            Sysno::ClockGettime => "clockgettime",
            Sysno::Openat => "openat",
            Sysno::Mknodat => "mknodat",
            Sysno::Unlinkat => "unlinkat",
            Sysno::Accept4 => "accept4",
            Sysno::Dup3 => "dup3",
            Sysno::Pipe2 => "pipe2",
            Sysno::Splice => "splice",
        }
    }

    /// All syscalls the simulation knows about.
    pub const ALL: [Sysno; 57] = [
        Sysno::Read,
        Sysno::Write,
        Sysno::Open,
        Sysno::Close,
        Sysno::Stat,
        Sysno::Fstat,
        Sysno::Lseek,
        Sysno::Mmap,
        Sysno::Mprotect,
        Sysno::Munmap,
        Sysno::Brk,
        Sysno::Ioctl,
        Sysno::Pread64,
        Sysno::Pwrite64,
        Sysno::Readv,
        Sysno::Writev,
        Sysno::Access,
        Sysno::Pipe,
        Sysno::Dup,
        Sysno::Dup2,
        Sysno::Nanosleep,
        Sysno::Getpid,
        Sysno::Sendfile,
        Sysno::Socket,
        Sysno::Connect,
        Sysno::Accept,
        Sysno::Sendto,
        Sysno::Recvfrom,
        Sysno::Sendmsg,
        Sysno::Recvmsg,
        Sysno::Bind,
        Sysno::Listen,
        Sysno::Socketpair,
        Sysno::Clone,
        Sysno::Fork,
        Sysno::Vfork,
        Sysno::Execve,
        Sysno::Exit,
        Sysno::Rename,
        Sysno::Mkdir,
        Sysno::Rmdir,
        Sysno::Creat,
        Sysno::Link,
        Sysno::Unlink,
        Sysno::Symlink,
        Sysno::Chmod,
        Sysno::Fchmod,
        Sysno::Truncate,
        Sysno::Ftruncate,
        Sysno::Getdents,
        Sysno::Getuid,
        Sysno::Setuid,
        Sysno::Setreuid,
        Sysno::Setresuid,
        Sysno::ClockGettime,
        Sysno::Openat,
        Sysno::Accept4,
    ];
}

impl fmt::Display for Sysno {
    /// Prints the lowercase syscall name (`open`, `sendfile`, ...).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_linux() {
        assert_eq!(Sysno::Read.num(), 0);
        assert_eq!(Sysno::Open.num(), 2);
        assert_eq!(Sysno::Mmap.num(), 9);
        assert_eq!(Sysno::Socket.num(), 41);
        assert_eq!(Sysno::Execve.num(), 59);
        assert_eq!(Sysno::Openat.num(), 257);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(format!("{}", Sysno::Open), "open");
        assert_eq!(format!("{}", Sysno::Sendfile), "sendfile");
    }

    #[test]
    fn name_is_the_lowercase_debug_name() {
        for s in Sysno::ALL {
            assert_eq!(s.name(), format!("{s:?}").to_lowercase());
        }
    }

    #[test]
    fn all_distinct() {
        let mut nums: Vec<u64> = Sysno::ALL.iter().map(|s| s.num()).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), Sysno::ALL.len());
    }
}
