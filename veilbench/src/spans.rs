//! The traced run's instruments: an in-memory span recorder, a `Sys`
//! that times every call crossing into the OS layer, and model-counter
//! snapshots of one CVM.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public entry points; nothing inside the program is
//! timed. A span's *self time* is its duration minus the part its child
//! spans cover, and a layer's self time is the sum over the spans named
//! `<layer>.<what>`. Spans named `bench.*` are the roots: their self
//! time is the traced wall time no layer span covers.

use std::io::Write as _;
use std::time::Instant;
use veil_os::error::Errno;
use veil_os::kernel::KernelSys;
use veil_os::sys::{Fd, OpenFlags, Sys, SysStat, Whence};
use veil_sdk::EnclaveSys;
use veil_services::Cvm;
use veil_snp::cost::CostCategory;
use veil_snp::metrics::Histogram;

/// Marks a span without a recorded parent (a root, or a span past the
/// recorder's raw-span capacity).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Spans of one request share `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request (fleet) or round (enclave) identifier.
    pub id: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// In-memory span recorder. Aggregates every span by name as it closes
/// and keeps the first `cap` spans raw for writing out.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Identifier stamped on spans opened from now on.
    pub id: u64,
    stack: Vec<Open>,
    names: Vec<(&'static str, NameStats)>,
    spans: Vec<Span>,
    cap: usize,
}

impl Recorder {
    /// A recorder timing from `epoch`, keeping at most `cap` raw spans.
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Recorder { epoch, id: 0, stack: Vec::new(), names: Vec::new(), spans: Vec::new(), cap }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_index(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.names.push((name, NameStats::default()));
                self.names.len() - 1
            }
        }
    }

    /// Opens a span; returns the token [`Recorder::exit`] closes.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let name_idx = self.name_index(name);
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
        let start_ns = self.now_ns();
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span { id: self.id, name, start_ns, end_ns: start_ns, parent });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open { name: name_idx, start_ns, child_ns: 0, slot });
        self.stack.len()
    }

    /// Closes the span `token` names and any still open inside it (a
    /// call that returned early with an error leaves none dangling).
    pub fn exit(&mut self, token: usize) {
        let end_ns = self.now_ns();
        while self.stack.len() >= token {
            let open = self.stack.pop().expect("open span");
            let dur = end_ns.saturating_sub(open.start_ns);
            let stats = &mut self.names[open.name].1;
            stats.count += 1;
            stats.total_ns += dur;
            stats.self_ns += dur.saturating_sub(open.child_ns);
            if let Some(parent) = self.stack.last_mut() {
                parent.child_ns += dur;
            }
            if open.slot != NO_PARENT {
                self.spans[open.slot as usize].end_ns = end_ns;
            }
        }
    }

    /// Aggregate for one span name (zero if never recorded).
    pub fn named(&self, name: &str) -> NameStats {
        self.names.iter().find(|(n, _)| *n == name).map_or_else(NameStats::default, |(_, s)| *s)
    }

    /// Every name's aggregate, in first-seen order.
    pub fn names(&self) -> &[(&'static str, NameStats)] {
        &self.names
    }

    /// Folds `other`'s aggregates in and appends its raw spans (parent
    /// indices rebased) while capacity lasts.
    pub fn absorb(&mut self, other: &Recorder) {
        for (name, s) in &other.names {
            let i = self.name_index(name);
            let mine = &mut self.names[i].1;
            mine.count += s.count;
            mine.total_ns += s.total_ns;
            mine.self_ns += s.self_ns;
        }
        let base = self.spans.len() as u32;
        let room = self.cap.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.iter().take(room).map(|s| Span {
            parent: if s.parent == NO_PARENT || s.parent >= room as u32 {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }

    /// Writes the raw spans as tab-separated lines
    /// (`id name start_ns end_ns parent`) to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{}\t{}\t{}\t{}\t{parent}", s.id, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// A `Sys` whose machine cycle account the benchmark can read.
pub trait ModelSys: Sys {
    /// Model cycles charged on the machine so far.
    fn model_cycles(&self) -> u64;
}

impl ModelSys for EnclaveSys<'_> {
    fn model_cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

impl ModelSys for KernelSys<'_> {
    fn model_cycles(&self) -> u64 {
        self.hv.machine.cycles().total()
    }
}

/// Wraps a `Sys`: times every call as an `os.syscall` span (when a
/// recorder is given) and stamps the model cycles at every `burn` (when
/// a stamp list is given). `burn` itself is never timed: it only charges
/// model cycles. Neither instrument charges cycles or emits events.
pub struct TimingSys<'a, S: ModelSys> {
    /// The wrapped implementation.
    pub inner: &'a mut S,
    /// Span recorder, if timing.
    pub rec: Option<&'a mut Recorder>,
    /// Model cycles just before each `burn`, if stamping.
    pub burns: Option<&'a mut Vec<u64>>,
}

macro_rules! timed {
    ($(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {
        $(fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            match self.rec.as_deref_mut() {
                Some(rec) => {
                    let t = rec.enter("os.syscall");
                    let r = self.inner.$name($($arg),*);
                    rec.exit(t);
                    r
                }
                None => self.inner.$name($($arg),*),
            }
        })*
    };
}

impl<S: ModelSys> Sys for TimingSys<'_, S> {
    timed! {
        fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno>;
        fn close(&mut self, fd: Fd) -> Result<(), Errno>;
        fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
        fn write(&mut self, fd: Fd, buf: &[u8]) -> Result<usize, Errno>;
        fn pread(&mut self, fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno>;
        fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno>;
        fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno>;
        fn stat(&mut self, path: &str) -> Result<SysStat, Errno>;
        fn fstat(&mut self, fd: Fd) -> Result<SysStat, Errno>;
        fn mkdir(&mut self, path: &str) -> Result<(), Errno>;
        fn rmdir(&mut self, path: &str) -> Result<(), Errno>;
        fn unlink(&mut self, path: &str) -> Result<(), Errno>;
        fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno>;
        fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno>;
        fn symlink(&mut self, target: &str, link_path: &str) -> Result<(), Errno>;
        fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), Errno>;
        fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno>;
        fn fchmod(&mut self, fd: Fd, mode: u32) -> Result<(), Errno>;
        fn getdents(&mut self, fd: Fd) -> Result<Vec<String>, Errno>;
        fn mmap(&mut self, len: usize) -> Result<u64, Errno>;
        fn munmap(&mut self, addr: u64, len: usize) -> Result<(), Errno>;
        fn mprotect(&mut self, addr: u64, len: usize, prot_write: bool) -> Result<(), Errno>;
        fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno>;
        fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Errno>;
        fn socket(&mut self) -> Result<Fd, Errno>;
        fn bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno>;
        fn listen(&mut self, fd: Fd) -> Result<(), Errno>;
        fn accept(&mut self, fd: Fd) -> Result<Fd, Errno>;
        fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno>;
        fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno>;
        fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
        fn socketpair(&mut self) -> Result<(Fd, Fd), Errno>;
        fn dup(&mut self, fd: Fd) -> Result<Fd, Errno>;
        fn dup2(&mut self, fd: Fd, new_fd: Fd) -> Result<Fd, Errno>;
        fn getpid(&mut self) -> Result<u32, Errno>;
        fn getuid(&mut self) -> Result<u32, Errno>;
        fn setuid(&mut self, uid: u32) -> Result<(), Errno>;
        fn print(&mut self, msg: &str) -> Result<usize, Errno>;
        fn clock_gettime(&mut self) -> Result<u64, Errno>;
        fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno>;
        fn ioctl(&mut self, fd: Fd, req: u64) -> Result<u64, Errno>;
    }

    fn burn(&mut self, cycles: u64) {
        if let Some(burns) = self.burns.as_deref_mut() {
            burns.push(self.inner.model_cycles());
        }
        self.inner.burn(cycles);
    }
}

/// Model-side counters of one CVM at one instant. Differences of two
/// snapshots give a phase's counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Machine cycles by [`CostCategory::ALL`] index.
    pub cycles: [u64; 9],
    /// Machine cycles in total.
    pub total_cycles: u64,
    /// Cycles charged while each VMPL executed.
    pub vmpl_cycles: [u64; 4],
    /// `VMGEXIT`s handled.
    pub vmgexits: u64,
    /// Relayed domain switches.
    pub domain_switches: u64,
    /// Doorbell drains relayed.
    pub doorbells: u64,
    /// Gate requests issued.
    pub gate_requests: u64,
    /// Doorbell coalescing bypasses.
    pub coalesce_bypasses: u64,
    /// Deferred gate requests that surfaced an error.
    pub deferred_errors: u64,
    /// Records in the VeilS-LOG store.
    pub log_records: u64,
    /// Audit records the kernel failed to place.
    pub audit_failures: u64,
    /// Software TLB hits and misses.
    pub tlb: (u64, u64),
    /// RMP-verdict cache hits and misses.
    pub verdict: (u64, u64),
    /// Trace records emitted (the tracer's sequence number).
    pub trace_records: u64,
}

impl Counters {
    /// Reads every counter off `cvm`.
    pub fn read(cvm: &Cvm) -> Counters {
        let m = &cvm.hv.machine;
        let hv = cvm.hv.stats();
        let cache = m.cache_stats();
        let mut cycles = [0u64; 9];
        for (slot, cat) in cycles.iter_mut().zip(CostCategory::ALL) {
            *slot = m.cycles().of(cat);
        }
        Counters {
            cycles,
            total_cycles: m.cycles().total(),
            vmpl_cycles: m.domain_cycles(),
            vmgexits: hv.vmgexits,
            domain_switches: hv.domain_switches,
            doorbells: hv.doorbells,
            gate_requests: cvm.gate.gate_requests(),
            coalesce_bypasses: cvm.gate.coalesce_bypasses(),
            deferred_errors: cvm.gate.deferred_errors(),
            log_records: cvm.gate.services.log.record_count(),
            audit_failures: cvm.kernel.audit_failures,
            tlb: (cache.tlb_hits, cache.tlb_misses),
            verdict: (cache.verdict_hits, cache.verdict_misses),
            trace_records: m.tracer().next_seq(),
        }
    }

    /// Cycles charged to `cat`.
    pub fn of(&self, cat: CostCategory) -> u64 {
        let i = CostCategory::ALL.iter().position(|c| *c == cat).expect("category");
        self.cycles[i]
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = Counters::default();
        self.zip_into(earlier, &mut d, u64::wrapping_sub);
        d
    }

    /// `self + other`, field by field.
    pub fn add(&mut self, other: &Counters) {
        let a = *self;
        a.zip_into(other, self, u64::wrapping_add);
    }

    fn zip_into(&self, o: &Counters, d: &mut Counters, f: fn(u64, u64) -> u64) {
        for i in 0..9 {
            d.cycles[i] = f(self.cycles[i], o.cycles[i]);
        }
        for i in 0..4 {
            d.vmpl_cycles[i] = f(self.vmpl_cycles[i], o.vmpl_cycles[i]);
        }
        d.total_cycles = f(self.total_cycles, o.total_cycles);
        d.vmgexits = f(self.vmgexits, o.vmgexits);
        d.domain_switches = f(self.domain_switches, o.domain_switches);
        d.doorbells = f(self.doorbells, o.doorbells);
        d.gate_requests = f(self.gate_requests, o.gate_requests);
        d.coalesce_bypasses = f(self.coalesce_bypasses, o.coalesce_bypasses);
        d.deferred_errors = f(self.deferred_errors, o.deferred_errors);
        d.log_records = f(self.log_records, o.log_records);
        d.audit_failures = f(self.audit_failures, o.audit_failures);
        d.tlb = (f(self.tlb.0, o.tlb.0), f(self.tlb.1, o.tlb.1));
        d.verdict = (f(self.verdict.0, o.verdict.0), f(self.verdict.1, o.verdict.1));
        d.trace_records = f(self.trace_records, o.trace_records);
    }
}

/// Everything the traced phase measured, ready to turn into the
/// per-layer metrics.
#[derive(Debug)]
pub struct Traced {
    /// Spans of every traced round.
    pub rec: Recorder,
    /// Model counters summed over the traced rounds' measured phases.
    pub counters: Counters,
    /// Operations the traced rounds completed.
    pub ops: u64,
    /// Relay latency histogram (model cycles): the traced shards' on the
    /// fleet, the model pass enclave's on the enclaves.
    pub relay: Histogram,
    /// Enclave boundary crossings (enclave workloads).
    pub enclave_crossings: u64,
    /// `host_ops_per_s` of the untraced phase in the same process.
    pub plain_ops_per_s: f64,
    /// `host_ops_per_s` of the traced phase.
    pub traced_ops_per_s: f64,
    /// Bytes of the last metrics snapshot taken.
    pub snapshot_bytes: u64,
    /// Fleet-only layer numbers: (summed shard busy seconds, slowest
    /// shard's wall over the mean, scheduler steals).
    pub fleet: (f64, f64, u64),
    /// Fleet-only critical-path shares (queue_wait, batch_stall, relay,
    /// service) — diagnostics.
    pub attribution_shares: [f64; 4],
    /// Trace records the benchmark folded through `CausalFold`.
    pub folded_records: u64,
}

/// Emits every per-layer metric from a traced phase into `out`.
pub fn emit_layers(out: &mut crate::Outcome, t: &Traced) {
    use crate::Clock::{Host, Model, NoClock};
    let ops = t.ops.max(1) as f64;
    let c = &t.counters;
    let per_op = |v: u64| v as f64 / ops;
    let secs = |name: &str| t.rec.named(name).total_ns as f64 / 1e9;
    let root = t
        .rec
        .names()
        .iter()
        .filter(|(n, _)| n.starts_with("bench."))
        .fold((0u64, 0u64), |(total, own), (_, s)| (total + s.total_ns, own + s.self_ns));
    let root_total = root.0.max(1) as f64;

    let (busy_s, imbalance, steals) = t.fleet;
    out.metric("fleet.shard_busy_s", busy_s, "s", Host);
    out.metric("fleet.shard_imbalance", imbalance, "ratio", Host);
    out.metric("fleet.steals", steals as f64, "count", NoClock);

    let compute_ns = t.rec.named("workloads.section").self_ns;
    out.metric("workloads.compute_s", compute_ns as f64 / 1e9, "s", Host);
    out.metric("workloads.compute_share", compute_ns as f64 / root_total, "ratio", Host);
    out.metric(
        "workloads.compute_cycles_per_op",
        per_op(c.of(CostCategory::Compute)),
        "cycles",
        Model,
    );

    let sys = t.rec.named("os.syscall");
    out.metric("os.syscalls_per_op", per_op(sys.count), "count", NoClock);
    out.metric("os.syscall_s", sys.total_ns as f64 / 1e9, "s", Host);
    out.metric("os.syscall_ns_mean", sys.total_ns as f64 / sys.count.max(1) as f64, "ns", Host);
    out.metric(
        "os.kernel_service_cycles_per_op",
        per_op(c.of(CostCategory::KernelService)),
        "cycles",
        Model,
    );

    out.metric("sdk.enclave_transitions_per_op", per_op(t.enclave_crossings), "count", NoClock);
    out.metric("sdk.transition_s", secs("sdk.transition"), "s", Host);
    out.metric(
        "sdk.enclave_exit_cycles_per_op",
        per_op(c.of(CostCategory::EnclaveExit)),
        "cycles",
        Model,
    );
    out.metric(
        "sdk.syscall_copy_cycles_per_op",
        per_op(c.of(CostCategory::SyscallCopy)),
        "cycles",
        Model,
    );

    out.metric("hv.vmgexits_per_op", per_op(c.vmgexits), "count", NoClock);
    out.metric("hv.domain_switches_per_op", per_op(c.domain_switches), "count", NoClock);
    out.metric("hv.doorbells_per_op", per_op(c.doorbells), "count", NoClock);
    out.metric(
        "hv.domain_switch_cycles_per_op",
        per_op(c.of(CostCategory::DomainSwitch)),
        "cycles",
        Model,
    );
    let relay_note = format!("{} relays", t.relay.count());
    out.metric_note(
        "hv.relay_p50_cycles",
        t.relay.percentile_interp(50.0) as f64,
        "cycles",
        Model,
        relay_note.clone(),
    );
    out.metric_note(
        "hv.relay_p999_cycles",
        t.relay.percentile_interp(99.9) as f64,
        "cycles",
        Model,
        relay_note,
    );

    out.metric("core.gate_requests_per_op", per_op(c.gate_requests), "count", NoClock);
    out.metric(
        "core.requests_per_doorbell",
        c.gate_requests as f64 / c.doorbells.max(1) as f64,
        "count",
        NoClock,
    );
    out.metric("core.coalesce_bypasses", c.coalesce_bypasses as f64, "count", NoClock);
    out.metric("core.deferred_errors", c.deferred_errors as f64, "count", NoClock);
    out.metric("core.flush_s", secs("core.flush"), "s", Host);

    out.metric("services.log_records_per_op", per_op(c.log_records), "count", NoClock);
    out.metric(
        "services.audit_log_cycles_per_op",
        per_op(c.of(CostCategory::AuditLog)),
        "cycles",
        Model,
    );
    out.metric("services.audit_failures", c.audit_failures as f64, "count", NoClock);
    out.metric("services.stat_snapshot_s", secs("services.stat_snapshot"), "s", Host);

    let ratio = |(hits, misses): (u64, u64)| hits as f64 / (hits + misses).max(1) as f64;
    out.metric("snp.tlb_hit_ratio", ratio(c.tlb), "ratio", NoClock);
    out.metric("snp.verdict_hit_ratio", ratio(c.verdict), "ratio", NoClock);
    out.metric("snp.tlb_misses_per_op", per_op(c.tlb.1), "count", NoClock);
    out.metric(
        "snp.rmp_cycles_per_op",
        per_op(c.of(CostCategory::Rmpadjust) + c.of(CostCategory::Pvalidate)),
        "cycles",
        Model,
    );
    let vmpl_total = c.vmpl_cycles.iter().sum::<u64>().max(1) as f64;
    for (v, name) in ["snp.vmpl0_cycles_share", "snp.vmpl1_cycles_share", "snp.vmpl2_cycles_share"]
        .into_iter()
        .chain(["snp.vmpl3_cycles_share"])
        .enumerate()
    {
        out.metric(name, c.vmpl_cycles[v] as f64 / vmpl_total, "ratio", Model);
    }

    let fold = t.rec.named("trace.fold");
    out.metric("trace.records_per_op", per_op(c.trace_records), "count", NoClock);
    out.metric("trace.fold_s", fold.total_ns as f64 / 1e9, "s", Host);
    out.metric(
        "trace.fold_ns_per_record",
        fold.total_ns as f64 / t.folded_records.max(1) as f64,
        "ns",
        Host,
    );
    for (name, share) in [
        "trace.queue_wait_share",
        "trace.batch_stall_share",
        "trace.relay_share",
        "trace.service_share",
    ]
    .into_iter()
    .zip(t.attribution_shares)
    {
        out.metric(name, share, "ratio", Model);
    }

    out.metric("metrics.record_s", secs("metrics.record"), "s", Host);
    out.metric("metrics.snapshot_s", secs("metrics.snapshot"), "s", Host);
    out.metric("metrics.snapshot_bytes", t.snapshot_bytes as f64, "bytes", NoClock);

    out.metric("bench.unattributed_share", root.1 as f64 / root_total, "ratio", Host);
    let overhead = (t.plain_ops_per_s / t.traced_ops_per_s.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    out.metric_note(
        "bench.trace_overhead_pct",
        overhead,
        "%",
        Host,
        format!(
            "untraced {:.1} ops/s vs traced {:.1} ops/s",
            t.plain_ops_per_s, t.traced_ops_per_s
        ),
    );

    // Where the traced host time went, span by span (report lines only).
    for (name, s) in t.rec.names() {
        out.info(
            &format!("self.{name}"),
            s.self_ns as f64 / 1e9,
            "s",
            Host,
            format!(
                "{} spans, {:.1}% of traced wall, total {:.4} s",
                s.count,
                s.self_ns as f64 / root_total * 100.0,
                s.total_ns as f64 / 1e9
            ),
        );
    }
}
