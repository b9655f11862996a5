//! `enclave_minidb` and `enclave_gzip`: a Fig. 5 program shielded in a
//! VeilS-ENC enclave, driven as a closed loop of one caller.
//!
//! Both programs seed their inputs inside `veil-workloads` (fixed DRBG
//! seeds), so `--seed` does not change what they compute; it only
//! labels the run. The serial gate protocol and no auditing match the
//! paper's Fig. 5 configuration, so the gate stays idle.

use crate::spans::{emit_layers, Counters, ModelSys, Recorder, TimingSys, Traced};
use crate::{median_setup, peak_rss_mib, percentile, sample_note, Args, Clock, Outcome};
use std::time::Instant;
use veil_os::error::Errno;
use veil_os::kernel::KernelSys;
use veil_sdk::runtime::park_enclave;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_services::{Cvm, CvmBuilder};
use veil_snp::metrics::Histogram;
use veil_workloads::compress::GzipWorkload;
use veil_workloads::driver::{Driver, EnclaveDriver, NativeDriver, Section};
use veil_workloads::minidb::SqliteWorkload;
use veil_workloads::{Workload, WorkloadStats};

/// Inserts per minidb round: about 60 ms of host time, so a timed phase
/// holds hundreds of rounds.
const MINIDB_ROWS: usize = 24_000;
/// GZip chunk size (the Fig. 5 harness's).
const GZIP_CHUNK: usize = 32 * 1024;
/// Chunks per gzip round.
const GZIP_CHUNKS: usize = 800;
/// Fresh set-ups timed for `setup_s`.
const SETUP_REPS: usize = 9;
/// Untimed warm-up: at least this many rounds and this many seconds.
const WARMUP_ROUNDS: usize = 2;
const WARMUP_S: f64 = 1.0;
/// Timed rounds a run needs at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Raw spans kept for writing out.
const SPAN_CAP: usize = 200_000;

/// Which Fig. 5 program runs in the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// `SqliteWorkload`: journaled B-tree inserts, 2 redirected
    /// syscalls each.
    Minidb,
    /// `GzipWorkload`: one big read, LZ77, one write per chunk.
    Gzip,
}

impl Program {
    fn label(self) -> &'static str {
        match self {
            Program::Minidb => "enclave_minidb",
            Program::Gzip => "enclave_gzip",
        }
    }

    fn workload(self) -> Box<dyn Workload> {
        match self {
            Program::Minidb => Box::new(SqliteWorkload { rows: MINIDB_ROWS }),
            Program::Gzip => {
                Box::new(GzipWorkload { input_len: GZIP_CHUNKS * GZIP_CHUNK, chunk: GZIP_CHUNK })
            }
        }
    }

    /// The paper's Fig. 5 overhead for this program, in percent.
    fn paper_overhead_pct(self) -> f64 {
        match self {
            Program::Minidb => 63.9,
            Program::Gzip => 4.9,
        }
    }

    /// The functional checksum every round must produce. The inputs
    /// are seeded inside `veil-workloads`, so one value holds for every
    /// `--seed`.
    fn pinned_checksum(self) -> u64 {
        match self {
            Program::Minidb => 0x1150_85fb_d87e_55b8,
            Program::Gzip => 0x3f9d_cac2_3345_1ea2,
        }
    }
}

/// A booted Veil CVM with the Fig. 5 enclave installed.
struct Enclave {
    cvm: Cvm,
    rt: EnclaveRuntime,
}

fn setup(metrics: bool) -> Enclave {
    let mut cvm = CvmBuilder::new()
        .frames(8192)
        .vcpus(1)
        .log_frames(1024)
        .batch(false)
        .trace(false)
        .metrics(metrics)
        .build()
        .expect("veil boot");
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("fig5-app", 16 * 1024, 8 * 1024).with_heap_pages(32);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("enclave install");
    Enclave { cvm, rt: EnclaveRuntime::new(handle) }
}

/// One round's outcome.
struct Round {
    stats: Result<WorkloadStats, Errno>,
    cycles: u64,
    wall_s: f64,
}

fn plain_round(e: &mut Enclave, w: &mut dyn Workload) -> Round {
    let before = e.cvm.hv.machine.cycles().total();
    let t = Instant::now();
    let stats = w.run(&mut EnclaveDriver { cvm: &mut e.cvm, rt: &mut e.rt });
    let wall_s = t.elapsed().as_secs_f64();
    Round { stats, cycles: e.cvm.hv.machine.cycles().total() - before, wall_s }
}

/// Does what `EnclaveDriver` does, through the same public calls
/// (`EnclaveSys::activate`, `park_enclave`), but times them and hands
/// each section a [`TimingSys`]. Shielded sections also yield each
/// operation's model cycles, one operation running from one `burn` to
/// the next (both programs burn exactly once per operation).
struct ProbeDriver<'a> {
    cvm: &'a mut Cvm,
    rt: &'a mut EnclaveRuntime,
    rec: Option<&'a mut Recorder>,
    op_cycles: Vec<u64>,
}

impl ProbeDriver<'_> {
    fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.rec.as_deref_mut().map(|r| r.enter(name))
    }

    fn exit(&mut self, token: Option<usize>) {
        if let (Some(r), Some(t)) = (self.rec.as_deref_mut(), token) {
            r.exit(t);
        }
    }
}

impl Driver for ProbeDriver<'_> {
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let t = self.enter("sdk.transition");
        let entered = EnclaveSys::activate(self.cvm, self.rt);
        if let (Some(r), Some(t)) = (self.rec.as_deref_mut(), t) {
            r.exit(t);
        }
        let mut sys = entered?;
        let s = self.rec.as_deref_mut().map(|r| r.enter("workloads.section"));
        let mut burns = Vec::new();
        let result = f(&mut TimingSys {
            inner: &mut sys,
            rec: self.rec.as_deref_mut(),
            burns: Some(&mut burns),
        });
        let end = sys.model_cycles();
        if let (Some(r), Some(s)) = (self.rec.as_deref_mut(), s) {
            r.exit(s);
        }
        self.op_cycles.extend(burns.windows(2).map(|w| w[1] - w[0]));
        self.op_cycles.extend(burns.last().map(|last| end - last));
        result
    }

    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let t = self.enter("sdk.transition");
        let parked = park_enclave(self.cvm, self.rt);
        self.exit(t);
        parked?;
        let pid = self.rt.handle.pid;
        let mut sys = KernelSys {
            kernel: &mut self.cvm.kernel,
            hv: &mut self.cvm.hv,
            gate: &mut self.cvm.gate,
            vcpu: 0,
            pid,
        };
        let s = self.rec.as_deref_mut().map(|r| r.enter("workloads.section"));
        let result =
            f(&mut TimingSys { inner: &mut sys, rec: self.rec.as_deref_mut(), burns: None });
        if let (Some(r), Some(s)) = (self.rec.as_deref_mut(), s) {
            r.exit(s);
        }
        result
    }

    fn cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

/// The untimed native twin: the same program in a Veil-less CVM.
fn native_twin(w: &mut dyn Workload) -> (u64, Result<WorkloadStats, Errno>) {
    let mut cvm = CvmBuilder::new()
        .frames(8192)
        .vcpus(1)
        .log_frames(1024)
        .trace(false)
        .metrics(false)
        .build_native()
        .expect("native boot");
    let pid = cvm.spawn();
    let before = cvm.hv.machine.cycles().total();
    let stats = w.run(&mut NativeDriver { cvm: &mut cvm, pid });
    (cvm.hv.machine.cycles().total() - before, stats)
}

/// Checks one round's result; returns its ops (0 on error).
fn check_round(
    out: &mut Outcome,
    program: Program,
    what: &str,
    stats: &Result<WorkloadStats, Errno>,
) -> u64 {
    let per_round = match program {
        Program::Minidb => MINIDB_ROWS as u64,
        Program::Gzip => GZIP_CHUNKS as u64,
    };
    out.attempted += per_round;
    match stats {
        Ok(s) => {
            out.check(s.ops == per_round, per_round.saturating_sub(s.ops), || {
                format!("{what}: {} of {per_round} operations completed", s.ops)
            });
            out.check(s.checksum == program.pinned_checksum(), s.ops, || {
                format!(
                    "{what}: checksum {:#018x} != pinned {:#018x}",
                    s.checksum,
                    program.pinned_checksum()
                )
            });
            s.ops
        }
        Err(e) => {
            out.fail(per_round, format!("{what}: workload error {e:?}"));
            0
        }
    }
}

/// Runs rounds on `e` until `seconds` have passed (and at least
/// [`MIN_ROUNDS`]); returns each round.
fn timed_rounds(
    out: &mut Outcome,
    program: Program,
    e: &mut Enclave,
    w: &mut dyn Workload,
    seconds: f64,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let r = plain_round(e, w);
        check_round(out, program, &format!("timed round {}", rounds.len()), &r.stats);
        if r.stats.is_err() {
            break;
        }
        rounds.push(r);
    }
    rounds
}

fn round_rates(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| r.stats.as_ref().map_or(0, |s| s.ops) as f64 / r.wall_s.max(1e-9))
        .collect()
}

/// Operations completed per host second over all `rounds`.
fn rate(rounds: &[Round]) -> f64 {
    let ops: u64 = rounds.iter().map(|r| r.stats.as_ref().map_or(0, |s| s.ops)).sum();
    ops as f64 / rounds.iter().map(|r| r.wall_s).sum::<f64>().max(1e-9)
}

/// Runs the workload: set-up, model pass, native twin, warm-up, timed
/// phase and, with `--trace 1`, the traced phase.
pub fn run(program: Program, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut w = program.workload();
    let (setup_s, mut plain) =
        median_setup(if args.trace { 1 } else { SETUP_REPS }, || setup(false));

    // Model pass: a fresh enclave, probed per operation, with metrics on
    // for the relay histogram. Untimed.
    let mut probe = setup(true);
    let (model, op_cycles) = {
        let mut d = ProbeDriver {
            cvm: &mut probe.cvm,
            rt: &mut probe.rt,
            rec: None,
            op_cycles: Vec::new(),
        };
        let before = d.cycles();
        let stats = w.run(&mut d);
        let cycles = d.cycles() - before;
        (Round { stats, cycles, wall_s: 0.0 }, d.op_cycles)
    };
    let relay = probe.cvm.metrics().merged_histogram("relay_cycles");
    drop(probe);
    let model_ops = check_round(&mut out, program, "model pass", &model.stats);
    let (native_cycles, native) = native_twin(w.as_mut());
    check_round(&mut out, program, "native twin", &native);
    if let (Ok(n), Ok(m)) = (&native, &model.stats) {
        out.check(n.checksum == m.checksum, m.ops, || {
            format!("enclave checksum {:#018x} != native twin {:#018x}", m.checksum, n.checksum)
        });
    }

    // Warm-up on the enclave the timed phase uses. Its first round runs
    // on a fresh enclave like the model pass, so the probe must not
    // have moved a single model cycle.
    let warm_start = Instant::now();
    let mut warm = Vec::new();
    while warm.len() < WARMUP_ROUNDS || warm_start.elapsed().as_secs_f64() < WARMUP_S {
        let r = plain_round(&mut plain, w.as_mut());
        check_round(&mut out, program, &format!("warm-up round {}", warm.len()), &r.stats);
        let failed = r.stats.is_err();
        warm.push(r);
        if failed {
            break;
        }
    }
    out.check(warm[0].cycles == model.cycles, model_ops, || {
        format!("probe moved model cycles: {} probed vs {} plain", model.cycles, warm[0].cycles)
    });

    let rounds = if args.trace {
        traced(&mut out, program, w.as_mut(), &mut plain, &warm, relay, args.seconds)
    } else {
        timed_rounds(&mut out, program, &mut plain, w.as_mut(), args.seconds)
    };
    let host_ops_per_s = rate(&rounds);

    let ops = model_ops.max(1) as f64;
    let model_cycles_per_op = model.cycles as f64 / ops;
    let overhead_pct = (model.cycles as f64 / native_cycles.max(1) as f64 - 1.0) * 100.0;
    let paper = program.paper_overhead_pct();
    let mut sorted = op_cycles;
    sorted.sort_unstable();

    let e2e: Vec<(&str, f64, &'static str, Clock, String)> = vec![
        (
            "setup_s",
            setup_s,
            "s",
            Clock::Host,
            format!(
                "median of {} boots + enclave installs",
                if args.trace { 1 } else { SETUP_REPS }
            ),
        ),
        (
            "host_ops_per_s",
            host_ops_per_s,
            "1/s",
            Clock::Host,
            format!(
                "{} timed rounds of {} ops; {}",
                rounds.len(),
                model_ops,
                crate::spread_note(&round_rates(&rounds))
            ),
        ),
        ("peak_rss_mib", peak_rss_mib(), "MiB", Clock::Host, String::new()),
        ("model_cycles_per_op", model_cycles_per_op, "cycles", Clock::Model, String::new()),
        (
            "veil_overhead_pct",
            overhead_pct,
            "%",
            Clock::Model,
            format!("paper Fig. 5: {paper}% (error {:+.1} points)", overhead_pct - paper),
        ),
        (
            "model_latency_p50_cycles",
            percentile(&sorted, 50.0) as f64,
            "cycles",
            Clock::Model,
            format!("closed loop, 1 caller; {}", sample_note(sorted.len(), 50.0)),
        ),
        (
            "model_latency_p999_cycles",
            percentile(&sorted, 99.9) as f64,
            "cycles",
            Clock::Model,
            format!("closed loop, 1 caller; {}", sample_note(sorted.len(), 99.9)),
        ),
    ];
    for (name, value, unit, clock, note) in e2e {
        if args.trace {
            out.info(name, value, unit, clock, note);
        } else {
            out.metric_note(name, value, unit, clock, note);
        }
    }
    out.info(
        "native_cycles_per_op",
        native_cycles as f64 / ops,
        "cycles",
        Clock::Model,
        "untimed native twin".into(),
    );
    if let Ok(s) = &model.stats {
        out.info(
            "checksum",
            s.checksum as f64,
            "fnv1a",
            Clock::NoClock,
            format!("{:#018x}", s.checksum),
        );
    }
    out
}

/// The traced phase. A second fresh enclave replays the plain
/// enclave's warm-up rounds, then plain and traced rounds alternate, so
/// a slow or fast stretch of the host falls on both sides alike. The
/// traced enclave runs through [`ProbeDriver`] with a recorder; every
/// traced round must match the plain round of the same index in model
/// cycles and checksum. `relay` comes from the model pass, whose
/// enclave has metrics on; the traced one has them off so that only the
/// timers separate it from the plain run. Returns the plain rounds.
#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    program: Program,
    w: &mut dyn Workload,
    plain: &mut Enclave,
    warm: &[Round],
    relay: Histogram,
    seconds: f64,
) -> Vec<Round> {
    let epoch = Instant::now();
    let mut e = setup(false);
    let mut all = Recorder::new(epoch, SPAN_CAP);
    let mut counters = Counters::default();
    let (mut crossings, mut ops, mut traced_wall) = (0u64, 0u64, 0.0f64);
    let mut timed: Vec<Round> = Vec::new();
    let mut start = Instant::now();
    for index in 0.. {
        let warming = index < warm.len();
        if index == warm.len() {
            start = Instant::now();
        }
        if !warming && timed.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let plain_cycles = if warming {
            warm[index].cycles
        } else {
            let r = plain_round(plain, w);
            check_round(out, program, &format!("timed round {}", timed.len()), &r.stats);
            let (cycles, failed) = (r.cycles, r.stats.is_err());
            timed.push(r);
            if failed {
                break;
            }
            cycles
        };
        let mut rec = Recorder::new(epoch, SPAN_CAP);
        rec.id = index as u64;
        let before = Counters::read(&e.cvm);
        let crossings_before = e.rt.stats.crossings;
        let t = Instant::now();
        let root = rec.enter("bench.round");
        let stats = {
            let mut d = ProbeDriver {
                cvm: &mut e.cvm,
                rt: &mut e.rt,
                rec: Some(&mut rec),
                op_cycles: Vec::new(),
            };
            w.run(&mut d)
        };
        rec.exit(root);
        let wall_s = t.elapsed().as_secs_f64();
        let delta = Counters::read(&e.cvm).since(&before);
        let round_ops = check_round(out, program, &format!("traced round {index}"), &stats);
        out.check(plain_cycles == delta.total_cycles, round_ops, || {
            format!(
                "traced round {index}: {} model cycles vs plain {plain_cycles}",
                delta.total_cycles
            )
        });
        if stats.is_err() {
            break;
        }
        if !warming {
            all.absorb(&rec);
            counters.add(&delta);
            crossings += e.rt.stats.crossings - crossings_before;
            ops += round_ops;
            traced_wall += wall_s;
        }
    }
    let snap = all.enter("metrics.snapshot");
    let snapshot = e.cvm.metrics_snapshot();
    all.exit(snap);
    let path = std::path::PathBuf::from(format!("veilbench/out/spans-{}.tsv", program.label()));
    if let Err(err) = all.write_tsv(&path) {
        eprintln!("veilbench: could not write {}: {err}", path.display());
    }
    let t = Traced {
        relay,
        rec: all,
        counters,
        ops,
        enclave_crossings: crossings,
        plain_ops_per_s: rate(&timed),
        traced_ops_per_s: ops as f64 / traced_wall.max(1e-9),
        snapshot_bytes: snapshot.len() as u64,
        fleet: (0.0, 0.0, 0),
        attribution_shares: [0.0; 4],
        folded_records: 0,
    };
    emit_layers(out, &t);
    timed
}
