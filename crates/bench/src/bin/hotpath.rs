//! `hotpath` — the gate relay protocols on the Fig. 5 workloads, on
//! both clocks.
//!
//! Each workload runs with VeilS-LOG auditing on — so every audited
//! syscall crosses the gate — once over the serial protocol
//! (`batch(false)`) and once over the ring-and-doorbell protocol
//! (`batch(true)`), for a fixed number of pairs. Pairs alternate their
//! order (ABBA) so monotonic host drift taxes neither protocol. The
//! serial protocol costs exactly two domain switches per gate request;
//! the batched run's `switches_per_request` is derived from the measured
//! switch deficit between the two runs.
//!
//! Every pair must agree on workload checksum, op count and gate request
//! count, and the model cycles of each protocol must be identical across
//! reps (the simulator is deterministic). Host wall-clock is reported as
//! min, median and max over the reps, never re-sampled.
//!
//! A final untimed pass re-runs the batched configuration with the
//! metrics registry on and contributes relay-latency p50/p99/p99.9
//! cycle columns — asserting along the way that metrics collection
//! leaves model cycles untouched. Running the *audited batched*
//! configuration matters: doorbell drains and PSC batches charge
//! occupancy-scaled relay costs, so the histogram spreads across
//! buckets instead of collapsing into the single constant-roundtrip
//! bucket.
//!
//! Standing floors, all on deterministic model quantities:
//! `gate_cycles_batched < gate_cycles_serial` on every workload, and
//! batched `switches_per_request < 1.0` on http and kvstore. The
//! wall-clock ratio `gate_wall_ms_batched / gate_wall_ms_serial` is
//! checked per pair against 1.02 and judged only where it clears its own
//! spread: `pass` when every pair is at or under the limit, `fail` (the
//! run exits nonzero) when every pair is over it, and `unresolved`
//! (reported, not gated) when the pairs straddle it.
//!
//! Usage: `cargo run --release -p veil-bench --bin hotpath [--scale N]
//! [--reps N] [--out PATH]` (default `BENCH_HOTPATH.json` in the current
//! directory).

use std::time::Instant;
use veil_sdk::{install_enclave, EnclaveBinary, EnclaveRuntime};
use veil_services::{Cvm, CvmBuilder};
use veil_testkit::fmt::{json_f64, json_field, json_object, json_str_field};
use veil_workloads::driver::EnclaveDriver;
use veil_workloads::{
    compress::GzipWorkload, http::HttpWorkload, kvstore::UnqliteWorkload, minidb::SqliteWorkload,
    Workload, WorkloadStats,
};

const BENCH_FRAMES: u64 = 8192;

type WorkloadMaker = Box<dyn Fn() -> Box<dyn Workload>>;

/// Result of the untimed metrics-on pass over the audited batched gate
/// configuration: relay-latency distribution plus the model cycles it
/// observed (for the inertness cross-check against the timed batched
/// gate run).
struct MetricsResult {
    model_cycles: u64,
    relay: veil_snp::metrics::Histogram,
}

/// One gate pass: the workload run with VeilS-LOG auditing on, so every
/// audited syscall issues a `LogAppend` gate request.
struct GateResult {
    wall_ms: f64,
    model_cycles: u64,
    stats: WorkloadStats,
    gate_requests: u64,
    deferred_errors: u64,
    domain_switches: u64,
    doorbells: u64,
}

/// Boots the audited gate-pass CVM: VeilS-LOG auditing with the paper
/// ruleset plus positioned I/O (the kvstore workload's hot syscall is
/// pwrite, §9.2's highest syscall rate), so the gate pass measures the
/// relay-bound case on every workload.
fn gate_cvm(batched: bool, metrics: bool) -> Cvm {
    let mut cvm = CvmBuilder::new()
        .frames(BENCH_FRAMES)
        .vcpus(1)
        .log_frames(1024)
        .batch(batched)
        .metrics(metrics)
        .build()
        .expect("veil boot");
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pwrite64);
    cvm.kernel.audit.rules.insert(veil_os::syscall::Sysno::Pread64);
    cvm
}

/// Runs the workload once with auditing routed to VeilS-LOG, over the
/// serial or the batched gate protocol, and counts the traffic.
fn run_gate_mode(make: &dyn Fn() -> Box<dyn Workload>, batched: bool) -> GateResult {
    let mut cvm = gate_cvm(batched, false);
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("hotpath", 16 * 1024, 8 * 1024).with_heap_pages(32);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let mut rt = EnclaveRuntime::new(handle);
    let mut workload = make();

    let cycles_before = cvm.hv.machine.cycles().total();
    let switches_before = cvm.hv.stats().domain_switches;
    let doorbells_before = cvm.hv.stats().doorbells;
    let requests_before = cvm.gate.gate_requests();
    let start = Instant::now();
    let stats = {
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        workload.run(&mut d).expect("workload run")
    };
    cvm.flush_gate().expect("flush");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    GateResult {
        wall_ms,
        model_cycles: cvm.hv.machine.cycles().total() - cycles_before,
        stats,
        gate_requests: cvm.gate.gate_requests() - requests_before,
        deferred_errors: cvm.gate.deferred_errors(),
        domain_switches: cvm.hv.stats().domain_switches - switches_before,
        doorbells: cvm.hv.stats().doorbells - doorbells_before,
    }
}

/// The untimed metrics-on twin of `run_gate_mode(make, true)`: identical
/// audited batched configuration, but with the registry collecting the
/// relay-latency histogram. Doorbell drains and PSC batches charge
/// occupancy-scaled relay costs in this configuration, so the histogram
/// spreads instead of collapsing into one constant-roundtrip bucket.
fn run_gate_metrics(make: &dyn Fn() -> Box<dyn Workload>) -> MetricsResult {
    let mut cvm = gate_cvm(true, true);
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("hotpath", 16 * 1024, 8 * 1024).with_heap_pages(32);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let mut rt = EnclaveRuntime::new(handle);
    let mut workload = make();

    let cycles_before = cvm.hv.machine.cycles().total();
    {
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        workload.run(&mut d).expect("workload run");
    }
    cvm.flush_gate().expect("flush");
    MetricsResult {
        model_cycles: cvm.hv.machine.cycles().total() - cycles_before,
        relay: cvm.hv.machine.metrics().merged_histogram("relay_cycles"),
    }
}

/// Per-pair ceiling on `gate_wall_ms_batched / gate_wall_ms_serial`:
/// ring-and-doorbell batching must not tax wall clock by more than 2%.
const WALL_RATIO_LIMIT: f64 = 1.02;

/// Min, median and max of a sample.
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Spread {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Spread { min: v[0], median, max: v[n - 1] }
    }

    fn json(&self, prefix: &str) -> Vec<String> {
        vec![
            json_field(&format!("{prefix}_min"), json_f64(self.min)),
            json_field(&format!("{prefix}_median"), json_f64(self.median)),
            json_field(&format!("{prefix}_max"), json_f64(self.max)),
        ]
    }
}

/// The wall-clock ratio's verdict against [`WALL_RATIO_LIMIT`].
fn wall_verdict(ratio: &Spread) -> &'static str {
    if ratio.max <= WALL_RATIO_LIMIT {
        "pass"
    } else if ratio.min > WALL_RATIO_LIMIT {
        "fail"
    } else {
        "unresolved"
    }
}

struct Row {
    name: &'static str,
    relay: veil_snp::metrics::Histogram,
    /// The serial and batched runs of the first pair (every pair agrees
    /// on all model quantities).
    gate_serial: GateResult,
    gate_batched: GateResult,
    wall_serial: Spread,
    wall_batched: Spread,
    /// Per-pair `batched / serial` wall-clock ratio.
    wall_ratio: Spread,
}

impl Row {
    /// Domain switches the batched run spent per gate request. The serial
    /// protocol spends exactly two (call + return); the batched run's
    /// count is the serial cost minus the measured switch deficit between
    /// the two otherwise-identical runs.
    fn switches_per_request_batched(&self) -> f64 {
        let reqs = self.gate_serial.gate_requests;
        if reqs == 0 {
            return f64::NAN;
        }
        let saved = self.gate_serial.domain_switches - self.gate_batched.domain_switches;
        (2 * reqs).saturating_sub(saved) as f64 / reqs as f64
    }

    /// Model-cycle speedup of the batched gate path over the serial one.
    fn speedup_batch(&self) -> f64 {
        self.gate_serial.model_cycles as f64 / self.gate_batched.model_cycles as f64
    }
}

fn measure(name: &'static str, make: &dyn Fn() -> Box<dyn Workload>, reps: usize) -> Row {
    // Identical workload, identical gate traffic; only the relay
    // protocol differs.
    let mut pairs: Vec<(GateResult, GateResult)> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (s, b) = if rep % 2 == 1 {
            let b = run_gate_mode(make, true);
            (run_gate_mode(make, false), b)
        } else {
            let s = run_gate_mode(make, false);
            (s, run_gate_mode(make, true))
        };
        assert_eq!(s.stats.checksum, b.stats.checksum, "{name}: gate checksum");
        assert_eq!(s.stats.ops, b.stats.ops, "{name}: gate op count");
        assert_eq!(s.gate_requests, b.gate_requests, "{name}: request count");
        assert_eq!(b.deferred_errors, 0, "{name}: batched drain must not shed requests");
        assert_eq!(s.doorbells, 0, "{name}: serial protocol never rings the doorbell");
        assert!(b.domain_switches <= s.domain_switches, "{name}: batching must not add switches");
        if let Some((s0, b0)) = pairs.first() {
            assert_eq!(s.model_cycles, s0.model_cycles, "{name}: serial cycles not deterministic");
            assert_eq!(b.model_cycles, b0.model_cycles, "{name}: batched cycles not deterministic");
        }
        pairs.push((s, b));
    }
    let walls = |pick: fn(&(GateResult, GateResult)) -> f64| -> Vec<f64> {
        pairs.iter().map(pick).collect()
    };
    let wall_serial = Spread::of(&walls(|(s, _)| s.wall_ms));
    let wall_batched = Spread::of(&walls(|(_, b)| b.wall_ms));
    let wall_ratio = Spread::of(&walls(|(s, b)| b.wall_ms / s.wall_ms));
    let (gate_serial, gate_batched) = pairs.swap_remove(0);
    // One extra metrics-on pass over the audited batched configuration
    // for the relay-latency distribution. Metrics are observationally
    // inert: same model cycles as the timed batched gate run.
    let metrics = run_gate_metrics(make);
    assert_eq!(metrics.model_cycles, gate_batched.model_cycles, "{name}: metrics perturbed cycles");
    Row {
        name,
        relay: metrics.relay,
        gate_serial,
        gate_batched,
        wall_serial,
        wall_batched,
        wall_ratio,
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: usize = arg_value(&args, "--scale").and_then(|v| v.parse().ok()).unwrap_or(1);
    let reps: usize = arg_value(&args, "--reps").and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_HOTPATH.json".to_string());

    let workloads: Vec<(&'static str, WorkloadMaker)> = vec![
        (
            "compress",
            Box::new(move || -> Box<dyn Workload> {
                Box::new(GzipWorkload { input_len: 256 * 1024 * scale, chunk: 32 * 1024 })
            }),
        ),
        (
            "minidb",
            Box::new(move || -> Box<dyn Workload> {
                Box::new(SqliteWorkload { rows: 1200 * scale })
            }),
        ),
        (
            "kvstore",
            Box::new(move || -> Box<dyn Workload> {
                Box::new(UnqliteWorkload { entries: 2000 * scale })
            }),
        ),
        (
            "http",
            Box::new(move || -> Box<dyn Workload> { Box::new(HttpWorkload::nginx(600 * scale)) }),
        ),
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>13} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload",
        "serial ms",
        "batched ms",
        "wall ratio",
        "wall gate",
        "relay p50",
        "relay p99",
        "p99.9",
        "gate reqs",
        "sw/req",
        "batch spd"
    );
    let mut rows = Vec::new();
    for (name, make) in &workloads {
        let row = measure(name, make.as_ref(), reps);
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>6.3}-{:<6.3} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9.3} {:>8.3}x",
            row.name,
            row.wall_serial.median,
            row.wall_batched.median,
            row.wall_ratio.min,
            row.wall_ratio.max,
            wall_verdict(&row.wall_ratio),
            row.relay.percentile(50.0),
            row.relay.percentile(99.0),
            row.relay.percentile(99.9),
            row.gate_serial.gate_requests,
            row.switches_per_request_batched(),
            row.speedup_batch(),
        );
        rows.push(row);
    }
    // Standing floors, all deterministic except the wall-clock verdict,
    // which fails only when every pair is over the limit.
    for r in &rows {
        assert!(
            r.gate_batched.model_cycles < r.gate_serial.model_cycles,
            "{}: gate_cycles_batched {} must be < gate_cycles_serial {}",
            r.name,
            r.gate_batched.model_cycles,
            r.gate_serial.model_cycles
        );
        if matches!(r.name, "http" | "kvstore") {
            let spr = r.switches_per_request_batched();
            assert!(spr < 1.0, "{}: batched switches_per_request {spr:.3} must be < 1.0", r.name);
        }
        assert!(
            wall_verdict(&r.wall_ratio) != "fail",
            "{}: gate_wall_ms_batched / gate_wall_ms_serial over {WALL_RATIO_LIMIT} on every \
             pair (min {:.3})",
            r.name,
            r.wall_ratio.min
        );
    }

    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                json_str_field("workload", r.name),
                json_field("ops", r.gate_serial.stats.ops),
                json_field("relay_count", r.relay.count()),
                json_field("relay_p50_cycles", r.relay.percentile(50.0)),
                json_field("relay_p99_cycles", r.relay.percentile(99.0)),
                json_field("relay_p999_cycles", r.relay.percentile(99.9)),
                json_field("gate_requests", r.gate_serial.gate_requests),
                json_field("gate_doorbells", r.gate_batched.doorbells),
                json_field("gate_switches_serial", r.gate_serial.domain_switches),
                json_field("gate_switches_batched", r.gate_batched.domain_switches),
                json_field("gate_cycles_serial", r.gate_serial.model_cycles),
                json_field("gate_cycles_batched", r.gate_batched.model_cycles),
            ];
            fields.extend(r.wall_serial.json("gate_wall_ms_serial"));
            fields.extend(r.wall_batched.json("gate_wall_ms_batched"));
            fields.extend(r.wall_ratio.json("gate_wall_ratio"));
            fields.push(json_str_field("gate_wall_verdict", wall_verdict(&r.wall_ratio)));
            fields.push(json_field("switches_per_request_serial", json_f64(2.0)));
            fields.push(json_field(
                "switches_per_request_batched",
                json_f64(r.switches_per_request_batched()),
            ));
            fields.push(json_field("speedup_batch", json_f64(r.speedup_batch())));
            json_object(&fields)
        })
        .collect();
    let doc = json_object(&[
        json_field("frames", BENCH_FRAMES),
        json_field("scale", scale),
        json_field("reps", reps),
        json_field("wall_ratio_limit", json_f64(WALL_RATIO_LIMIT)),
        json_field("results", veil_testkit::fmt::json_array(&items)),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write json");
    println!("\nwrote {out_path}");
}
