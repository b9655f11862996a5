//! `veilbench` — the repository's one benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path veilbench/Cargo.toml -- \
//!     --workload <fleet_kvstore|enclave_minidb|enclave_gzip> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit and its clock: *host*
//! is wall-clock time of the simulator, *model* is the deterministic
//! cycle account the paper's claims are stated in. `--trace 0` measures
//! the end-to-end metrics with no timers in the program's path;
//! `--trace 1` adds a traced run that times the calls into each layer
//! from outside and reports per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` in
//! this directory for the workloads, the metrics and the layer map.

mod enclave;
mod fleet;
mod spans;

use std::time::Instant;

/// Which clock a number is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time of the simulator process.
    Host,
    /// The deterministic model-cycle account.
    Model,
    /// A ratio or count that involves no clock.
    NoClock,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::NoClock => "-",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as it appears in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `1/s`, `cycles`, `count`, ...).
    pub unit: &'static str,
    /// The clock it was measured on.
    pub clock: Clock,
    /// Free-form context printed beside the value (sample counts,
    /// references); never part of the JSON result.
    pub note: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fleet requests, inserts, chunks).
    pub attempted: u64,
    /// Operations that failed or violated a correctness check.
    pub failed: u64,
    /// Every correctness violation, in the order found.
    pub violations: Vec<String>,
    /// Metrics that go into the JSON result.
    pub metrics: Vec<Metric>,
    /// Metrics printed for the reader only (zero-valued ratios the
    /// result may not carry, references, diagnostics).
    pub report: Vec<Metric>,
}

impl Outcome {
    /// Adds a JSON-result metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric { name: name.into(), value, unit, clock, note: String::new() });
    }

    /// Adds a JSON-result metric with a note.
    pub fn metric_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        clock: Clock,
        note: String,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, clock, note });
    }

    /// Adds a printed-only metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock, note: String) {
        self.report.push(Metric { name: name.into(), value, unit, clock, note });
    }

    /// Records a correctness violation that fails `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.violations.push(why);
    }

    /// Checks `ok`; on violation fails `ops` operations.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str = "usage: veilbench --workload <fleet_kvstore|enclave_minidb|enclave_gzip> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let args = Args {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload, args))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("veilbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let outcome = match workload.as_str() {
        "fleet_kvstore" => fleet::run(&args),
        "enclave_minidb" => enclave::run(enclave::Program::Minidb, &args),
        "enclave_gzip" => enclave::run(enclave::Program::Gzip, &args),
        other => {
            eprintln!("veilbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    print_report(&workload, &args, &outcome, started.elapsed().as_secs_f64());
}

fn print_report(workload: &str, args: &Args, o: &Outcome, elapsed_s: f64) {
    println!(
        "veilbench workload={workload} seed={} seconds={} trace={} wall={elapsed_s:.1}s",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{:<34} {:>18} {:<8} {:<6} note", "metric", "value", "unit", "clock");
    for m in o.metrics.iter().chain(&o.report) {
        println!(
            "{:<34} {:>18.6} {:<8} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
    let ratio = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{:<34} {:>18.6} {:<8} {:<6} {} failed of {} attempted",
        "failed_op_ratio", ratio, "ratio", "-", o.failed, o.attempted
    );
    for v in &o.violations {
        println!("VIOLATION: {v}");
    }
    let correct = o.violations.is_empty() && o.failed == 0 && o.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
}

/// Median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile over sorted `values`; 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The note stating how many samples lie beyond `p`, so a reader sees
/// whether the percentile has the ten samples beyond it it needs.
pub fn sample_note(samples: usize, p: f64) -> String {
    let beyond = samples - ((p / 100.0) * samples as f64).ceil().min(samples as f64) as usize;
    format!("{samples} samples, {beyond} beyond p{p}")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Times `f` `reps` times and returns the median seconds plus the last
/// value `f` produced.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one setup"))
}

/// "min .. q1 .. q3 .. max" of per-round values, for the reader to see
/// how steady a timed phase was.
pub fn spread_note(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return String::new();
    }
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    format!("rounds min {:.0} q1 {:.0} q3 {:.0} max {:.0}", v[0], q(0.25), q(0.75), v[v.len() - 1])
}
