//! Regenerates every table and figure of the Veil paper's evaluation.
//!
//! Usage:
//!   reproduce                   # all experiments, default scale
//!   reproduce --experiment fig5 # one experiment
//!   reproduce --scale 4         # larger workloads (closer to paper size)
//!   reproduce --json            # machine-readable output (veil-testkit JSON)
//!
//! Experiments: boot, switch, background, fig4, fig5, fig6, cs1, ltp,
//! ablation-partition, ablation-exitless, ablation-auditd.
//!
//! Everything is driven by the deterministic cycle model, so two runs of
//! the same binary produce byte-identical tables (and JSON) on any host.

use veil_bench::*;
use veil_testkit::fmt::{
    cycles, header, json_array, json_escape, json_f64, json_field, json_object, json_str_field,
    pct, rate_k, row,
};

/// Every experiment `--experiment` accepts, in run order.
const EXPERIMENTS: [&str; 11] = [
    "boot",
    "switch",
    "background",
    "fig4",
    "fig5",
    "fig6",
    "cs1",
    "ltp",
    "ablation-partition",
    "ablation-exitless",
    "ablation-auditd",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (experiment, scale) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("reproduce: {msg}");
            std::process::exit(2);
        }
    };

    let want = |name: &str| experiment.as_deref().is_none_or(|e| e == name);

    if args.iter().any(|a| a == "--json") {
        println!("{}", render_json(&want, scale));
        return;
    }

    println!("Veil (ASPLOS'23) evaluation reproduction — simulated SEV-SNP substrate");
    println!("scale factor: {scale} (paper-sized workloads are larger; relative results are scale-stable)");

    if want("boot") {
        run_boot();
    }
    if want("switch") {
        run_switch();
    }
    if want("background") {
        run_background(scale);
    }
    if want("fig4") {
        run_fig4(scale);
    }
    if want("fig5") {
        run_fig5(scale);
    }
    if want("fig6") {
        run_fig6(scale);
    }
    if want("cs1") {
        run_cs1();
    }
    if want("ltp") {
        run_ltp();
    }
    if want("ablation-partition") {
        run_ablation_partition();
    }
    if want("ablation-exitless") {
        run_ablation_exitless(scale);
    }
    if want("ablation-auditd") {
        run_ablation_auditd(scale);
    }
}

/// Value of `flag`: `Ok(None)` when the flag is absent, an error when it
/// is present without a value.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            args.get(i + 1).cloned().map(Some).ok_or_else(|| format!("{flag} needs a value"))
        }
    }
}

/// Parses `--experiment` (one of [`EXPERIMENTS`]) and `--scale` (a
/// positive integer, default 1). A typo is an error, not an empty run.
fn parse_args(args: &[String]) -> Result<(Option<String>, usize), String> {
    let experiment = flag_value(args, "--experiment")?;
    if let Some(name) = &experiment {
        if !EXPERIMENTS.contains(&name.as_str()) {
            return Err(format!(
                "unknown experiment `{name}`; valid names: {}",
                EXPERIMENTS.join(", ")
            ));
        }
    }
    let scale = match flag_value(args, "--scale")? {
        None => 1,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--scale must be a positive integer, got `{v}`")),
        },
    };
    Ok((experiment, scale))
}

/// Renders every selected experiment as one JSON object, for table
/// regeneration and CI trend lines.
fn render_json(want: &dyn Fn(&str) -> bool, scale: usize) -> String {
    let mut fields = vec![json_field("scale", scale)];
    if want("boot") {
        let r = boot_time(8192);
        fields.push(format!(
            "\"boot\": {}",
            json_object(&[
                json_field("frames", r.frames),
                json_field("native_cycles", r.native_cycles),
                json_field("veil_cycles", r.veil_cycles),
                json_field("rmpadjust_share", json_f64(r.rmpadjust_share)),
                json_field("extrapolated_2gb_seconds", json_f64(r.extrapolated_2gb_seconds)),
                json_field("increase_over_full_boot", json_f64(r.increase_over_full_boot())),
            ])
        ));
    }
    if want("switch") {
        let r = domain_switch(10_000);
        fields.push(format!(
            "\"switch\": {}",
            json_object(&[
                json_field("iterations", r.iterations),
                json_field("switch_cycles", r.switch_cycles),
                json_field("vmcall_cycles", r.vmcall_cycles),
            ])
        ));
    }
    if want("background") {
        let rows: Vec<String> = background(scale)
            .iter()
            .map(|r| {
                json_object(&[
                    json_str_field("program", r.program),
                    json_field("native_cycles", r.native_cycles),
                    json_field("veil_cycles", r.veil_cycles),
                    json_field("overhead", json_f64(r.overhead())),
                    json_field("checksum_match", r.checksum_match),
                ])
            })
            .collect();
        fields.push(format!("\"background\": {}", json_array(&rows)));
    }
    if want("fig4") {
        let rows: Vec<String> = fig4(200 * scale as u64)
            .iter()
            .map(|r| {
                json_object(&[
                    json_str_field("name", r.name),
                    json_field("native_cycles", r.native_cycles),
                    json_field("enclave_cycles", r.enclave_cycles),
                    json_field("slowdown", json_f64(r.slowdown())),
                    json_field(
                        "paper_band",
                        format!("[{}, {}]", json_f64(r.paper_band.0), json_f64(r.paper_band.1)),
                    ),
                ])
            })
            .collect();
        fields.push(format!("\"fig4\": {}", json_array(&rows)));
    }
    if want("fig5") {
        let rows: Vec<String> = fig5(scale)
            .iter()
            .map(|r| {
                json_object(&[
                    json_str_field("program", r.program),
                    json_field("overhead", json_f64(r.overhead())),
                    json_field("paper_overhead", json_f64(r.paper_overhead)),
                    json_field("redirect_points", json_f64(r.redirect_points())),
                    json_field("exit_points", json_f64(r.exit_points())),
                    json_field("exit_rate_per_s", json_f64(r.exit_rate_per_s)),
                    json_field("checksum_match", r.checksum_match),
                ])
            })
            .collect();
        fields.push(format!("\"fig5\": {}", json_array(&rows)));
    }
    if want("fig6") {
        let rows: Vec<String> = fig6(scale)
            .iter()
            .map(|r| {
                json_object(&[
                    json_str_field("program", r.program),
                    json_field("kaudit_overhead", json_f64(r.kaudit_overhead())),
                    json_field("veil_overhead", json_f64(r.veil_overhead())),
                    json_field("paper_kaudit", json_f64(r.paper.0)),
                    json_field("paper_veil", json_f64(r.paper.1)),
                    json_field("log_rate_per_s", json_f64(r.log_rate_per_s)),
                    json_field("records", r.records),
                ])
            })
            .collect();
        fields.push(format!("\"fig6\": {}", json_array(&rows)));
    }
    if want("cs1") {
        let r = cs1(100);
        fields.push(format!(
            "\"cs1\": {}",
            json_object(&[
                json_field("load_native", r.load_native),
                json_field("load_kci", r.load_kci),
                json_field("unload_native", r.unload_native),
                json_field("unload_kci", r.unload_kci),
                json_field("load_increase", json_f64(r.load_increase())),
                json_field("unload_increase", json_f64(r.unload_increase())),
            ])
        ));
    }
    if want("ltp") {
        let r = ltp();
        let failures: Vec<String> =
            r.enclave_failures.iter().map(|f| format!("\"{}\"", json_escape(f))).collect();
        fields.push(format!(
            "\"ltp\": {}",
            json_object(&[
                json_field("total", r.total),
                json_field("native_pass", r.native_pass),
                json_field("enclave_pass", r.enclave_pass),
                json_field("enclave_failures", json_array(&failures)),
            ])
        ));
    }
    if want("ablation-partition") {
        let rows: Vec<String> = ablation_static_partition()
            .iter()
            .map(|r| {
                json_object(&[
                    json_field("vcpus", r.vcpus),
                    json_field("replicated_capacity", r.replicated_capacity),
                    json_field("static_capacity", r.static_capacity),
                    json_field("switch_cost", r.switch_cost),
                ])
            })
            .collect();
        fields.push(format!("\"ablation_partition\": {}", json_array(&rows)));
    }
    if want("ablation-exitless") {
        let rows: Vec<String> = ablation_exitless(400 * scale)
            .iter()
            .map(|r| {
                json_object(&[
                    json_field("batch", r.batch),
                    json_field("overhead", json_f64(r.overhead)),
                ])
            })
            .collect();
        fields.push(format!("\"ablation_exitless\": {}", json_array(&rows)));
    }
    if want("ablation-auditd") {
        let rows: Vec<String> = ablation_auditd(scale)
            .iter()
            .map(|r| {
                json_object(&[
                    json_str_field("sink", r.sink),
                    json_field("overhead", json_f64(r.overhead)),
                ])
            })
            .collect();
        fields.push(format!("\"ablation_auditd\": {}", json_array(&rows)));
    }
    json_object(&fields)
}

fn run_boot() {
    header("§9.1 Initialization time (paper: +~2 s on 2 GB, +13%, >70% RMPADJUST)");
    let r = boot_time(8192);
    row(&[("config", 14), ("boot cycles", 18), ("", 0)]);
    row(&[("native CVM", 14), (&cycles(r.native_cycles), 18), ("", 0)]);
    row(&[("Veil CVM", 14), (&cycles(r.veil_cycles), 18), ("", 0)]);
    println!("RMPADJUST share of Veil boot: {:.0}%   (paper: >70%)", r.rmpadjust_share * 100.0);
    println!("delta extrapolated to 2 GB:  {:.2} s  (paper: ~2 s)", r.extrapolated_2gb_seconds);
    println!(
        "increase over full native boot ({PAPER_NATIVE_BOOT_SECONDS} s): {}  (paper: +13%)",
        pct(r.increase_over_full_boot())
    );
}

fn run_switch() {
    header("§9.1 Domain switch cost (paper: 7,135 cycles vs ~1,100 VMCALL)");
    let r = domain_switch(10_000);
    println!(
        "hypervisor-relayed domain switch: {} cycles ({} iterations)",
        cycles(r.switch_cycles),
        r.iterations
    );
    println!("OS->VeilMon->OS GHCB round trip:  {} cycles", cycles(r.roundtrip_cycles));
    println!("plain VMCALL exit (non-SNP VM):   {} cycles", cycles(r.vmcall_cycles));
    println!("ratio: {:.1}x", r.switch_cycles as f64 / r.vmcall_cycles as f64);
}

fn run_background(scale: usize) {
    header("§9.1 Background system impact (paper: <2% for all three)");
    row(&[
        ("program", 12),
        ("native cycles", 17),
        ("veil cycles", 17),
        ("overhead", 10),
        ("output", 8),
    ]);
    for r in background(scale) {
        row(&[
            (r.program, 12),
            (&cycles(r.native_cycles), 17),
            (&cycles(r.veil_cycles), 17),
            (&pct(r.overhead()), 10),
            (if r.checksum_match { "match" } else { "MISMATCH" }, 8),
        ]);
    }
}

fn run_fig4(scale: usize) {
    header("Fig. 4 / Table 3: enclave system-call redirection (paper: 3.3-7.1x)");
    let iterations = 200 * scale as u64;
    row(&[("syscall", 9), ("native", 10), ("enclave", 10), ("slowdown", 10), ("paper band", 12)]);
    for r in fig4(iterations) {
        row(&[
            (r.name, 9),
            (&cycles(r.native_cycles), 10),
            (&cycles(r.enclave_cycles), 10),
            (&format!("{:.1}x", r.slowdown()), 10),
            (&format!("{:.1}-{:.1}x", r.paper_band.0, r.paper_band.1), 12),
        ]);
    }
}

fn run_fig5(scale: usize) {
    header("Fig. 5 / Table 4: shielding real-world programs with VeilS-ENC");
    row(&[
        ("program", 10),
        ("native", 13),
        ("enclave", 13),
        ("overhead", 10),
        ("paper", 8),
        ("redirect", 10),
        ("exit", 8),
        ("exit rate", 11),
        ("output", 8),
    ]);
    for r in fig5(scale) {
        row(&[
            (r.program, 10),
            (&cycles(r.native_cycles), 13),
            (&cycles(r.enclave_cycles), 13),
            (&pct(r.overhead()), 10),
            (&pct(r.paper_overhead), 8),
            (&format!("{:.1}pp", r.redirect_points()), 10),
            (&format!("{:.1}pp", r.exit_points()), 8),
            (&format!("{}/s", rate_k(r.exit_rate_per_s)), 11),
            (if r.checksum_match { "match" } else { "MISMATCH" }, 8),
        ]);
    }
    println!("(redirect/exit = stacked-bar split as percentage points of native time)");
}

fn run_fig6(scale: usize) {
    header("Fig. 6 / Table 5: audit-log protection (paper: kaudit 0.3-8.7%, VeilS-LOG 1.4-18.7%)");
    row(&[
        ("program", 10),
        ("unaudited cyc", 14),
        ("kaudit cyc", 13),
        ("veils-log cyc", 14),
        ("kaudit", 9),
        ("veils-log", 11),
        ("paper k/v", 15),
        ("log rate", 10),
        ("records", 9),
    ]);
    for r in fig6(scale) {
        row(&[
            (r.program, 10),
            (&cycles(r.base_cycles), 14),
            (&cycles(r.kaudit_cycles), 13),
            (&cycles(r.veil_cycles), 14),
            (&pct(r.kaudit_overhead()), 9),
            (&pct(r.veil_overhead()), 11),
            (&format!("{}/{}", pct(r.paper.0), pct(r.paper.1)), 15),
            (&format!("{}/s", rate_k(r.log_rate_per_s)), 10),
            (&r.records.to_string(), 9),
        ]);
    }
}

fn run_cs1() {
    header("CS1: secure module load/unload (paper: ~55k extra cycles, +5.7%/+4.2%)");
    let r = cs1(100);
    row(&[("op", 8), ("native", 12), ("with KCI", 12), ("delta", 10), ("increase", 9)]);
    row(&[
        ("load", 8),
        (&cycles(r.load_native), 12),
        (&cycles(r.load_kci), 12),
        (&cycles(r.load_delta()), 10),
        (&pct(r.load_increase()), 9),
    ]);
    row(&[
        ("unload", 8),
        (&cycles(r.unload_native), 12),
        (&cycles(r.unload_kci), 12),
        (&cycles(r.unload_delta()), 10),
        (&pct(r.unload_increase()), 9),
    ]);
}

fn run_ltp() {
    header(
        "§7 LTP-style conformance (paper: SDK passes a subset; unsupported calls kill the enclave)",
    );
    let r = ltp();
    println!("native CVM:  {}/{} cases pass", r.native_pass, r.total);
    println!("enclave SDK: {}/{} cases pass", r.enclave_pass, r.total);
    if !r.enclave_failures.is_empty() {
        println!("enclave failures: {}", r.enclave_failures.join(", "));
    }
}

fn run_ablation_partition() {
    header("Ablation: replicated VCPUs vs static partitioning (§5.2)");
    row(&[("vcpus", 8), ("replicated capacity", 21), ("static capacity", 17), ("switch cost", 12)]);
    for r in ablation_static_partition() {
        row(&[
            (&r.vcpus.to_string(), 8),
            (&format!("{} vcpus", r.replicated_capacity), 21),
            (&format!("{} vcpus", r.static_capacity), 17),
            (&format!("{} cyc", cycles(r.switch_cost)), 12),
        ]);
    }
}

fn run_ablation_auditd(scale: usize) {
    header("Ablation: stock auditd-to-disk vs the paper's in-memory kaudit (§9.2 fairness fix)");
    row(&[("sink", 24), ("memcached overhead", 20)]);
    for r in ablation_auditd(scale) {
        row(&[(r.sink, 24), (&pct(r.overhead), 20)]);
    }
}

fn run_ablation_exitless(scale: usize) {
    header("Ablation: syscall batching / exitless handling (§10 future work)");
    row(&[("batch size", 12), ("SQLite overhead", 17)]);
    for r in ablation_exitless(400 * scale) {
        row(&[(&r.batch.to_string(), 12), (&pct(r.overhead), 17)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("reproduce").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn experiment_list_matches_dispatch() {
        let mut names = EXPERIMENTS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        // Each name is dispatched once by the table renderer and once by
        // the JSON renderer, so no listed name can silently print nothing.
        let source = include_str!("reproduce.rs");
        for name in EXPERIMENTS {
            let call = format!("want(\"{name}\")");
            assert_eq!(source.matches(&call).count(), 2, "{name} must be dispatched twice");
        }
    }

    #[test]
    fn parses_known_names_and_scales() {
        assert_eq!(parse_args(&args(&[])), Ok((None, 1)));
        for name in EXPERIMENTS {
            assert_eq!(
                parse_args(&args(&["--experiment", name, "--scale", "4"])),
                Ok((Some(name.to_string()), 4))
            );
        }
        assert_eq!(parse_args(&args(&["--json", "--scale", "2"])), Ok((None, 2)));
    }

    #[test]
    fn rejects_unknown_names_and_bad_scales() {
        let err = parse_args(&args(&["--experiment", "swtich"])).unwrap_err();
        assert!(err.contains("`swtich`"), "{err}");
        for name in EXPERIMENTS {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
        for bad in ["x", "0", "-1", "1.5"] {
            assert!(parse_args(&args(&["--scale", bad])).is_err(), "--scale {bad}");
        }
        assert!(parse_args(&args(&["--experiment"])).is_err());
        assert!(parse_args(&args(&["--scale"])).is_err());
    }
}
