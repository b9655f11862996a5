//! `fleet_kvstore`: an open-loop multi-tenant fleet through
//! `veil_fleet::run_fleet`, kvstore profile (an audited `pwrite` then a
//! `pread` per request), 2 shards on 2 workers, batched gate, VeilS-LOG
//! auditing, trace and metrics on.
//!
//! The offered rate is fixed: 32 tenants per shard, each with a mean
//! interarrival of 2.0M model cycles, which puts utilization near 0.7
//! for the 43.8k-cycle unloaded kvstore request. `--seed` feeds the
//! arrival streams: round `r` of a run uses fleet seed
//! `splitmix64(seed ^ (r << 32))`.

use crate::spans::{emit_layers, Counters, Recorder, TimingSys, Traced};
use crate::{median, median_setup, peak_rss_mib, percentile, sample_note, Args, Clock, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;
use veil_fleet::{
    run_fleet, run_tasks_with_stats, FleetConfig, FleetReport, SloReport, TenantKind,
};
use veil_os::audit::{paper_ruleset, AuditMode};
use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
use veil_os::syscall::Sysno;
use veil_services::{Cvm, CvmBuilder};
use veil_snp::metrics::{Histogram, Key, DOMAIN_NONE};
use veil_snp::trace::{Attribution, CausalFold, Component, Event};
use veil_testkit::rng::{splitmix64, TestRng};
use veil_workloads::fnv1a;
use veil_workloads::tenant::TenantSession;

const TENANTS: u32 = 64;
const SHARDS: u32 = 2;
const WORKERS: usize = 2;
const MEAN_INTERARRIVAL_CYCLES: u64 = 2_000_000;
const REQUESTS_PER_TENANT: u32 = 640;
const FRAMES: u64 = 4096;
const LOG_FRAMES: u64 = 1024;
/// Distinct fleet seeds per run. Their rounds form the untimed model
/// pass (and warm-up); the timed phase cycles through them again and
/// must reproduce each one's merged digest bit for bit.
const MODEL_ROUNDS: u64 = 12;
/// Fresh set-ups timed for `setup_s`.
const SETUP_REPS: usize = 9;
/// Timed rounds a run needs at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Raw spans kept for writing out.
const SPAN_CAP: usize = 400_000;
/// The functional checksum of every round: kvstore requests depend on
/// (tenant, request number) only, so one value holds for every seed.
const PINNED_CHECKSUM: u64 = 0x8168_a02f_25be_046d;

fn config(seed: u64, round: u64) -> FleetConfig {
    FleetConfig {
        seed: splitmix64(seed ^ (round << 32)),
        tenants: TENANTS,
        shards: SHARDS,
        workers: WORKERS,
        requests_per_tenant: REQUESTS_PER_TENANT,
        mean_interarrival_cycles: MEAN_INTERARRIVAL_CYCLES,
        kind: TenantKind::Kvstore,
        frames: FRAMES,
        log_frames: LOG_FRAMES,
    }
}

fn ops_per_round() -> u64 {
    u64::from(TENANTS) * u64::from(REQUESTS_PER_TENANT)
}

/// One arrival: request `k` of `tenant` at virtual time `arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    arrival: u64,
    tenant: u64,
    k: u64,
}

/// The shard's merged arrival sequence, generated the way `run_shard`
/// generates it: exponential interarrivals from
/// `TestRng(seed ^ splitmix64(tenant))`, sorted by (arrival, tenant, k).
fn arrival_schedule(cfg: &FleetConfig, shard: u32) -> Vec<Arrival> {
    let mut events = Vec::new();
    for tenant in local_tenants(cfg, shard) {
        let mut rng = TestRng::from_seed(cfg.seed ^ splitmix64(tenant));
        let mut at = 0u64;
        for k in 0..u64::from(cfg.requests_per_tenant) {
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += (-u.ln() * cfg.mean_interarrival_cycles as f64) as u64 + 1;
            events.push(Arrival { arrival: at, tenant, k });
        }
    }
    events.sort_unstable();
    events
}

fn local_tenants(cfg: &FleetConfig, shard: u32) -> Vec<u64> {
    (0..u64::from(cfg.tenants)).filter(|t| t % u64::from(cfg.shards) == u64::from(shard)).collect()
}

/// Boots one shard's CVM exactly as `run_shard` does.
fn boot_shard(cfg: &FleetConfig, shard: u32) -> Cvm {
    let mut cvm = CvmBuilder::new()
        .frames(cfg.frames)
        .vcpus(1)
        .log_frames(cfg.log_frames)
        .trace(true)
        .metrics(true)
        .batch(true)
        .shard(shard)
        .build()
        .expect("shard boot");
    cvm.kernel.audit.mode = AuditMode::VeilLog;
    cvm.kernel.audit.rules = paper_ruleset();
    cvm.kernel.audit.rules.insert(Sysno::Pwrite64);
    cvm.kernel.audit.rules.insert(Sysno::Pread64);
    cvm.hv
        .machine
        .metrics_mut()
        .set_gauge(Key::new("fleet_shard", DOMAIN_NONE, "id"), u64::from(shard));
    cvm
}

/// The set-up `run_fleet` performs inside every shard before its first
/// request: boot, then one session per local tenant.
fn setup_replica(cfg: &FleetConfig) -> Vec<Cvm> {
    (0..cfg.shards)
        .map(|shard| {
            let mut cvm = boot_shard(cfg, shard);
            let pid = cvm.spawn();
            for tenant in local_tenants(cfg, shard) {
                let mut sys = cvm.sys(pid);
                TenantSession::open(&mut sys, cfg.kind, tenant).expect("session open");
            }
            cvm
        })
        .collect()
}

/// Counts one `run_fleet` round as attempted and checks it.
fn check_report(out: &mut Outcome, what: &str, r: &FleetReport) {
    let expected = ops_per_round();
    out.attempted += expected;
    out.check(r.total_ops == expected, expected.saturating_sub(r.total_ops), || {
        format!("{what}: {} of {expected} requests completed", r.total_ops)
    });
    let checksum = fleet_checksum(r);
    out.check(checksum == PINNED_CHECKSUM, r.total_ops, || {
        format!("{what}: checksum {checksum:#018x} != pinned {PINNED_CHECKSUM:#018x}")
    });
    for s in &r.shards {
        let deferred =
            veil_fleet::top::snapshot_value(&s.stat_snapshot, "gate_deferred_errors_total")
                .unwrap_or(0);
        out.check(deferred == 0, deferred, || {
            format!("{what}: shard {} deferred_errors {deferred}", s.shard)
        });
        out.check(s.audit_failures == 0, s.audit_failures, || {
            format!("{what}: shard {} audit_failures {}", s.shard, s.audit_failures)
        });
        out.check(s.unmatched_completes == 0, s.unmatched_completes, || {
            format!("{what}: shard {} unmatched_completes {}", s.shard, s.unmatched_completes)
        });
        out.check(s.attribution.total() == s.latency.sum(), s.ops, || {
            format!(
                "{what}: shard {} attribution {} != latency sum {}",
                s.shard,
                s.attribution.total(),
                s.latency.sum()
            )
        });
    }
}

fn fleet_checksum(r: &FleetReport) -> u64 {
    r.shards.iter().fold(0u64, |acc, s| fnv1a(acc, &s.checksum.to_le_bytes()))
}

/// The untimed native twin of one round: every request of every shard
/// served by a Veil-less CVM, in the same arrival order. Returns
/// (model service cycles, checksum).
fn native_twin(cfg: &FleetConfig) -> (u64, u64) {
    let mut service = 0u64;
    let mut checksum = 0u64;
    for shard in 0..cfg.shards {
        let mut cvm = CvmBuilder::new()
            .frames(cfg.frames)
            .vcpus(1)
            .log_frames(cfg.log_frames)
            .trace(false)
            .metrics(false)
            .build_native()
            .expect("native boot");
        let pid = cvm.spawn();
        let mut sessions = BTreeMap::new();
        for tenant in local_tenants(cfg, shard) {
            let mut sys = cvm.sys(pid);
            sessions
                .insert(tenant, TenantSession::open(&mut sys, cfg.kind, tenant).expect("session"));
        }
        for ev in arrival_schedule(cfg, shard) {
            let before = cvm.hv.machine.cycles().total();
            let mut sys = cvm.sys(pid);
            let session = sessions.get_mut(&ev.tenant).expect("session");
            session.run_request(&mut sys, ev.k).expect("native request");
            service += cvm.hv.machine.cycles().total() - before;
        }
        let mut shard_sum = 0u64;
        for session in sessions.values() {
            shard_sum = fnv1a(shard_sum, &session.checksum.to_le_bytes());
        }
        checksum = fnv1a(checksum, &shard_sum.to_le_bytes());
    }
    (service, checksum)
}

/// Runs the workload: set-up, model pass (also the warm-up), native
/// twin, timed phase and, with `--trace 1`, the traced replay.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfgs: Vec<FleetConfig> = (0..MODEL_ROUNDS).map(|r| config(args.seed, r)).collect();
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, replica) = median_setup(setup_reps, || setup_replica(&cfgs[0]));
    drop(replica);

    // Model pass: one run_fleet per seed. Untimed; it is also the
    // warm-up, so the timed phase starts on a warm process.
    let mut latencies = Vec::new();
    let mut service_cycles = 0u64;
    let mut model_ops = 0u64;
    let mut makespan_cycles = 0u64;
    let mut slo_misses = 0u64;
    let mut model: Vec<FleetReport> = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let r = run_fleet(cfg);
        check_report(&mut out, &format!("model round {i}"), &r);
        let slo = cfg.kind.slo_cycles();
        for s in &r.shards {
            for p in &s.paths {
                latencies.push(p.end_to_end());
                slo_misses += u64::from(p.end_to_end() > slo);
            }
            service_cycles += s.service_cycles;
            makespan_cycles += s.makespan_cycles;
        }
        model_ops += r.total_ops;
        model.push(r);
    }
    let model_failed = out.failed;
    let (native_service, native_checksum) = native_twin(&cfgs[0]);
    out.check(native_checksum == fleet_checksum(&model[0]), model[0].total_ops, || {
        format!(
            "fleet checksum {:#018x} != native twin {native_checksum:#018x}",
            fleet_checksum(&model[0])
        )
    });

    let mut timed = Timed::default();
    if args.trace {
        traced(&mut out, &cfgs, &model, &mut timed, args.seconds);
    } else {
        let start = Instant::now();
        while timed.rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
            timed_round(&mut out, &cfgs, &model, &mut timed);
        }
    }
    let host_ops_per_s = timed.ops_per_s();
    let rates = &timed.rates;

    latencies.sort_unstable();
    let veil_round0: u64 = model[0].shards.iter().map(|s| s.service_cycles).sum();
    let overhead_pct = (veil_round0 as f64 / native_service.max(1) as f64 - 1.0) * 100.0;
    let attempted = model_ops.max(1) as f64;
    let e2e: Vec<(&str, f64, &'static str, Clock, String)> = vec![
        (
            "setup_s",
            setup_s,
            "s",
            Clock::Host,
            format!("median of {setup_reps} set-ups of {SHARDS} shards"),
        ),
        (
            "host_ops_per_s",
            host_ops_per_s,
            "1/s",
            Clock::Host,
            format!(
                "{} run_fleet rounds of {} requests, {WORKERS} workers; {}",
                rates.len(),
                ops_per_round(),
                crate::spread_note(rates)
            ),
        ),
        ("peak_rss_mib", peak_rss_mib(), "MiB", Clock::Host, String::new()),
        (
            "model_cycles_per_op",
            service_cycles as f64 / attempted,
            "cycles",
            Clock::Model,
            "service cycles per request".into(),
        ),
        (
            "veil_overhead_pct",
            overhead_pct,
            "%",
            Clock::Model,
            "unvalidated: the paper gives no fleet reference".into(),
        ),
        (
            "model_latency_p50_cycles",
            percentile(&latencies, 50.0) as f64,
            "cycles",
            Clock::Model,
            format!("open loop; {}", sample_note(latencies.len(), 50.0)),
        ),
        (
            "model_latency_p999_cycles",
            percentile(&latencies, 99.9) as f64,
            "cycles",
            Clock::Model,
            format!("open loop; {}", sample_note(latencies.len(), 99.9)),
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
        "slo_miss_ratio",
        (slo_misses + model_failed) as f64 / attempted,
        "ratio",
        Clock::Model,
        format!("{slo_misses} of {model_ops} over {} cycles", TenantKind::Kvstore.slo_cycles()),
    );
    out.info(
        "model_utilization",
        service_cycles as f64 / makespan_cycles.max(1) as f64,
        "ratio",
        Clock::Model,
        "service cycles over shard makespan".into(),
    );
    out.info(
        "checksum",
        fleet_checksum(&model[0]) as f64,
        "fnv1a",
        Clock::NoClock,
        format!("{:#018x}", fleet_checksum(&model[0])),
    );
    out
}

/// The untraced timed rounds so far.
#[derive(Debug, Default)]
struct Timed {
    ops: u64,
    wall_s: f64,
    rates: Vec<f64>,
}

impl Timed {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }
}

/// Runs and checks the next timed `run_fleet` round: it reuses a model
/// pass seed and must reproduce that round's merged digest bit for bit.
fn timed_round(
    out: &mut Outcome,
    cfgs: &[FleetConfig],
    model: &[FleetReport],
    timed: &mut Timed,
) -> FleetReport {
    let i = timed.rates.len();
    let expect = &model[i % model.len()];
    let t = Instant::now();
    let r = run_fleet(&cfgs[i % cfgs.len()]);
    let wall = t.elapsed().as_secs_f64();
    check_report(out, &format!("timed round {i}"), &r);
    out.check(r.merged_digest_hex == expect.merged_digest_hex, r.total_ops, || {
        format!("timed round {i}: merged digest differs from the model pass")
    });
    timed.ops += r.total_ops;
    timed.wall_s += wall;
    timed.rates.push(r.total_ops as f64 / wall.max(1e-9));
    r
}

/// What one replayed shard produced.
struct ShardReplay {
    rec: Recorder,
    ops: u64,
    checksum: u64,
    trace_digest_hex: String,
    metrics_digest_hex: String,
    counters: Counters,
    relay: Histogram,
    attribution: Attribution,
    latency_sum: u128,
    unmatched_completes: u64,
    folded_records: u64,
    snapshot_bytes: u64,
    wall_s: f64,
}

/// Replays `run_shard`'s loop call for call, with every call into a
/// layer wrapped in a span and every syscall behind a [`TimingSys`].
fn replay_shard(cfg: &FleetConfig, shard: u32, epoch: Instant) -> ShardReplay {
    let mut rec = Recorder::new(epoch, SPAN_CAP / SHARDS as usize);
    let shard_id = (1u64 << 63) | u64::from(shard);
    rec.id = shard_id;
    let t0 = Instant::now();
    let root = rec.enter("bench.shard");

    let s = rec.enter("core.boot");
    let mut cvm = boot_shard(cfg, shard);
    let pid = cvm.spawn();
    rec.exit(s);

    let s = rec.enter("fleet.schedule");
    let events = arrival_schedule(cfg, shard);
    let locals = local_tenants(cfg, shard);
    rec.exit(s);

    let mut sessions: BTreeMap<u64, TenantSession> = BTreeMap::new();
    for &tenant in &locals {
        let s = rec.enter("workloads.session");
        let mut sys = cvm.sys(pid);
        let session = TenantSession::open(
            &mut TimingSys { inner: &mut sys, rec: Some(&mut rec), burns: None },
            cfg.kind,
            tenant,
        )
        .expect("session open");
        rec.exit(s);
        sessions.insert(tenant, session);
    }

    let before = Counters::read(&cvm);
    let mut fold = CausalFold::new();
    let mut folded = 0u64;
    let s = rec.enter("trace.fold");
    for r in cvm.hv.machine.tracer().records_since(0) {
        fold.observe(r);
        folded += 1;
    }
    let mut folded_seq = cvm.hv.machine.tracer().next_seq();
    rec.exit(s);

    let mut vclock = 0u64;
    let mut slo = SloReport::new(cfg.kind.slo_cycles());
    let latency_key = Key::new("fleet_latency_cycles", DOMAIN_NONE, cfg.kind.label());
    for ev in &events {
        rec.id = (u64::from(shard) << 48) | (ev.tenant << 24) | ev.k;
        let q = rec.enter("fleet.request");
        let start = ev.arrival.max(vclock);
        cvm.gate.set_req_context(ev.tenant, ev.k);
        cvm.hv.machine.trace_event(Event::ReqDispatch {
            tenant: ev.tenant,
            req: ev.k,
            arrival: ev.arrival,
            start,
        });
        let cycles_before = cvm.hv.machine.cycles().total();
        {
            let s = rec.enter("workloads.section");
            let mut sys = cvm.sys(pid);
            let session = sessions.get_mut(&ev.tenant).expect("session");
            session
                .run_request(
                    &mut TimingSys { inner: &mut sys, rec: Some(&mut rec), burns: None },
                    ev.k,
                )
                .expect("request");
            rec.exit(s);
        }
        let service = cvm.hv.machine.cycles().total() - cycles_before;
        cvm.hv.machine.trace_event(Event::ReqComplete { tenant: ev.tenant, req: ev.k });
        let completion = start + service;
        vclock = completion;
        let latency = completion - ev.arrival;
        let s = rec.enter("metrics.record");
        cvm.hv.machine.metrics_mut().record_hist(latency_key, latency);
        rec.exit(s);
        slo.observe(ev.tenant, latency);
        let s = rec.enter("trace.fold");
        for r in cvm.hv.machine.tracer().records_since(folded_seq) {
            fold.observe(r);
            folded += 1;
        }
        folded_seq = cvm.hv.machine.tracer().next_seq();
        rec.exit(s);
        rec.exit(q);
    }
    rec.id = shard_id;

    let mut checksum = 0u64;
    for &tenant in &locals {
        let s = rec.enter("workloads.session");
        let mut sys = cvm.sys(pid);
        let session = sessions.get_mut(&tenant).expect("session");
        session
            .close(&mut TimingSys { inner: &mut sys, rec: Some(&mut rec), burns: None })
            .expect("session close");
        checksum = fnv1a(checksum, &session.checksum.to_le_bytes());
        rec.exit(s);
    }
    let s = rec.enter("core.flush");
    cvm.flush_gate().expect("flush");
    rec.exit(s);
    let s = rec.enter("trace.fold");
    for r in cvm.hv.machine.tracer().records_since(folded_seq) {
        fold.observe(r);
        folded += 1;
    }
    rec.exit(s);
    let counters = Counters::read(&cvm).since(&before);

    let s = rec.enter("services.stat_snapshot");
    let stat = cvm.gate.request(&mut cvm.hv, 0, MonRequest::StatSnapshot);
    rec.exit(s);
    assert!(matches!(stat, Ok(MonResponse::Bytes(_))), "veilstat snapshot failed: {stat:?}");

    let s = rec.enter("trace.digest");
    let trace_digest_hex = cvm.trace_digest_hex();
    rec.exit(s);
    let s = rec.enter("metrics.snapshot");
    let snapshot_bytes = cvm.metrics_snapshot().len() as u64;
    let metrics_digest_hex = cvm.metrics_digest_hex();
    rec.exit(s);
    rec.exit(root);

    ShardReplay {
        ops: events.len() as u64,
        checksum,
        trace_digest_hex,
        metrics_digest_hex,
        counters,
        relay: cvm.metrics().merged_histogram("relay_cycles"),
        attribution: fold.attribution(),
        latency_sum: cvm.metrics().merged_histogram("fleet_latency_cycles").sum(),
        unmatched_completes: fold.unmatched_completes,
        folded_records: folded,
        snapshot_bytes,
        wall_s: t0.elapsed().as_secs_f64(),
        rec,
    }
}

/// The traced phase: untraced `run_fleet` rounds alternate with traced
/// replays of the same seed, so a slow or fast stretch of the host
/// falls on both sides alike. A replay fans the shards out over the
/// same work-stealing scheduler and must reproduce each shard's trace
/// and metrics digests of the `run_fleet` round just before it.
fn traced(
    out: &mut Outcome,
    cfgs: &[FleetConfig],
    model: &[FleetReport],
    timed: &mut Timed,
    seconds: f64,
) {
    let epoch = Instant::now();
    let mut all = Recorder::new(epoch, SPAN_CAP);
    let mut counters = Counters::default();
    let mut relay = Histogram::new();
    let mut attribution = Attribution::default();
    let mut ops = 0u64;
    let mut folded = 0u64;
    let mut busy_s = 0.0;
    let mut imbalance = Vec::new();
    let mut steals = 0u64;
    let mut snapshot_bytes = 0u64;
    let (mut rounds, mut traced_wall) = (0usize, 0.0f64);
    let start = Instant::now();
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let i = rounds;
        let cfg = &cfgs[i % cfgs.len()];
        let expect = timed_round(out, cfgs, model, timed);
        let t = Instant::now();
        let (shards, stats) =
            run_tasks_with_stats((0..cfg.shards).collect(), cfg.workers, cfg.seed, |_, shard| {
                replay_shard(cfg, shard, epoch)
            });
        let wall = t.elapsed().as_secs_f64();
        steals += stats.steals;
        out.attempted += ops_per_round();
        let mut round_ops = 0u64;
        let walls: Vec<f64> = shards.iter().map(|s| s.wall_s).collect();
        for (s, want) in shards.iter().zip(&expect.shards) {
            let what = format!("traced round {i} shard {}", want.shard);
            out.check(s.ops == want.ops, s.ops.abs_diff(want.ops), || {
                format!("{what}: {} requests vs {}", s.ops, want.ops)
            });
            out.check(s.trace_digest_hex == want.trace_digest_hex, s.ops, || {
                format!(
                    "{what}: trace digest {} != run_fleet {}",
                    s.trace_digest_hex, want.trace_digest_hex
                )
            });
            out.check(s.metrics_digest_hex == want.metrics_digest_hex, s.ops, || {
                format!("{what}: metrics digest differs from run_fleet")
            });
            out.check(s.checksum == want.checksum, s.ops, || format!("{what}: checksum differs"));
            out.check(s.attribution.total() == s.latency_sum, s.ops, || {
                format!(
                    "{what}: attribution {} != latency sum {}",
                    s.attribution.total(),
                    s.latency_sum
                )
            });
            out.check(s.unmatched_completes == 0, s.unmatched_completes, || {
                format!("{what}: unmatched_completes {}", s.unmatched_completes)
            });
            out.check(s.counters.deferred_errors == 0, s.counters.deferred_errors, || {
                format!("{what}: deferred_errors {}", s.counters.deferred_errors)
            });
            out.check(s.counters.audit_failures == 0, s.counters.audit_failures, || {
                format!("{what}: audit_failures {}", s.counters.audit_failures)
            });
            all.absorb(&s.rec);
            counters.add(&s.counters);
            relay.merge(&s.relay);
            attribution.merge(&s.attribution);
            folded += s.folded_records;
            snapshot_bytes = s.snapshot_bytes;
            round_ops += s.ops;
        }
        busy_s += walls.iter().sum::<f64>();
        imbalance.push(
            walls.iter().copied().fold(0.0, f64::max)
                / (walls.iter().sum::<f64>() / walls.len() as f64),
        );
        ops += round_ops;
        traced_wall += wall;
        rounds += 1;
    }
    if let Err(err) = all.write_tsv(std::path::Path::new("veilbench/out/spans-fleet_kvstore.tsv")) {
        eprintln!("veilbench: could not write spans: {err}");
    }
    let total = attribution.total().max(1) as f64;
    let t = Traced {
        rec: all,
        counters,
        ops,
        relay,
        enclave_crossings: 0,
        plain_ops_per_s: timed.ops_per_s(),
        traced_ops_per_s: ops as f64 / traced_wall.max(1e-9),
        snapshot_bytes,
        fleet: (busy_s, median(&imbalance), steals),
        attribution_shares: Component::ALL.map(|c| attribution.component(c) as f64 / total),
        folded_records: folded,
    };
    emit_layers(out, &t);
}
