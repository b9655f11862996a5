//! The registry's dense `events_total`/`cycles_total` fold must export
//! the same bytes as the plain per-event `BTreeMap` fold it replaces.
//!
//! The reference below is a second registry fed only through the public
//! map API (`inc_counter`, `set_gauge`, `record_hist`), with the per-event
//! label and relay-bracket rules written out again in test code. Random
//! streams cover all 16 event tags, domains 0–3, 0xff and unslotted
//! values, and interleave external counter and gauge writes, including
//! writes to the very series the dense fold owns.

use std::collections::BTreeMap;
use veil_metrics::export::{json_snapshot, prometheus};
use veil_metrics::{exit_code_label, Key, MetricsRegistry, SpanProfiler, DOMAIN_NONE};
use veil_testkit::prop::{self, Strategy};
use veil_testkit::prop_assert_eq;
use veil_trace::{exit_code, Event};

#[derive(Debug, Clone)]
enum Op {
    Observe(u64, Event),
    Inc(Key, u64),
    Gauge(Key, u64),
}

/// Slotted, `DOMAIN_NONE`, and unslotted domain values.
const DOMAINS: [u8; 8] = [0, 1, 2, 3, DOMAIN_NONE, 4, 7, 200];

const EXIT_CODES: [u64; 5] =
    [exit_code::IO, exit_code::DOMAIN_SWITCH, exit_code::DOORBELL, exit_code::AUTOMATIC, 0xdead];

/// Every op label the fold can produce, plus two it never does.
const OPS: [&str; 18] = [
    "rmp_transition",
    "pvalidate",
    "rmpadjust",
    "vmgexit",
    "vmenter",
    "domain_switch",
    "nested_page_fault",
    "syscall_redirect",
    "audit_append",
    "channel_handshake",
    "module_load",
    "doorbell",
    "req_dispatch",
    "req_complete",
    "ring_enqueue",
    "deferred_error",
    "",
    "custom",
];

fn pick<T: Copy>(rng: &mut veil_testkit::TestRng, xs: &[T]) -> T {
    *rng.choose(xs).expect("non-empty table")
}

fn event(rng: &mut veil_testkit::TestRng) -> Event {
    let d = pick(rng, &DOMAINS);
    let vcpu = rng.below(3) as u32;
    let small = rng.below(20) as u32;
    match rng.below(16) {
        0 => Event::RmpTransition { gfn: rng.below(8), to_private: rng.gen_bool() },
        1 => Event::Pvalidate { vmpl: d, gfn: rng.below(8), validate: rng.gen_bool() },
        2 => Event::RmpAdjust {
            executing: d,
            target: pick(rng, &DOMAINS),
            gfn: rng.below(8),
            perms: 3,
            executing_perms: 15,
        },
        3 => {
            let code = pick(rng, &EXIT_CODES);
            let automatic = code == exit_code::AUTOMATIC;
            Event::VmgExit { vcpu, vmpl: d, code, user_ghcb: rng.gen_bool(), automatic }
        }
        4 => Event::VmEnter { vcpu, vmpl: d },
        5 => Event::DomainSwitch {
            vcpu,
            from: d,
            to: pick(rng, &DOMAINS),
            user_ghcb: rng.gen_bool(),
            automatic: rng.gen_bool(),
        },
        6 => Event::NestedPageFault { gfn: rng.below(8), vmpl: d },
        7 => Event::SyscallRedirect { vcpu, pid: 1, sysno: small },
        8 => Event::AuditAppend { pid: 1, sysno: small },
        9 => Event::ChannelHandshake { step: small as u8 },
        10 => Event::ModuleLoad { pages: small, protected: rng.gen_bool(), load: rng.gen_bool() },
        11 => Event::Doorbell { vcpu, target: d, depth: small },
        12 => Event::ReqDispatch { tenant: 1, req: 2, arrival: 10, start: 20 },
        13 => Event::ReqComplete { tenant: 1, req: 2 },
        14 => Event::RingEnqueue { vcpu, target: d, depth: small, tenant: 1, req: 2 },
        _ => Event::DeferredError { vcpu, count: small },
    }
}

fn ops() -> Strategy<Vec<Op>> {
    let op = Strategy::from_fn(|rng| {
        let key = |rng: &mut veil_testkit::TestRng| {
            let metric = pick(rng, &["events_total", "cycles_total", "other_total", "a"]);
            Key::new(metric, pick(rng, &DOMAINS), pick(rng, &OPS))
        };
        match rng.below(10) {
            0 => Op::Inc(key(rng), rng.below(3)),
            1 => {
                // Often the exact gauge every event overwrites.
                let k = if rng.gen_bool() {
                    Key::new("cycles_total", DOMAIN_NONE, "")
                } else {
                    key(rng)
                };
                Op::Gauge(k, rng.below(1 << 20))
            }
            _ => Op::Observe(rng.below(1 << 20), event(rng)),
        }
    });
    op.vec_of(0..200)
}

/// `events_total` labels as the per-event map fold assigned them.
fn labels(event: &Event) -> (u8, &'static str) {
    let domain = match *event {
        Event::Pvalidate { vmpl, .. }
        | Event::VmgExit { vmpl, .. }
        | Event::VmEnter { vmpl, .. }
        | Event::NestedPageFault { vmpl, .. } => vmpl,
        Event::RmpAdjust { executing, .. } => executing,
        Event::DomainSwitch { from, .. } => from,
        Event::SyscallRedirect { .. } => 2,
        Event::AuditAppend { .. } => 3,
        Event::Doorbell { target, .. } | Event::RingEnqueue { target, .. } => target,
        _ => DOMAIN_NONE,
    };
    (domain, event.name())
}

/// Replays `ops` with every per-event series updated in the public maps.
fn reference(ops: &[Op]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_enabled(true);
    let mut pending_exit: BTreeMap<u32, (u64, u8, u64)> = BTreeMap::new();
    for op in ops {
        let (cycles, event) = match *op {
            Op::Inc(key, by) => {
                reg.inc_counter(key, by);
                continue;
            }
            Op::Gauge(key, value) => {
                reg.set_gauge(key, value);
                continue;
            }
            Op::Observe(cycles, event) => (cycles, event),
        };
        let (domain, op) = labels(&event);
        reg.inc_counter(Key::new("events_total", domain, op), 1);
        match event {
            Event::VmgExit { vcpu, vmpl, code, automatic: false, .. } => {
                pending_exit.insert(vcpu, (cycles, vmpl, code));
            }
            Event::VmEnter { vcpu, .. } => {
                if let Some((start, vmpl, code)) = pending_exit.remove(&vcpu) {
                    let key = Key::new("relay_cycles", vmpl, exit_code_label(code));
                    reg.record_hist(key, cycles.saturating_sub(start));
                }
            }
            Event::DomainSwitch { from, to, .. } => {
                let to = veil_metrics::domain_label(to);
                reg.inc_counter(Key::new("domain_switch_total", from, to), 1);
            }
            Event::Doorbell { target, depth, .. } => {
                reg.record_hist(Key::new("ring_depth", target, "doorbell"), u64::from(depth));
            }
            Event::RingEnqueue { target, depth, .. } => {
                reg.record_hist(Key::new("ring_depth", target, "enqueue"), u64::from(depth));
            }
            Event::DeferredError { count, .. } => {
                let key = Key::new("gate_deferred_errors_total", DOMAIN_NONE, "");
                reg.inc_counter(key, u64::from(count));
            }
            _ => {}
        }
        reg.set_gauge(Key::new("cycles_total", DOMAIN_NONE, ""), cycles);
    }
    reg
}

#[test]
fn dense_fold_exports_the_same_bytes_as_the_map_fold() {
    let spans = SpanProfiler::new();
    prop::check("dense_fold_exports", 256, &ops(), |ops| {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        for op in &ops {
            match *op {
                Op::Observe(cycles, event) => reg.observe_event(cycles, &event),
                Op::Inc(key, by) => reg.inc_counter(key, by),
                Op::Gauge(key, value) => reg.set_gauge(key, value),
            }
        }
        let want = reference(&ops);
        prop_assert_eq!(reg.is_empty(), want.is_empty());
        prop_assert_eq!(json_snapshot(&reg, &spans), json_snapshot(&want, &spans));
        prop_assert_eq!(prometheus(&reg, &spans), prometheus(&want, &spans));
        Ok(())
    });
}
