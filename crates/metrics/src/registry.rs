//! The deterministic metrics registry: counters, gauges, and cycle
//! histograms keyed by `(metric, domain, op)`, fed from the same event
//! stream as the [`veil_trace::Tracer`] so derived counters can never
//! drift from the trace.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use veil_trace::{exit_code, Event, EventCounters};

/// Domain value used when a metric is not attributable to a VMPL.
pub const DOMAIN_NONE: u8 = 0xff;

/// Stable label for a domain value (`vmpl0`..`vmpl3`, `all` for
/// [`DOMAIN_NONE`], `unknown` otherwise).
pub fn domain_label(domain: u8) -> &'static str {
    match domain {
        0 => "vmpl0",
        1 => "vmpl1",
        2 => "vmpl2",
        3 => "vmpl3",
        DOMAIN_NONE => "all",
        _ => "unknown",
    }
}

/// Stable label for a `VMGEXIT` exit code, used as the `op` dimension of
/// relay metrics.
pub fn exit_code_label(code: u64) -> &'static str {
    match code {
        exit_code::IO => "io",
        exit_code::MSR => "msr",
        exit_code::PAGE_STATE_CHANGE => "page_state_change",
        exit_code::DOMAIN_SWITCH => "domain_switch",
        exit_code::CREATE_VCPU => "create_vcpu",
        exit_code::DOORBELL => "doorbell",
        exit_code::PSC_BATCH => "psc_batch",
        exit_code::SHUTDOWN => "shutdown",
        exit_code::AUTOMATIC => "automatic",
        exit_code::UNKNOWN => "unknown",
        _ => "other",
    }
}

/// A metric series key: metric name plus the `(domain, op)` label pair.
/// `BTreeMap` ordering over this key is what makes every export
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (e.g. `events_total`, `relay_cycles`).
    pub metric: &'static str,
    /// Attributed domain ([`DOMAIN_NONE`] when not applicable).
    pub domain: u8,
    /// Operation label (empty when not applicable).
    pub op: &'static str,
}

impl Key {
    /// Builds a key.
    pub fn new(metric: &'static str, domain: u8, op: &'static str) -> Key {
        Key { metric, domain, op }
    }
}

/// Deterministic metrics registry.
///
/// All state lives in `BTreeMap`s so iteration (and therefore every
/// exporter) is ordered and reproducible. The registry is runtime gated:
/// when disabled every observation method returns immediately, so the
/// only disabled-mode cost at a call site is one branch.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    histograms: BTreeMap<Key, Histogram>,
    /// The same fold the tracer runs, re-run here so the drift test can
    /// prove tracer, ring replay, and registry agree.
    events: EventCounters,
    /// Per-VCPU open `VMGEXIT`: (exit cycles, exiting vmpl, exit code).
    /// The delta to the next `VmEnter` on the same VCPU is the relayed
    /// round-trip cost attributed to `relay_cycles{domain, op}`.
    pending_exit: BTreeMap<u32, (u64, u8, u64)>,
}

impl MetricsRegistry {
    /// A disabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether the registry is recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Enabling **resets** all series (the
    /// same contract as `Tracer::set_enabled`), so a run that turns
    /// metrics on observes only events from that point — deterministically,
    /// even if metrics were already on.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            self.counters.clear();
            self.gauges.clear();
            self.histograms.clear();
            self.events = EventCounters::default();
            self.pending_exit.clear();
        }
        self.enabled = enabled;
    }

    /// Adds `by` to the counter at `key`.
    pub fn inc_counter(&mut self, key: Key, by: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Sets the gauge at `key` to `value`.
    pub fn set_gauge(&mut self, key: Key, value: u64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert(key, value);
    }

    /// Records `value` into the histogram at `key`.
    pub fn record_hist(&mut self, key: Key, value: u64) {
        if !self.enabled {
            return;
        }
        self.histograms.entry(key).or_default().record(value);
    }

    /// Folds one trace event, stamped at virtual-cycle time `cycles`, into
    /// the registry: the embedded [`EventCounters`], a per-`(domain, op)`
    /// event counter, and the derived relay-latency histograms.
    pub fn observe_event(&mut self, cycles: u64, event: &Event) {
        if !self.enabled {
            return;
        }
        self.events.observe(event);
        let (domain, op) = event_labels(event);
        self.inc_counter(Key::new("events_total", domain, op), 1);
        match *event {
            Event::VmgExit { vcpu, vmpl, code, automatic: false, .. } => {
                self.pending_exit.insert(vcpu, (cycles, vmpl, code));
            }
            Event::VmEnter { vcpu, .. } => {
                if let Some((start, vmpl, code)) = self.pending_exit.remove(&vcpu) {
                    self.record_hist(
                        Key::new("relay_cycles", vmpl, exit_code_label(code)),
                        cycles.saturating_sub(start),
                    );
                }
            }
            Event::DomainSwitch { from, to, .. } => {
                self.inc_counter(Key::new("domain_switch_total", from, domain_label(to)), 1);
            }
            Event::Doorbell { target, depth, .. } => {
                self.record_hist(Key::new("ring_depth", target, "doorbell"), depth as u64);
            }
            Event::RingEnqueue { target, depth, .. } => {
                self.record_hist(Key::new("ring_depth", target, "enqueue"), depth as u64);
            }
            Event::DeferredError { count, .. } => {
                self.inc_counter(
                    Key::new("gate_deferred_errors_total", DOMAIN_NONE, ""),
                    u64::from(count),
                );
            }
            _ => {}
        }
        self.set_gauge(Key::new("cycles_total", DOMAIN_NONE, ""), cycles);
    }

    /// The registry's own event fold (the drift test compares this against
    /// `Tracer::counters()` and a ring replay).
    pub fn event_counters(&self) -> &EventCounters {
        &self.events
    }

    /// Counter series in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Gauge series in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Histogram series in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.histograms.iter()
    }

    /// The histogram at `key`, if any sample was recorded.
    pub fn histogram(&self, key: &Key) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Merges every histogram series named `metric` (across all domain/op
    /// labels) into one. Merge is associative and commutative, so the
    /// result is label-order independent.
    pub fn merged_histogram(&self, metric: &str) -> Histogram {
        let mut out = Histogram::new();
        for (k, h) in &self.histograms {
            if k.metric == metric {
                out.merge(h);
            }
        }
        out
    }

    /// Whether no series has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The `(domain, op)` labels of an event's `events_total` series: the
/// executing/originating VMPL where the event carries one, and the stable
/// event name as the op.
fn event_labels(event: &Event) -> (u8, &'static str) {
    let domain = match *event {
        Event::Pvalidate { vmpl, .. } => vmpl,
        Event::RmpAdjust { executing, .. } => executing,
        Event::VmgExit { vmpl, .. } => vmpl,
        Event::VmEnter { vmpl, .. } => vmpl,
        Event::DomainSwitch { from, .. } => from,
        Event::NestedPageFault { vmpl, .. } => vmpl,
        Event::SyscallRedirect { .. } => 2,
        Event::AuditAppend { .. } => 3,
        Event::Doorbell { target, .. } => target,
        Event::RingEnqueue { target, .. } => target,
        Event::RmpTransition { .. }
        | Event::ChannelHandshake { .. }
        | Event::ModuleLoad { .. }
        | Event::ReqDispatch { .. }
        | Event::ReqComplete { .. }
        | Event::DeferredError { .. } => DOMAIN_NONE,
    };
    (domain, event.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit_enter(reg: &mut MetricsRegistry, vcpu: u32, vmpl: u8, code: u64, t0: u64, t1: u64) {
        reg.observe_event(
            t0,
            &Event::VmgExit { vcpu, vmpl, code, user_ghcb: false, automatic: false },
        );
        reg.observe_event(t1, &Event::VmEnter { vcpu, vmpl });
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = MetricsRegistry::new();
        reg.observe_event(5, &Event::VmEnter { vcpu: 0, vmpl: 0 });
        reg.inc_counter(Key::new("x", DOMAIN_NONE, ""), 1);
        reg.record_hist(Key::new("h", DOMAIN_NONE, ""), 7);
        assert!(reg.is_empty());
        assert_eq!(reg.event_counters(), &EventCounters::default());
    }

    #[test]
    fn enable_resets_series() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.inc_counter(Key::new("x", DOMAIN_NONE, ""), 3);
        reg.set_enabled(true);
        assert!(reg.is_empty(), "re-enable must reset");
    }

    #[test]
    fn relay_histogram_brackets_exit_to_enter_per_vcpu() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        exit_enter(&mut reg, 0, 3, exit_code::IO, 100, 2100);
        exit_enter(&mut reg, 1, 0, exit_code::DOMAIN_SWITCH, 200, 7335);
        let io = reg.histogram(&Key::new("relay_cycles", 3, "io")).unwrap();
        assert_eq!(io.count(), 1);
        assert_eq!(io.max(), 2000);
        let ds = reg.histogram(&Key::new("relay_cycles", 0, "domain_switch")).unwrap();
        assert_eq!(ds.max(), 7135);
        // Merged view spans both series.
        assert_eq!(reg.merged_histogram("relay_cycles").count(), 2);
    }

    #[test]
    fn automatic_exits_do_not_open_a_relay_bracket() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.observe_event(
            10,
            &Event::VmgExit {
                vcpu: 0,
                vmpl: 3,
                code: exit_code::AUTOMATIC,
                user_ghcb: false,
                automatic: true,
            },
        );
        reg.observe_event(20, &Event::VmEnter { vcpu: 0, vmpl: 3 });
        assert!(reg.histogram(&Key::new("relay_cycles", 3, "automatic")).is_none());
    }

    #[test]
    fn embedded_fold_matches_a_plain_fold() {
        let events = [
            Event::ChannelHandshake { step: 0 },
            Event::DomainSwitch { vcpu: 0, from: 3, to: 2, user_ghcb: false, automatic: false },
            Event::Pvalidate { vmpl: 0, gfn: 9, validate: true },
        ];
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        let mut plain = EventCounters::default();
        for (i, e) in events.iter().enumerate() {
            reg.observe_event(i as u64, e);
            plain.observe(e);
        }
        assert_eq!(reg.event_counters(), &plain);
        assert_eq!(reg.event_counters().enclave_crossings, 1);
    }

    #[test]
    fn counters_iterate_in_deterministic_key_order() {
        let mut reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.inc_counter(Key::new("b", 1, "y"), 1);
        reg.inc_counter(Key::new("a", 2, "z"), 1);
        reg.inc_counter(Key::new("a", 0, "x"), 1);
        let names: Vec<_> = reg.counters().map(|(k, _)| (k.metric, k.domain)).collect();
        assert_eq!(names, vec![("a", 0), ("a", 2), ("b", 1)]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(domain_label(0), "vmpl0");
        assert_eq!(domain_label(DOMAIN_NONE), "all");
        assert_eq!(domain_label(9), "unknown");
        assert_eq!(exit_code_label(exit_code::IO), "io");
        assert_eq!(exit_code_label(0xdead), "other");
    }
}
