//! Deterministic metrics over the Veil trace stream.
//!
//! The paper's evaluation (§6, Tables 3–5) is about *latency
//! distributions* of privileged transitions — domain switches, syscall
//! redirects, RMP operations — not just counts. This crate turns the
//! deterministic event stream of [`veil_trace`] into that evidence:
//!
//! * [`Histogram`] — log-bucketed (HDR-style, powers-of-√2) cycle
//!   histograms with integer-only bucket math and a [`nearest_rank`]
//!   percentile convention shared with exact-sample reports.
//! * [`MetricsRegistry`] — counters, gauges, and histograms keyed by
//!   `(metric, domain, op)`, fed by the same `Tracer` fold as the trace
//!   itself ([`MetricsRegistry::observe_event`]) so event-derived counters
//!   can never drift from the event stream.
//! * [`SpanProfiler`] — hierarchical spans with self/total cycle
//!   attribution per VMPL against the `veil_snp::cost` virtual clock.
//! * [`export`] — Prometheus text exposition, a JSON snapshot whose
//!   SHA-256 digest is golden-pinnable, and folded stacks for flamegraph
//!   tooling ([`SpanProfiler::folded`]).
//!
//! Everything is runtime gated by [`MetricsRegistry::set_enabled`] (set
//! from the `CvmBuilder::metrics` knob, off by default): disabled, every
//! observation is a single-branch no-op, and because metrics never charge
//! cycles, never emit events, and never touch the RNG, trace digests are
//! bit-identical whether metrics are on or off (the in-process twin
//! `tests/metrics_invariants.rs::metrics_are_observationally_inert`
//! enforces this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod span;

/// Exporters: Prometheus text, digestable JSON snapshots, folded stacks.
pub mod export;

pub use hist::{bucket_lower, bucket_of, nearest_rank, Histogram, BUCKETS};
pub use registry::{domain_label, exit_code_label, Key, MetricsRegistry, DOMAIN_NONE};
pub use span::{SpanProfiler, SpanStat};
