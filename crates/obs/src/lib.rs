//! Deterministic observability plane for the TransEdge simulation.
//!
//! Three coordinated facilities, all driven purely by
//! [`SimTime`](transedge_common::SimTime) so every artifact is
//! bit-identical across runs of the same seed:
//!
//! * **Causal traces** ([`trace`]): a [`TraceId`] + [`SpanId`] context
//!   minted per client operation and propagated through every
//!   request-direction network hop. The simulator records typed span
//!   phases ([`SpanPhase`]) — queueing behind a busy actor, wire
//!   transit, server CPU, client-side verification, round-2 — into a
//!   [`TraceLog`]; completed traces land in a bounded flight-recorder
//!   ring for post-mortem dumps.
//! * **Unified metrics** ([`metrics`]): a [`MetricRegistry`] of
//!   counters that the workspace's per-subsystem `*Stats` structs
//!   register into via [`RegisterMetrics`], giving per-node scopes and
//!   fleet-wide rollups through one typed API.
//! * **Exporters** ([`chrome`], [`breakdown`]): Chrome-trace-format
//!   JSON (load into `chrome://tracing` / Perfetto) and per-phase
//!   latency decompositions of nearest-rank percentile traces (the
//!   benchmark's `obs.*_us_p50` per-layer series).
//!
//! # Determinism contract
//!
//! Recording NEVER feeds back into the simulation: the trace log and
//! registry consume no simulated CPU, send no messages, and draw no
//! randomness. Span identifiers come from a plain counter advanced in
//! event order, so an instrumented run schedules *exactly* the events
//! an uninstrumented one would.

pub mod breakdown;
pub mod chrome;
pub mod metrics;
pub mod trace;

pub use breakdown::{breakdown_at_percentile, percentile, percentile_u64, PhaseBreakdown};
pub use chrome::chrome_trace_json;
pub use metrics::{MetricRegistry, RegisterMetrics};
pub use trace::{
    CompletedTrace, Span, SpanId, SpanPhase, TraceContext, TraceId, TraceLog,
    DEFAULT_FLIGHT_CAPACITY,
};
