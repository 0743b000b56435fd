//! Per-phase latency decomposition of completed traces, plus the
//! workspace's single nearest-rank percentile implementation.

use transedge_common::SimTime;

use crate::trace::{CompletedTrace, SpanPhase};

/// Nearest-rank percentile over an ascending-sorted slice: the element
/// at `round((len - 1) * p)`. Returns `0.0` for an empty slice. This
/// is the one percentile definition every consumer in the workspace
/// shares (client metrics, bench emitters).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One trace's end-to-end latency split into its phase components, in
/// microseconds of [`transedge_common::SimTime`].
///
/// The split is exact by construction: round-1 CPU phases (`queue`,
/// `serve`, `verify`, `gossip`) are summed from their spans, `round2`
/// is the wall-clock tail after round-1 settles, and `wire` is the
/// residual — everything the operation spent on the network (request
/// transit recorded as `Wire` spans plus untraced response transit).
/// `queue + wire + serve + verify + round2 + gossip == e2e` whenever
/// the summed CPU phases fit inside the wall clock (always, for the
/// single-threaded client; server CPU overlapping across a parallel
/// fan-out can in principle push the sum past `e2e`, in which case
/// `wire` clamps at zero and the exporter reports the overshoot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub e2e_us: u64,
    pub queue_us: u64,
    pub wire_us: u64,
    pub serve_us: u64,
    pub verify_us: u64,
    pub round2_us: u64,
    pub gossip_us: u64,
}

impl PhaseBreakdown {
    /// Decompose one completed trace.
    pub fn decompose(trace: &CompletedTrace) -> Self {
        let root = trace.root_span();
        let e2e_us = root.duration().as_micros();
        // Round 2 spans wall clock from when round 1 settled to the
        // operation's end; without one, round 1 ran to the end.
        let r2_start: SimTime = trace
            .spans_of(SpanPhase::Round2)
            .map(|s| s.start)
            .min()
            .unwrap_or(root.end);
        let sum_before = |phase: SpanPhase| -> u64 {
            trace
                .spans_of(phase)
                .filter(|s| s.start < r2_start)
                .map(|s| s.duration().as_micros())
                .sum()
        };
        let queue_us = sum_before(SpanPhase::Queue);
        let serve_us = sum_before(SpanPhase::Serve);
        let verify_us = sum_before(SpanPhase::Verify);
        let gossip_us = sum_before(SpanPhase::Gossip);
        let round2_us = root.end.saturating_since(r2_start).as_micros();
        let wire_us =
            e2e_us.saturating_sub(queue_us + serve_us + verify_us + gossip_us + round2_us);
        PhaseBreakdown {
            e2e_us,
            queue_us,
            wire_us,
            serve_us,
            verify_us,
            round2_us,
            gossip_us,
        }
    }

    /// Sum of every component (equals `e2e_us` unless overlapping
    /// server CPU clamped the wire residual).
    pub fn components_sum_us(&self) -> u64 {
        self.queue_us
            + self.wire_us
            + self.serve_us
            + self.verify_us
            + self.round2_us
            + self.gossip_us
    }
}

/// Decompose the trace sitting at the nearest-rank percentile `p` of
/// `traces` by end-to-end latency. This decomposes *the actual
/// percentile operation* — its components sum to its own end-to-end
/// number, which summed per-phase percentiles would not.
pub fn breakdown_at_percentile(traces: &[&CompletedTrace], p: f64) -> Option<PhaseBreakdown> {
    if traces.is_empty() {
        return None;
    }
    let mut by_e2e: Vec<&CompletedTrace> = traces.to_vec();
    by_e2e.sort_by_key(|t| (t.end_to_end(), t.trace));
    let idx = ((by_e2e.len() as f64 - 1.0) * p).round() as usize;
    Some(PhaseBreakdown::decompose(by_e2e[idx.min(by_e2e.len() - 1)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceContext, TraceId, TraceLog};
    use transedge_common::{ClientId, ClusterId, NodeId, ReplicaId};

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0); // round(1.5) = 2
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    fn build_trace(op: u32, e2e: u64, with_round2: bool) -> CompletedTrace {
        let mut log = TraceLog::new();
        let t = TraceId::for_op(0, op);
        let client = NodeId::Client(ClientId(0));
        let server = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
        let root = log.begin(t, client, SimTime(0), "rot");
        let tc = TraceContext {
            trace: t,
            span: root,
        };
        log.span(
            tc,
            SpanPhase::Wire,
            server,
            SimTime(0),
            SimTime(100),
            "read-point",
        );
        log.span(
            tc,
            SpanPhase::Queue,
            server,
            SimTime(100),
            SimTime(150),
            "read-point",
        );
        log.span(
            tc,
            SpanPhase::Serve,
            server,
            SimTime(150),
            SimTime(350),
            "read-point",
        );
        log.span(
            tc,
            SpanPhase::Verify,
            client,
            SimTime(450),
            SimTime(500),
            "read-result",
        );
        if with_round2 {
            log.span(
                tc,
                SpanPhase::Round2,
                client,
                SimTime(500),
                SimTime(e2e),
                "round-2",
            );
        }
        log.complete(t, SimTime(e2e));
        log.last_completed().unwrap().clone()
    }

    #[test]
    fn decompose_components_sum_to_e2e() {
        let trace = build_trace(0, 900, true);
        let b = PhaseBreakdown::decompose(&trace);
        assert_eq!(b.e2e_us, 900);
        assert_eq!(b.queue_us, 50);
        assert_eq!(b.serve_us, 200);
        assert_eq!(b.verify_us, 50);
        assert_eq!(b.round2_us, 400);
        assert_eq!(b.wire_us, 200); // residual: 900 - 700
        assert_eq!(b.components_sum_us(), b.e2e_us);
    }

    #[test]
    fn decompose_without_round2_charges_round1_only() {
        let trace = build_trace(1, 600, false);
        let b = PhaseBreakdown::decompose(&trace);
        assert_eq!(b.round2_us, 0);
        assert_eq!(b.components_sum_us(), 600);
    }

    #[test]
    fn percentile_breakdown_picks_the_actual_trace() {
        let traces: Vec<CompletedTrace> = (0..10)
            .map(|i| build_trace(i, 600 + u64::from(i) * 100, i % 2 == 0))
            .collect();
        let refs: Vec<&CompletedTrace> = traces.iter().collect();
        let p95 = breakdown_at_percentile(&refs, 0.95).unwrap();
        assert_eq!(p95.e2e_us, 1500); // round(9 * 0.95) = 9th
        assert_eq!(p95.components_sum_us(), p95.e2e_us);
        assert!(breakdown_at_percentile(&[], 0.5).is_none());
    }
}
