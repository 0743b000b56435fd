//! Adaptive client→edge routing for the read-only path.
//!
//! The static scheme (one pinned edge per partition per client) wastes
//! the edge tier in exactly the situations it exists for: a slow or
//! crashed edge keeps its clients, and a byzantine edge keeps receiving
//! traffic even after the verifier has caught it lying. The
//! [`EdgeSelector`] replaces it with per-target health tracking:
//!
//! * an EWMA of observed request latency ranks candidate edges;
//! * consecutive timeouts demote an edge for a cooldown (crash/partition
//!   suspicion — it may come back);
//! * verified byzantine rejections demote it much faster (a forged
//!   proof is cryptographic evidence, not a hunch);
//! * when every edge of a partition is demoted, the selector returns
//!   `None` and the caller falls back to real replicas, so a fully
//!   byzantine edge tier degrades throughput, never correctness or
//!   liveness.
//!
//! The selector is client-local state (each client learns from its own
//! traffic), deterministic, and cheap: one small `Vec` per partition.

use std::collections::HashMap;

use transedge_common::{ClusterId, NodeId, SimDuration, SimTime};

/// Weight of the newest latency sample in the EWMA (0 < alpha ≤ 1).
const EWMA_ALPHA: f64 = 0.3;
/// Consecutive timeouts before an edge is demoted.
pub const FAILURE_THRESHOLD: u32 = 3;
/// How long a demoted edge is shunned before it gets another chance
/// (its counters reset — probation, not forgiveness: the thresholds
/// apply afresh).
const COOLDOWN: SimDuration = SimDuration::from_secs(5);
/// Latency assumed for never-sampled edges. Optimistic on purpose: new
/// targets get explored instead of starving behind one good early
/// sample.
const OPTIMISTIC_LATENCY: SimDuration = SimDuration::from_millis(1);

/// The one tuning knob of [`EdgeSelector`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeSelectorConfig {
    /// Verified byzantine rejections before an edge is demoted. A
    /// rejection is cryptographic evidence of a forgery (not a hunch
    /// like a timeout), so the default is one strike; a test pinning
    /// "every tampered response is rejected" turns demotion off.
    pub rejection_threshold: u32,
}

impl Default for EdgeSelectorConfig {
    fn default() -> Self {
        EdgeSelectorConfig {
            rejection_threshold: 1,
        }
    }
}

/// Health record per edge target; exposed so harnesses and tests can
/// assert routing behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeHealth {
    /// Smoothed request latency in microseconds (`None` until the
    /// first sample).
    pub ewma_latency_us: Option<f64>,
    pub consecutive_failures: u32,
    /// Rejections since the last demotion/promotion.
    pub rejections: u32,
    pub successes: u64,
    pub failures: u64,
    /// Byzantine rejections over the target's lifetime.
    pub total_rejections: u64,
    pub demotions: u64,
    demoted_until: Option<SimTime>,
}

impl EdgeHealth {
    /// Is the target currently shunned?
    pub fn is_demoted(&self, now: SimTime) -> bool {
        self.demoted_until.is_some_and(|until| until > now)
    }

    fn demote(&mut self, now: SimTime) {
        self.demoted_until = Some(now + COOLDOWN);
        self.demotions += 1;
        self.consecutive_failures = 0;
        self.rejections = 0;
    }

    /// Clear an expired demotion (probation: counters start over).
    fn maybe_promote(&mut self, now: SimTime) {
        if self.demoted_until.is_some_and(|until| until <= now) {
            self.demoted_until = None;
        }
    }

    /// Ranking score: smoothed latency (optimistic for the unsampled)
    /// inflated by recent consecutive failures, so a flaky edge loses
    /// to a steady one even before it crosses the demotion threshold.
    fn score(&self) -> f64 {
        let base = self
            .ewma_latency_us
            .unwrap_or(OPTIMISTIC_LATENCY.as_micros() as f64);
        base * (1.0 + self.consecutive_failures as f64)
    }
}

/// Latency/failure-aware edge routing table. See module docs.
#[derive(Clone, Debug)]
pub struct EdgeSelector {
    config: EdgeSelectorConfig,
    /// Per partition: candidate edges in registration order.
    targets: HashMap<ClusterId, Vec<(NodeId, EdgeHealth)>>,
    /// Rotates tie-breaks among unsampled candidates so a fleet of
    /// clients (seeded by client id) spreads over the edge tier
    /// instead of stampeding one node.
    preference: u64,
}

impl EdgeSelector {
    pub fn new(config: EdgeSelectorConfig, seed: u64) -> Self {
        EdgeSelector {
            config,
            targets: HashMap::new(),
            preference: seed,
        }
    }

    /// Add a candidate edge for `cluster` (duplicates ignored).
    pub fn register(&mut self, cluster: ClusterId, edge: NodeId) {
        let entries = self.targets.entry(cluster).or_default();
        if !entries.iter().any(|(n, _)| *n == edge) {
            entries.push((edge, EdgeHealth::default()));
        }
    }

    /// Any edges registered for `cluster` at all?
    pub fn has_targets(&self, cluster: ClusterId) -> bool {
        self.targets.get(&cluster).is_some_and(|t| !t.is_empty())
    }

    /// Best available edge for `cluster`, or `None` when every
    /// candidate is demoted (callers then fall back to replicas).
    pub fn pick(&mut self, cluster: ClusterId, now: SimTime) -> Option<NodeId> {
        let entries = self.targets.get_mut(&cluster)?;
        for (_, health) in entries.iter_mut() {
            health.maybe_promote(now);
        }
        let n = entries.len();
        if n == 0 {
            return None;
        }
        // Rotate the scan start so equal scores (fresh targets) spread
        // across clients and across successive picks.
        let start = (self.preference % n as u64) as usize;
        self.preference = self.preference.wrapping_add(1);
        let mut best: Option<(f64, NodeId)> = None;
        for i in 0..n {
            let (node, health) = &entries[(start + i) % n];
            if health.is_demoted(now) {
                continue;
            }
            let score = health.score();
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, *node));
            }
        }
        best.map(|(_, node)| node)
    }

    /// A verified response came back from `edge` after `latency`.
    pub fn record_success(&mut self, cluster: ClusterId, edge: NodeId, latency: SimDuration) {
        if let Some(health) = self.health_mut(cluster, edge) {
            let sample = latency.as_micros() as f64;
            health.ewma_latency_us = Some(match health.ewma_latency_us {
                Some(prev) => prev + EWMA_ALPHA * (sample - prev),
                None => sample,
            });
            health.consecutive_failures = 0;
            health.successes += 1;
        }
    }

    /// A request to `edge` timed out (crash / partition / overload
    /// suspicion).
    pub fn record_failure(&mut self, cluster: ClusterId, edge: NodeId, now: SimTime) {
        if let Some(health) = self.health_mut(cluster, edge) {
            health.consecutive_failures += 1;
            health.failures += 1;
            if health.consecutive_failures >= FAILURE_THRESHOLD {
                health.demote(now);
            }
        }
    }

    /// A response from `edge` failed verification — cryptographic
    /// evidence of byzantine behaviour.
    pub fn record_rejection(&mut self, cluster: ClusterId, edge: NodeId, now: SimTime) {
        let threshold = self.config.rejection_threshold;
        if let Some(health) = self.health_mut(cluster, edge) {
            health.rejections += 1;
            health.total_rejections += 1;
            if health.rejections >= threshold {
                health.demote(now);
            }
        }
    }

    /// Demote a target on a *directory hint* (fleet-gossiped, verified
    /// rejection evidence observed by someone else) — the fleet-wide
    /// demotion path: a client shuns the edge before ever contacting
    /// it. Hints are not first-hand cryptographic evidence, so the
    /// demotion takes the ordinary cooldown (probation applies) and the
    /// target's own rejection counters are left untouched.
    pub fn demote_hint(&mut self, cluster: ClusterId, edge: NodeId, now: SimTime) {
        if let Some(health) = self.health_mut(cluster, edge) {
            if !health.is_demoted(now) {
                health.demote(now);
            }
        }
    }

    /// Health record for one target, if registered.
    pub fn health(&self, cluster: ClusterId, edge: NodeId) -> Option<&EdgeHealth> {
        self.targets
            .get(&cluster)?
            .iter()
            .find(|(n, _)| *n == edge)
            .map(|(_, h)| h)
    }

    /// Total demotions across all targets (harness metric).
    pub fn demotions(&self) -> u64 {
        self.targets
            .values()
            .flatten()
            .map(|(_, h)| h.demotions)
            .sum()
    }

    fn health_mut(&mut self, cluster: ClusterId, edge: NodeId) -> Option<&mut EdgeHealth> {
        self.targets
            .get_mut(&cluster)?
            .iter_mut()
            .find(|(n, _)| *n == edge)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::EdgeId;

    fn edge(i: u16) -> NodeId {
        NodeId::Edge(EdgeId::new(ClusterId(0), i))
    }

    fn selector() -> EdgeSelector {
        let mut s = EdgeSelector::new(EdgeSelectorConfig::default(), 0);
        s.register(ClusterId(0), edge(0));
        s.register(ClusterId(0), edge(1));
        s
    }

    #[test]
    fn picks_lower_latency_edge() {
        let mut s = selector();
        s.record_success(ClusterId(0), edge(0), SimDuration::from_millis(10));
        s.record_success(ClusterId(0), edge(1), SimDuration::from_millis(2));
        for _ in 0..4 {
            assert_eq!(s.pick(ClusterId(0), SimTime(0)), Some(edge(1)));
        }
    }

    #[test]
    fn ewma_tracks_latency_shifts() {
        let mut s = selector();
        s.record_success(ClusterId(0), edge(0), SimDuration::from_millis(2));
        // Edge 0 degrades; repeated slow samples push its EWMA past
        // edge 1's.
        s.record_success(ClusterId(0), edge(1), SimDuration::from_millis(5));
        for _ in 0..12 {
            s.record_success(ClusterId(0), edge(0), SimDuration::from_millis(20));
        }
        assert_eq!(s.pick(ClusterId(0), SimTime(0)), Some(edge(1)));
        let h = s.health(ClusterId(0), edge(0)).unwrap();
        assert!(h.ewma_latency_us.unwrap() > 15_000.0);
    }

    #[test]
    fn consecutive_failures_demote_and_cooldown_promotes() {
        let mut s = selector();
        s.record_success(ClusterId(0), edge(0), SimDuration::from_millis(1));
        s.record_success(ClusterId(0), edge(1), SimDuration::from_millis(9));
        let now = SimTime(1_000);
        for _ in 0..FAILURE_THRESHOLD {
            s.record_failure(ClusterId(0), edge(0), now);
        }
        let h = *s.health(ClusterId(0), edge(0)).unwrap();
        assert!(h.is_demoted(now));
        assert_eq!(h.demotions, 1);
        // Traffic fails over to the slower-but-alive edge.
        assert_eq!(s.pick(ClusterId(0), now), Some(edge(1)));
        // After the cooldown the edge gets a fresh chance.
        let later = now + COOLDOWN + SimDuration(1);
        assert_eq!(s.pick(ClusterId(0), later), Some(edge(0)));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut s = selector();
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        s.record_success(ClusterId(0), edge(0), SimDuration::from_millis(1));
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        assert!(!s
            .health(ClusterId(0), edge(0))
            .unwrap()
            .is_demoted(SimTime(0)));
    }

    #[test]
    fn byzantine_rejections_demote_fast() {
        // Default: one verified forgery is enough.
        let mut s = selector();
        let now = SimTime(500);
        s.record_rejection(ClusterId(0), edge(0), now);
        assert!(s.health(ClusterId(0), edge(0)).unwrap().is_demoted(now));
        assert_eq!(s.pick(ClusterId(0), now), Some(edge(1)));
        // A higher threshold tolerates that many strikes first.
        let mut lenient = EdgeSelector::new(
            EdgeSelectorConfig {
                rejection_threshold: 2,
            },
            0,
        );
        lenient.register(ClusterId(0), edge(0));
        lenient.record_rejection(ClusterId(0), edge(0), now);
        assert!(!lenient
            .health(ClusterId(0), edge(0))
            .unwrap()
            .is_demoted(now));
        lenient.record_rejection(ClusterId(0), edge(0), now);
        assert!(lenient
            .health(ClusterId(0), edge(0))
            .unwrap()
            .is_demoted(now));
    }

    #[test]
    fn all_demoted_falls_back_to_none() {
        let mut s = selector();
        let now = SimTime(0);
        for e in [edge(0), edge(1)] {
            s.record_rejection(ClusterId(0), e, now);
            s.record_rejection(ClusterId(0), e, now);
        }
        assert_eq!(s.pick(ClusterId(0), now), None);
    }

    #[test]
    fn fresh_targets_spread_by_seed() {
        let mut a = EdgeSelector::new(EdgeSelectorConfig::default(), 0);
        let mut b = EdgeSelector::new(EdgeSelectorConfig::default(), 1);
        for s in [&mut a, &mut b] {
            s.register(ClusterId(0), edge(0));
            s.register(ClusterId(0), edge(1));
        }
        // Different seeds start the scan at different candidates, so
        // unsampled (equal-score) edges split across clients.
        let pa = a.pick(ClusterId(0), SimTime(0)).unwrap();
        let pb = b.pick(ClusterId(0), SimTime(0)).unwrap();
        assert_ne!(pa, pb);
    }
}
