//! Client→edge selection for the read-only path: a demotion table.
//!
//! A pinned edge per partition per client would waste the edge tier in
//! exactly the situations it exists for: a crashed edge keeps its
//! clients, and a byzantine edge keeps receiving traffic even after
//! the verifier has caught it lying. The [`EdgeSelector`] keeps each
//! partition's candidates in registration order and hands out the
//! first one it has not demoted, starting from a rotating offset:
//!
//! * consecutive timeouts demote an edge for a cooldown (crash/partition
//!   suspicion — it may come back);
//! * one verified byzantine rejection demotes it at once (a forged
//!   proof is cryptographic evidence, not a hunch), and so does a
//!   directory hint — someone else's verified evidence;
//! * when every edge of a partition is demoted, the selector returns
//!   `None` and the caller falls back to real replicas, so a fully
//!   byzantine edge tier degrades throughput, never correctness or
//!   liveness.
//!
//! Healthy candidates are picked, not ranked: the latency model puts
//! every edge of a partition at the same distance from every client,
//! so there is nothing to rank them by. The selector is client-local
//! state (each client learns from its own traffic), deterministic, and
//! cheap: one small `Vec` per partition.

use std::collections::HashMap;

use transedge_common::{ClusterId, NodeId, SimDuration, SimTime};

/// Consecutive timeouts before an edge is demoted.
pub const FAILURE_THRESHOLD: u32 = 3;
/// How long a demoted edge is shunned before it gets another chance
/// (its counters reset — probation, not forgiveness: the thresholds
/// apply afresh).
const COOLDOWN: SimDuration = SimDuration::from_secs(5);

/// Health record per edge target; exposed so harnesses and tests can
/// assert routing behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeHealth {
    pub consecutive_failures: u32,
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
    }

    /// Clear an expired demotion (probation: counters start over).
    fn maybe_promote(&mut self, now: SimTime) {
        if self.demoted_until.is_some_and(|until| until <= now) {
            self.demoted_until = None;
        }
    }
}

/// The per-partition demotion table. See module docs.
#[derive(Clone, Debug)]
pub struct EdgeSelector {
    /// Per partition: candidate edges in registration order.
    targets: HashMap<ClusterId, Vec<(NodeId, EdgeHealth)>>,
    /// Where the next pick starts its walk. Seeded by client id and
    /// advanced per pick, so a fleet of clients spreads over the edge
    /// tier instead of stampeding one node.
    preference: u64,
}

impl EdgeSelector {
    pub fn new(seed: u64) -> Self {
        EdgeSelector {
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

    /// The first edge of `cluster` not demoted, walking from the
    /// rotating offset, or `None` when every candidate is demoted
    /// (callers then fall back to replicas).
    pub fn pick(&mut self, cluster: ClusterId, now: SimTime) -> Option<NodeId> {
        let entries = self.targets.get_mut(&cluster)?;
        for (_, health) in entries.iter_mut() {
            health.maybe_promote(now);
        }
        let n = entries.len();
        if n == 0 {
            return None;
        }
        let start = (self.preference % n as u64) as usize;
        self.preference = self.preference.wrapping_add(1);
        (0..n)
            .map(|i| &entries[(start + i) % n])
            .find(|(_, health)| !health.is_demoted(now))
            .map(|(node, _)| *node)
    }

    /// A verified response came back from `edge`.
    pub fn record_success(&mut self, cluster: ClusterId, edge: NodeId) {
        if let Some(health) = self.health_mut(cluster, edge) {
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
    /// evidence of byzantine behaviour, not a hunch like a timeout: one
    /// strike demotes.
    pub fn record_rejection(&mut self, cluster: ClusterId, edge: NodeId, now: SimTime) {
        if let Some(health) = self.health_mut(cluster, edge) {
            health.total_rejections += 1;
            health.demote(now);
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
        let mut s = EdgeSelector::new(0);
        s.register(ClusterId(0), edge(0));
        s.register(ClusterId(0), edge(1));
        s
    }

    #[test]
    fn consecutive_failures_demote_and_cooldown_promotes() {
        let mut s = selector();
        let now = SimTime(1_000);
        for _ in 0..FAILURE_THRESHOLD {
            s.record_failure(ClusterId(0), edge(0), now);
        }
        let h = *s.health(ClusterId(0), edge(0)).unwrap();
        assert!(h.is_demoted(now));
        assert_eq!(h.demotions, 1);
        // Every pick lands on the live edge, wherever the rotation
        // starts its walk.
        for _ in 0..4 {
            assert_eq!(s.pick(ClusterId(0), now), Some(edge(1)));
        }
        // After the cooldown the edge is back in the rotation.
        let later = now + COOLDOWN + SimDuration(1);
        let picks = [s.pick(ClusterId(0), later), s.pick(ClusterId(0), later)];
        assert!(picks.contains(&Some(edge(0))) && picks.contains(&Some(edge(1))));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut s = selector();
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        s.record_success(ClusterId(0), edge(0));
        s.record_failure(ClusterId(0), edge(0), SimTime(0));
        assert!(!s
            .health(ClusterId(0), edge(0))
            .unwrap()
            .is_demoted(SimTime(0)));
    }

    #[test]
    fn byzantine_rejections_demote_fast() {
        // One verified forgery is enough.
        let mut s = selector();
        let now = SimTime(500);
        s.record_rejection(ClusterId(0), edge(0), now);
        assert!(s.health(ClusterId(0), edge(0)).unwrap().is_demoted(now));
        assert_eq!(s.pick(ClusterId(0), now), Some(edge(1)));
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
        let mut a = EdgeSelector::new(0);
        let mut b = EdgeSelector::new(1);
        for s in [&mut a, &mut b] {
            s.register(ClusterId(0), edge(0));
            s.register(ClusterId(0), edge(1));
        }
        // Different seeds start the walk at different candidates, so
        // healthy edges split across clients.
        let pa = a.pick(ClusterId(0), SimTime(0)).unwrap();
        let pb = b.pick(ClusterId(0), SimTime(0)).unwrap();
        assert_ne!(pa, pb);
    }
}
