//! The directory CRDT: a join-semilattice of signed observations and
//! evidence records.
//!
//! Merge is **idempotent, commutative, and associative** — the three
//! laws that make an anti-entropy epidemic protocol converge regardless
//! of delivery order, duplication, or topology:
//!
//! * observations join per `(observer, subject)` key by `(seq, content
//!   rank)` — a last-writer-wins register with a deterministic
//!   tie-break, so even an equivocating observer cannot split the
//!   fleet;
//! * evidence joins per subject by a deterministic total order
//!   (earliest observation, then content digest) — every replica keeps
//!   the *same* single record per byzantine edge, bounding state while
//!   staying order-independent.
//!
//! Validation (signatures, evidence re-verification) happens **before**
//! admission, in [`crate::agent::DirectoryAgent::ingest`]; the state
//! itself is a purely syntactic join, which is what the merge-law
//! property tests exercise.

use std::collections::HashMap;

use transedge_common::{ClusterId, EdgeId, NodeId};
use transedge_crypto::Digest;
use transedge_edge::BatchCommitment;

use crate::digest::{SignedObservation, UNSAMPLED_LATENCY};
use crate::evidence::SignedEvidence;

/// A record-free description of what a state already holds: the
/// `(seq, rank)` version of each held observation and the rank of each
/// held evidence record. Peers ship summaries ahead of records so an
/// anti-entropy exchange carries only records that **beat** the other
/// side's summary — a delta, not the full state. A summary is pure
/// bookkeeping: it claims nothing verifiable, so a lying summary can
/// only cost its sender records it pretended to already hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateSummary {
    /// `(observer, subject)` → held observation's `(seq, rank)`.
    pub observations: HashMap<(NodeId, EdgeId), (u64, Digest)>,
    /// subject → held evidence record's rank.
    pub evidence: HashMap<EdgeId, (u64, Digest)>,
}

impl StateSummary {
    /// Wire-size estimate for the simulator's bandwidth model: per
    /// observation entry a 16-byte key + 8-byte seq + 32-byte rank, per
    /// evidence entry an 8-byte key + 40-byte rank, plus two counts.
    pub fn wire_size(&self) -> usize {
        16 + self.observations.len() * 56 + self.evidence.len() * 48
    }
}

/// One edge's aggregated standing, as derived from the directory — the
/// hint record routing layers consume.
#[derive(Clone, Debug)]
pub struct EdgeHint {
    pub edge: EdgeId,
    /// Partition the edge fronts.
    pub cluster: ClusterId,
    /// Mean of the observers' EWMA latencies, µs (None until sampled).
    pub latency_us: Option<f64>,
    /// Verified rejection evidence exists: routing should shun it.
    pub byzantine: bool,
    /// Total failures reported across observers (ranking penalty).
    pub failures: u64,
}

/// The mergeable directory state. See module docs for the join rules.
#[derive(Clone, Debug, Default)]
pub struct DirectoryState<H> {
    /// `(observer, subject)` → newest signed observation.
    observations: HashMap<(NodeId, EdgeId), SignedObservation>,
    /// subject → the deterministic winning evidence record.
    evidence: HashMap<EdgeId, SignedEvidence<H>>,
}

impl<H: BatchCommitment + Clone> DirectoryState<H> {
    pub fn new() -> Self {
        DirectoryState {
            observations: HashMap::new(),
            evidence: HashMap::new(),
        }
    }

    /// Join one observation in; returns whether the state changed.
    pub fn admit_observation(&mut self, obs: SignedObservation) -> bool {
        let key = (obs.observer, obs.body.subject);
        match self.observations.get(&key) {
            Some(current) => {
                let newer = (obs.body.seq, obs.rank()) > (current.body.seq, current.rank());
                if newer {
                    self.observations.insert(key, obs);
                }
                newer
            }
            None => {
                self.observations.insert(key, obs);
                true
            }
        }
    }

    /// Join one evidence record in; returns whether the state changed.
    pub fn admit_evidence(&mut self, ev: SignedEvidence<H>) -> bool {
        let key = ev.body.subject;
        match self.evidence.get(&key) {
            Some(current) => {
                // Deterministic winner: the *smallest* rank, so every
                // replica converges on the same record per subject.
                let wins = ev.rank() < current.rank();
                if wins {
                    self.evidence.insert(key, ev);
                }
                wins
            }
            None => {
                self.evidence.insert(key, ev);
                true
            }
        }
    }

    /// The CRDT join: fold every record of `other` in. Returns how many
    /// records changed (0 ⇒ `other` carried nothing new — the signal
    /// anti-entropy uses to stop).
    pub fn merge(&mut self, other: &DirectoryState<H>) -> usize {
        let mut changed = 0;
        for obs in other.observations.values() {
            if self.admit_observation(obs.clone()) {
                changed += 1;
            }
        }
        for ev in other.evidence.values() {
            if self.admit_evidence(ev.clone()) {
                changed += 1;
            }
        }
        changed
    }

    /// Summarise the held records — versions and ranks only, no bodies.
    pub fn summary(&self) -> StateSummary {
        StateSummary {
            observations: self
                .observations
                .iter()
                .map(|(k, o)| (*k, (o.body.seq, o.rank())))
                .collect(),
            evidence: self.evidence.iter().map(|(k, e)| (*k, e.rank())).collect(),
        }
    }

    /// The records this state holds that would **win** the CRDT join
    /// against a peer holding `summary` — exactly what an anti-entropy
    /// delta must carry, and nothing else. Sorted for deterministic
    /// payloads.
    pub fn records_beating(
        &self,
        summary: &StateSummary,
    ) -> (Vec<SignedObservation>, Vec<SignedEvidence<H>>) {
        let mut obs: Vec<SignedObservation> = self
            .observations
            .iter()
            .filter(|(k, o)| match summary.observations.get(k) {
                Some(theirs) => (o.body.seq, o.rank()) > *theirs,
                None => true,
            })
            .map(|(_, o)| o.clone())
            .collect();
        obs.sort_by_key(|o| (o.observer, o.body.subject));
        let mut ev: Vec<SignedEvidence<H>> = self
            .evidence
            .iter()
            .filter(|(k, e)| match summary.evidence.get(k) {
                // Evidence joins by *smallest* rank, so ours beats
                // theirs when it sorts strictly below.
                Some(theirs) => e.rank() < *theirs,
                None => true,
            })
            .map(|(_, e)| e.clone())
            .collect();
        ev.sort_by_key(|e| e.body.subject);
        (obs, ev)
    }

    pub fn observations(&self) -> impl Iterator<Item = &SignedObservation> {
        self.observations.values()
    }

    pub fn evidence(&self) -> impl Iterator<Item = &SignedEvidence<H>> {
        self.evidence.values()
    }

    /// The winning evidence record against `edge`, if any.
    pub fn evidence_for(&self, edge: EdgeId) -> Option<&SignedEvidence<H>> {
        self.evidence.get(&edge)
    }

    pub fn observation_count(&self) -> usize {
        self.observations.len()
    }

    pub fn evidence_count(&self) -> usize {
        self.evidence.len()
    }

    /// Canonical fingerprint of the state: order-independent fold of
    /// record ranks. Two states with equal fingerprints hold the same
    /// records — what the convergence property tests compare.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut obs_acc: u64 = 0;
        for o in self.observations.values() {
            let r = o.rank();
            obs_acc ^= u64::from_le_bytes(r.0[..8].try_into().unwrap());
        }
        let mut ev_acc: u64 = 0;
        for e in self.evidence.values() {
            let (_, d) = e.rank();
            ev_acc ^= u64::from_le_bytes(d.0[..8].try_into().unwrap());
        }
        (obs_acc, ev_acc)
    }

    /// Aggregate the per-observer records into one hint per edge.
    pub fn hints(&self) -> Vec<EdgeHint> {
        let mut by_edge: HashMap<EdgeId, (Vec<f64>, u64)> = HashMap::new();
        for obs in self.observations.values() {
            let entry = by_edge.entry(obs.body.subject).or_default();
            if obs.body.ewma_latency_us != UNSAMPLED_LATENCY {
                entry.0.push(obs.body.ewma_latency_us as f64);
            }
            entry.1 += obs.body.failures;
        }
        for subject in self.evidence.keys() {
            by_edge.entry(*subject).or_default();
        }
        let mut hints: Vec<EdgeHint> = by_edge
            .into_iter()
            .map(|(edge, (lats, failures))| EdgeHint {
                edge,
                cluster: edge.cluster,
                latency_us: if lats.is_empty() {
                    None
                } else {
                    Some(lats.iter().sum::<f64>() / lats.len() as f64)
                },
                byzantine: self.evidence.contains_key(&edge),
                failures,
            })
            .collect();
        hints.sort_by_key(|h| h.edge);
        hints
    }
}
