//! The directory CRDT: a join-semilattice of evidence records.
//!
//! Merge is **idempotent, commutative, and associative** — the three
//! laws that make an anti-entropy epidemic protocol converge regardless
//! of delivery order, duplication, or topology. Evidence joins per
//! subject by a deterministic total order (earliest observation, then
//! content digest): every replica keeps the *same* single record per
//! byzantine edge, bounding state at one record per edge while staying
//! order-independent.
//!
//! Validation (signature, evidence re-verification) happens **before**
//! admission, in [`crate::agent::DirectoryAgent::ingest_delta`]; the
//! state itself is a purely syntactic join, which is what the merge-law
//! property tests exercise.

use std::collections::HashMap;

use transedge_common::EdgeId;
use transedge_crypto::Digest;
use transedge_edge::BatchCommitment;

use crate::evidence::SignedEvidence;

/// A record-free description of what a state already holds: the rank of
/// each held evidence record. Peers ship summaries beside records so an
/// anti-entropy exchange carries only records that **beat** the other
/// side's summary — a delta, not the full state. A summary is pure
/// bookkeeping: it claims nothing verifiable, so a lying summary can
/// only cost its sender records it pretended to already hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateSummary {
    /// subject → held evidence record's rank.
    pub evidence: HashMap<EdgeId, (u64, Digest)>,
}

impl StateSummary {
    /// Wire-size estimate for the simulator's bandwidth model: a count,
    /// then per entry an 8-byte key + 40-byte rank.
    pub fn wire_size(&self) -> usize {
        8 + self.evidence.len() * 48
    }
}

/// The mergeable directory state. See module docs for the join rule.
#[derive(Clone, Debug, Default)]
pub struct DirectoryState<H> {
    /// subject → the deterministic winning evidence record.
    evidence: HashMap<EdgeId, SignedEvidence<H>>,
}

impl<H: BatchCommitment + Clone> DirectoryState<H> {
    pub fn new() -> Self {
        DirectoryState {
            evidence: HashMap::new(),
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
        for ev in other.evidence.values() {
            if self.admit_evidence(ev.clone()) {
                changed += 1;
            }
        }
        changed
    }

    /// Summarise the held records — ranks only, no bodies.
    pub fn summary(&self) -> StateSummary {
        StateSummary {
            evidence: self.evidence.iter().map(|(k, e)| (*k, e.rank())).collect(),
        }
    }

    /// The records this state holds that would **win** the CRDT join
    /// against a peer holding `summary` — exactly what an anti-entropy
    /// delta must carry, and nothing else. Sorted for deterministic
    /// payloads.
    pub fn records_beating(&self, summary: &StateSummary) -> Vec<SignedEvidence<H>> {
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
        ev
    }

    pub fn evidence(&self) -> impl Iterator<Item = &SignedEvidence<H>> {
        self.evidence.values()
    }

    /// The winning evidence record against `edge`, if any.
    pub fn evidence_for(&self, edge: EdgeId) -> Option<&SignedEvidence<H>> {
        self.evidence.get(&edge)
    }

    pub fn evidence_count(&self) -> usize {
        self.evidence.len()
    }

    /// Canonical fingerprint of the state: order-independent fold of
    /// record ranks. Two states with equal fingerprints hold the same
    /// records — what the convergence property tests compare.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0;
        for e in self.evidence.values() {
            let (_, d) = e.rank();
            acc ^= u64::from_le_bytes(d.0[..8].try_into().unwrap());
        }
        acc
    }
}
