//! The per-node directory participant: signing, ingest verification,
//! local strikes, and the health queries built on the CRDT state.
//!
//! Every edge node (and every directory-enabled client) embeds one
//! [`DirectoryAgent`]. Each gossip round an edge pushes a
//! [`GossipDelta`] — records the peer's last summary says it lacks —
//! to one rotating peer (push-pull anti-entropy: the receiver answers
//! with the records *it* holds that beat the sender's summary, so a new
//! record still reaches the whole fleet in `O(log n)` expected rounds
//! while steady-state rounds carry summaries, not state); clients push
//! signed observations and rejection evidence after verification
//! failures and pull a full digest at startup to seed their
//! `EdgeSelector` warm.
//!
//! Ingest is where trust is enforced: observation signatures are
//! checked against the deployment's key directory, evidence is re-run
//! through the read verifier ([`SignedEvidence::verify`]), and a sender
//! shipping anything invalid is **struck** locally — its hints are
//! ignored from then on. Strikes are deliberately local (they cannot be
//! proven to third parties), which keeps the gossip layer itself
//! byzantine-tolerant without a reputation meta-protocol.

use std::collections::HashMap;

use transedge_common::{ClusterId, EdgeId, NodeId, SimTime};
use transedge_crypto::{KeyStore, Keypair};
use transedge_edge::{BatchCommitment, ReadQuery, ReadRejection, ReadResponse, ReadVerifier};

use crate::digest::{ObservationBody, SignedObservation, UNSAMPLED_LATENCY};
use crate::evidence::{is_cryptographic, EvidenceBody, SignedEvidence};
use crate::state::{DirectoryState, EdgeHint, StateSummary};

/// One gossip payload: a full-state digest. The CRDT merge keeps this
/// trivially idempotent; the wire protocol has since moved to
/// [`GossipDelta`] push-pull anti-entropy, but the full digest remains
/// the bootstrap payload (pulling a warm state at startup) and the
/// reference semantics the merge-law tests exercise.
#[derive(Clone, Debug)]
pub struct GossipDigest<H> {
    pub observations: Vec<SignedObservation>,
    pub evidence: Vec<SignedEvidence<H>>,
}

impl<H: BatchCommitment + Clone> GossipDigest<H> {
    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        8 + self
            .observations
            .iter()
            .map(|o| 72 + o.body.wire_size())
            .sum::<usize>()
            + self.evidence.iter().map(|e| e.wire_size()).sum::<usize>()
    }
}

/// One push-pull anti-entropy exchange leg: the records the sender
/// believes the receiver lacks, plus the sender's own [`StateSummary`]
/// so the receiver can answer with exactly the records the *sender*
/// lacks. Replies are only sent when non-empty, so an exchange
/// terminates after at most two legs: the reply's summary is computed
/// **post-merge**, so a counter-reply would necessarily be empty.
#[derive(Clone, Debug)]
pub struct GossipDelta<H> {
    /// The sender's post-merge state summary.
    pub summary: StateSummary,
    pub observations: Vec<SignedObservation>,
    pub evidence: Vec<SignedEvidence<H>>,
}

impl<H: BatchCommitment + Clone> GossipDelta<H> {
    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        8 + self.summary.wire_size()
            + self
                .observations
                .iter()
                .map(|o| 72 + o.body.wire_size())
                .sum::<usize>()
            + self.evidence.iter().map(|e| e.wire_size()).sum::<usize>()
    }

    /// Carries no records (summaries alone are not worth a reply).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty() && self.evidence.is_empty()
    }
}

/// What one [`DirectoryAgent::ingest`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    pub observations_accepted: u64,
    pub observations_rejected: u64,
    pub evidence_accepted: u64,
    pub evidence_rejected: u64,
}

impl IngestReport {
    /// Anything invalid in the payload (the sender gets struck)?
    pub fn rejected(&self) -> u64 {
        self.observations_rejected + self.evidence_rejected
    }
}

/// Lifetime counters for harnesses and benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectoryStats {
    pub gossip_ingested: u64,
    pub observations_accepted: u64,
    pub observations_rejected: u64,
    pub evidence_accepted: u64,
    pub evidence_rejected: u64,
    pub senders_struck: u64,
    /// Delta (push-pull) payloads ingested.
    pub deltas_ingested: u64,
    /// Ingested deltas that warranted a non-empty pull reply.
    pub delta_replies_sent: u64,
    /// Records shipped in outgoing deltas (vs. what a full digest
    /// would have carried — the bandwidth win the benches report).
    pub delta_records_sent: u64,
}

impl transedge_obs::RegisterMetrics for DirectoryStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "directory.gossip_ingested", self.gossip_ingested);
        reg.counter(
            scope,
            "directory.observations_accepted",
            self.observations_accepted,
        );
        reg.counter(
            scope,
            "directory.observations_rejected",
            self.observations_rejected,
        );
        reg.counter(scope, "directory.evidence_accepted", self.evidence_accepted);
        reg.counter(scope, "directory.evidence_rejected", self.evidence_rejected);
        reg.counter(scope, "directory.senders_struck", self.senders_struck);
        reg.counter(scope, "directory.deltas_ingested", self.deltas_ingested);
        reg.counter(
            scope,
            "directory.delta_replies_sent",
            self.delta_replies_sent,
        );
        reg.counter(
            scope,
            "directory.delta_records_sent",
            self.delta_records_sent,
        );
    }
}

/// The per-node directory participant. See module docs.
pub struct DirectoryAgent<H> {
    me: NodeId,
    keypair: Keypair,
    verifier: ReadVerifier,
    state: DirectoryState<H>,
    /// Own per-subject observation sequence numbers.
    seqs: HashMap<EdgeId, u64>,
    /// Local (unprovable, ungossiped) strikes against gossip senders
    /// that shipped invalid material.
    strikes: HashMap<NodeId, u64>,
    /// When *this* agent first learned of verified evidence per edge —
    /// the propagation clock the benches read.
    learned_at: HashMap<EdgeId, SimTime>,
    /// Last summary each peer shipped us — what we believe they hold,
    /// used to size the next delta we push them. Purely an
    /// optimisation: a stale entry costs redundant records (the merge
    /// drops them), never missed ones.
    peer_known: HashMap<NodeId, StateSummary>,
    pub stats: DirectoryStats,
}

impl<H: BatchCommitment + Clone> DirectoryAgent<H> {
    pub fn new(me: NodeId, keypair: Keypair, verifier: ReadVerifier) -> Self {
        DirectoryAgent {
            me,
            keypair,
            verifier,
            state: DirectoryState::new(),
            seqs: HashMap::new(),
            strikes: HashMap::new(),
            learned_at: HashMap::new(),
            peer_known: HashMap::new(),
            stats: DirectoryStats::default(),
        }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub fn state(&self) -> &DirectoryState<H> {
        &self.state
    }

    /// Record (and sign) this node's current view of `subject`.
    pub fn observe(
        &mut self,
        subject: EdgeId,
        ewma_latency_us: Option<f64>,
        successes: u64,
        failures: u64,
        rejections: u64,
        now: SimTime,
    ) {
        let seq = self.seqs.entry(subject).or_insert(0);
        *seq += 1;
        let body = ObservationBody {
            subject,
            seq: *seq,
            ewma_latency_us: ewma_latency_us
                .map(|l| l.max(0.0) as u64)
                .unwrap_or(UNSAMPLED_LATENCY),
            successes,
            failures,
            rejections,
            observed_at: now,
        };
        let signed = SignedObservation::sign(self.me, body, &self.keypair);
        self.state.admit_observation(signed);
    }

    /// Turn a verification failure into signed, attached-proof evidence
    /// and admit it locally. Returns `false` (and records nothing) for
    /// non-cryptographic rejections — those are circumstance, not
    /// proof, and gossiping them would only hand receivers something to
    /// strike us for.
    pub fn witness(
        &mut self,
        subject: EdgeId,
        cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        rejection: &ReadRejection,
        now: SimTime,
    ) -> bool {
        if !is_cryptographic(rejection) {
            return false;
        }
        // Prefix-resume rejections are not relayable: re-verification
        // needs the witness's held rows, which receivers don't have —
        // the record would be dropped (and us struck) at every hop.
        // The witness still demotes the edge locally.
        if query.prefix.is_some() {
            return false;
        }
        let body = EvidenceBody {
            subject,
            cluster,
            query: query.clone(),
            response: response.clone(),
            observed_at: now,
        };
        let signed = SignedEvidence::sign(self.me, body, &self.keypair);
        if self.state.admit_evidence(signed) {
            self.learned_at.entry(subject).or_insert(now);
        }
        true
    }

    /// Verify and merge a gossip payload from `from`. Invalid items are
    /// dropped and the sender is struck (its hints are ignored from now
    /// on); valid items join the CRDT state.
    pub fn ingest(
        &mut self,
        from: NodeId,
        digest: &GossipDigest<H>,
        keys: &KeyStore,
        now: SimTime,
    ) -> IngestReport {
        self.stats.gossip_ingested += 1;
        let report = self.verify_and_admit(&digest.observations, &digest.evidence, keys, now);
        if report.rejected() > 0 {
            self.strike(from);
        }
        report
    }

    /// Verify and merge one anti-entropy **delta** leg from `from`.
    /// Verification is identical to [`DirectoryAgent::ingest`] — a
    /// delta is just a smaller payload, not a weaker one. The sender's
    /// summary is remembered (to size the next delta we push them), and
    /// the pull half of the exchange is returned: the records *we* hold
    /// that beat the sender's summary, computed **after** the merge so
    /// a counter-reply would be empty and the exchange terminates.
    /// `None` means nothing to send back.
    pub fn ingest_delta(
        &mut self,
        from: NodeId,
        delta: &GossipDelta<H>,
        keys: &KeyStore,
        now: SimTime,
    ) -> (IngestReport, Option<GossipDelta<H>>) {
        self.stats.gossip_ingested += 1;
        self.stats.deltas_ingested += 1;
        let report = self.verify_and_admit(&delta.observations, &delta.evidence, keys, now);
        if report.rejected() > 0 {
            self.strike(from);
        }
        self.peer_known.insert(from, delta.summary.clone());
        let (observations, evidence) = self.state.records_beating(&delta.summary);
        if observations.is_empty() && evidence.is_empty() {
            return (report, None);
        }
        self.stats.delta_replies_sent += 1;
        self.stats.delta_records_sent += (observations.len() + evidence.len()) as u64;
        let reply = GossipDelta {
            summary: self.state.summary(),
            observations,
            evidence,
        };
        (report, Some(reply))
    }

    fn verify_and_admit(
        &mut self,
        observations: &[SignedObservation],
        evidence: &[SignedEvidence<H>],
        keys: &KeyStore,
        now: SimTime,
    ) -> IngestReport {
        let mut report = IngestReport::default();
        for obs in observations {
            if obs.verify(keys) {
                self.state.admit_observation(obs.clone());
                report.observations_accepted += 1;
            } else {
                report.observations_rejected += 1;
            }
        }
        for ev in evidence {
            if ev.verify(keys, &self.verifier).is_some() {
                let subject = ev.body.subject;
                if self.state.admit_evidence(ev.clone()) {
                    self.learned_at.entry(subject).or_insert(now);
                }
                report.evidence_accepted += 1;
            } else {
                report.evidence_rejected += 1;
            }
        }
        self.stats.observations_accepted += report.observations_accepted;
        self.stats.observations_rejected += report.observations_rejected;
        self.stats.evidence_accepted += report.evidence_accepted;
        self.stats.evidence_rejected += report.evidence_rejected;
        report
    }

    /// The full-state gossip payload (bootstrap pulls and tests).
    pub fn digest(&self) -> GossipDigest<H> {
        GossipDigest {
            observations: self.state.observations().cloned().collect(),
            evidence: self.state.evidence().cloned().collect(),
        }
    }

    /// The push leg of a delta exchange toward `peer`: every record
    /// that beats the last summary `peer` shipped us (everything, for a
    /// peer we have never heard from), plus our own summary so the peer
    /// can pull what we lack.
    pub fn delta_for(&mut self, peer: NodeId) -> GossipDelta<H> {
        let (observations, evidence) = match self.peer_known.get(&peer) {
            Some(known) => self.state.records_beating(known),
            None => (
                self.state.observations().cloned().collect(),
                self.state.evidence().cloned().collect(),
            ),
        };
        self.stats.delta_records_sent += (observations.len() + evidence.len()) as u64;
        GossipDelta {
            summary: self.state.summary(),
            observations,
            evidence,
        }
    }

    /// Strike a gossip sender: its hints are ignored locally from now
    /// on. Deliberately unprovable and ungossiped.
    pub fn strike(&mut self, node: NodeId) {
        if node == self.me {
            return;
        }
        *self.strikes.entry(node).or_insert(0) += 1;
        self.stats.senders_struck += 1;
    }

    pub fn struck(&self, node: NodeId) -> bool {
        self.strikes.contains_key(&node)
    }

    /// Verified rejection evidence against `edge` is known here.
    pub fn knows_byzantine(&self, edge: EdgeId) -> bool {
        self.state.evidence_for(edge).is_some()
    }

    /// When this agent first learned of evidence against `edge`.
    pub fn learned_at(&self, edge: EdgeId) -> Option<SimTime> {
        self.learned_at.get(&edge).copied()
    }

    /// Every edge this agent holds verified rejection evidence against
    /// (sorted — what scenario invariant monitors diff across the
    /// fleet to observe demotion convergence).
    pub fn convicted_edges(&self) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self.state.evidence().map(|e| e.body.subject).collect();
        edges.sort();
        edges
    }

    /// Aggregated hints, with locally-struck edges marked byzantine too
    /// (we cannot prove their gossip forgeries to others, but we need
    /// not route through them ourselves).
    pub fn hints(&self) -> Vec<EdgeHint> {
        let mut hints = self.state.hints();
        for hint in &mut hints {
            if self.struck(NodeId::Edge(hint.edge)) {
                hint.byzantine = true;
            }
        }
        hints
    }
}
