//! The per-node directory participant: signing, ingest verification,
//! local strikes, and the conviction queries built on the CRDT state.
//!
//! Every edge node (and every directory-enabled client) embeds one
//! [`DirectoryAgent`], and all of them speak one payload, the
//! [`GossipDelta`]. Each gossip round an edge pushes one — the records
//! the peer's last summary says it lacks — to one rotating peer
//! (push-pull anti-entropy: the receiver answers with the records *it*
//! holds that beat the sender's summary, so a new record still reaches
//! the whole fleet in `O(log n)` expected rounds while steady-state
//! rounds carry summaries, not state). A client is a leaf of the same
//! exchange: it pushes a delta holding the evidence it just witnessed,
//! ingests the one an edge answers its startup pull with (to demote
//! convicted edges before first contact) and any pull-half reply, and
//! never answers back.
//!
//! Ingest is where trust is enforced: every record's signature is
//! checked against the deployment's key directory and its attached
//! response is re-run through the read verifier
//! ([`SignedEvidence::verify`]), and a sender shipping anything invalid
//! is **struck** locally — its hints are ignored from then on. Strikes
//! are deliberately local (they cannot be proven to third parties),
//! which keeps the gossip layer itself byzantine-tolerant without a
//! reputation meta-protocol.

use std::collections::HashMap;

use transedge_common::{ClusterId, EdgeId, NodeId, SimTime};
use transedge_crypto::{KeyStore, Keypair};
use transedge_edge::{ReadQuery, ReadRejection, ReadResponse, ReadVerifier};

use crate::evidence::{is_cryptographic, EvidenceBody, SignedEvidence};
use crate::state::{DirectoryState, StateSummary};

/// The one gossip payload — a push-pull anti-entropy exchange leg: the
/// records the sender believes the receiver lacks, plus the sender's
/// own [`StateSummary`] so the receiver can answer with exactly the
/// records the *sender* lacks. Between edges replies are only sent when
/// non-empty, so an exchange terminates after at most two legs: the
/// reply's summary is computed **post-merge**, so a counter-reply would
/// necessarily be empty.
#[derive(Clone, Debug)]
pub struct GossipDelta {
    /// The sender's post-merge state summary.
    pub summary: StateSummary,
    pub evidence: Vec<SignedEvidence>,
}

impl GossipDelta {
    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        8 + self.summary.wire_size() + self.evidence.iter().map(|e| e.wire_size()).sum::<usize>()
    }
}

/// What one [`DirectoryAgent::ingest_delta`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    pub evidence_accepted: u64,
    /// Records that failed their check (any at all strikes the sender).
    pub evidence_rejected: u64,
}

/// Lifetime counters for harnesses and benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectoryStats {
    /// Delta payloads ingested.
    pub gossip_ingested: u64,
    pub evidence_accepted: u64,
    pub evidence_rejected: u64,
    pub senders_struck: u64,
    /// Ingested deltas that warranted a non-empty pull reply.
    pub delta_replies_sent: u64,
    /// Records shipped in outgoing deltas.
    pub delta_records_sent: u64,
}

impl transedge_obs::RegisterMetrics for DirectoryStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "directory.gossip_ingested", self.gossip_ingested);
        reg.counter(scope, "directory.evidence_accepted", self.evidence_accepted);
        reg.counter(scope, "directory.evidence_rejected", self.evidence_rejected);
        reg.counter(scope, "directory.senders_struck", self.senders_struck);
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
pub struct DirectoryAgent {
    me: NodeId,
    keypair: Keypair,
    verifier: ReadVerifier,
    state: DirectoryState,
    /// Local (unprovable, ungossiped) strikes against gossip senders
    /// that shipped invalid material.
    strikes: HashMap<NodeId, u64>,
    /// When *this* agent first learned of verified evidence per edge —
    /// the propagation clock the benches read.
    learned_at: HashMap<EdgeId, SimTime>,
    /// Last summary each **edge** peer shipped us — what we believe it
    /// holds, used to size the next delta we push it. Edges only: they
    /// are the peers a delta is pushed to round after round, and a
    /// client's summary would be one more entry per client that nothing
    /// ever reads again. An entry that understates the peer costs
    /// redundant records (the merge drops them). One that overstates it
    /// — the peer restarted empty — makes our pushes skip records it
    /// lacks; that heals only because the peer's own next push carries
    /// its real summary, which replaces the entry and draws the missing
    /// records as the pull half.
    peer_known: HashMap<NodeId, StateSummary>,
    pub stats: DirectoryStats,
}

impl DirectoryAgent {
    pub fn new(me: NodeId, keypair: Keypair, verifier: ReadVerifier) -> Self {
        DirectoryAgent {
            me,
            keypair,
            verifier,
            state: DirectoryState::default(),
            strikes: HashMap::new(),
            learned_at: HashMap::new(),
            peer_known: HashMap::new(),
            stats: DirectoryStats::default(),
        }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub fn state(&self) -> &DirectoryState {
        &self.state
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
        response: &ReadResponse,
        rejection: &ReadRejection,
        now: SimTime,
    ) -> bool {
        if !is_cryptographic(rejection) {
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

    /// Verify and merge one delta leg from `from` — the only way a
    /// record enters from outside. Every record is checked in full
    /// ([`SignedEvidence::verify`]); invalid ones are dropped and the
    /// sender is struck. An edge sender's summary is remembered (to
    /// size the next delta we push it), and the pull half of the
    /// exchange is returned: the records *we* hold that beat the
    /// sender's summary, computed **after** the merge so a
    /// counter-reply would be empty and the exchange terminates.
    /// `None` means nothing to send back.
    pub fn ingest_delta(
        &mut self,
        from: NodeId,
        delta: &GossipDelta,
        keys: &KeyStore,
        now: SimTime,
    ) -> (IngestReport, Option<GossipDelta>) {
        self.stats.gossip_ingested += 1;
        let mut report = IngestReport::default();
        for ev in &delta.evidence {
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
        self.stats.evidence_accepted += report.evidence_accepted;
        self.stats.evidence_rejected += report.evidence_rejected;
        if report.evidence_rejected > 0 {
            self.strike(from);
        }
        if matches!(from, NodeId::Edge(_)) {
            self.peer_known.insert(from, delta.summary.clone());
        }
        let evidence = self.state.records_beating(&delta.summary);
        if evidence.is_empty() {
            return (report, None);
        }
        self.stats.delta_replies_sent += 1;
        self.stats.delta_records_sent += evidence.len() as u64;
        let reply = GossipDelta {
            summary: self.state.summary(),
            evidence,
        };
        (report, Some(reply))
    }

    /// A delta toward `peer` — an edge's push leg, a client's evidence
    /// push, the answer to a client's startup pull: every record that
    /// beats the last summary `peer` shipped us (everything, for a peer
    /// whose summary we do not hold), plus our own summary so the peer
    /// can pull what we lack.
    pub fn delta_for(&mut self, peer: NodeId) -> GossipDelta {
        let nothing = StateSummary::default();
        let known = self.peer_known.get(&peer).unwrap_or(&nothing);
        let evidence = self.state.records_beating(known);
        self.stats.delta_records_sent += evidence.len() as u64;
        GossipDelta {
            summary: self.state.summary(),
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
}
