//! Every message that crosses the simulated network in a TransEdge
//! deployment.

use std::sync::Arc;

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, TxnId, Value};
use transedge_consensus::{BftMsg, Certificate};
use transedge_crypto::Signature;
use transedge_edge::{
    persist::object_size, CertifiedDelta, MultiProofBundle, QueryShape, ReadQuery, ReadResponse,
    ScanBundle, SnapshotObject,
};
use transedge_simnet::SimMessage;

use crate::batch::{Batch, BatchHeader, CommittedHeader, Transaction};
use crate::records::{SignedCommit, SignedPrepared};

/// A complete proof-carrying range-scan response: certified header,
/// consensus certificate, and the completeness-proven window.
pub type RotScanBundle = ScanBundle<CommittedHeader>;

/// One point-read section: certified header, consensus certificate,
/// and one Merkle multiproof over the section's keys — the only shape
/// a point answer travels, is cached, and is stored in.
pub type RotSection = MultiProofBundle<CommittedHeader>;

/// One certified commit-feed entry: a batch's certified header plus the
/// sorted changed-key set whose digest the header (and therefore the
/// `f+1` certificate) covers. What replicas push to feed subscribers.
pub type RotDelta = CertifiedDelta<CommittedHeader>;

/// One durable snapshot object on the wire: a proof-carrying response
/// body, offered by a warm edge to a cold sibling during restart
/// state-transfer. The receiver treats it exactly like a response from
/// an untrusted node — verified end to end before admission.
pub type RotSnapshot = SnapshotObject<CommittedHeader>;

/// A participant's 2PC vote returned to the coordinator (§3.3.3).
#[derive(Clone, Debug)]
pub enum PrepareVote {
    /// Prepared: the `f+1`-signed prepared record with the piggybacked
    /// CD vector.
    Yes(SignedPrepared),
    /// Refused (conflict): signed by the participant's leader only — an
    /// abort vote is always safe to accept, so it needs no quorum.
    No {
        cluster: ClusterId,
        txn: TxnId,
        sig: Signature,
    },
}

impl PrepareVote {
    pub fn txn(&self) -> TxnId {
        match self {
            PrepareVote::Yes(p) => p.txn,
            PrepareVote::No { txn, .. } => *txn,
        }
    }

    pub fn cluster(&self) -> ClusterId {
        match self {
            PrepareVote::Yes(p) => p.cluster,
            PrepareVote::No { cluster, .. } => *cluster,
        }
    }
}

/// The statement a leader signs for a *no* vote.
pub fn abort_vote_statement(cluster: ClusterId, txn: TxnId) -> Vec<u8> {
    let mut w = transedge_common::WireWriter::with_capacity(32);
    w.put_bytes(b"transedge/prepare-no");
    use transedge_common::Encode as _;
    cluster.encode(&mut w);
    txn.encode(&mut w);
    w.into_bytes()
}

/// The proof-carrying payload answering a [`NetMsg::Read`] query —
/// the edge subsystem's [`ReadResponse`] anchored at this crate's
/// certified batch headers. Any untrusted node — replica or edge
/// cache — may send one; clients verify it end to end against the
/// query (`ReadVerifier::verify_query`).
pub type ReadPayload = ReadResponse<CommittedHeader>;

/// The edge directory's one gossip payload, anchored at this crate's
/// certified batch headers (rejection evidence embeds the offending
/// proof-carrying response): the records the sender believes the
/// receiver lacks, plus the sender's state summary so the receiver can
/// answer with exactly what the sender lacks.
pub type DirectoryDelta = transedge_directory::GossipDelta<CommittedHeader>;

/// All TransEdge network traffic.
#[derive(Clone, Debug)]
pub enum NetMsg {
    // ---- client ↔ replica ------------------------------------------
    /// OCC read during transaction execution (any replica serves it).
    OccRead { req: u64, key: Key },
    /// Response: latest committed value and its version (the batch it
    /// committed in — "responses must include the LCE of the batch
    /// which the key was read from", §3.2).
    OccReadResp {
        req: u64,
        key: Key,
        value: Option<Value>,
        version: Epoch,
    },
    /// Commit request carrying the full read/write sets (§3.2). Sent to
    /// the leader of the coordinator cluster. `reply_to` survives
    /// replica-to-leader forwarding.
    CommitRequest {
        txn: Transaction,
        reply_to: transedge_common::NodeId,
    },
    /// Final transaction outcome reported to the client.
    TxnResult {
        txn: TxnId,
        committed: bool,
        /// Commit-time batch at the coordinator (diagnostics).
        batch: Option<BatchNum>,
    },
    /// The unified read-query request: one typed message for every
    /// proof-carrying read shape — round-1 point reads
    /// (`SnapshotPolicy::Latest`), round-2 dependency fetches
    /// (`SnapshotPolicy::MinEpoch`), verified range scans,
    /// paginated scan continuations (`ReadQuery::page`), scatter-gather
    /// sub-queries, and subscriber reads naming the feed deltas they
    /// already hold (`ReadQuery::feed`). Built through the [`ReadQuery`]
    /// constructors; the old per-shape `NetMsg` constructors are gone.
    Read { req: u64, query: ReadQuery },
    /// The unified proof-carrying answer to a [`NetMsg::Read`] query.
    ReadResult { req: u64, result: ReadPayload },

    // ---- certified commit feed (replica → edge push) ------------------
    /// Subscribe the sender to a replica's certified commit feed from
    /// `from_batch` (exclusive) onward. Re-sent periodically as a lease
    /// renewal; the replica replays any feed-log suffix the subscriber
    /// is missing on (re)subscription.
    FeedSubscribe { from_batch: BatchNum },
    /// One certified commit-feed entry pushed to a subscriber. The
    /// payload is a *claim* until the receiver recomputes the changed-
    /// key digest under the embedded `f+1` certificate
    /// (`ReadVerifier::verify_delta`) — a tampered delta is dropped and
    /// counts against the sender.
    FeedDelta { delta: Box<RotDelta> },

    // ---- edge conviction directory -----------------------------------
    /// One leg of the gossiped edge directory, and its only payload:
    /// the signed byzantine-rejection evidence (offending proof
    /// attached) the sender believes the receiver lacks, plus the
    /// sender's state summary. Edges push one per round, a client
    /// pushes one after witnessing a rejection, and edges answer
    /// [`NetMsg::DirectoryPull`] with one. Everything inside is an
    /// untrusted *hint* — the receiver checks each record's signature
    /// and re-runs the verifier on it before merging, and wrong hints
    /// cost latency, never correctness. An edge then answers with the
    /// records *it* holds that beat the summary — at most one reply,
    /// since the reply's summary is computed post-merge; a client never
    /// answers.
    DirectoryDeltaGossip { delta: Box<DirectoryDelta> },
    /// Ask an edge node for the directory records it holds (clients
    /// demote convicted edges in their `EdgeSelector` at startup with
    /// the reply, and wait for it — so it is answered even when empty).
    DirectoryPull,

    // ---- edge restart state-transfer (edge ↔ edge) --------------------
    /// A cold (or corrupted-disk) edge asking a healthy same-partition
    /// peer for its durable snapshot objects of `cluster`, instead of
    /// faulting every post-restart read upstream to the replicas.
    StateTransfer { req: u64, cluster: ClusterId },
    /// The sibling's offer: its live snapshot objects for the cluster.
    /// Untrusted like any edge payload — the requester re-verifies
    /// every object through the client-grade verifier before admitting
    /// it to cache or disk.
    StateTransferResp {
        req: u64,
        cluster: ClusterId,
        objects: Vec<RotSnapshot>,
    },

    // ---- intra-cluster ----------------------------------------------
    /// Consensus traffic.
    Bft(Box<BftMsg<Batch>>),
    /// A replica's signature shares over the 2PC steps contained in a
    /// freshly delivered batch, sent to the current leader for
    /// aggregation into [`SignedPrepared`] / [`SignedCommit`] records.
    SegmentSigs {
        batch: BatchNum,
        prepared_sigs: Vec<(TxnId, Signature)>,
        commit_sigs: Vec<(TxnId, Signature)>,
    },
    /// A (new) leader asking peers to re-send their shares from
    /// `from_batch` onward (view change recovery).
    SigResend { from_batch: BatchNum },

    // ---- inter-cluster 2PC (leader ↔ leader) --------------------------
    /// Step 3 (Figure 3): the coordinator's prepare, with proof it is
    /// in the coordinator's SMR log.
    CoordinatorPrepare {
        txn: Transaction,
        coordinator: ClusterId,
        prepare: SignedPrepared,
    },
    /// Step 5: the participant's vote.
    Prepared { vote: PrepareVote },
    /// Step 7: the coordinator's decision. Sent at the transaction
    /// commit point (all votes collected — §3.6's TCP), carrying the
    /// collected `f+1`-signed prepared records of *all* participants as
    /// evidence. Deviation: it ships at vote time, not after the
    /// coordinator's own commit batch is written, which liveness needs
    /// when one prepare group mixes transactions with different
    /// coordinators (ledger: ROADMAP.md item 9).
    CommitOutcome {
        txn: TxnId,
        coordinator: ClusterId,
        outcome: crate::records::Outcome,
        /// Prepared records of every participant (coordinator included).
        prepared: Vec<SignedPrepared>,
    },
}

impl NetMsg {
    /// Short tag for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            NetMsg::OccRead { .. } => "occ-read",
            NetMsg::OccReadResp { .. } => "occ-read-resp",
            NetMsg::CommitRequest { .. } => "commit-request",
            NetMsg::TxnResult { .. } => "txn-result",
            NetMsg::Read { query, .. } => match query.shape {
                QueryShape::Point { .. } => "read-point",
                QueryShape::Scan { .. } => "read-scan",
            },
            NetMsg::ReadResult { result, .. } => match result {
                ReadResponse::Point { .. } => "read-result-point",
                ReadResponse::Scan { .. } => "read-result-scan",
                ReadResponse::Gather { .. } => "read-result-gather",
            },
            NetMsg::FeedSubscribe { .. } => "feed-subscribe",
            NetMsg::FeedDelta { .. } => "feed-delta",
            NetMsg::DirectoryDeltaGossip { .. } => "directory-delta-gossip",
            NetMsg::DirectoryPull => "directory-pull",
            NetMsg::StateTransfer { .. } => "state-transfer",
            NetMsg::StateTransferResp { .. } => "state-transfer-resp",
            NetMsg::Bft(m) => m.kind(),
            NetMsg::SegmentSigs { .. } => "segment-sigs",
            NetMsg::SigResend { .. } => "sig-resend",
            NetMsg::CoordinatorPrepare { .. } => "coordinator-prepare",
            NetMsg::Prepared { .. } => "prepared",
            NetMsg::CommitOutcome { .. } => "commit-outcome",
        }
    }
}

// ---- wire-size estimation (bandwidth model) ---------------------------
//
// Fully encoding every message on every send would dominate simulation
// CPU, so sizes are estimated from component counts. The estimates are
// pinned against true encoded sizes in tests below where encoders
// exist.

fn txn_size(t: &Transaction) -> usize {
    14 + t.reads.iter().map(|r| r.key.len() + 12).sum::<usize>()
        + t.writes
            .iter()
            .map(|w| w.key.len() + w.value.len() + 8)
            .sum::<usize>()
}

fn signed_prepared_size(p: &SignedPrepared) -> usize {
    26 + p.cd.len() * 8 + p.sigs.len() * 101
}

fn signed_commit_size(c: &SignedCommit) -> usize {
    27 + c
        .participants
        .iter()
        .map(|(_, _, cd)| 14 + cd.len() * 8)
        .sum::<usize>()
        + c.sigs.len() * 101
}

fn header_size(h: &BatchHeader) -> usize {
    // cluster + num + cd len + cd + lce + merkle root + delta digest +
    // timestamp.
    2 + 8 + 4 + h.cd.len() * 8 + 8 + 32 + 32 + 8
}

/// Wire size of one certified commit-feed entry: certified header +
/// body digest + certificate + the sorted changed-key list.
fn rot_delta_size(d: &RotDelta) -> usize {
    header_size(&d.commitment.header)
        + 32
        + cert_size(&d.cert)
        + 4
        + d.changed.iter().map(|k| k.len() + 4).sum::<usize>()
}

/// What travelled: the deltas sent, not the ones the client held.
fn feed_size(fresh: &Option<Vec<Arc<RotDelta>>>) -> usize {
    match fresh {
        None => 1,
        Some(sent) => 5 + sent.iter().map(|d| rot_delta_size(d)).sum::<usize>(),
    }
}

fn batch_size(b: &Batch) -> usize {
    header_size(&b.header)
        + 12
        + b.local.iter().map(txn_size).sum::<usize>()
        + b.prepared
            .iter()
            .map(|p| {
                txn_size(&p.txn)
                    + 3
                    + p.coordinator_prepare
                        .as_ref()
                        .map(signed_prepared_size)
                        .unwrap_or(0)
            })
            .sum::<usize>()
        + b.committed
            .iter()
            .map(|c| {
                19 + match &c.evidence {
                    crate::records::CommitEvidence::CoordinatorDecision { prepared } => {
                        prepared.iter().map(signed_prepared_size).sum::<usize>()
                    }
                    crate::records::CommitEvidence::RemoteDecision { commit } => {
                        signed_commit_size(commit)
                    }
                }
            })
            .sum::<usize>()
}

fn cert_size(c: &Certificate) -> usize {
    46 + c.sigs.len() * 101
}

fn bft_size(m: &BftMsg<Batch>) -> usize {
    match m {
        BftMsg::Propose { value, .. } => 84 + batch_size(value),
        BftMsg::Write { .. } => 116,
        BftMsg::Accept { .. } => 108,
        BftMsg::ViewChange { prepared_value, .. } => {
            130 + prepared_value.as_ref().map(batch_size).unwrap_or(0)
        }
        BftMsg::NewView {
            votes, reproposal, ..
        } => 12 + votes.len() * 130 + reproposal.as_ref().map(batch_size).unwrap_or(0),
        BftMsg::StateRequest { .. } => 12,
        BftMsg::StateResponse { batches } => batches
            .iter()
            .map(|(_, v, c)| 8 + batch_size(v) + cert_size(c))
            .sum(),
    }
}

fn scan_bundle_size(bundle: &RotScanBundle) -> usize {
    header_size(&bundle.commitment.header)
        + 32
        + cert_size(&bundle.cert)
        + bundle.scan.encoded_len()
}

/// Structural wire size of a proof-carrying read payload (the
/// bandwidth model's estimate). A section body's structural size
/// equals its shared wire image byte-for-byte (asserted in the edge
/// crate), so the proof-carrying part of a point answer is exact.
pub fn read_payload_size(result: &ReadPayload) -> usize {
    match result {
        ReadPayload::Point { section, fresh } => {
            header_size(&section.commitment.header)
                + 32
                + cert_size(&section.cert)
                + section.body.encoded_len()
                + feed_size(fresh)
        }
        ReadPayload::Scan { bundle } => scan_bundle_size(bundle),
        ReadPayload::Gather { parts } => parts
            .iter()
            .map(|p| 2 + read_payload_size(&p.body))
            .sum::<usize>(),
    }
}

impl SimMessage for NetMsg {
    fn size_bytes(&self) -> usize {
        match self {
            NetMsg::OccRead { key, .. } => 12 + key.len(),
            NetMsg::OccReadResp { key, value, .. } => {
                24 + key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0)
            }
            NetMsg::CommitRequest { txn, .. } => 9 + txn_size(txn),
            NetMsg::TxnResult { .. } => 24,
            // Computed structurally from the shape (keys, scan range
            // bounds, page window), policy, and page token — the old
            // per-shape variants used flat constants for scans.
            NetMsg::Read { query, .. } => 8 + query.wire_size(),
            NetMsg::ReadResult { result, .. } => 8 + read_payload_size(result),
            NetMsg::FeedSubscribe { .. } => 16,
            NetMsg::FeedDelta { delta } => 8 + rot_delta_size(delta),
            NetMsg::DirectoryDeltaGossip { delta } => 8 + delta.wire_size(),
            NetMsg::DirectoryPull => 8,
            NetMsg::StateTransfer { .. } => 16,
            NetMsg::StateTransferResp { objects, .. } => {
                16 + objects.iter().map(object_size).sum::<usize>()
            }
            NetMsg::Bft(m) => bft_size(m),
            NetMsg::SegmentSigs {
                prepared_sigs,
                commit_sigs,
                ..
            } => 16 + (prepared_sigs.len() + commit_sigs.len()) * 76,
            NetMsg::SigResend { .. } => 12,
            NetMsg::CoordinatorPrepare { txn, prepare, .. } => {
                6 + txn_size(txn) + signed_prepared_size(prepare)
            }
            NetMsg::Prepared { vote } => match vote {
                PrepareVote::Yes(p) => 4 + signed_prepared_size(p),
                PrepareVote::No { .. } => 90,
            },
            NetMsg::CommitOutcome { prepared, .. } => {
                16 + prepared.iter().map(signed_prepared_size).sum::<usize>()
            }
        }
    }

    /// Request-direction messages carry the client's causal trace; the
    /// simulator records wire/queue/serve spans against it. Responses
    /// stay untraced (their transit is the trace's residual wire time).
    fn trace_context(&self) -> Option<transedge_obs::TraceContext> {
        match self {
            NetMsg::Read { query, .. } => query.trace,
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        NetMsg::kind(self)
    }
}

/// Deadline/timeout bookkeeping shared by client and node actors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{CdVector, ReadOp, WriteOp};
    use transedge_common::{ClientId, Encode};
    use transedge_crypto::Digest;

    fn sample_txn() -> Transaction {
        Transaction {
            id: TxnId::new(ClientId(1), 2),
            reads: vec![ReadOp {
                key: Key::from_u32(1),
                version: Epoch(3),
            }],
            writes: vec![WriteOp {
                key: Key::from_u32(2),
                value: Value::filled(256, 7),
            }],
        }
    }

    #[test]
    fn txn_size_estimate_close_to_encoding() {
        let t = sample_txn();
        let actual = t.encode_to_vec().len();
        let estimate = txn_size(&t);
        let err = (actual as f64 - estimate as f64).abs() / actual as f64;
        assert!(err < 0.2, "estimate {estimate} vs actual {actual}");
    }

    #[test]
    fn batch_size_estimate_close_to_encoding() {
        let header = BatchHeader {
            cluster: ClusterId(0),
            num: BatchNum(0),
            cd: CdVector::new(5),
            lce: Epoch::NONE,
            merkle_root: Digest::ZERO,
            delta_digest: Digest::ZERO,
            timestamp: SimTime::ZERO,
        };
        let b = Batch {
            header,
            local: (0..10)
                .map(|i| {
                    let mut t = sample_txn();
                    t.id = TxnId::new(ClientId(1), i);
                    t
                })
                .collect(),
            prepared: vec![],
            committed: vec![],
        };
        let actual = b.encode_to_vec().len();
        let estimate = batch_size(&b);
        let err = (actual as f64 - estimate as f64).abs() / actual as f64;
        assert!(err < 0.2, "estimate {estimate} vs actual {actual}");
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        use transedge_edge::SnapshotPolicy;
        let point = |keys| NetMsg::Read {
            req: 1,
            query: ReadQuery::point(keys),
        };
        let small = point(vec![Key::from_u32(1)]);
        let large = point((0..100).map(Key::from_u32).collect());
        assert!(large.size_bytes() > small.size_bytes());
        // A round-2 fetch carries its epoch floor on the wire.
        let fetch = NetMsg::Read {
            req: 1,
            query: ReadQuery::point(vec![Key::from_u32(1)])
                .with_policy(SnapshotPolicy::MinEpoch(Epoch(3))),
        };
        assert!(fetch.size_bytes() > small.size_bytes());
        assert_eq!(fetch.kind(), "read-point");
    }

    #[test]
    fn scan_query_size_accounts_for_range_and_page() {
        use transedge_crypto::ScanRange;
        use transedge_edge::PageToken;
        // The scan request is not a flat constant: it carries the
        // encoded range bounds (16 bytes) on top of the envelope…
        let range = ScanRange::new(0, 63);
        let scan = NetMsg::Read {
            req: 1,
            query: ReadQuery::scatter_scan(vec![], range, range.width()),
        };
        assert!(scan.size_bytes() >= 8 + 16);
        // …and a paginated continuation carries its token too.
        let paged = NetMsg::Read {
            req: 1,
            query: ReadQuery::scan(ClusterId(0), ScanRange::new(0, 63)).with_page(PageToken {
                batch: BatchNum(2),
                resume: 32,
            }),
        };
        assert!(paged.size_bytes() > scan.size_bytes());
        // Scatter queries grow with the cluster list.
        let scatter = NetMsg::Read {
            req: 1,
            query: ReadQuery::scatter_scan(
                (0u16..5).map(ClusterId).collect(),
                ScanRange::new(0, 63),
                64,
            ),
        };
        assert!(scatter.size_bytes() > scan.size_bytes());
    }

    #[test]
    fn kind_tags() {
        assert_eq!(
            NetMsg::CommitRequest {
                txn: sample_txn(),
                reply_to: transedge_common::NodeId::Client(ClientId(0)),
            }
            .kind(),
            "commit-request"
        );
        assert_eq!(
            NetMsg::TxnResult {
                txn: TxnId::new(ClientId(0), 0),
                committed: true,
                batch: None
            }
            .kind(),
            "txn-result"
        );
    }

    #[test]
    fn abort_vote_statement_is_specific() {
        let a = abort_vote_statement(ClusterId(0), TxnId::new(ClientId(0), 1));
        let b = abort_vote_statement(ClusterId(1), TxnId::new(ClientId(0), 1));
        let c = abort_vote_statement(ClusterId(0), TxnId::new(ClientId(0), 2));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
