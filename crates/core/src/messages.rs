//! Every message that crosses the simulated network in a TransEdge
//! deployment.

use transedge_common::{BatchNum, ClusterId, Epoch, Key, TxnId, Value};
use transedge_consensus::BftMsg;
use transedge_crypto::Signature;
use transedge_directory::GossipDelta;
use transedge_edge::{cert_size, Body, CertifiedDelta, QueryShape, ReadQuery, ReadResponse};
use transedge_simnet::SimMessage;

use crate::batch::{Batch, Transaction};
use crate::records::SignedPrepared;

/// A participant's 2PC vote returned to the coordinator (§3.3.3).
#[derive(Clone, Debug)]
pub enum PrepareVote {
    /// Prepared: the `f+1`-signed prepared record with the piggybacked
    /// CD vector.
    Yes(SignedPrepared),
    /// Refused (conflict): one signature over [`abort_vote_statement`].
    /// The participant's leader signs it, but the coordinator accepts a
    /// No signed by any one replica of the named cluster, with no
    /// quorum and whoever sent it, so one byzantine replica can abort
    /// a transaction its cluster would prepare (ROADMAP
    /// `[abort-vote]`).
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

/// A second name for the edge subsystem's [`ReadResponse`], kept for
/// callers outside the workspace; code in the workspace names
/// [`ReadResponse`].
pub type ReadPayload = ReadResponse;

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
    /// (`SnapshotPolicy::MinEpoch`), verified range scans, whole
    /// multi-partition queries sent to one edge contact, and subscriber
    /// reads naming the feed deltas they already hold
    /// (`ReadQuery::feed`). Every read names the certified anchors its
    /// client holds (`ReadQuery::held`), so an answer at one of them
    /// comes back held. A part an honest edge forwards carries its
    /// client's address (`ReadQuery::reply_to`): the replica answers
    /// that client directly under the client's `req`, and the edge
    /// under this `req`. A part a replica chases (`ReadQuery::chase`)
    /// carries it too, and only the client is answered. Built through
    /// the [`ReadQuery`] constructors; the old per-shape `NetMsg`
    /// constructors are gone.
    Read { req: u64, query: ReadQuery },
    /// The proof-carrying answer to one partition's part of a
    /// [`NetMsg::Read`] query, full or held. A query spanning several
    /// partitions is answered with one of these per partition, all
    /// under its `req`.
    ReadResult { req: u64, result: ReadResponse },

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
    FeedDelta { delta: Box<CertifiedDelta> },

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
    DirectoryDeltaGossip { delta: Box<GossipDelta> },
    /// Ask an edge node for the directory records it holds (clients
    /// demote convicted edges in their `EdgeSelector` at startup with
    /// the reply, and wait for it — so it is answered even when empty).
    DirectoryPull,

    // ---- intra-cluster ----------------------------------------------
    /// Consensus traffic.
    Bft(Box<BftMsg<Batch>>),
    /// A replica's signature shares over the 2PC prepares contained in
    /// a freshly delivered batch, sent to the current leader, which
    /// gathers them into [`SignedPrepared`] records.
    SegmentSigs {
        batch: BatchNum,
        prepared_sigs: Vec<(TxnId, Signature)>,
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
    /// coordinators (ledger: ROADMAP.md, *Deviation ledger*).
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
            NetMsg::ReadResult { result, .. } => match result.body {
                Body::Point { .. } => "read-result-point",
                Body::Scan(_) => "read-result-scan",
            },
            NetMsg::FeedSubscribe { .. } => "feed-subscribe",
            NetMsg::FeedDelta { .. } => "feed-delta",
            NetMsg::DirectoryDeltaGossip { .. } => "directory-delta-gossip",
            NetMsg::DirectoryPull => "directory-pull",
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

fn batch_size(b: &Batch) -> usize {
    b.header.encoded_len()
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
            .map(|c| 19 + c.prepared.iter().map(signed_prepared_size).sum::<usize>())
            .sum::<usize>()
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
            // bounds) and policy — the old per-shape variants used flat
            // constants for scans.
            NetMsg::Read { query, .. } => 8 + query.wire_size(),
            NetMsg::ReadResult { result, .. } => 8 + result.wire_size(),
            NetMsg::FeedSubscribe { .. } => 16,
            NetMsg::FeedDelta { delta } => 8 + delta.wire_size(),
            NetMsg::DirectoryDeltaGossip { delta } => 8 + delta.wire_size(),
            NetMsg::DirectoryPull => 8,
            NetMsg::Bft(m) => bft_size(m),
            NetMsg::SegmentSigs { prepared_sigs, .. } => 16 + prepared_sigs.len() * 76,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchHeader, CdVector, ReadOp, WriteOp};
    use transedge_common::{ClientId, Encode, SimTime};
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
    fn scan_query_size_accounts_for_range() {
        use transedge_crypto::ScanRange;
        // The scan request is not a flat constant: it carries the
        // encoded range bounds (16 bytes) on top of the envelope…
        let range = ScanRange::new(0, 63);
        let scan = NetMsg::Read {
            req: 1,
            query: ReadQuery::scatter_scan(vec![], range),
        };
        assert!(scan.size_bytes() >= 8 + 16);
        // …and scatter queries grow with the cluster list.
        let scatter = NetMsg::Read {
            req: 1,
            query: ReadQuery::scatter_scan((0u16..5).map(ClusterId).collect(), range),
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

    /// Every message in flight occupies the size of the largest
    /// variant, so a read answer's shape sets the size of all of them.
    /// Pinned at what each measured on a 64-bit target: neither may
    /// grow.
    #[test]
    fn message_and_answer_sizes_do_not_grow() {
        assert!(std::mem::size_of::<NetMsg>() <= 176);
        assert!(std::mem::size_of::<ReadResponse>() <= 48);
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
