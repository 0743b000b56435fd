//! The client-side (trusted) checker for proof-carrying reads.
//!
//! This is the entire trust boundary of the edge read path: a response
//! is accepted only if every link of the chain holds —
//!
//! 1. the commitment names the partition the client asked (a response
//!    for the wrong partition proves nothing);
//! 2. the `f+1` certificate covers the digest recomputed *from the
//!    commitment itself* (so at least one honest replica vouches for
//!    the batch; a forged root would need a forged certificate);
//! 3. the batch timestamp is inside the freshness window (§4.4.2 — an
//!    edge node cannot serve arbitrarily stale snapshots);
//! 4. the snapshot's LCE reaches the requested floor (round two of
//!    Algorithm 2 — an edge node cannot silently downgrade a
//!    dependency fetch);
//! 5. the section's multiproof, with each carried value's entry
//!    recomputed from the key and value and put back in its bucket,
//!    verifies against the certified root; every key sent as absent is
//!    proven absent; and every requested key is among the proven ones.
//!
//! Every answer has one shape — an [`Anchor`] and a [`Body`] proven
//! against its root ([`ReadResponse`]) — whether it comes from a
//! replica or an edge replay, and one chain runs for both: steps 1–4 on the
//! anchor (`check_commitment`), then step 5 on the body against the
//! anchor's root — a point body's multiproof (`prove_section`) or a scan
//! window's range proof (`prove_scan`). A point answer mixing batches,
//! or a scan answer carrying a feed, is not a rejection: [`Body`]
//! cannot hold one. A scan answer is one window — the one the query
//! asked for, proven complete by one range proof; any other window,
//! wider or narrower, is rejected before the proof is looked at, so no
//! later step reasons about two ranges.
//!
//! A held answer ([`Anchor::Held`]) carries no anchor and is not checked
//! here as it arrives: its receiver first rebuilds it around its own
//! copy of the anchor it names ([`ReadResponse::rebuild`]) and passes
//! the full answer through the same chain. Every step then runs again
//! against that copy — freshness, the LCE floor and proofs included —
//! except that step 2's quorum check ran when the anchor was first
//! accepted, so it is answered from the client's memo. Handed a
//! held answer directly, the verifier rejects it as
//! [`ReadRejection::ShapeMismatch`].
//!
//! Anything else is a [`ReadRejection`], which callers count as
//! evidence of a byzantine server and answer by re-asking a different
//! node.

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimDuration, SimTime, Value};
use transedge_consensus::Certificate;
use transedge_crypto::merkle::Verified;
use transedge_crypto::{verify_multi_proof, verify_range_proof, Digest, ScanRange};

use std::sync::Arc;

use crate::certs::QuorumCheck;
use crate::feed::FeedWindow;
#[cfg(doc)]
use crate::query::Anchor;
use crate::query::{Body, QueryAnswer, QueryShape, ReadQuery, ReadResponse};
use crate::response::{
    changed_keys_digest, CertifiedDelta, CommittedHeader, MultiProofBody, ScanProof,
};

/// Verification parameters; must match the deployment's node
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct VerifyParams {
    /// Merkle tree depth (2^depth buckets) proofs are checked against.
    pub tree_depth: u32,
    /// §4.4.2 freshness window on batch timestamps.
    pub freshness_window: SimDuration,
    /// Signatures a certificate needs (`f+1`).
    pub quorum: usize,
}

/// Why a response was rejected. Every variant is an observable lie an
/// untrusted edge node could try.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadRejection {
    /// Response names a different partition than requested.
    WrongCluster { expected: ClusterId, got: ClusterId },
    /// Certificate missing, mismatched with the commitment, or not
    /// carrying a quorum of valid replica signatures.
    BadCertificate,
    /// Batch timestamp outside the freshness window.
    StaleTimestamp,
    /// Snapshot does not reach the requested dependency floor (a
    /// round-two response below `min_lce` — the "stale root" attack).
    StaleSnapshot { required: Epoch, lce: Epoch },
    /// The section verified, but does not prove this requested key.
    /// The section itself is sound material, so this is circumstantial
    /// (an honest response paired with the wrong query looks the same)
    /// — not demotion evidence.
    MissingKey(Key),
    /// The section's body is malformed or does not fold to the certified
    /// root once its carried values' entries are recomputed into it:
    /// unsorted/duplicated proven keys, a dropped or substituted
    /// sibling, a spliced bucket, a key dropped from under its proof, a
    /// value that is not the committed one (tampered, or conjured for an
    /// absent key), a value withheld together with its entry, or a
    /// proof that still ships a carried value's own entry (one encoding
    /// verifies per root and key set).
    BadProof,
    /// The proof shows the key present, but the section sends it as
    /// absent: its entry travels in the bucket while its value slot is
    /// empty.
    ValueMismatch(Key),
    /// The proven scan window is not the requested one. Narrower is a
    /// *boundary truncation*: shrinking the proven window is how a
    /// server would hide rows at the edges of a scan while every
    /// surviving row still verified. Wider is sound material answering
    /// a question nobody asked (circumstantial, like
    /// [`ReadRejection::MissingKey`]) — no honest server sends it.
    ScanRangeNotCovered {
        requested: ScanRange,
        proven: ScanRange,
    },
    /// The window's rows and boundary siblings do not fold to the
    /// certified root: a row omitted (the *omission* attack a point
    /// proof can never catch), injected, altered, duplicated, out of
    /// strict key-hash order or from outside the window; a sibling
    /// forged, missing or spare; or a window spliced from a different
    /// batch's tree (the torn-scan attack).
    BadRangeProof,
    /// The response payload does not match the query's shape (a scan
    /// answered with a point section or vice versa).
    ShapeMismatch,
    /// A certified delta's changed key set does not hash to the
    /// commitment's certified delta digest (a key added, dropped, or
    /// reordered), or a freshness feed's deltas touch a queried key —
    /// contradicting the response's claim that the served values are
    /// current through the feed head. Either way, a provable lie about
    /// what changed.
    BadDelta,
    /// A freshness feed is not a contiguous batch chain from the served
    /// snapshot: a gap hides the deltas of the skipped batches (where a
    /// queried key may have changed), a backward or repeated batch is a
    /// replayed delta.
    FeedSpliced { expected: BatchNum, got: BatchNum },
    /// The answer verified, but its anchor forks the partition's
    /// history: it conflicts ([`same_batch_conflict`]) with the anchor
    /// the reader already holds for that batch number. `held` is the
    /// anchor accepted first, `got` the answer's. Each re-verifies under
    /// the key directory on its own, so the pair is evidence against
    /// the cluster that certified both, not against whoever served the
    /// answer. A reader fails closed on it.
    Fork {
        held: Box<(CommittedHeader, Certificate)>,
        got: Box<(CommittedHeader, Certificate)>,
    },
}

/// The [`ReadRejection::Fork`] two certified anchors make when they
/// fork their partition's history: they name one partition and one
/// batch number, yet their certificates cover different certified
/// digests. `None` for any other pair. A pure comparison of fields: for
/// anchors that each passed the certificate check, a conflicting pair
/// is self-verifying evidence that `f+1` replicas certified two batches
/// under one number, which no client or edge can forge.
pub fn same_batch_conflict(
    held: (&CommittedHeader, &Certificate),
    got: (&CommittedHeader, &Certificate),
) -> Option<ReadRejection> {
    let conflict = held.0.header.cluster == got.0.header.cluster
        && held.0.header.num == got.0.header.num
        && held.1.digest != got.1.digest;
    conflict.then(|| ReadRejection::Fork {
        held: Box::new((held.0.clone(), held.1.clone())),
        got: Box::new((got.0.clone(), got.1.clone())),
    })
}

/// The verifier. Stateless; cheap to copy into clients. The only state
/// a chain can touch arrives with the caller's `keys` argument: a
/// [`QuorumCheck`] answers step 2's quorum question, and a client may
/// pass its [`crate::VerifiedCerts`] memo where everyone else passes a
/// plain `KeyStore`.
#[derive(Clone, Copy, Debug)]
pub struct ReadVerifier {
    pub params: VerifyParams,
}

impl ReadVerifier {
    pub fn new(params: VerifyParams) -> Self {
        ReadVerifier { params }
    }

    /// Steps 1–2 of every chain, the time-independent ones: the
    /// commitment names the expected partition, and its recomputed
    /// digest is covered by an `f+1` certificate.
    fn check_certified(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        commitment: &CommittedHeader,
        cert: &Certificate,
    ) -> Result<(), ReadRejection> {
        // 1. Right partition.
        if commitment.header.cluster != expected_cluster {
            return Err(ReadRejection::WrongCluster {
                expected: expected_cluster,
                got: commitment.header.cluster,
            });
        }
        // 2. Certificate chains the commitment to f+1 replicas. The
        // field comparisons run on every call; only the quorum of
        // signatures over the certificate's own statement is `keys`'
        // to answer (and, for a memo, to remember).
        if cert.cluster != expected_cluster
            || cert.slot != commitment.header.num
            || cert.digest != commitment.certified_digest()
            || !keys.check_quorum(cert, self.params.quorum)
        {
            return Err(ReadRejection::BadCertificate);
        }
        Ok(())
    }

    /// Steps 1–4 of every answer's chain, on its anchor: the commitment
    /// is certified for the expected partition, its timestamp is inside
    /// the freshness window (both skew directions), and its LCE reaches
    /// the dependency floor.
    pub(crate) fn check_commitment(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        (commitment, cert): (&CommittedHeader, &Certificate),
        min_lce: Epoch,
        now: SimTime,
    ) -> Result<(), ReadRejection> {
        self.check_certified(keys, expected_cluster, commitment, cert)?;
        // 3. Freshness.
        self.check_fresh(commitment.header.timestamp, now)?;
        // 4. Dependency floor (round two).
        if commitment.header.lce < min_lce {
            return Err(ReadRejection::StaleSnapshot {
                required: min_lce,
                lce: commitment.header.lce,
            });
        }
        Ok(())
    }

    /// Verify one [`CertifiedDelta`]: the commitment names the expected
    /// partition, the `f+1` certificate covers its recomputed digest,
    /// and the carried changed-key set is canonical (sorted, unique)
    /// and hashes to the header's certified `delta_digest`.
    /// Deliberately *no* freshness check — a delta is a historical
    /// fact, and time-dependent checks belong to the feed head (see
    /// [`ReadVerifier::verify_feed`]) so they can never mask a
    /// cryptographic rejection.
    pub fn verify_delta(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        delta: &CertifiedDelta,
    ) -> Result<(), ReadRejection> {
        self.check_certified(keys, expected_cluster, &delta.commitment, &delta.cert)?;
        // The changed set must be canonical and recompute to the digest
        // consensus signed: a relaying edge cannot add, drop, or
        // reorder one key without landing here.
        if !delta.changed.windows(2).all(|w| w[0] < w[1])
            || changed_keys_digest(&delta.changed) != delta.commitment.header.delta_digest
        {
            return Err(ReadRejection::BadDelta);
        }
        Ok(())
    }

    /// Verify a freshness feed attached to a point response: a
    /// contiguous chain of certified deltas from the served batch to
    /// the claimed feed head, none of which touches a queried key. A
    /// verified feed proves the served values are the values at the
    /// head — the subscription-tier claim that lets a warm client skip
    /// the round-2 `MinEpoch` fetch. The chain is `held ++ sent`:
    /// deltas the caller verified on an earlier response and kept,
    /// then the ones this response carries (a first contact holds
    /// nothing and is sent everything). Checks, in order
    /// (cryptographic before time-dependent, so staleness can never
    /// mask a lie):
    ///
    /// 1. contiguity: the chain starts at `served + 1` and each delta
    ///    advances by exactly one batch ([`ReadRejection::FeedSpliced`]
    ///    — a gap hides changes, a repeat is a replay);
    /// 2. each **sent** delta verifies per
    ///    [`ReadVerifier::verify_delta`] (certificate chain +
    ///    changed-set digest) — a held one did when it was sent;
    /// 3. no delta's changed set, held or sent, touches `queried`
    ///    ([`ReadRejection::BadDelta`] — the feed itself certifies the
    ///    served values are *not* current, contradicting the claim);
    /// 4. the head's timestamp (the served commitment's own, for an
    ///    empty chain) is inside the freshness window
    ///    ([`ReadRejection::StaleTimestamp`] — checked by the caller,
    ///    which holds the served commitment).
    ///
    /// Returns the head batch the caller may upgrade its view to.
    pub fn verify_feed<'a>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        served: BatchNum,
        queried: &[Key],
        held: impl IntoIterator<Item = &'a CertifiedDelta>,
        sent: impl IntoIterator<Item = &'a CertifiedDelta>,
    ) -> Result<BatchNum, ReadRejection> {
        let mut head = served;
        let held = held.into_iter().map(|d| (d, false));
        for (delta, unseen) in held.chain(sent.into_iter().map(|d| (d, true))) {
            let (expected, got) = (BatchNum(head.0 + 1), delta.batch());
            if got != expected {
                return Err(ReadRejection::FeedSpliced { expected, got });
            }
            if unseen {
                self.verify_delta(keys, expected_cluster, delta)?;
            }
            if delta.touches(queried) {
                return Err(ReadRejection::BadDelta);
            }
            head = got;
        }
        Ok(head)
    }

    /// The §4.4.2 freshness window, in either direction of clock skew:
    /// applied to the served batch's timestamp, or — step 4 of the feed
    /// chain (see [`ReadVerifier::verify_feed`]) — to the verified feed
    /// head's.
    fn check_fresh(&self, ts: SimTime, now: SimTime) -> Result<(), ReadRejection> {
        let skew = now.saturating_since(ts).max(ts.saturating_since(now));
        if skew > self.params.freshness_window {
            return Err(ReadRejection::StaleTimestamp);
        }
        Ok(())
    }

    /// Step 5 of a point answer, against its anchor's certified `root`
    /// (steps 1–4 passed). The body must
    ///
    /// * carry a sorted, duplicate-free key list whose **one**
    ///   multiproof, once every carried value's entry `(sha256(key),
    ///   value_digest(value))` is put back into its key's bucket
    ///   ([`MultiProofBody::restored`]), verifies against `root` ([`ReadRejection::BadProof`]) — so
    ///   every value slot, requested or not, is folded into the root,
    ///   and a tampered or conjured value misses it;
    /// * send as absent (`None`) only keys the proof shows absent
    ///   ([`ReadRejection::ValueMismatch`]);
    /// * prove every key in `expected_keys`
    ///   ([`ReadRejection::MissingKey`]).
    ///
    /// On success returns the verified `(key, value)` pairs in
    /// `expected_keys` order; proven keys nobody asked for are dropped.
    pub(crate) fn prove_section(
        &self,
        root: &Digest,
        body: &MultiProofBody,
        expected_keys: &[Key],
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        if !body.keys().windows(2).all(|w| w[0] < w[1]) {
            return Err(ReadRejection::BadProof);
        }
        let depth = self.params.tree_depth;
        let proof = body.restored(depth).ok_or(ReadRejection::BadProof)?;
        let verdicts = verify_multi_proof(root, depth, body.keys(), &proof)
            .map_err(|_| ReadRejection::BadProof)?;
        for ((key, value), verdict) in body.keys().iter().zip(body.values()).zip(&verdicts) {
            if value.is_none() && *verdict != Verified::Absent {
                return Err(ReadRejection::ValueMismatch(key.clone()));
            }
        }
        expected_keys
            .iter()
            .map(|key| {
                let slot = body.keys().binary_search(key);
                slot.map(|i| (key.clone(), body.values()[i].clone()))
                    .map_err(|_| ReadRejection::MissingKey(key.clone()))
            })
            .collect()
    }

    /// Steps 5–6 of a scan answer, against its anchor's certified `root`
    /// (steps 1–4 passed). A scan must prove **completeness**: that the
    /// returned rows are *all* the committed rows of the requested
    /// window — an untrusted edge must not be able to silently omit one.
    ///
    /// 5. the *proven* window **is** the *requested* one — checked
    ///    before any proof work, so every later step reasons about one
    ///    range (anything narrower is a boundary truncation);
    /// 6. the window's occupied buckets, rebuilt from the rows
    ///    (`(sha256(key), value_digest(value))`, grouped by bucket in
    ///    the order sent: [`ScanProof::range_proof`]), and its boundary
    ///    siblings fold to `root`. The
    ///    range proof recomputes every leaf of the window, so any
    ///    omitted, injected, reordered, duplicated, foreign or tampered
    ///    row misses the root.
    ///
    /// On success every committed row of the window is a returned row.
    pub(crate) fn prove_scan(
        &self,
        root: &Digest,
        scan: &ScanProof,
        requested: &ScanRange,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        // 5. The proven window is the requested one.
        if scan.range != *requested {
            return Err(ReadRejection::ScanRangeNotCovered {
                requested: *requested,
                proven: scan.range,
            });
        }
        // 6. The rows are the window's committed content: hashed into
        // their buckets, they and the siblings fold to the root.
        let depth = self.params.tree_depth;
        let proof = scan.range_proof(depth);
        verify_range_proof(root, depth, requested, &proof)
            .map_err(|_| ReadRejection::BadRangeProof)?;
        Ok(scan.rows.clone())
    }

    /// The single verifier entry point of the unified read protocol:
    /// check a [`ReadResponse`] against the [`ReadQuery`] (one
    /// per-partition sub-query) it answers, dispatching to the section
    /// or scan proof chain and enforcing the query's snapshot policy
    /// on top:
    ///
    /// * shape: the payload must match the query's shape
    ///   ([`ReadRejection::ShapeMismatch`]);
    /// * policy: [`crate::SnapshotPolicy::MinEpoch`] becomes the LCE
    ///   floor of the underlying chain (scans included — the round-two
    ///   semantics point reads always had).
    ///
    /// On success returns the verified [`QueryAnswer`]: a point
    /// query's values, or every committed row of a scan's range.
    pub fn verify_query(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse,
        now: SimTime,
    ) -> Result<QueryAnswer, ReadRejection> {
        self.check_query(keys, expected_cluster, query, response, None, now)
    }

    /// [`ReadVerifier::verify_query`] for a subscriber: `window` is the
    /// held feed the response may lean on and — **only once every check
    /// has passed** — where its sent deltas are appended. Also returns
    /// the certified run `(served, head]` the answer rests on, held ++
    /// sent (empty without a feed): each delta an equally certified
    /// view of the served values.
    pub fn verify_and_extend(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse,
        window: &mut FeedWindow,
        now: SimTime,
    ) -> Result<(QueryAnswer, Vec<Arc<CertifiedDelta>>), ReadRejection> {
        let answer =
            self.check_query(keys, expected_cluster, query, response, Some(&*window), now)?;
        let mut run = Vec::new();
        if let Some(sent) = response.fresh_feed() {
            let served = response.batch();
            let resume = query.feed_resume(expected_cluster, served);
            run.extend(window.run(served, resume).chain(sent).cloned());
            window.absorb(&run);
        }
        Ok((answer, run))
    }

    /// The one query check behind both public entries. A point query's
    /// feed cursor fixes where the sent feed tail must begin;
    /// `held_feed`, the window the cursor described, supplies the deltas
    /// before that. With no window (a third party re-verifying
    /// evidence) the sent tail is checked from the cursor on and the
    /// held part goes unexamined — enough to reproduce any rejection
    /// that rests on query + response alone, never a reason to *use*
    /// the answer.
    fn check_query(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse,
        held_feed: Option<&FeedWindow>,
        now: SimTime,
    ) -> Result<QueryAnswer, ReadRejection> {
        let min_lce = query.min_lce();
        match (&query.shape, response.anchor(), &response.body) {
            (QueryShape::Point { keys: expected }, Some(anchor), Body::Point { body, fresh }) => {
                let (commitment, _) = anchor;
                let mut check_now = now;
                if let Some(sent) = fresh {
                    let served = commitment.header.num;
                    let resume = query.feed_resume(expected_cluster, served);
                    let held_run = || held_feed.into_iter().flat_map(|w| w.run(served, resume));
                    let from = if held_feed.is_some() { served } else { resume };
                    self.verify_feed(
                        keys,
                        expected_cluster,
                        from,
                        expected,
                        held_run().map(Arc::as_ref),
                        sent.iter().map(Arc::as_ref),
                    )?;
                    let head = sent.last().or(held_run().last());
                    let head = head.map_or(commitment, |d| &d.commitment);
                    self.check_fresh(head.header.timestamp, now)?;
                    // The verified feed proves the served values current
                    // through a fresh head, so the served batch's own age
                    // is no longer a staleness signal: anchor the base
                    // chain's clock at it.
                    check_now = commitment.header.timestamp;
                }
                self.check_commitment(keys, expected_cluster, anchor, min_lce, check_now)?;
                let root = &commitment.header.merkle_root;
                let values = self.prove_section(root, body, expected)?;
                Ok(QueryAnswer::Values(values))
            }
            (QueryShape::Scan { range, .. }, Some(anchor), Body::Scan(scan)) => {
                self.check_commitment(keys, expected_cluster, anchor, min_lce, now)?;
                let rows = self.prove_scan(&anchor.0.header.merkle_root, scan, range)?;
                Ok(QueryAnswer::Rows(rows))
            }
            _ => Err(ReadRejection::ShapeMismatch),
        }
    }
}
