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
//! 5. the section's multiproof verifies against the certified root,
//!    every value slot agrees with its proven verdict, and every
//!    requested key is among the proven ones.
//!
//! Point reads have exactly one shape — one multiproof section under
//! one certified commitment — whether they come from a replica, an edge
//! replay, a gather part, a hydrated disk object, or a sibling's state
//! transfer, and one private check (`verify_section`) runs for all of
//! them. A point answer mixing batches, or carrying no section, is not
//! a rejection: [`ReadResponse::Point`] cannot hold one. A scan answer
//! is likewise one window — the one the query asked for, proven
//! complete by one range proof ([`ReadVerifier::verify_scan`]); any
//! other window, wider or narrower, is rejected before the proof is
//! looked at, so no later step reasons about two ranges.
//!
//! Anything else is a [`ReadRejection`], which callers count as
//! evidence of a byzantine server and answer by re-asking a different
//! node.

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimDuration, SimTime, Value};
use transedge_consensus::Certificate;
use transedge_crypto::merkle::{value_digest, Verified};
use transedge_crypto::{sha256, verify_multi_proof, verify_range_proof, ScanRange};

use std::sync::Arc;

use crate::certs::QuorumCheck;
use crate::feed::FeedWindow;
use crate::query::{PageToken, QueryAnswer, QueryShape, ReadQuery, ReadResponse};
use crate::response::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, MultiProofBundle, ScanBundle,
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
    /// The section's body is malformed or its multiproof does not verify
    /// against the certified root: unsorted/duplicated proven keys, a
    /// dropped or substituted sibling, a spliced bucket, a key dropped
    /// from under its proof — every single-element mutation of a body
    /// other than a value slot lands here.
    BadProof,
    /// Proof shows the key present, but the value does not hash to the
    /// proven digest (or is missing).
    ValueMismatch(Key),
    /// Proof shows the key absent, but a value was attached anyway.
    PhantomValue(Key),
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
    /// The scan's completeness proof does not verify against the
    /// certified root (malformed, tampered, or spliced from a different
    /// batch's tree — the torn-scan attack).
    BadRangeProof,
    /// The row list does not match the proven window's committed
    /// content: the proof commits to `proven` entries but `returned`
    /// rows came back. Fewer rows than entries is the *omission*
    /// attack a point proof can never catch.
    IncompleteScan { proven: usize, returned: usize },
    /// A returned row does not hash to the committed entry at its
    /// position in the window (wrong value, out of tree order, or a
    /// duplicated/foreign row).
    ScanRowMismatch(Key),
    /// The response payload does not match the query's shape (a scan
    /// answered with a point section or vice versa).
    ShapeMismatch,
    /// The query pinned an exact snapshot (a [`crate::PageToken`]) and
    /// the response was served at a different batch — the page-splice
    /// attack: mixing pages of one scan across batches would produce a
    /// row set no single snapshot ever held.
    SnapshotPinMismatch { pinned: BatchNum, got: BatchNum },
    /// A page token's resume bound lies outside the query's range
    /// (moved backwards to or before the first window, or past the
    /// end) — a tampered or replayed token.
    PageOutOfRange { resume: u64, range: ScanRange },
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
    fn check_certified<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        commitment: &H,
        cert: &Certificate,
    ) -> Result<(), ReadRejection> {
        // 1. Right partition.
        if commitment.cluster() != expected_cluster {
            return Err(ReadRejection::WrongCluster {
                expected: expected_cluster,
                got: commitment.cluster(),
            });
        }
        // 2. Certificate chains the commitment to f+1 replicas. The
        // field comparisons run on every call; only the quorum of
        // signatures over the certificate's own statement is `keys`'
        // to answer (and, for a memo, to remember).
        if cert.cluster != expected_cluster
            || cert.slot != commitment.batch()
            || cert.digest != commitment.certified_digest()
            || !keys.check_quorum(cert, self.params.quorum)
        {
            return Err(ReadRejection::BadCertificate);
        }
        Ok(())
    }

    /// Steps 1–4 of the point and scan chains: the commitment is
    /// certified for the expected partition, its timestamp is inside
    /// the freshness window (both skew directions), and its LCE reaches
    /// the dependency floor.
    fn check_commitment<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        commitment: &H,
        cert: &Certificate,
        min_lce: Epoch,
        now: SimTime,
    ) -> Result<(), ReadRejection> {
        self.check_certified(keys, expected_cluster, commitment, cert)?;
        // 3. Freshness.
        self.check_fresh(commitment.timestamp(), now)?;
        // 4. Dependency floor (round two).
        if commitment.lce() < min_lce {
            return Err(ReadRejection::StaleSnapshot {
                required: min_lce,
                lce: commitment.lce(),
            });
        }
        Ok(())
    }

    /// Verify one [`CertifiedDelta`]: the commitment names the expected
    /// partition, the `f+1` certificate covers its recomputed digest,
    /// and the carried changed-key set is canonical (sorted, unique)
    /// and hashes to the commitment's certified
    /// [`BatchCommitment::delta_digest`]. Deliberately *no* freshness
    /// check — a delta is a historical fact, and time-dependent checks
    /// belong to the feed head (see [`ReadVerifier::verify_feed`]) so
    /// they can never mask a cryptographic rejection.
    pub fn verify_delta<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        delta: &CertifiedDelta<H>,
    ) -> Result<(), ReadRejection> {
        self.check_certified(keys, expected_cluster, &delta.commitment, &delta.cert)?;
        // The changed set must be canonical and recompute to the digest
        // consensus signed: a relaying edge cannot add, drop, or
        // reorder one key without landing here.
        if !delta.changed.windows(2).all(|w| w[0] < w[1])
            || changed_keys_digest(&delta.changed) != delta.commitment.delta_digest()
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
    pub fn verify_feed<'a, H: BatchCommitment + 'a>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        served: BatchNum,
        queried: &[Key],
        held: impl IntoIterator<Item = &'a CertifiedDelta<H>>,
        sent: impl IntoIterator<Item = &'a CertifiedDelta<H>>,
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

    /// The one point-read check. On top of the commitment chain (steps
    /// 1–4) the section must
    ///
    /// * carry a sorted, duplicate-free key list whose **one**
    ///   multiproof verifies against the certified root
    ///   ([`ReadRejection::BadProof`]);
    /// * attach to every proven key — requested or not — a value slot
    ///   agreeing with its verdict (`Some` ↔ proven present and hashing
    ///   to the proven digest, `None` ↔ proven absent), so a tampered
    ///   slot anywhere in a replayed superset is caught;
    /// * prove every key in `expected_keys`
    ///   ([`ReadRejection::MissingKey`]).
    ///
    /// On success returns the verified `(key, value)` pairs in
    /// `expected_keys` order; proven keys nobody asked for are dropped.
    pub(crate) fn verify_section<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        section: &MultiProofBundle<H>,
        expected_keys: &[Key],
        min_lce: Epoch,
        now: SimTime,
    ) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
        let MultiProofBundle {
            commitment,
            cert,
            body,
        } = section;
        self.check_commitment(keys, expected_cluster, commitment, cert, min_lce, now)?;
        if !body.keys().windows(2).all(|w| w[0] < w[1]) {
            return Err(ReadRejection::BadProof);
        }
        let verdicts = verify_multi_proof(
            commitment.merkle_root(),
            self.params.tree_depth,
            body.keys(),
            body.proof(),
        )
        .map_err(|_| ReadRejection::BadProof)?;
        for ((key, value), verdict) in body.keys().iter().zip(body.values()).zip(&verdicts) {
            match (verdict, value) {
                (Verified::Present(digest), Some(v)) if value_digest(v) == *digest => {}
                (Verified::Present(_), _) => return Err(ReadRejection::ValueMismatch(key.clone())),
                (Verified::Absent, None) => {}
                (Verified::Absent, Some(_)) => {
                    return Err(ReadRejection::PhantomValue(key.clone()))
                }
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

    /// Verify a proof-carrying range scan end to end. On top of the
    /// point-read chain (partition → certificate → freshness → LCE
    /// floor), a scan must prove **completeness**: that the returned
    /// rows are *all* the committed rows of the requested window — an
    /// untrusted edge must not be able to silently omit one. The checks:
    ///
    /// 1–4. identical to the point chain (cluster, `f+1` certificate
    ///      over the recomputed digest, freshness window, dependency
    ///      floor);
    /// 5. the *proven* window **is** the *requested* one — checked
    ///    before any proof work, so every later step reasons about one
    ///    range (anything narrower is a boundary truncation);
    /// 6. the Merkle range proof verifies against the certified root,
    ///    yielding the committed entry list of the window;
    /// 7. the returned rows match that entry list **exactly** — same
    ///    count, each row hashing to its entry, in tree order. Any
    ///    omitted, injected, reordered, or tampered row breaks this.
    ///
    /// On success every proven row is a returned row.
    pub fn verify_scan<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        bundle: &ScanBundle<H>,
        requested: &ScanRange,
        min_lce: Epoch,
        now: SimTime,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        let commitment = &bundle.commitment;
        // 1–4. Commitment chained to a certificate, fresh, above floor.
        self.check_commitment(
            keys,
            expected_cluster,
            commitment,
            &bundle.cert,
            min_lce,
            now,
        )?;
        // 5. The proven window is the requested one.
        if bundle.scan.range != *requested {
            return Err(ReadRejection::ScanRangeNotCovered {
                requested: *requested,
                proven: bundle.scan.range,
            });
        }
        // 6. Completeness proof against the certified root: the complete
        // committed entry list of the window, in tree order.
        let entries = verify_range_proof(
            commitment.merkle_root(),
            self.params.tree_depth,
            requested,
            &bundle.scan.proof,
        )
        .map_err(|_| ReadRejection::BadRangeProof)?;
        // 7. Rows ↔ entries, exactly. The entry list is the complete
        // committed content of the window (step 6), so matching it
        // one-to-one in order rules out omission, injection, and
        // duplication in a single pass.
        let rows = &bundle.scan.rows;
        if rows.len() != entries.len() {
            return Err(ReadRejection::IncompleteScan {
                proven: entries.len(),
                returned: rows.len(),
            });
        }
        for ((key, value), entry) in rows.iter().zip(&entries) {
            if sha256(key.as_bytes()) != entry.key_hash || value_digest(value) != entry.value_hash {
                return Err(ReadRejection::ScanRowMismatch(key.clone()));
            }
        }
        Ok(rows.clone())
    }

    /// The single verifier entry point of the unified read protocol:
    /// check a [`ReadResponse`] against the [`ReadQuery`] (one
    /// per-partition sub-query) it answers, dispatching to the section
    /// or scan proof chain and enforcing the query's snapshot policy
    /// and page pin on top:
    ///
    /// * shape: the payload must match the query's shape
    ///   ([`ReadRejection::ShapeMismatch`]);
    /// * page token: the resume bound must lie inside the query's range
    ///   past its first window ([`ReadRejection::PageOutOfRange`] — a
    ///   tampered or replayed token), and the response must be served
    ///   at exactly the token's batch
    ///   ([`ReadRejection::SnapshotPinMismatch`] — the page-splice
    ///   attack);
    /// * policy: [`crate::SnapshotPolicy::MinEpoch`] becomes the LCE
    ///   floor of the underlying chain (scans included — the round-two
    ///   semantics point reads always had).
    ///
    /// On success returns the verified [`QueryAnswer`]; for scans it
    /// includes the [`PageToken`] for the next page, pinned to the
    /// batch this page verified at.
    pub fn verify_query<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
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
    #[allow(clippy::type_complexity)]
    pub fn verify_and_extend<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        window: &mut FeedWindow<H>,
        now: SimTime,
    ) -> Result<(QueryAnswer, Vec<Arc<CertifiedDelta<H>>>), ReadRejection> {
        let answer =
            self.check_query(keys, expected_cluster, query, response, Some(&*window), now)?;
        let mut run = Vec::new();
        if let (Some(sent), Some(served)) = (response.fresh_feed(), response.batch()) {
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
    fn check_query<H: BatchCommitment>(
        &self,
        keys: &impl QuorumCheck,
        expected_cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<H>,
        held_feed: Option<&FeedWindow<H>>,
        now: SimTime,
    ) -> Result<QueryAnswer, ReadRejection> {
        let min_lce = query.min_lce();
        match (&query.shape, response) {
            (QueryShape::Point { keys: expected }, ReadResponse::Point { section, fresh }) => {
                let mut check_now = now;
                if let Some(sent) = fresh {
                    let served = section.batch();
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
                    let head_ts = sent
                        .last()
                        .or(held_run().last())
                        .map_or(section.commitment.timestamp(), |d| d.commitment.timestamp());
                    self.check_fresh(head_ts, now)?;
                    // The verified feed proves the served values current
                    // through a fresh head, so the served batch's own age
                    // is no longer a staleness signal: anchor the base
                    // chain's clock at it.
                    check_now = section.commitment.timestamp();
                }
                let values = self.verify_section(
                    keys,
                    expected_cluster,
                    section,
                    expected,
                    min_lce,
                    check_now,
                )?;
                Ok(QueryAnswer::Values(values))
            }
            (QueryShape::Scan { range, .. }, ReadResponse::Scan { bundle }) => {
                if let Some(PageToken { resume, .. }) = query.page {
                    // The first page starts at `range.first` with no
                    // token, so a legitimate token always resumes
                    // strictly inside the range: anything at or before
                    // the start is a token moved backwards (replaying
                    // already-scanned buckets), anything past the end a
                    // fabricated continuation.
                    if resume <= range.first || resume > range.last {
                        return Err(ReadRejection::PageOutOfRange {
                            resume,
                            range: *range,
                        });
                    }
                }
                let Some(window) = query.scan_window() else {
                    return Err(ReadRejection::PageOutOfRange {
                        resume: query.page.as_ref().map_or(range.first, |t| t.resume),
                        range: *range,
                    });
                };
                if let Some(pinned) = query.pinned_batch() {
                    let got = bundle.batch();
                    if got != pinned {
                        return Err(ReadRejection::SnapshotPinMismatch { pinned, got });
                    }
                }
                let rows = self.verify_scan(
                    keys,
                    expected_cluster,
                    bundle.as_ref(),
                    &window,
                    min_lce,
                    now,
                )?;
                let next = if window.last < range.last {
                    Some(PageToken {
                        batch: bundle.batch(),
                        resume: window.last + 1,
                    })
                } else {
                    None
                };
                Ok(QueryAnswer::Rows { rows, next })
            }
            _ => Err(ReadRejection::ShapeMismatch),
        }
    }
}
