//! Verified byzantine-rejection evidence: a demotion claim with the
//! offending proof attached.
//!
//! A bare "edge X lied to me" counter is unverifiable — any byzantine
//! gossip participant could demote the whole honest fleet with it. An
//! evidence record instead carries the *(query, response)* pair the
//! witness rejected, and every ingesting node re-runs the trusted-side
//! verifier on it: the evidence is admitted only if the embedded
//! response fails a **cryptographic** check ([`is_cryptographic`]) at
//! the witness's observation time. A fabricated record built from
//! honest material (a response that actually verifies, or one that
//! merely looks stale/mis-shaped) is rejected, and the gossip *sender*
//! is struck locally by the receiver.
//!
//! What this does and does not prove: served responses are not bound to
//! the serving edge by a signature, so a determined byzantine witness
//! can still corrupt a bundle itself and frame an honest edge. The
//! directory therefore remains a **hint layer**: an admitted evidence
//! record demotes the named edge in routing tables (latency cost for
//! the fleet if the frame was false), while read correctness continues
//! to rest solely on the client-side verifier.

use std::sync::Arc;

use transedge_common::{ClusterId, EdgeId, Encode as _, Key, NodeId, SimTime, WireWriter};
use transedge_crypto::{sha256, Digest, KeyStore, Keypair, Sha256, Signature};
use transedge_edge::{
    BatchCommitment, CertifiedDelta, MultiProofBundle, QueryShape, ReadQuery, ReadRejection,
    ReadResponse, ReadVerifier, ScanBundle, SnapshotPolicy,
};

/// Is this rejection class *cryptographic* — does producing it require
/// corrupting proof-carrying material, rather than merely pairing an
/// honest response with an unlucky query (wrong cluster, stale clock,
/// mismatched shape, replayed token, a key the honest section never
/// claimed to cover)? Only cryptographic classes are admissible as
/// demotion evidence; the rest are circumstantial and feed nothing but
/// local routing counters.
pub fn is_cryptographic(rejection: &ReadRejection) -> bool {
    matches!(
        rejection,
        ReadRejection::BadCertificate
            | ReadRejection::BadProof
            | ReadRejection::ValueMismatch(_)
            | ReadRejection::PhantomValue(_)
            | ReadRejection::BadRangeProof
            | ReadRejection::IncompleteScan { .. }
            | ReadRejection::ScanRowMismatch(_)
            | ReadRejection::BadDelta
            | ReadRejection::FeedSpliced { .. }
    )
}

/// Hash one point section: the certified digest, the certificate with
/// every signature, and the body's wire image — which covers keys,
/// value slots and the multiproof byte-for-byte, so this pins
/// everything a verifier could object to.
fn hash_section<H: BatchCommitment>(h: &mut Sha256, section: &MultiProofBundle<H>) {
    h.update(&section.commitment.certified_digest().0);
    h.update(&section.cert.digest.0);
    for (node, sig) in &section.cert.sigs {
        let mut w = WireWriter::with_capacity(8);
        node.encode(&mut w);
        h.update(&w.into_bytes());
        h.update(&sig.0);
    }
    h.update(&section.body.encode_to_vec());
}

fn hash_scan<H: BatchCommitment>(h: &mut Sha256, bundle: &ScanBundle<H>) {
    h.update(&bundle.commitment.certified_digest().0);
    h.update(&bundle.cert.digest.0);
    h.update(&bundle.scan.range.first.to_le_bytes());
    h.update(&bundle.scan.range.last.to_le_bytes());
    for (key, value) in &bundle.scan.rows {
        h.update(key.as_bytes());
        h.update(value.as_bytes());
    }
    for (idx, entries) in &bundle.scan.proof.occupied {
        h.update(&idx.to_le_bytes());
        for entry in entries {
            h.update(&entry.key_hash.0);
            h.update(&entry.value_hash.0);
        }
    }
    for sibling in bundle
        .scan
        .proof
        .left
        .iter()
        .chain(bundle.scan.proof.right.iter())
    {
        h.update(&sibling.0);
    }
}

/// Hash a freshness feed: each delta's certified digest, certificate,
/// and — crucially — the *carried* changed-key list. The certificate
/// pins the true delta digest, but the carried list is the relay's
/// claim; hashing it means a tampered list (the lie the evidence
/// convicts) cannot be swapped out from under the witness's signature.
fn hash_feed<H: BatchCommitment>(h: &mut Sha256, feed: &[Arc<CertifiedDelta<H>>]) {
    h.update(b"fresh");
    h.update(&(feed.len() as u32).to_le_bytes());
    for delta in feed {
        h.update(&delta.commitment.certified_digest().0);
        h.update(&delta.cert.digest.0);
        for (node, sig) in &delta.cert.sigs {
            let mut w = WireWriter::with_capacity(8);
            node.encode(&mut w);
            h.update(&w.into_bytes());
            h.update(&sig.0);
        }
        hash_keys(h, &delta.changed);
    }
}

/// Collision-resistant digest of a response's proof-relevant content.
/// Any tamper a verifier could object to — values, proofs, roots,
/// certificates, rows, window bounds, freshness feeds — changes it, so
/// the witness's signature over the fingerprint pins the evidence to
/// *this* response: a relay cannot swap in a different payload under
/// the signature.
pub fn response_fingerprint<H: BatchCommitment>(response: &ReadResponse<H>) -> Digest {
    let mut h = Sha256::new();
    match response {
        ReadResponse::Point { section, fresh } => {
            h.update(b"point");
            hash_section(&mut h, section);
            if let Some(feed) = fresh {
                hash_feed(&mut h, feed);
            }
        }
        ReadResponse::Scan { bundle } => {
            h.update(b"scan");
            hash_scan(&mut h, bundle);
        }
        ReadResponse::Gather { parts } => {
            h.update(b"gather");
            for part in parts {
                let mut w = WireWriter::with_capacity(4);
                part.cluster.encode(&mut w);
                h.update(&w.into_bytes());
                h.update(&response_fingerprint(&part.body).0);
            }
        }
    }
    h.finalize()
}

fn hash_keys(h: &mut Sha256, keys: &[Key]) {
    h.update(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        h.update(key.as_bytes());
    }
}

/// Digest of the query the witness claims the response answered.
pub fn query_fingerprint(query: &ReadQuery) -> Digest {
    let mut h = Sha256::new();
    match query.consistency {
        SnapshotPolicy::Latest => h.update(b"latest"),
        SnapshotPolicy::MinEpoch(e) => {
            h.update(b"min");
            h.update(&e.0.to_le_bytes())
        }
    };
    match &query.shape {
        QueryShape::Point { keys } => {
            h.update(b"point");
            hash_keys(&mut h, keys);
        }
        QueryShape::Scan {
            clusters,
            range,
            window,
        } => {
            h.update(b"scan");
            for c in clusters {
                h.update(&c.0.to_le_bytes());
            }
            h.update(&range.first.to_le_bytes());
            h.update(&range.last.to_le_bytes());
            h.update(&window.to_le_bytes());
        }
    }
    if let Some(token) = &query.page {
        h.update(b"page");
        h.update(&token.batch.0.to_le_bytes());
        h.update(&token.resume.to_le_bytes());
    }
    if let Some(cursors) = &query.feed {
        h.update(b"fresh");
        for (cluster, cursor) in cursors {
            h.update(&cluster.0.to_le_bytes());
            h.update(&cursor.first.0.to_le_bytes());
            h.update(&cursor.head.0.to_le_bytes());
        }
    }
    h.finalize()
}

/// The unsigned evidence claim.
#[derive(Clone, Debug)]
pub struct EvidenceBody<H> {
    /// The edge the witness says served the failing response.
    pub subject: EdgeId,
    /// Partition the sub-query targeted (re-verification input).
    pub cluster: ClusterId,
    /// The sub-query the witness sent.
    pub query: ReadQuery,
    /// The response that failed verification, attached in full so any
    /// receiver can re-run the verifier.
    pub response: ReadResponse<H>,
    /// When the witness observed it — also the `now` receivers re-verify
    /// at, so freshness-dependent outcomes reproduce deterministically.
    pub observed_at: SimTime,
}

impl<H: BatchCommitment> EvidenceBody<H> {
    /// The byte statement the witness signs: identity of the claim plus
    /// fingerprints of the embedded query and response, so no component
    /// can be swapped under the signature.
    pub fn statement(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(96);
        w.put_bytes(b"transedge/directory/evidence");
        self.subject.encode(&mut w);
        self.cluster.encode(&mut w);
        self.observed_at.encode(&mut w);
        w.put_bytes(&query_fingerprint(&self.query).0);
        w.put_bytes(&response_fingerprint(&self.response).0);
        w.into_bytes()
    }
}

/// An [`EvidenceBody`] bound to its witness by signature.
#[derive(Clone, Debug)]
pub struct SignedEvidence<H> {
    pub witness: NodeId,
    pub body: EvidenceBody<H>,
    pub sig: Signature,
}

impl<H: BatchCommitment + Clone> SignedEvidence<H> {
    /// Sign `body` as `witness`.
    pub fn sign(witness: NodeId, body: EvidenceBody<H>, keypair: &Keypair) -> Self {
        let sig = keypair.sign(&body.statement());
        SignedEvidence { witness, body, sig }
    }

    /// Full admission check an ingesting node runs: the witness's
    /// registered key covers the statement, and the embedded response
    /// *fails* verification against the embedded query with a
    /// cryptographic rejection at the witness's observation time.
    /// Returns the reproduced rejection on success.
    pub fn verify(&self, keys: &KeyStore, verifier: &ReadVerifier) -> Option<ReadRejection> {
        keys.verify(self.witness, &self.body.statement(), &self.sig)
            .ok()?;
        // The signed query carries its feed cursor, so whatever rests on
        // query + sent deltas reproduces here: a sent tail not starting
        // right after the cursor (`FeedSpliced`), a sent delta with a
        // bad certificate or changed set, a sent delta touching a
        // queried key. What rests
        // on a delta only the witness *held* — the edge proving a head
        // past a held delta that touches the key — does not: with no
        // window the held part goes unexamined, the response verifies,
        // and the record is dropped below as a fabrication. Witnesses
        // demote on those locally and never gossip them.
        match verifier.verify_query(
            keys,
            self.body.cluster,
            &self.body.query,
            &self.body.response,
            self.body.observed_at,
        ) {
            // An honest (verifying) response attached as "evidence" is
            // the fabrication this check exists for.
            Ok(_) => None,
            Err(rejection) if is_cryptographic(&rejection) => Some(rejection),
            Err(_) => None,
        }
    }

    /// Deterministic total-order rank for the per-subject merge winner:
    /// earliest observation first, content digest breaking ties.
    pub fn rank(&self) -> (u64, Digest) {
        let mut bytes = self.body.statement();
        bytes.extend_from_slice(&self.sig.0);
        (self.body.observed_at.0, sha256(&bytes))
    }

    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        fn feed_size<H>(feed: &Option<Vec<Arc<CertifiedDelta<H>>>>) -> usize {
            feed.as_ref().map_or(1, |deltas| {
                1 + deltas
                    .iter()
                    .map(|d| {
                        110 + d.cert.sigs.len() * 101
                            + d.changed.iter().map(|k| 4 + k.len()).sum::<usize>()
                    })
                    .sum::<usize>()
            })
        }
        fn response_size<H>(r: &ReadResponse<H>) -> usize {
            match r {
                ReadResponse::Point { section, fresh } => {
                    110 + section.cert.sigs.len() * 101
                        + section.body.encoded_len()
                        + feed_size(fresh)
                }
                ReadResponse::Scan { bundle } => {
                    110 + bundle.cert.sigs.len() * 101 + bundle.scan.encoded_len()
                }
                ReadResponse::Gather { parts } => parts
                    .iter()
                    .map(|p| 2 + response_size(&p.body))
                    .sum::<usize>(),
            }
        }
        80 + self.body.query.wire_size() + response_size(&self.body.response)
    }
}
