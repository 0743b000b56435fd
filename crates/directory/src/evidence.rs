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
    Anchor, Body, CertifiedDelta, CommittedHeader, QueryShape, ReadQuery, ReadRejection,
    ReadResponse, ReadVerifier, SnapshotPolicy,
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
            | ReadRejection::BadRangeProof
            | ReadRejection::BadDelta
            | ReadRejection::FeedSpliced { .. }
    )
}

/// Hash a freshness feed: each delta's certified digest, certificate,
/// and — crucially — the *carried* changed-key list. The certificate
/// pins the true delta digest, but the carried list is the relay's
/// claim; hashing it means a tampered list (the lie the evidence
/// convicts) cannot be swapped out from under the witness's signature.
fn hash_feed(h: &mut Sha256, feed: &[Arc<CertifiedDelta>]) {
    h.update(b"fresh");
    h.update(&(feed.len() as u32).to_le_bytes());
    for delta in feed {
        hash_anchor(h, &delta.commitment, &delta.cert.digest, &delta.cert.sigs);
        hash_keys(h, &delta.changed);
    }
}

/// Hash a certified anchor: the certified digest, then the certificate
/// — its digest and every signature.
fn hash_anchor(
    h: &mut Sha256,
    commitment: &CommittedHeader,
    cert_digest: &Digest,
    sigs: &[(NodeId, Signature)],
) {
    h.update(&commitment.certified_digest().0);
    h.update(&cert_digest.0);
    for (node, sig) in sigs {
        let mut w = WireWriter::with_capacity(8);
        node.encode(&mut w);
        h.update(&w.into_bytes());
        h.update(&sig.0);
    }
}

/// Collision-resistant digest of a response's proof-relevant content.
/// Any tamper a verifier could object to — values, proofs, roots,
/// certificates, rows, window bounds, freshness feeds — changes it, so
/// the witness's signature over the fingerprint pins the evidence to
/// *this* response: a relay cannot swap in a different payload under
/// the signature. A point body and a scan window are each hashed as
/// their wire image, which covers keys, value slots or rows, and the
/// proof, byte for byte. A held
/// answer is fingerprinted by its reference — an honest witness files
/// the full answer it rebuilt, and a held one never verifies as
/// cryptographic evidence.
pub fn response_fingerprint(response: &ReadResponse) -> Digest {
    let mut h = Sha256::new();
    match &response.anchor {
        Anchor::Full(anchor) => hash_anchor(&mut h, &anchor.0, &anchor.1.digest, &anchor.1.sigs),
        Anchor::Held { cluster, batch } => {
            h.update(b"held");
            h.update(&cluster.0.to_le_bytes());
            h.update(&batch.0.to_le_bytes());
        }
    }
    match &response.body {
        Body::Point { body, fresh } => {
            h.update(b"point");
            h.update(&body.encode_to_vec());
            if let Some(feed) = fresh {
                hash_feed(&mut h, feed);
            }
        }
        Body::Scan(scan) => {
            h.update(b"scan");
            h.update(&scan.encode_to_vec());
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
        QueryShape::Scan { clusters, range } => {
            h.update(b"scan");
            for c in clusters {
                h.update(&c.0.to_le_bytes());
            }
            h.update(&range.first.to_le_bytes());
            h.update(&range.last.to_le_bytes());
        }
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
pub struct EvidenceBody {
    /// The edge the witness says served the failing response.
    pub subject: EdgeId,
    /// Partition the sub-query targeted (re-verification input).
    pub cluster: ClusterId,
    /// The sub-query the witness sent.
    pub query: ReadQuery,
    /// The response that failed verification, attached in full so any
    /// receiver can re-run the verifier.
    pub response: ReadResponse,
    /// When the witness observed it — also the `now` receivers re-verify
    /// at, so freshness-dependent outcomes reproduce deterministically.
    pub observed_at: SimTime,
}

impl EvidenceBody {
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
pub struct SignedEvidence {
    pub witness: NodeId,
    pub body: EvidenceBody,
    pub sig: Signature,
}

impl SignedEvidence {
    /// Sign `body` as `witness`.
    pub fn sign(witness: NodeId, body: EvidenceBody, keypair: &Keypair) -> Self {
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

    /// Wire-size estimate for the simulator's bandwidth model: the
    /// witness, subject, observation time and signature, the query, and
    /// the response at the size the network charges it.
    pub fn wire_size(&self) -> usize {
        80 + self.body.query.wire_size() + self.body.response.wire_size()
    }
}
