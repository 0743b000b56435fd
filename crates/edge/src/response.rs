//! Proof-carrying response types: what an untrusted node hands a
//! client, and the commitment interface the verifier checks it against.

use std::sync::Arc;

use transedge_common::{BatchNum, ClusterId, Encode, Epoch, Key, SimTime, Value, WireWriter};
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, MultiProof, RangeProof, ScanRange, Sha256};

/// Domain-separated digest over a batch's changed key set (sorted,
/// deduplicated). This is the digest a [`BatchCommitment`] certifies as
/// its [`BatchCommitment::delta_digest`]: because it is folded into the
/// certified batch digest by the replicas *at consensus time*, a
/// certified delta's changed-key list is ground truth — an edge
/// relaying one cannot add, drop, or reorder a key without breaking the
/// recomputation against the `f+1` certificate.
pub fn changed_keys_digest(keys: &[Key]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"transedge/delta");
    h.update(&(keys.len() as u64).to_le_bytes());
    for key in keys {
        h.update(&(key.len() as u32).to_le_bytes());
        h.update(key.as_bytes());
    }
    h.finalize()
}

/// What the verifier needs from a batch commitment (a certified batch
/// header, in `transedge-core` terms). The trait keeps this crate
/// independent of the batch wire format: any type that can name the
/// snapshot (cluster, batch, root, LCE, timestamp) and recompute the
/// digest the consensus certificate signs can anchor a verified read.
pub trait BatchCommitment {
    /// Partition the snapshot belongs to.
    fn cluster(&self) -> ClusterId;
    /// Batch the snapshot was cut at.
    fn batch(&self) -> BatchNum;
    /// Merkle root of the partition's tree after that batch.
    fn merkle_root(&self) -> &Digest;
    /// Last Committed Epoch of that batch (round-two freshness floor).
    fn lce(&self) -> Epoch;
    /// Leader-stamped wall clock of the batch (§4.4.2 freshness).
    fn timestamp(&self) -> SimTime;
    /// The digest the cluster's `f+1` accept signatures certify.
    fn certified_digest(&self) -> Digest;
    /// [`changed_keys_digest`] of the batch's changed key set, as
    /// certified by consensus. Defaults to the empty change set so
    /// commitments predating the delta feed (and trivial test
    /// commitments) verify against no-change deltas.
    fn delta_digest(&self) -> Digest {
        changed_keys_digest(&[])
    }
}

/// One batch's entry in the certified commit feed: the certified
/// commitment (which folds the [`changed_keys_digest`] of the batch's
/// changed key set into the digest consensus signs), its `f+1`
/// certificate, and the changed key set itself.
///
/// The delta is a *claim* by whoever relays it; the certificate is the
/// ground truth. [`crate::ReadVerifier::verify_delta`] recomputes the
/// changed-set digest and checks the commitment chain, so a subscriber
/// trusts a delta exactly as much as it trusts a proof-carrying read:
/// not at all until it verifies.
#[derive(Clone, Debug)]
pub struct CertifiedDelta<H> {
    /// The certified batch header the delta belongs to.
    pub commitment: H,
    /// `f+1` consensus certificate over the commitment's digest.
    pub cert: Certificate,
    /// The batch's changed keys, ascending and unique. Must hash to
    /// `commitment.delta_digest()`.
    pub changed: Vec<Key>,
}

impl<H: BatchCommitment> CertifiedDelta<H> {
    /// Batch this delta describes.
    pub fn batch(&self) -> BatchNum {
        self.commitment.batch()
    }

    /// Does the delta's changed set touch any of `keys`?
    pub fn touches(&self, keys: &[Key]) -> bool {
        keys.iter().any(|k| self.changed.binary_search(k).is_ok())
    }
}

/// The body of one point-read **section**: a proven key set (sorted,
/// deduplicated), one value slot per key (`None` = proven absent), and
/// the **one** Merkle multiproof that authenticates all of them
/// against the snapshot root at once. A one-key body is the classic
/// single inclusion proof.
///
/// A body is immutable once built: its parts are reachable only through
/// accessors, and the canonical wire image that content addresses and
/// evidence fingerprints hash is encoded from those same parts on
/// demand ([`Encode`]), so there is no second copy that could drift
/// from them — a tamperer has to rebuild the body. Every clone (cache
/// entry, in-flight response, durable object) shares one allocation.
#[derive(Clone, Debug)]
pub struct MultiProofBody {
    parts: Arc<BodyParts>,
}

#[derive(Debug)]
struct BodyParts {
    keys: Vec<Key>,
    values: Vec<Option<Value>>,
    proof: MultiProof,
}

impl Encode for MultiProofBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(self.keys());
        w.put_seq(self.values());
        self.proof().encode(w);
    }
}

impl MultiProofBody {
    /// Build a body with one value slot per key. Honest builders pass
    /// `keys` sorted and deduplicated; the verifier rejects anything
    /// else.
    pub fn new(keys: Vec<Key>, values: Vec<Option<Value>>, proof: MultiProof) -> Self {
        assert_eq!(keys.len(), values.len(), "one value slot per key");
        MultiProofBody {
            parts: Arc::new(BodyParts {
                keys,
                values,
                proof,
            }),
        }
    }

    /// The proven keys, ascending and unique in an honest body.
    pub fn keys(&self) -> &[Key] {
        &self.parts.keys
    }

    /// `values()[i]` answers `keys()[i]`; `None` is a proven absence.
    pub fn values(&self) -> &[Option<Value>] {
        &self.parts.values
    }

    /// The one multiproof covering every key in [`Self::keys`].
    pub fn proof(&self) -> &MultiProof {
        &self.parts.proof
    }

    /// Exact wire size, computed structurally (equals
    /// `encode_to_vec().len()`).
    pub fn encoded_len(&self) -> usize {
        let keys = 4 + self.keys().iter().map(|k| 4 + k.len()).sum::<usize>();
        let values = 4 + self
            .values()
            .iter()
            .map(|v| 1 + v.as_ref().map_or(0, |v| 4 + v.len()))
            .sum::<usize>();
        keys + values + self.proof().encoded_len()
    }

    /// Does this body prove `key`?
    pub fn proves(&self, key: &Key) -> bool {
        self.keys().binary_search(key).is_ok()
    }

    /// Do `self` and `other` share one allocation (clones of the same
    /// body)?
    pub(crate) fn same_body(&self, other: &MultiProofBody) -> bool {
        Arc::ptr_eq(&self.parts, &other.parts)
    }
}

/// One point-read section: the certified commitment, its consensus
/// certificate, and a [`MultiProofBody`] proven against that
/// commitment's root. Everything in here is either signed or checkable
/// against something signed — an untrusted node can cache, replay, or
/// forward sections, but not alter them undetected.
#[derive(Clone, Debug)]
pub struct MultiProofBundle<H> {
    pub commitment: H,
    pub cert: Certificate,
    pub body: MultiProofBody,
}

impl<H: BatchCommitment> MultiProofBundle<H> {
    /// Batch this section snapshots.
    pub fn batch(&self) -> BatchNum {
        self.commitment.batch()
    }
}

/// A proof-carrying range scan: every committed row of a contiguous
/// tree-order window, plus the Merkle range proof that makes the set
/// *complete* — an untrusted server cannot omit a row in `range`
/// without breaking the proof against the certified root. `range` is
/// the window actually proven, which the verifier requires to be the
/// window the client requested.
#[derive(Clone, Debug)]
pub struct ScanProof {
    /// The proven window, in tree order (bucket indices).
    pub range: ScanRange,
    /// Every committed `(key, value)` in the window at the snapshot
    /// batch, ascending in tree order — one row per proof entry.
    pub rows: Vec<(Key, Value)>,
    /// Completeness proof binding `rows` to the certified root.
    pub proof: RangeProof,
}

impl ScanProof {
    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn encoded_len(&self) -> usize {
        16 + self
            .rows
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum::<usize>()
            + self.proof.encoded_len()
    }
}

/// A complete verified-scan response for one partition: the certified
/// commitment, its consensus certificate, and the proof-carrying rows.
/// The scan analogue of [`MultiProofBundle`] — cacheable and replayable
/// by untrusted nodes, alterable by none.
#[derive(Clone, Debug)]
pub struct ScanBundle<H> {
    pub commitment: H,
    pub cert: Certificate,
    pub scan: ScanProof,
}

impl<H: BatchCommitment> ScanBundle<H> {
    /// Batch this scan snapshots.
    pub fn batch(&self) -> BatchNum {
        self.commitment.batch()
    }
}
