//! Proof-carrying response types: what an untrusted node hands a
//! client, and the certified batch header the verifier checks it
//! against.

use std::sync::Arc;

use transedge_common::{
    BatchNum, ClusterId, Decode, Encode, Epoch, Key, Result, SimTime, Value, WireReader, WireWriter,
};
use transedge_consensus::Certificate;
use transedge_crypto::merkle::{value_digest, BucketEntry};
use transedge_crypto::{sha256, Digest, MultiProof, RangeProof, ScanRange, Sha256};

/// Domain-separated digest over a batch's changed key set (sorted,
/// deduplicated). A [`BatchHeader`] certifies it as its `delta_digest`:
/// because it is folded into the certified batch digest by the replicas
/// *at consensus time*, a certified delta's changed-key list is ground
/// truth — an edge relaying one cannot add, drop, or reorder a key
/// without breaking the recomputation against the `f+1` certificate.
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

/// The Conflict-Dependency vector (paper §3.4, §4.3.3b): entry `[Y]` is
/// the highest *prepare-batch* number at partition `Y` that this
/// partition's state depends on; `-1` ([`Epoch::NONE`]) means no
/// dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CdVector(Vec<Epoch>);

impl CdVector {
    /// All `-1`s, for `n` partitions.
    pub fn new(n: usize) -> Self {
        CdVector(vec![Epoch::NONE; n])
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, cluster: ClusterId) -> Epoch {
        self.0
            .get(cluster.as_usize())
            .copied()
            .unwrap_or(Epoch::NONE)
    }

    pub fn set(&mut self, cluster: ClusterId, epoch: Epoch) {
        self.0[cluster.as_usize()] = epoch;
    }

    /// Algorithm 1's core operation: entry-wise maximum.
    pub fn pairwise_max(&mut self, other: &CdVector) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    pub fn entries(&self) -> impl Iterator<Item = (ClusterId, Epoch)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, e)| (ClusterId(i as u16), *e))
    }
}

impl Encode for CdVector {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0.len() as u32);
        for e in &self.0 {
            e.encode(w);
        }
    }
}

impl Decode for CdVector {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(Epoch::decode(r)?);
        }
        Ok(CdVector(v))
    }
}

/// The read-only segment plus batch identity — everything a client
/// needs (together with the `f+1` certificate) to trust a snapshot
/// served by one untrusted node (paper §3.2, §4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchHeader {
    pub cluster: ClusterId,
    pub num: BatchNum,
    /// Conflict-Dependency vector of this batch.
    pub cd: CdVector,
    /// Last Committed Epoch: prepare-batch number of the most recent
    /// prepare group whose transactions committed as of this batch.
    pub lce: Epoch,
    /// Root of the partition's Merkle tree after applying this batch.
    pub merkle_root: Digest,
    /// [`changed_keys_digest`] of the batch's changed key set (local
    /// writes plus drained-commit writes on this partition, sorted and
    /// deduplicated). Living in the header, it is folded into the
    /// certified batch digest — so the `f+1` certificate covers *what
    /// changed*, and a certified delta's key list becomes unforgeable.
    /// Leaders compute it at seal time; followers recompute and reject
    /// a mismatch.
    pub delta_digest: Digest,
    /// Leader-stamped wall-clock (§4.4.2 freshness); replicas reject
    /// stamps outside the configured window.
    pub timestamp: SimTime,
}

impl Encode for BatchHeader {
    fn encode(&self, w: &mut WireWriter) {
        self.cluster.encode(w);
        self.num.encode(w);
        self.cd.encode(w);
        self.lce.encode(w);
        self.merkle_root.encode(w);
        self.delta_digest.encode(w);
        self.timestamp.encode(w);
    }
}

impl BatchHeader {
    /// Exact wire size, computed structurally (equals
    /// `encode_to_vec().len()`): cluster, batch, the length-prefixed CD
    /// vector, LCE, Merkle root, delta digest and timestamp.
    pub fn encoded_len(&self) -> usize {
        2 + 8 + 4 + self.cd.len() * 8 + 8 + 32 + 32 + 8
    }
}

impl Decode for BatchHeader {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(BatchHeader {
            cluster: ClusterId::decode(r)?,
            num: BatchNum::decode(r)?,
            cd: CdVector::decode(r)?,
            lce: Epoch::decode(r)?,
            merkle_root: Digest::decode(r)?,
            delta_digest: Digest::decode(r)?,
            timestamp: SimTime::decode(r)?,
        })
    }
}

/// A batch header together with the digest of the segments it omits —
/// exactly what a read-only response carries, and the anchor every
/// proof on the read path is checked against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedHeader {
    pub header: BatchHeader,
    pub body_digest: Digest,
}

impl CommittedHeader {
    /// The digest the cluster's `f+1` accept signatures certify:
    /// `H("transedge/batch" ‖ header ‖ body_digest)`. The header is
    /// hashed apart from the body so that a client holding only this
    /// pair — the read-only response — recomputes the batch digest
    /// without downloading the segments. The one place the layout is
    /// written: a replica's batch digest is this too.
    pub fn certified_digest(&self) -> Digest {
        let mut header = WireWriter::with_capacity(self.header.encoded_len());
        self.header.encode(&mut header);
        let mut h = Sha256::new();
        h.update(b"transedge/batch");
        h.update(header.as_slice());
        h.update(self.body_digest.as_bytes());
        h.finalize()
    }
}

/// The bandwidth model's size of an `f+1` certificate: cluster, slot,
/// digest and signature count, then a flat 101 B per signature (signer,
/// signature and framing; the encoding item `[bytes]` replaces the
/// estimate with the encoded length).
pub fn cert_size(cert: &Certificate) -> usize {
    46 + cert.sigs.len() * 101
}

/// Wire size of a certified anchor: the header, the digest of the
/// segments it omits, and the certificate over both. Every full answer
/// (on the wire or in an evidence record) and every certified
/// delta carries one, and all of them are sized by this function (414 B at five partitions
/// under a two-signature certificate).
pub fn anchor_size(commitment: &CommittedHeader, cert: &Certificate) -> usize {
    commitment.header.encoded_len() + 32 + cert_size(cert)
}

/// Wire size of a held reference — the partition and batch of an anchor
/// the asking client named as held — which a held answer carries in
/// place of the anchor ([`crate::Anchor::Held`]).
pub const HELD_ANCHOR_SIZE: usize = 2 + 8;

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
pub struct CertifiedDelta {
    /// The certified batch header the delta belongs to.
    pub commitment: CommittedHeader,
    /// `f+1` consensus certificate over the commitment's digest.
    pub cert: Certificate,
    /// The batch's changed keys, ascending and unique. Must hash to
    /// `commitment.header.delta_digest`.
    pub changed: Vec<Key>,
}

impl CertifiedDelta {
    /// Batch this delta describes.
    pub fn batch(&self) -> BatchNum {
        self.commitment.header.num
    }

    /// Does the delta's changed set touch any of `keys`?
    pub fn touches(&self, keys: &[Key]) -> bool {
        keys.iter().any(|k| self.changed.binary_search(k).is_ok())
    }

    /// Wire size: the certified anchor, then the length-prefixed
    /// changed-key list.
    pub fn wire_size(&self) -> usize {
        anchor_size(&self.commitment, &self.cert)
            + 4
            + self.changed.iter().map(|k| k.len() + 4).sum::<usize>()
    }
}

/// The body of one point-read **section**: a proven key set (sorted,
/// deduplicated), one value slot per key (`None` = proven absent), and
/// the **one** Merkle multiproof that authenticates all of them
/// against the snapshot root at once. A one-key body is the classic
/// single inclusion proof.
///
/// The multiproof ships without the bucket entry of any key the body
/// carries a value for: that entry is `(sha256(key),
/// value_digest(value))`, which the verifier recomputes from the key
/// and value it was sent and puts back into the key's bucket before
/// folding. A proven-absent key has no entry to drop, and the entries
/// of keys the body does not prove (bucket neighbours) still travel.
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
    /// The body a prover ships for `keys`, `values` and the multiproof
    /// its tree made over `keys`: each carried value's own bucket entry
    /// is dropped from the proof. Honest provers pass `keys` sorted and
    /// deduplicated; the verifier rejects anything else.
    pub fn stripped(keys: Vec<Key>, values: Vec<Option<Value>>, mut proof: MultiProof) -> Self {
        let mut carried: Vec<Digest> = keys
            .iter()
            .zip(&values)
            .filter(|(_, value)| value.is_some())
            .map(|(key, _)| sha256(key.as_bytes()))
            .collect();
        carried.sort_unstable();
        for bucket in &mut proof.buckets {
            bucket
                .entries
                .retain(|e| carried.binary_search(&e.key_hash).is_err());
        }
        MultiProofBody::new(keys, values, proof)
    }

    /// The multiproof this body was stripped from: each carried value's
    /// entry `(sha256(key), value_digest(value))` back in its key's
    /// bucket at its sorted place, for the verifier to fold. `None` when
    /// a bucket the keys need is not carried, or already ships a carried
    /// key's own entry (a second encoding of one proof). The verifier's
    /// half of [`MultiProofBody::stripped`].
    pub fn restored(&self, depth: u32) -> Option<MultiProof> {
        // In key-hash order the keys come bucket by bucket, and the n-th
        // run of one bucket is the proof's n-th carried bucket.
        let hashed = self.keys().iter().map(|k| sha256(k.as_bytes()));
        let mut keys: Vec<(Digest, &Option<Value>)> = hashed.zip(self.values()).collect();
        keys.sort_unstable_by_key(|(key_hash, _)| *key_hash);
        let bucket = |(key_hash, _): &(Digest, _)| ScanRange::bucket_of_hash(key_hash, depth);
        let mut proof = self.proof().clone();
        for (slot, run) in keys.chunk_by(|a, b| bucket(a) == bucket(b)).enumerate() {
            let entries = &mut proof.buckets.get_mut(slot)?.entries;
            for (key_hash, value) in run {
                let Some(value) = value else { continue };
                let at = entries
                    .binary_search_by(|e| e.key_hash.cmp(key_hash))
                    .err()?;
                let (key_hash, value_hash) = (*key_hash, value_digest(value));
                entries.insert(
                    at,
                    BucketEntry {
                        key_hash,
                        value_hash,
                    },
                );
            }
        }
        Some(proof)
    }

    /// A body from the parts it travels as, one value slot per key:
    /// `proof` is taken as shipped, carried values' entries already
    /// dropped ([`MultiProofBody::stripped`] builds it from a tree's
    /// proof).
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

    /// The one multiproof covering every key in [`Self::keys`], less
    /// the entries of the values the body carries.
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
    #[cfg(test)]
    pub(crate) fn same_body(&self, other: &MultiProofBody) -> bool {
        Arc::ptr_eq(&self.parts, &other.parts)
    }
}

/// A proof-carrying range scan: every committed row of a contiguous
/// tree-order window, plus the boundary siblings that fold the window
/// up to the certified root. It carries nothing the verifier can
/// compute: the window's occupied buckets, and every entry in them, are
/// recomputed from the rows (`(sha256(key), value_digest(value))`,
/// grouped by bucket), so the rows themselves are what the fold
/// authenticates — an untrusted server cannot omit, add, alter or
/// reorder a row in `range` without missing the root. `range` is the
/// window actually proven, which the verifier requires to be the window
/// the client requested.
#[derive(Clone, Debug)]
pub struct ScanProof {
    /// The proven window, in tree order (bucket indices).
    pub range: ScanRange,
    /// Every committed `(key, value)` in the window at the snapshot
    /// batch, strictly ascending by key hash (tree order): one encoding
    /// verifies.
    pub rows: Vec<(Key, Value)>,
    /// Left-boundary siblings, bottom-up ([`RangeProof::left`]).
    pub left: Vec<Digest>,
    /// Right-boundary siblings, bottom-up ([`RangeProof::right`]).
    pub right: Vec<Digest>,
}

impl Encode for ScanProof {
    fn encode(&self, w: &mut WireWriter) {
        self.range.encode(w);
        w.put_seq(&self.rows);
        w.put_seq(&self.left);
        w.put_seq(&self.right);
    }
}

impl ScanProof {
    /// The window a prover ships for `rows` under its tree's range
    /// `proof`: the boundary siblings only, the occupied buckets left
    /// for the verifier to rebuild from the rows.
    pub fn stripped(range: ScanRange, rows: Vec<(Key, Value)>, proof: RangeProof) -> Self {
        ScanProof {
            range,
            rows,
            left: proof.left,
            right: proof.right,
        }
    }

    /// The range proof this window was stripped from: its occupied
    /// buckets rebuilt from the rows, each row's entry `(sha256(key),
    /// value_digest(value))` in the bucket its key hash names, bucket
    /// by bucket in the order sent, beside the shipped siblings. Rows
    /// out of strict key-hash order repeat a bucket or unsort one,
    /// which the range proof's verifier rejects. The verifier's half of
    /// [`ScanProof::stripped`].
    pub(crate) fn range_proof(&self, depth: u32) -> RangeProof {
        let entry = |(key, value): &(Key, Value)| BucketEntry {
            key_hash: sha256(key.as_bytes()),
            value_hash: value_digest(value),
        };
        let entries: Vec<BucketEntry> = self.rows.iter().map(entry).collect();
        let bucket = |e: &BucketEntry| ScanRange::bucket_of_hash(&e.key_hash, depth);
        let runs = entries.chunk_by(|a, b| bucket(a) == bucket(b));
        let occupied = runs.map(|run| (bucket(&run[0]), run.to_vec())).collect();
        let (left, right) = (self.left.clone(), self.right.clone());
        RangeProof {
            occupied,
            left,
            right,
        }
    }

    /// Exact wire size, computed structurally (equals
    /// `encode_to_vec().len()`): the window, the length-prefixed rows
    /// and the two length-prefixed sibling lists.
    pub fn encoded_len(&self) -> usize {
        let rows = self.rows.iter().map(|(k, v)| 8 + k.len() + v.len());
        16 + 4 + rows.sum::<usize>() + 8 + (self.left.len() + self.right.len()) * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field of the certified header is folded into the digest
    /// the certificate signs: rewriting any one of them changes it.
    #[test]
    fn batch_digest_changes_with_content() {
        let mut cd = CdVector::new(3);
        cd.set(ClusterId(1), Epoch(4));
        let honest = CommittedHeader {
            header: BatchHeader {
                cluster: ClusterId(1),
                num: BatchNum(4),
                cd,
                lce: Epoch(2),
                merkle_root: Digest([7; 32]),
                delta_digest: changed_keys_digest(&[Key::from_u32(1)]),
                timestamp: SimTime(1_000),
            },
            body_digest: Digest([9; 32]),
        };
        type Edit = fn(&mut CommittedHeader);
        let edits: [(&str, Edit); 8] = [
            ("cluster", |c| c.header.cluster = ClusterId(2)),
            ("num", |c| c.header.num = BatchNum(5)),
            ("cd entry", |c| c.header.cd.set(ClusterId(0), Epoch(0))),
            ("lce", |c| c.header.lce = Epoch(3)),
            ("merkle_root", |c| c.header.merkle_root = Digest([8; 32])),
            ("delta_digest", |c| c.header.delta_digest = Digest([1; 32])),
            ("timestamp", |c| c.header.timestamp = SimTime(1_001)),
            ("body_digest", |c| c.body_digest = Digest([10; 32])),
        ];
        let digest = honest.certified_digest();
        for (field, edit) in edits {
            let mut edited = honest.clone();
            edit(&mut edited);
            assert_ne!(edited.certified_digest(), digest, "{field}");
        }
    }

    /// One size for the certified anchor every full answer and feed
    /// delta carries: the header's
    /// structural size is its encoding's length, and at five partitions
    /// under a two-signature certificate the anchor is 414 B where a
    /// held reference is 10.
    #[test]
    fn anchor_and_held_reference_sizes() {
        use transedge_common::{NodeId, ReplicaId};
        use transedge_crypto::Signature;

        let mut cd = CdVector::new(5);
        cd.set(ClusterId(3), Epoch(7));
        let commitment = CommittedHeader {
            header: BatchHeader {
                cluster: ClusterId(1),
                num: BatchNum(9),
                cd,
                lce: Epoch(2),
                merkle_root: Digest([7; 32]),
                delta_digest: Digest([8; 32]),
                timestamp: SimTime(1_000),
            },
            body_digest: Digest([9; 32]),
        };
        let header = &commitment.header;
        assert_eq!(header.encoded_len(), header.encode_to_vec().len());
        assert_eq!(header.encoded_len(), 134);
        let cert = Certificate {
            cluster: ClusterId(1),
            slot: BatchNum(9),
            digest: commitment.certified_digest(),
            sigs: (0..2)
                .map(|i| {
                    (
                        NodeId::Replica(ReplicaId::new(ClusterId(1), i)),
                        Signature([0; 64]),
                    )
                })
                .collect(),
        };
        assert_eq!(anchor_size(&commitment, &cert), 414);
        assert_eq!(HELD_ANCHOR_SIZE, 10);
    }

    /// The two bodies' structural sizes are their encodings' lengths,
    /// pinned at depth 10 over 256 committed 4 B keys with 8 B values: a
    /// one-key section, a section with an absent key and two keys in one
    /// bucket, and a 256-bucket window. A section is 64 B (one bucket
    /// entry) smaller per carried value than with its tree's whole
    /// multiproof; a window carries rows and boundary siblings only.
    #[test]
    fn section_and_window_sizes() {
        use transedge_crypto::VersionedMerkleTree;

        const DEPTH: u32 = 10;
        let value = |i: u32| Value::from(format!("{i:08}").as_str());
        let mut tree = VersionedMerkleTree::with_depth(DEPTH);
        let writes: Vec<(Key, Digest)> = (0..256)
            .map(|i| (Key::from_u32(i), value_digest(&value(i))))
            .collect();
        tree.apply_batch(0, writes.iter().map(|(k, d)| (k, *d)));
        // Keys are big-endian, so numeric order is key order.
        let section = |asked: &[u32]| {
            let keys: Vec<Key> = asked.iter().copied().map(Key::from_u32).collect();
            let values: Vec<_> = asked.iter().map(|&i| (i < 256).then(|| value(i))).collect();
            let proof = tree.prove_multi(&keys, 0);
            let whole = MultiProofBody::new(keys.clone(), values.clone(), proof.clone());
            let body = MultiProofBody::stripped(keys, values, proof.clone());
            assert_eq!(body.restored(DEPTH), Some(proof));
            assert_eq!(body.encoded_len(), body.encode_to_vec().len());
            let carried = body.values().iter().flatten().count();
            assert_eq!(whole.encoded_len() - body.encoded_len(), 64 * carried);
            body.encoded_len()
        };
        let bucket = |i: u32| ScanRange::bucket_of(&Key::from_u32(i), DEPTH);
        let (a, b) = (0..256)
            .flat_map(|a| (a + 1..256).map(move |b| (a, b)))
            .find(|&(a, b)| bucket(a) == bucket(b))
            .expect("two of 256 keys share one of 1 024 buckets");
        // 12 B of key list, 17 of value slots, and a 306 B proof: one
        // bucket emptied to its 4 B count, a 2 B slot bitmap and nine
        // siblings.
        assert_eq!(section(&[7]), 335);
        // Two carried keys sharing a bucket and one absent key: 28 B of
        // keys, 31 of slots, and two emptied buckets, a 3 B bitmap and
        // 15 siblings in a 503 B proof.
        assert_eq!(section(&[a, b, 1_000]), 562);

        let range = ScanRange::new(256, 511);
        let mut rows: Vec<(Key, Value)> = (0..256)
            .filter(|&i| range.contains_key(&Key::from_u32(i), DEPTH))
            .map(|i| (Key::from_u32(i), value(i)))
            .collect();
        rows.sort_by_key(|(k, _)| sha256(k.as_bytes()));
        let proof = tree.prove_range(&range, 0);
        let window = ScanProof::stripped(range, rows, proof.clone());
        assert_eq!(window.range_proof(DEPTH), proof);
        assert_eq!(window.encoded_len(), window.encode_to_vec().len());
        // The range, 60 rows of 20 B under a 4 B count, and one
        // sibling on either side.
        assert_eq!(window.rows.len(), 60);
        assert_eq!((window.left.len(), window.right.len()), (1, 1));
        assert_eq!(window.encoded_len(), 1_292);
    }

    #[test]
    fn cd_vector_pairwise_max() {
        let mut a = CdVector::new(3);
        a.set(ClusterId(0), Epoch(5));
        a.set(ClusterId(2), Epoch(1));
        let mut b = CdVector::new(3);
        b.set(ClusterId(0), Epoch(3));
        b.set(ClusterId(1), Epoch(7));
        a.pairwise_max(&b);
        assert_eq!(a.get(ClusterId(0)), Epoch(5));
        assert_eq!(a.get(ClusterId(1)), Epoch(7));
        assert_eq!(a.get(ClusterId(2)), Epoch(1));
    }

    #[test]
    fn cd_vector_none_is_minimum() {
        let mut a = CdVector::new(2);
        let mut b = CdVector::new(2);
        b.set(ClusterId(0), Epoch(0));
        a.pairwise_max(&b);
        assert_eq!(a.get(ClusterId(0)), Epoch(0)); // 0 beats -1
        assert_eq!(a.get(ClusterId(1)), Epoch::NONE);
    }
}
