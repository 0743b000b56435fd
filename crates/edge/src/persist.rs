//! The edge persistence plane: durable, content-addressed snapshot
//! objects that make a restarted edge warm instead of a thundering
//! herd on the replicas.
//!
//! ## Trust model: disk is untrusted input
//!
//! Everything in a [`SnapshotStore`] was written *before* the crash,
//! by a process that may have been compromised, on media that may have
//! rotted. So nothing read back is trusted: each object is
//! content-addressed (its key is a digest of its proof-carrying body),
//! and on hydration the digest is recomputed **and** the object is
//! re-admitted through the client-grade
//! [`crate::ReadVerifier`] — the same certificate + Merkle chain a
//! response from an untrusted network edge must pass. A bit-flipped,
//! spliced, or forged on-disk object is silently dropped, never
//! served. This is WedgeChain's lazy-certification model applied to
//! the edge's own disk: persist optimistically, validate before use.
//!
//! ## Layout
//!
//! The store is an append-only, content-addressed map of
//! [`SnapshotObject`]s (the two proof shapes of the wire protocol —
//! point-read sections and scan windows — exactly as they travel)
//! plus one small mutable [`HeadRecord`] per
//! cluster shard, naming the live object set and the newest persisted
//! batch. Restart follows axiograph's accepted-plane replication:
//! immutable objects first, then the head pointers — an interrupted
//! spill leaves dangling objects (harmless garbage), never a head
//! pointing at missing state.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use transedge_common::{BatchNum, ClusterId, Encode as _, Epoch, Key, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::{sha256, Digest, KeyStore, Sha256};

use crate::response::{BatchCommitment, MultiProofBundle, ScanBundle};
use crate::verifier::{ReadRejection, ReadVerifier};

/// Default per-cluster retention: comfortably above a replay cache's
/// working set (`max_batches` commitments × a few objects each).
pub const DEFAULT_SPILL_THRESHOLD: usize = 256;

/// One durable snapshot object: a proof-carrying response body,
/// exactly as it travels on the wire — which is what makes it safe to
/// persist (nothing an edge writes is load-bearing; the proofs are)
/// and free to re-verify (the hydration path *is* the network
/// verification path).
#[derive(Clone, Debug)]
pub enum SnapshotObject<H> {
    /// A point-read section: one multiproof body under one certified
    /// commitment.
    Section(MultiProofBundle<H>),
    /// A proof-carrying scan window.
    Scan(ScanBundle<H>),
}

impl<H: BatchCommitment> SnapshotObject<H> {
    /// Partition the object snapshots.
    pub fn cluster(&self) -> ClusterId {
        match self {
            SnapshotObject::Section(b) => b.commitment.cluster(),
            SnapshotObject::Scan(b) => b.commitment.cluster(),
        }
    }

    /// Batch the object snapshots.
    pub fn batch(&self) -> BatchNum {
        match self {
            SnapshotObject::Section(b) => b.batch(),
            SnapshotObject::Scan(b) => b.batch(),
        }
    }

    /// The certificate the object's commitment is chained to.
    pub fn cert(&self) -> &Certificate {
        match self {
            SnapshotObject::Section(b) => &b.cert,
            SnapshotObject::Scan(b) => &b.cert,
        }
    }

    /// The content address: a domain-separated digest over the
    /// certified commitment, its certificate, and the body. For a
    /// section that is the body's whole wire image — keys, value slots
    /// and multiproof, encoded from the body's parts as they are now —
    /// so *any* change to a stored section changes the address; for a
    /// scan it is the window bounds and rows. This is the self-check
    /// half of the gate; whatever the digest does not cover (a scan's
    /// proof, signature bytes) is exactly what the verifier half
    /// re-checks cryptographically.
    pub fn content_digest(&self) -> Digest {
        let mut h = Sha256::new();
        match self {
            SnapshotObject::Section(b) => {
                h.update(b"transedge/persist/section");
                fold_commitment(&mut h, &b.commitment, &b.cert);
                h.update(&b.body.encode_to_vec());
            }
            SnapshotObject::Scan(b) => {
                h.update(b"transedge/persist/scan");
                fold_commitment(&mut h, &b.commitment, &b.cert);
                h.update(&b.scan.range.first.to_le_bytes());
                h.update(&b.scan.range.last.to_le_bytes());
                h.update(&(b.scan.rows.len() as u64).to_le_bytes());
                for (key, value) in &b.scan.rows {
                    fold_key(&mut h, key);
                    h.update(&(value.len() as u32).to_le_bytes());
                    h.update(value.as_bytes());
                }
            }
        }
        h.finalize()
    }
}

/// Fold a commitment + certificate into a content digest. The
/// certified digest covers every commitment field (root, LCE,
/// timestamp, delta digest), so one digest pins them all; the
/// certificate's signature bytes are left to `cert.verify` at
/// re-admission.
fn fold_commitment<H: BatchCommitment>(h: &mut Sha256, commitment: &H, cert: &Certificate) {
    h.update(&(commitment.cluster().as_usize() as u64).to_le_bytes());
    h.update(&commitment.batch().0.to_le_bytes());
    h.update(commitment.certified_digest().as_bytes());
    h.update(cert.digest.as_bytes());
    h.update(&(cert.sigs.len() as u64).to_le_bytes());
}

fn fold_key(h: &mut Sha256, key: &Key) {
    h.update(&(key.len() as u32).to_le_bytes());
    h.update(key.as_bytes());
}

/// The mutable half of the store: one small record per cluster shard,
/// flipped *after* its objects are durable (accepted-plane order).
#[derive(Clone, Debug, Default)]
pub struct HeadRecord {
    /// Newest persisted batch for the cluster.
    pub newest_batch: Option<BatchNum>,
    /// Digests of the live object set, oldest spill first.
    pub live: Vec<Digest>,
}

/// Persistence counters (the edge node's stats mirror the
/// hydration-side ones).
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistStats {
    /// Objects spilled (first write of a content address).
    pub spilled: u64,
    /// Spills dropped as duplicates of an already-durable object.
    pub deduped: u64,
    /// Objects pruned by the per-cluster retention threshold.
    pub pruned: u64,
}

impl transedge_obs::RegisterMetrics for PersistStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "persist.spilled", self.spilled);
        reg.counter(scope, "persist.deduped", self.deduped);
        reg.counter(scope, "persist.pruned", self.pruned);
    }
}

/// The durable state of one edge node. In the simulator this is a
/// plain value that survives the actor's teardown (the deployment
/// holds it across crash/restart, playing the role of the disk); the
/// layout — append-only content-addressed objects + per-cluster HEAD
/// records — is exactly what a file-backed implementation would fsync.
#[derive(Clone, Debug)]
pub struct SnapshotStore<H> {
    /// Objects under their content address. Never rewritten in place
    /// (outside the fault-injection hooks): an object exists in full or
    /// not at all, so there is no torn state to recover.
    objects: HashMap<Digest, SnapshotObject<H>>,
    heads: BTreeMap<ClusterId, HeadRecord>,
    spill_threshold: usize,
    pub stats: PersistStats,
}

impl<H: BatchCommitment + Clone> SnapshotStore<H> {
    pub fn new(spill_threshold: usize) -> Self {
        SnapshotStore {
            objects: HashMap::new(),
            heads: BTreeMap::new(),
            spill_threshold: spill_threshold.max(1),
            stats: PersistStats::default(),
        }
    }

    /// Spill one admitted object: append it (content-addressed, so a
    /// replay of an already-durable object is a free dedup), then flip
    /// the cluster's HEAD — object first, pointer second. Retention
    /// prunes the oldest live object past the threshold. Returns the
    /// content address.
    pub fn spill(&mut self, object: SnapshotObject<H>) -> Digest {
        let cluster = object.cluster();
        let batch = object.batch();
        let digest = object.content_digest();
        if let Entry::Vacant(slot) = self.objects.entry(digest) {
            slot.insert(object);
            self.stats.spilled += 1;
            let head = self.heads.entry(cluster).or_default();
            head.live.push(digest);
            if head.newest_batch.is_none_or(|n| batch.0 > n.0) {
                head.newest_batch = Some(batch);
            }
            while head.live.len() > self.spill_threshold {
                let oldest = head.live.remove(0);
                self.objects.remove(&oldest);
                self.stats.pruned += 1;
            }
        } else {
            self.stats.deduped += 1;
        }
        digest
    }

    /// The hydration worklist: every `(cluster, digest)` reachable from
    /// a HEAD record, oldest spill first (so newer objects re-admitted
    /// later win any cache-level displacement).
    pub fn hydration_set(&self) -> Vec<(ClusterId, Digest)> {
        self.heads
            .iter()
            .flat_map(|(cluster, head)| head.live.iter().map(|d| (*cluster, *d)))
            .collect()
    }

    /// The object stored under `digest`, if any. Untrusted until it
    /// passes [`readmit`].
    pub fn get(&self, digest: &Digest) -> Option<&SnapshotObject<H>> {
        self.objects.get(digest)
    }

    /// Drop an object that failed re-admission (and its HEAD entry) —
    /// a tampered object is purged, never served and never re-offered.
    pub fn purge(&mut self, cluster: ClusterId, digest: &Digest) {
        self.objects.remove(digest);
        if let Some(head) = self.heads.get_mut(&cluster) {
            head.live.retain(|d| d != digest);
        }
    }

    /// Current live objects of one cluster, oldest spill first — what a
    /// warm sibling offers a cold peer in a state transfer.
    pub fn objects_for(&self, cluster: ClusterId) -> Vec<SnapshotObject<H>> {
        self.heads
            .get(&cluster)
            .map(|head| {
                head.live
                    .iter()
                    .filter_map(|d| self.objects.get(d).cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The cluster's HEAD record, if it has ever spilled.
    pub fn head(&self, cluster: ClusterId) -> Option<&HeadRecord> {
        self.heads.get(&cluster)
    }

    /// Clusters with a live HEAD.
    pub fn clusters(&self) -> Vec<ClusterId> {
        self.heads.keys().copied().collect()
    }

    /// Durable objects across all clusters.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Fault injection: mutate the object stored under `digest` in
    /// place, leaving its index entry (the content address) unchanged —
    /// the simulator's model of on-disk corruption (real storage never
    /// rewrites an object).
    pub fn tamper_with(&mut self, digest: &Digest, f: impl FnOnce(&mut SnapshotObject<H>)) -> bool {
        match self.objects.get_mut(digest) {
            Some(object) => {
                f(object);
                true
            }
            None => false,
        }
    }

    /// Fault injection: swap the payloads under two content addresses
    /// — both objects stay individually intact but each now lives under
    /// the other's index entry (a corrupted directory block). Returns
    /// `false` (and does nothing) unless both exist and differ.
    pub fn splice(&mut self, a: &Digest, b: &Digest) -> bool {
        if a == b || !self.objects.contains_key(b) {
            return false;
        }
        let Some(va) = self.objects.remove(a) else {
            return false;
        };
        let vb = self.objects.insert(*b, va).expect("checked above");
        self.objects.insert(*a, vb);
        true
    }
}

/// Why a stored object was not re-admitted at hydration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HydrateReject {
    /// The recomputed content digest does not match the address the
    /// object was stored under — the payload changed on disk.
    DigestMismatch,
    /// The object's proof chain no longer verifies (tampered value,
    /// forged certificate, spliced proof — every lie the network
    /// verifier catches, caught again here).
    Verification(ReadRejection),
}

/// Re-admit one stored object through the client-grade verifier:
/// recompute the content address, then run the object's own proof
/// chain (certificate, freshness, Merkle/completeness proofs) exactly
/// as if it had just arrived from an untrusted network peer. The LCE
/// floor is `Epoch::NONE` — a restart has no round-2 context; floors
/// re-apply per request once the object is back in the cache.
///
/// `Err(HydrateReject::Verification(ReadRejection::StaleTimestamp))`
/// deserves a gentler hand than the other rejections: an object that
/// merely aged past the freshness window during the outage is honest
/// history, not evidence of tampering. Callers count it separately.
pub fn readmit<H: BatchCommitment>(
    verifier: &ReadVerifier,
    keys: &KeyStore,
    stored_under: &Digest,
    object: &SnapshotObject<H>,
    now: SimTime,
) -> Result<(), HydrateReject> {
    if object.content_digest() != *stored_under {
        return Err(HydrateReject::DigestMismatch);
    }
    verify_object(verifier, keys, object, now).map_err(HydrateReject::Verification)
}

/// Run a snapshot object through its wire-protocol proof chain (no
/// digest check — used both by [`readmit`] and by the sibling
/// state-transfer receive path, where the object arrived by network
/// and has no stored address yet).
pub fn verify_object<H: BatchCommitment>(
    verifier: &ReadVerifier,
    keys: &KeyStore,
    object: &SnapshotObject<H>,
    now: SimTime,
) -> Result<(), ReadRejection> {
    let cluster = object.cluster();
    match object {
        SnapshotObject::Section(section) => verifier
            .verify_section(
                keys,
                cluster,
                section,
                section.body.keys(),
                Epoch::NONE,
                now,
            )
            .map(|_| ()),
        SnapshotObject::Scan(bundle) => verifier
            .verify_scan(keys, cluster, bundle, &bundle.scan.range, Epoch::NONE, now)
            .map(|_| ()),
    }
}

/// Is this rejection mere staleness (honest aging during the outage)
/// rather than evidence of tampering?
pub fn is_stale_only(reject: &HydrateReject) -> bool {
    matches!(
        reject,
        HydrateReject::Verification(ReadRejection::StaleTimestamp)
    )
}

/// Convenience used by size estimators: an object's approximate wire
/// size (the simulator's bandwidth model for state transfers).
pub fn object_size<H: BatchCommitment>(object: &SnapshotObject<H>) -> usize {
    const HEADER_AND_CERT: usize = 132;
    match object {
        SnapshotObject::Section(b) => HEADER_AND_CERT + b.body.encoded_len(),
        SnapshotObject::Scan(b) => HEADER_AND_CERT + b.scan.encoded_len(),
    }
}

/// Deterministic helper for tests: a digest that addresses nothing.
pub fn null_digest() -> Digest {
    sha256(b"transedge/persist/null")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::MultiProofBody;
    use transedge_common::Value;
    use transedge_crypto::MultiProof;

    #[derive(Clone, Debug)]
    struct Header {
        cluster: ClusterId,
        batch: BatchNum,
    }

    impl BatchCommitment for Header {
        fn cluster(&self) -> ClusterId {
            self.cluster
        }
        fn batch(&self) -> BatchNum {
            self.batch
        }
        fn merkle_root(&self) -> &Digest {
            unreachable!("store tests never verify proofs")
        }
        fn lce(&self) -> Epoch {
            Epoch::NONE
        }
        fn timestamp(&self) -> SimTime {
            SimTime::ZERO
        }
        fn certified_digest(&self) -> Digest {
            sha256(&self.batch.0.to_le_bytes())
        }
    }

    fn point(cluster: u16, batch: u64, key: &str, value: &str) -> SnapshotObject<Header> {
        SnapshotObject::Section(MultiProofBundle {
            commitment: Header {
                cluster: ClusterId(cluster),
                batch: BatchNum(batch),
            },
            cert: Certificate {
                cluster: ClusterId(cluster),
                slot: BatchNum(batch),
                digest: sha256(&batch.to_le_bytes()),
                sigs: Vec::new(),
            },
            body: MultiProofBody::new(
                vec![Key::from(key)],
                vec![Some(Value::from(value))],
                MultiProof {
                    buckets: Vec::new(),
                    siblings: Vec::new(),
                },
            ),
        })
    }

    #[test]
    fn content_address_pins_values() {
        let a = point(0, 1, "k", "v");
        let b = point(0, 1, "k", "v");
        let c = point(0, 1, "k", "DIFFERENT");
        assert_eq!(a.content_digest(), b.content_digest());
        assert_ne!(a.content_digest(), c.content_digest());
    }

    #[test]
    fn spill_dedups_flips_heads_and_prunes() {
        let mut store: SnapshotStore<Header> = SnapshotStore::new(2);
        let d1 = store.spill(point(0, 1, "a", "1"));
        let dup = store.spill(point(0, 1, "a", "1"));
        assert_eq!(d1, dup);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats.spilled, 1);
        assert_eq!(store.stats.deduped, 1);
        store.spill(point(0, 2, "b", "2"));
        let head = store.head(ClusterId(0)).expect("head exists");
        assert_eq!(head.newest_batch, Some(BatchNum(2)));
        assert_eq!(head.live.len(), 2);
        // Third spill for the cluster prunes the oldest (threshold 2).
        store.spill(point(0, 3, "c", "3"));
        let head = store.head(ClusterId(0)).expect("head exists");
        assert_eq!(head.live.len(), 2);
        assert_eq!(store.stats.pruned, 1);
        assert!(store.get(&d1).is_none(), "oldest object pruned");
        // Heads are per cluster.
        store.spill(point(1, 9, "z", "9"));
        assert_eq!(
            store.head(ClusterId(1)).unwrap().newest_batch,
            Some(BatchNum(9))
        );
        assert_eq!(store.hydration_set().len(), 3);
    }

    #[test]
    fn tampered_object_fails_its_content_address() {
        let mut store: SnapshotStore<Header> = SnapshotStore::new(8);
        let digest = store.spill(point(0, 1, "a", "honest"));
        assert!(store.tamper_with(&digest, |object| {
            *object = point(0, 1, "a", "forged");
        }));
        let object = store.get(&digest).expect("still stored");
        assert_ne!(object.content_digest(), digest, "bit flip breaks address");
    }

    #[test]
    fn spliced_objects_fail_their_content_addresses() {
        let mut store: SnapshotStore<Header> = SnapshotStore::new(8);
        let da = store.spill(point(0, 1, "a", "1"));
        let db = store.spill(point(0, 2, "b", "2"));
        assert!(store.splice(&da, &db));
        assert_ne!(store.get(&da).unwrap().content_digest(), da);
        assert_ne!(store.get(&db).unwrap().content_digest(), db);
        // Both addresses must exist and differ; a refused splice
        // changes nothing.
        let absent = Digest([9; 32]);
        assert!(!store.splice(&da, &da));
        assert!(!store.splice(&da, &absent));
        assert!(!store.splice(&absent, &da));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn purge_removes_object_and_head_entry() {
        let mut store: SnapshotStore<Header> = SnapshotStore::new(8);
        let digest = store.spill(point(0, 1, "a", "1"));
        store.purge(ClusterId(0), &digest);
        assert!(store.get(&digest).is_none());
        assert!(store.hydration_set().is_empty());
    }
}
