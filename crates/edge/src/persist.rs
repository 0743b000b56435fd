//! The edge persistence plane: what an edge keeps across a crash is
//! what its replay caches held, and a restart re-admits each of those
//! answers through the same check a network response passes.
//!
//! ## Trust model: disk is untrusted input
//!
//! An edge's disk image was written *before* the crash, by a process
//! that may have been compromised, on media that may have rotted. So
//! nothing read back is trusted: every [`SnapshotObject`] carries its
//! own certificate and proof, and [`verify_object`] re-runs the
//! client-grade [`crate::ReadVerifier`] chain over it — the one gate a
//! response from an untrusted network edge, a restart image and a
//! sibling's state transfer all pass. A bit-flipped, forged or spliced
//! object fails it and is dropped, never served. Where an object sits in
//! the image is no part of the chain: two honest answers swapped are
//! still two valid answers. This is WedgeChain's lazy-certification
//! model applied to the edge's own disk: persist optimistically,
//! validate before use.
//!
//! The image is the caches' own answers, rebuilt by
//! [`crate::ReplayCache::objects`], so an answer push invalidation
//! proved superseded is gone from disk the moment it leaves the cache.

use transedge_common::{ClusterId, Epoch, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::KeyStore;

use crate::response::{anchor_size, MultiProofBundle, ScanBundle};
use crate::verifier::{ReadRejection, ReadVerifier};

/// One snapshot object: a proof-carrying answer exactly as it travels
/// on the wire — which is what makes it safe to persist (nothing an
/// edge writes is load-bearing; the proofs are) and free to re-verify
/// (re-admission *is* the network verification path).
#[derive(Clone, Debug)]
pub enum SnapshotObject {
    /// A point-read section: one multiproof body under one certified
    /// commitment.
    Section(MultiProofBundle),
    /// A proof-carrying scan window.
    Scan(ScanBundle),
}

impl SnapshotObject {
    /// Partition the object snapshots.
    pub fn cluster(&self) -> ClusterId {
        match self {
            SnapshotObject::Section(b) => b.commitment.header.cluster,
            SnapshotObject::Scan(b) => b.commitment.header.cluster,
        }
    }

    /// The certificate the object's commitment is chained to.
    pub fn cert(&self) -> &Certificate {
        match self {
            SnapshotObject::Section(b) => &b.cert,
            SnapshotObject::Scan(b) => &b.cert,
        }
    }
}

/// Run a snapshot object through its wire-protocol proof chain
/// (certificate, freshness, Merkle or completeness proof) exactly as if
/// it had just arrived from an untrusted network peer. The LCE floor is
/// `Epoch::NONE` — a restart or a transfer has no round-2 context;
/// floors re-apply per request once the object is back in a cache.
///
/// `Err(ReadRejection::StaleTimestamp)` deserves a gentler hand than the
/// other rejections: an object that merely aged past the freshness
/// window during an outage is honest history, not evidence of
/// tampering. Callers count it separately.
pub fn verify_object(
    verifier: &ReadVerifier,
    keys: &KeyStore,
    object: &SnapshotObject,
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

/// An object's approximate wire size (the simulator's bandwidth model
/// for state transfers, and the hash pass a re-verification charges):
/// its certified anchor plus its body.
pub fn object_size(object: &SnapshotObject) -> usize {
    match object {
        SnapshotObject::Section(b) => anchor_size(&b.commitment, &b.cert) + b.body.encoded_len(),
        SnapshotObject::Scan(b) => anchor_size(&b.commitment, &b.cert) + b.scan.encoded_len(),
    }
}
