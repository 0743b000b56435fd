//! The edge persistence plane: what an edge keeps across a crash is
//! what its replay caches held, and a restart re-admits each of those
//! answers through the same check a network response passes.
//!
//! ## Trust model: disk is untrusted input
//!
//! An edge's disk image was written *before* the crash, by a process
//! that may have been compromised, on media that may have rotted. So
//! nothing read back is trusted: every answer in the image carries its
//! own certificate and proof, and [`verify_object`] re-runs the
//! client-grade [`crate::ReadVerifier`] chain over it — the one gate a
//! response from an untrusted network edge, a restart image and a
//! sibling's state transfer all pass. A bit-flipped, forged or spliced
//! answer fails it and is dropped, never served. Where an answer sits in
//! the image is no part of the chain: two honest answers swapped are
//! still two valid answers. This is WedgeChain's lazy-certification
//! model applied to the edge's own disk: persist optimistically,
//! validate before use.
//!
//! The image is the caches' own answers, rebuilt by
//! [`crate::ReplayCache::objects`], so an answer push invalidation
//! proved superseded is gone from disk the moment it leaves the cache.

use transedge_common::{Epoch, SimTime};
use transedge_crypto::KeyStore;

use crate::query::{Body, ReadResponse};
use crate::verifier::{ReadRejection, ReadVerifier};

/// Run an answer read from disk or a sibling's transfer through its
/// wire-protocol proof chain (certificate, freshness, Merkle or
/// completeness proof) exactly as if it had just arrived from an
/// untrusted network peer: a point body proving its own key set, a scan
/// window its own range. The LCE floor is `Epoch::NONE` — a restart or
/// a transfer has no round-2 context; floors re-apply per request once
/// the answer is back in a cache. A held answer names an anchor nobody
/// here holds, so it is rejected as [`ReadRejection::ShapeMismatch`],
/// as the verifier rejects one handed to it directly.
///
/// `Err(ReadRejection::StaleTimestamp)` deserves a gentler hand than the
/// other rejections: an answer that merely aged past the freshness
/// window during an outage is honest history, not evidence of
/// tampering. Callers count it separately.
pub fn verify_object(
    verifier: &ReadVerifier,
    keys: &KeyStore,
    object: &ReadResponse,
    now: SimTime,
) -> Result<(), ReadRejection> {
    let anchor = object.anchor().ok_or(ReadRejection::ShapeMismatch)?;
    let cluster = object.cluster();
    verifier.check_commitment(keys, cluster, anchor, Epoch::NONE, now)?;
    let root = &anchor.0.header.merkle_root;
    match &object.body {
        Body::Point { body, .. } => verifier.prove_section(root, body, body.keys()).map(drop),
        Body::Scan(scan) => verifier.prove_scan(root, scan, &scan.range).map(drop),
    }
}
