//! The replica-side read pipeline: snapshot source abstraction and the
//! cached assembly of proof-carrying reads.

use transedge_common::{BatchNum, Key, Value};
use transedge_crypto::{MerkleProof, MultiProof, RangeProof, ScanRange};

use crate::cache::{CacheStats, LruCache};
use crate::response::{MultiProofBody, ScanProof};

/// A provider of snapshot values and proofs — in a replica this is the
/// executor's `VersionedStore` + `VersionedMerkleTree` pair. The trait
/// is the seam that lets the read path live outside the
/// transaction-processing crate.
pub trait SnapshotSource {
    /// Value of `key` as of the consistent cut at the end of `batch`.
    fn value_at(&self, key: &Key, batch: BatchNum) -> Option<Value>;

    /// Merkle (non-)inclusion proof for `key` against the root at
    /// `batch`. No serving path calls this any more (a one-key section
    /// is a one-key multiproof); it stays because the benchmark's
    /// traced source implements it — the next `[benchmark]` PR may
    /// drop it.
    fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof;

    /// Every committed `(key, value)` in a tree-order window at the cut
    /// of `batch`, ascending in tree order (the store's ordered index
    /// makes this `O(log keys + rows)`, not an `O(keys)` cut walk).
    fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)>;

    /// Completeness proof for the window against the root at `batch`.
    fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> RangeProof;

    /// One Merkle multiproof covering every key in `keys` (sorted,
    /// unique) against the root at `batch` — a single deduplicated
    /// sibling set instead of `keys.len()` independent proofs.
    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> MultiProof;
}

/// Assemble a proof-carrying range scan for `range` at `batch`,
/// straight from the source (no caching). The single implementation of
/// scan serving; the cached pipeline funnels through it.
pub fn scan_snapshot<S: SnapshotSource + ?Sized>(
    src: &S,
    range: &ScanRange,
    batch: BatchNum,
) -> ScanProof {
    ScanProof {
        range: *range,
        rows: src.rows_at(range, batch),
        proof: src.prove_range(range, batch),
    }
}

/// Build the section body for `keys` at `batch`, straight from the
/// source (no caching): the keys are sorted and deduplicated, their
/// values read at the cut, and **one** multiproof generated for the
/// whole set. The single implementation of point serving; the cached
/// pipeline funnels through it.
pub fn multi_snapshot<S: SnapshotSource + ?Sized>(
    src: &S,
    keys: &[Key],
    batch: BatchNum,
) -> MultiProofBody {
    prove_sorted(src, sorted_unique(keys), batch)
}

pub(crate) fn sorted_unique(keys: &[Key]) -> Vec<Key> {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    sorted
}

fn prove_sorted<S: SnapshotSource + ?Sized>(
    src: &S,
    sorted: Vec<Key>,
    batch: BatchNum,
) -> MultiProofBody {
    let values = sorted.iter().map(|k| src.value_at(k, batch)).collect();
    let proof = src.prove_multi(&sorted, batch);
    MultiProofBody::new(sorted, values, proof)
}

/// The serving pipeline a replica (or any node with a
/// [`SnapshotSource`]) runs its read-only traffic through. Proof
/// generation is the expensive part of serving a ROT (`O(depth)`
/// hashing per key), and hot key sets are read at the same batch by
/// many clients, so the pipeline memoises `(key set, batch) → body` in
/// an LRU cache. Entries are immutable — a batch's proof for a key set
/// never changes — so the cache needs no invalidation.
#[derive(Clone, Debug)]
pub struct ReadPipeline {
    points: LruCache<(Vec<Key>, BatchNum), MultiProofBody>,
    /// `(range, batch) → ScanProof` — a scan proof is far more
    /// expensive to build than a point proof (`O(width)` leaf hashes),
    /// and scans are immutable per batch just like point reads, so the
    /// same no-invalidation memoisation applies.
    scans: LruCache<(ScanRange, BatchNum), ScanProof>,
}

/// Default scan-proof cache capacity. Scan entries are much larger than
/// point entries (whole windows), so the cap is correspondingly lower.
pub const DEFAULT_SCAN_CACHE_CAPACITY: usize = 512;

/// Section bodies memoised at most. A body is a whole proof, not a
/// per-key fragment, and distinct key sets share nothing, so the memo
/// is sized to keep the hot sets of a replica that clients read
/// directly — behind an edge tier every forwarded set is new and a
/// larger memo would only pin bodies nobody asks for again.
const MAX_MEMOISED_BODIES: usize = 32;

/// The memo at its own bounds, with no capacity below them.
impl Default for ReadPipeline {
    fn default() -> Self {
        ReadPipeline::new(usize::MAX)
    }
}

impl ReadPipeline {
    /// A memo holding at most `cache_capacity` entries of each kind,
    /// and never more than its own bounds.
    pub fn new(cache_capacity: usize) -> Self {
        ReadPipeline {
            points: LruCache::new(MAX_MEMOISED_BODIES.min(cache_capacity)),
            scans: LruCache::new(DEFAULT_SCAN_CACHE_CAPACITY.min(cache_capacity.max(1))),
        }
    }

    /// Serve a range scan at `batch`, consulting the scan cache first.
    pub fn serve_scan<S: SnapshotSource + ?Sized>(
        &mut self,
        src: &S,
        range: &ScanRange,
        batch: BatchNum,
    ) -> ScanProof {
        let ck = (*range, batch);
        if let Some(hit) = self.scans.get(&ck) {
            return hit.clone();
        }
        let scan = scan_snapshot(src, range, batch);
        self.scans.insert(ck, scan.clone());
        scan
    }

    /// Serve `keys` at `batch` as one section body proving **exactly**
    /// the keys asked (sorted, deduplicated) — never a wider set, so a
    /// response carries no bytes and costs no leaf hashes nobody asked
    /// for. The body is memoised per exact key set and batch; a repeat
    /// is a shared-allocation clone, no proof work, no re-encoding.
    pub fn serve_multi<S: SnapshotSource + ?Sized>(
        &mut self,
        src: &S,
        keys: &[Key],
        batch: BatchNum,
    ) -> MultiProofBody {
        let ck = (sorted_unique(keys), batch);
        if let Some(hit) = self.points.get(&ck) {
            return hit.clone();
        }
        let body = prove_sorted(src, ck.0.clone(), batch);
        self.points.insert(ck, body.clone());
        body
    }

    /// Point-body cache counters.
    pub fn stats(&self) -> CacheStats {
        self.points.stats
    }

    /// Scan-proof cache counters.
    pub fn scan_stats(&self) -> CacheStats {
        self.scans.stats
    }

    /// Point bodies currently cached.
    pub fn cached_entries(&self) -> usize {
        self.points.len()
    }
}

/// The proof memo's counters, points and scans apart: `pipeline.points.*`
/// and `pipeline.scans.*`.
impl transedge_obs::RegisterMetrics for ReadPipeline {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.register_prefixed(scope, "pipeline.points.", &self.points.stats);
        reg.register_prefixed(scope, "pipeline.scans.", &self.scans.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::store::VersionedStore;
    use transedge_common::Encode as _;
    use transedge_crypto::merkle::{value_digest, Verified};
    use transedge_crypto::{verify_multi_proof, VersionedMerkleTree};

    /// A real store+tree source, with a probe counting proof requests.
    struct TestSource {
        store: VersionedStore,
        tree: VersionedMerkleTree,
        proofs_generated: AtomicU64,
    }

    impl TestSource {
        fn with_batches(batches: &[&[(u32, &str)]]) -> Self {
            let mut store = VersionedStore::new();
            let mut tree = VersionedMerkleTree::with_depth(8);
            for (i, writes) in batches.iter().enumerate() {
                let mut updates = Vec::new();
                for (k, v) in writes.iter() {
                    let key = Key::from_u32(*k);
                    let value = Value::from(*v);
                    store.write(key.clone(), value.clone(), BatchNum(i as u64));
                    updates.push((Key::from_u32(*k), value_digest(&value)));
                }
                tree.apply_batch(i as u64, updates.iter().map(|(k, d)| (k, *d)));
            }
            TestSource {
                store,
                tree,
                proofs_generated: AtomicU64::new(0),
            }
        }
    }

    impl SnapshotSource for TestSource {
        fn value_at(&self, key: &Key, batch: BatchNum) -> Option<Value> {
            self.store.get_at(key, batch).map(|v| v.value.clone())
        }

        fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof {
            self.proofs_generated.fetch_add(1, Ordering::Relaxed);
            self.tree.prove_at(key, batch.0)
        }

        fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)> {
            self.store
                .range_at(range.digest_bounds(self.tree.depth()), batch)
                .map(|(k, v)| (k.clone(), v.value.clone()))
                .collect()
        }

        fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> RangeProof {
            self.proofs_generated.fetch_add(1, Ordering::Relaxed);
            self.tree.prove_range(range, batch.0)
        }

        fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> MultiProof {
            self.proofs_generated.fetch_add(1, Ordering::Relaxed);
            self.tree.prove_multi(keys, batch.0)
        }
    }

    #[test]
    fn multi_snapshot_serves_correct_versions_with_valid_proofs() {
        let src = TestSource::with_batches(&[&[(1, "a"), (2, "b")], &[(1, "a2")]]);
        // Unsorted, with a duplicate: the body is the sorted unique set.
        let asked = [
            Key::from_u32(9),
            Key::from_u32(1),
            Key::from_u32(2),
            Key::from_u32(1),
        ];
        for batch in [0u64, 1] {
            let body = multi_snapshot(&src, &asked, BatchNum(batch));
            assert_eq!(body.keys().len(), 3);
            assert!(body.keys().windows(2).all(|w| w[0] < w[1]));
            let verdicts =
                verify_multi_proof(&src.tree.root_at(batch), 8, body.keys(), body.proof()).unwrap();
            // Key 1: overwritten in batch 1.
            let want1 = Value::from(if batch == 0 { "a" } else { "a2" });
            let i1 = body.keys().binary_search(&Key::from_u32(1)).unwrap();
            assert_eq!(body.values()[i1], Some(want1.clone()));
            assert_eq!(verdicts[i1], Verified::Present(value_digest(&want1)));
            // Key 9: absent, with a verifying non-inclusion proof.
            let i9 = body.keys().binary_search(&Key::from_u32(9)).unwrap();
            assert_eq!(body.values()[i9], None);
            assert_eq!(verdicts[i9], Verified::Absent);
            assert_eq!(body.encoded_len(), body.encode_to_vec().len());
        }
    }

    #[test]
    fn serve_scan_memoises_per_range_and_batch() {
        use transedge_crypto::verify_range_proof;
        let src = TestSource::with_batches(&[&[(1, "a"), (2, "b"), (3, "c")], &[(2, "b2")]]);
        let mut pipeline = ReadPipeline::new(1024);
        let range = ScanRange::new(0, 255);
        let cold = pipeline.serve_scan(&src, &range, BatchNum(1));
        let proofs_after_cold = src.proofs_generated.load(Ordering::Relaxed);
        assert_eq!(cold.rows.len(), 3);
        assert!(cold
            .rows
            .iter()
            .any(|(k, v)| k == &Key::from_u32(2) && v == &Value::from("b2")));
        // Rows and proof agree and verify against the batch-1 root.
        let entries = verify_range_proof(&src.tree.root_at(1), 8, &range, &cold.proof).unwrap();
        assert_eq!(entries.len(), cold.rows.len());
        // Warm pass: no new proof generation, same answer.
        let warm = pipeline.serve_scan(&src, &range, BatchNum(1));
        assert_eq!(
            src.proofs_generated.load(Ordering::Relaxed),
            proofs_after_cold
        );
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(pipeline.scan_stats().hits, 1);
        // A different batch is a different cache entry.
        let at0 = pipeline.serve_scan(&src, &range, BatchNum(0));
        assert!(at0
            .rows
            .iter()
            .any(|(k, v)| k == &Key::from_u32(2) && v == &Value::from("b")));
        assert_eq!(pipeline.scan_stats().misses, 2);
    }

    #[test]
    fn serve_multi_memoises_the_exact_key_set_per_batch() {
        let src = TestSource::with_batches(&[&[(1, "a"), (2, "b"), (3, "c")], &[(1, "a2")]]);
        let mut pipeline = ReadPipeline::new(1024);
        let pair = [Key::from_u32(2), Key::from_u32(1)];
        let cold = pipeline.serve_multi(&src, &pair, BatchNum(0));
        assert_eq!(src.proofs_generated.load(Ordering::Relaxed), 1);
        assert_eq!(cold.keys(), [Key::from_u32(1), Key::from_u32(2)]);
        // Same set in any order: a shared-allocation replay, no proof.
        let warm = pipeline.serve_multi(&src, &[Key::from_u32(1), Key::from_u32(2)], BatchNum(0));
        assert_eq!(src.proofs_generated.load(Ordering::Relaxed), 1);
        assert!(warm.same_body(&cold));
        assert_eq!((pipeline.stats().hits, pipeline.stats().misses), (1, 1));
        // A subset, a superset and another batch are their own bodies:
        // a request is never widened to what a neighbour asked.
        let one = pipeline.serve_multi(&src, &pair[..1], BatchNum(0));
        assert_eq!(one.keys(), [Key::from_u32(2)]);
        let three: Vec<Key> = (1..=3).map(Key::from_u32).collect();
        assert_eq!(
            pipeline.serve_multi(&src, &three, BatchNum(0)).keys().len(),
            3
        );
        let later = pipeline.serve_multi(&src, &pair, BatchNum(1));
        assert_eq!(later.values()[0], Some(Value::from("a2")));
        assert_eq!(pipeline.stats().misses, 4);
        assert_eq!(src.proofs_generated.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pipeline_eviction_under_pressure() {
        let src = TestSource::with_batches(&[&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]]);
        let mut pipeline = ReadPipeline::new(2);
        for k in 1..=4 {
            pipeline.serve_multi(&src, &[Key::from_u32(k)], BatchNum(0));
        }
        assert_eq!(pipeline.cached_entries(), 2);
        assert_eq!(pipeline.stats().evictions, 2);
    }
}
