//! The replica's multi-version key-value store: the value half of a
//! [`crate::SnapshotSource`], beside the versioned Merkle tree that
//! proves it.
//!
//! Every write is tagged with the batch in which it committed, so a
//! replica serves both "latest" reads (ordinary transactions) and
//! "as-of-batch-`i`" snapshot reads (round two of the distributed
//! read-only protocol, paper §4.3.4).
//!
//! Multi-versioning is what makes the paper's *non-interference*
//! property implementable: read-only transactions read committed
//! versions and never take locks, so they cannot block or abort
//! read-write transactions (§4, "non-interference").
//!
//! Rows are keyed by SHA-256 of the key, the leaf order of the
//! partition's Merkle tree, so one ordered table serves both point reads
//! (which hash the key first: one SHA-256 block) and range scans (which
//! walk a hash interval). Like the tree's bucket entries, this relies on
//! distinct keys having distinct hashes.
//!
//! The table is split into 256 chunks by the first byte of the key
//! hash, the same split as the tree's subtree chunks: each a `Vec` of
//! rows sorted by hash and sized to what it holds, behind its own
//! [`Arc`], and the table of chunks behind one more. A clone shares them
//! and costs O(1) in the number of keys: a cluster's simulated
//! replicas, which start from one genesis store, hold it once. A
//! [`VersionedStore::write`] copies only the chunk it writes to, when
//! that chunk is still shared ([`Arc::make_mut`]).

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use transedge_common::{BatchNum, Key, Value};
use transedge_crypto::{sha256, Digest};

/// One committed version of a key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// Batch in which this write committed.
    pub batch: BatchNum,
    pub value: Value,
}

/// How many chunks the rows are split into: one per first byte of the
/// key hash.
const CHUNKS: usize = 256;

/// One key's row.
#[derive(Clone, Debug)]
struct Row {
    /// SHA-256(key), the row's place in tree order.
    hash: Digest,
    key: Key,
    /// Ascending by batch; created with room for the first version.
    versions: Vec<Version>,
}

/// A multi-version map: each key holds its committed versions ordered
/// by ascending batch number. At most one version per key per batch
/// (conflicting writes can never share a batch — Definition 3.1).
#[derive(Clone, Debug)]
pub struct VersionedStore {
    /// The rows by the first byte of their hash, each chunk ascending by
    /// hash. Read in chunk order, that is the leaf order of the
    /// partition's Merkle tree, so a contiguous hash interval enumerates
    /// exactly the rows a Merkle range proof commits to. A key's row is
    /// created on its first write and never removed. Each chunk, and the
    /// table of them, is shared with clones until one of them writes to
    /// it.
    chunks: Arc<[Arc<Vec<Row>>; CHUNKS]>,
}

impl Default for VersionedStore {
    fn default() -> Self {
        // Every chunk starts as one shared empty chunk.
        let empty = Arc::default();
        VersionedStore {
            chunks: Arc::new(std::array::from_fn(|_| Arc::clone(&empty))),
        }
    }
}

impl VersionedStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `key = value` committed in `batch`. Panics if a
    /// version for an *earlier* batch is written after a later one —
    /// batches commit in log order, so that would be a protocol bug.
    pub fn write(&mut self, key: Key, value: Value, batch: BatchNum) {
        let hash = sha256(key.as_bytes());
        let chunks = Arc::make_mut(&mut self.chunks);
        let rows = Arc::make_mut(&mut chunks[usize::from(hash.0[0])]);
        let pos = match rows.binary_search_by(|row| row.hash.cmp(&hash)) {
            Ok(pos) => pos,
            Err(pos) => {
                // Room grows by an eighth: exact while a chunk is small,
                // and a large chunk is not copied on every new key.
                if rows.len() == rows.capacity() {
                    rows.reserve_exact(rows.len() / 8 + 1);
                }
                let versions = Vec::with_capacity(1);
                rows.insert(
                    pos,
                    Row {
                        hash,
                        key,
                        versions,
                    },
                );
                pos
            }
        };
        let versions = &mut rows[pos].versions;
        if let Some(last) = versions.last_mut() {
            assert!(
                batch >= last.batch,
                "out-of-order write: batch {batch} after {}",
                last.batch
            );
            if last.batch == batch {
                // Same batch writing the same key twice: last write wins
                // (a transaction's write-set may be applied as a unit).
                last.value = value;
                return;
            }
        }
        versions.push(Version { batch, value });
    }

    /// Latest committed version of `key`.
    pub fn get_latest(&self, key: &Key) -> Option<&Version> {
        self.versions(key)?.last()
    }

    /// Latest version committed in a batch `<= batch`: the value of
    /// `key` as of the consistent cut at the end of `batch`, which
    /// round two of the read-only protocol reads.
    pub fn get_at(&self, key: &Key, batch: BatchNum) -> Option<&Version> {
        visible_at(self.versions(key)?, batch)
    }

    /// Ordered range read over the *tree order* (ascending SHA-256 of
    /// key — the leaf order of the partition's Merkle tree): every key
    /// whose hash falls in `hashes` and that is visible at the
    /// consistent cut of `batch`, with the version visible there.
    ///
    /// `O(chunks in range × log rows per chunk + rows in range)`: the
    /// rows are already in tree order, so each chunk the window spans
    /// narrows straight to it and a verified range scan only pays for
    /// what it returns. Callers derive `hashes` from a `ScanRange` via
    /// `ScanRange::digest_bounds`.
    pub fn range_at<R: RangeBounds<Digest>>(
        &self,
        hashes: R,
        batch: BatchNum,
    ) -> impl Iterator<Item = (&Key, &Version)> {
        let window = (hashes.start_bound().cloned(), hashes.end_bound().cloned());
        let chunk = |bound: &Bound<Digest>, unbounded: usize| match bound {
            Bound::Included(hash) | Bound::Excluded(hash) => usize::from(hash.0[0]),
            Bound::Unbounded => unbounded,
        };
        let (first, last) = (chunk(&window.0, 0), chunk(&window.1, CHUNKS - 1));
        self.chunks
            .iter()
            .take(last + 1)
            .skip(first)
            .flat_map(move |rows| {
                let below = |row: &Row| match &window.0 {
                    Bound::Included(start) => row.hash < *start,
                    Bound::Excluded(start) => row.hash <= *start,
                    Bound::Unbounded => false,
                };
                // The rows from `from` on are in the window, then above it.
                let from = rows.partition_point(below);
                let len = rows[from..].partition_point(|row| window.contains(&row.hash));
                &rows[from..from + len]
            })
            .filter_map(move |row| visible_at(&row.versions, batch).map(|v| (&row.key, v)))
    }

    /// Batch of the last committed write to `key` (conflict rule 1 of
    /// Definition 3.1: has the read version been overwritten?).
    pub fn last_writer(&self, key: &Key) -> Option<BatchNum> {
        Some(self.get_latest(key)?.batch)
    }

    /// Full version history of a key, oldest first (auditing: the
    /// serializability checker reconstructs per-key write order from
    /// this).
    pub fn versions(&self, key: &Key) -> Option<&[Version]> {
        let hash = sha256(key.as_bytes());
        let rows = &self.chunks[usize::from(hash.0[0])];
        let pos = rows.binary_search_by(|row| row.hash.cmp(&hash)).ok()?;
        Some(&rows[pos].versions)
    }
}

/// The newest of `versions` committed in a batch `<= batch`. Versions
/// are sorted by batch, so a binary search finds it.
fn visible_at(versions: &[Version], batch: BatchNum) -> Option<&Version> {
    let idx = versions.partition_point(|v| v.batch <= batch);
    versions[..idx].last()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> Key {
        Key::from_u32(i)
    }

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn latest_and_at_snapshots() {
        let mut s = VersionedStore::new();
        s.write(k(1), v("a"), BatchNum(1));
        s.write(k(1), v("b"), BatchNum(3));
        s.write(k(1), v("c"), BatchNum(7));
        assert_eq!(s.get_latest(&k(1)).unwrap().value, v("c"));
        assert_eq!(s.get_at(&k(1), BatchNum(0)), None);
        assert_eq!(s.get_at(&k(1), BatchNum(1)).unwrap().value, v("a"));
        assert_eq!(s.get_at(&k(1), BatchNum(2)).unwrap().value, v("a"));
        assert_eq!(s.get_at(&k(1), BatchNum(3)).unwrap().value, v("b"));
        assert_eq!(s.get_at(&k(1), BatchNum(100)).unwrap().value, v("c"));
    }

    #[test]
    fn missing_key_reads_none() {
        let s = VersionedStore::new();
        assert_eq!(s.get_latest(&k(9)), None);
        assert_eq!(s.get_at(&k(9), BatchNum(5)), None);
        assert_eq!(s.last_writer(&k(9)), None);
    }

    #[test]
    fn last_writer_tracks_overwrites() {
        let mut s = VersionedStore::new();
        s.write(k(2), v("x"), BatchNum(4));
        assert_eq!(s.last_writer(&k(2)), Some(BatchNum(4)));
        s.write(k(2), v("y"), BatchNum(9));
        assert_eq!(s.last_writer(&k(2)), Some(BatchNum(9)));
    }

    #[test]
    #[should_panic(expected = "out-of-order write")]
    fn out_of_order_write_panics() {
        let mut s = VersionedStore::new();
        s.write(k(1), v("a"), BatchNum(5));
        s.write(k(1), v("b"), BatchNum(4));
    }

    #[test]
    fn same_batch_rewrite_last_write_wins() {
        let mut s = VersionedStore::new();
        s.write(k(1), v("a"), BatchNum(5));
        s.write(k(1), v("b"), BatchNum(5));
        assert_eq!(s.get_latest(&k(1)).unwrap().value, v("b"));
        assert_eq!(s.versions(&k(1)).unwrap().len(), 1);
    }

    #[test]
    fn range_at_follows_tree_order_and_the_cut() {
        let mut s = VersionedStore::new();
        for i in 0..32u32 {
            s.write(k(i), v(&format!("a{i}")), BatchNum(1));
        }
        for i in 0..8u32 {
            s.write(k(i), v(&format!("b{i}")), BatchNum(3));
        }
        s.write(k(100), v("late"), BatchNum(5));
        // Full range at batch 1: all 32 keys, ascending by key hash.
        let rows: Vec<_> = s.range_at(.., BatchNum(1)).collect();
        assert_eq!(rows.len(), 32);
        let hashes: Vec<Digest> = rows.iter().map(|(key, _)| sha256(key.as_bytes())).collect();
        for pair in hashes.windows(2) {
            assert!(pair[0] < pair[1], "rows must ascend in tree order");
        }
        // Cut semantics: batch 2 sees the batch-1 values, batch 3 the
        // overwrites, batch 0 nothing, batch 5 the late key too.
        assert!(s
            .range_at(.., BatchNum(2))
            .all(|(key, ver)| ver.value == v(&format!("a{}", key_u32(key)))));
        assert_eq!(
            s.range_at(.., BatchNum(3))
                .filter(|(key, _)| key_u32(key) < 8)
                .filter(|(_, ver)| ver.batch == BatchNum(3))
                .count(),
            8
        );
        assert_eq!(s.range_at(.., BatchNum(0)).count(), 0);
        assert_eq!(s.range_at(.., BatchNum(5)).count(), 33);
        // A half-open hash window returns exactly the keys inside it.
        let mid = hashes[16];
        let below: Vec<_> = s.range_at(..mid, BatchNum(1)).collect();
        assert_eq!(below.len(), 16);
        let above: Vec<_> = s.range_at(mid.., BatchNum(1)).collect();
        assert_eq!(above.len(), 16);
    }

    #[test]
    fn range_at_matches_an_ordered_map_across_every_chunk_boundary() {
        use std::collections::BTreeMap;
        use Bound::{Excluded, Included, Unbounded};
        let mut s = VersionedStore::new();
        let mut reference = BTreeMap::new();
        for i in 0..2_000u32 {
            let batch = BatchNum(u64::from(i % 3));
            s.write(k(i), v(&format!("{i}")), batch);
            reference.insert(sha256(k(i).as_bytes()), (k(i), batch));
        }
        let check = |window: (Bound<Digest>, Bound<Digest>)| {
            for batch in [0, 1, 2].map(BatchNum) {
                let got: Vec<&Key> = s.range_at(window, batch).map(|(key, _)| key).collect();
                let want: Vec<&Key> = reference
                    .range(window)
                    .filter(|(_, (_, written))| *written <= batch)
                    .map(|(_, (key, _))| key)
                    .collect();
                assert_eq!(got, want, "{window:?} at {batch}");
            }
        };
        check((Unbounded, Unbounded));
        let hashes: Vec<Digest> = reference.keys().copied().collect();
        // An empty window, on a row.
        check((Included(hashes[9]), Excluded(hashes[9])));
        let mut boundaries = 0;
        for at in (1..hashes.len()).filter(|&i| hashes[i - 1].0[0] != hashes[i].0[0]) {
            boundaries += 1;
            let (last, first) = (hashes[at - 1], hashes[at]);
            let mut edge = [0u8; 32];
            edge[0] = first.0[0];
            let edge = Digest(edge);
            // Straddling the boundary, by rows and by the chunk's first
            // possible hash.
            check((Included(last), Included(first)));
            check((
                Included(hashes[at.saturating_sub(3)]),
                Excluded(hashes[(at + 3).min(hashes.len() - 1)]),
            ));
            check((Excluded(hashes[at.saturating_sub(3)]), Included(first)));
            check((Excluded(last), Unbounded));
            check((Unbounded, Excluded(first)));
            check((Included(edge), Included(first)));
            check((Unbounded, Excluded(edge)));
            // Empty: nothing lies between adjacent rows.
            check((Excluded(last), Excluded(first)));
        }
        assert_eq!(boundaries, 255, "2 000 keys fill every chunk");
    }

    fn key_u32(key: &Key) -> u32 {
        u32::from_be_bytes(key.as_bytes().try_into().unwrap())
    }
}
