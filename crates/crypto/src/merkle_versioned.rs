//! A *versioned* bucketed sparse Merkle tree.
//!
//! TransEdge replicas need three things a plain Merkle tree cannot do:
//!
//! 1. **Historical proofs** — round two of the distributed read-only
//!    protocol (paper §4.3.4) serves values *as of an earlier batch*,
//!    with proofs against that batch's root;
//! 2. **Speculative application** — a replica validating a leader's
//!    proposed batch must check the proposed Merkle root *before*
//!    voting (a byzantine leader may lie about the root), then keep the
//!    application if the batch decides or roll it back on a view
//!    change;
//! 3. **Append-only versioning** — versions are batch numbers; the tree
//!    for batch `i` must remain reconstructible after batch `i+k` is
//!    applied.
//!
//! Implementation: every node and bucket keeps a small version list
//! `(version, payload)` ordered by version; lookups binary-search the
//! list. A journal records which buckets each version touched so
//! [`VersionedMerkleTree::rollback`] can undo the latest version in
//! O(touched paths).

use std::collections::HashMap;

use transedge_common::Key;

use crate::digest::Digest;
use crate::merkle::{
    empty_subtrees, hash_leaf, hash_node, BucketEntry, MerkleProof, MultiBucket, MultiProof,
    MAX_DEPTH,
};
use crate::range::{RangeProof, ScanRange};
use crate::sha2::sha256;

/// Version list: `(version, payload)` pairs, ascending by version.
type Versions<T> = Vec<(u64, T)>;

fn lookup_at<T>(versions: &Versions<T>, version: u64) -> Option<&T> {
    let idx = versions.partition_point(|(v, _)| *v <= version);
    versions[..idx].last().map(|(_, t)| t)
}

/// The versioned tree. Versions are the batch numbers of the SMR log.
#[derive(Clone)]
pub struct VersionedMerkleTree {
    depth: u32,
    /// bucket index → versioned entry lists.
    buckets: HashMap<u64, Versions<Vec<BucketEntry>>>,
    /// levels[l] : node index → versioned digests (level 0 = leaves).
    levels: Vec<HashMap<u64, Versions<Digest>>>,
    defaults: &'static [Digest],
    /// version → bucket indices it touched (for rollback).
    journal: HashMap<u64, Vec<u64>>,
    latest: Option<u64>,
}

impl VersionedMerkleTree {
    pub fn with_depth(depth: u32) -> Self {
        assert!((1..=MAX_DEPTH).contains(&depth), "depth out of range");
        VersionedMerkleTree {
            depth,
            buckets: HashMap::new(),
            levels: vec![HashMap::new(); depth as usize + 1],
            defaults: empty_subtrees(),
            journal: HashMap::new(),
            latest: None,
        }
    }

    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Latest applied version, if any.
    pub fn latest_version(&self) -> Option<u64> {
        self.latest
    }

    fn bucket_index(&self, key_hash: &Digest) -> u64 {
        let prefix = u64::from_be_bytes(key_hash.0[..8].try_into().unwrap());
        prefix >> (64 - self.depth)
    }

    fn node_at(&self, level: usize, index: u64, version: u64) -> Digest {
        self.levels[level]
            .get(&index)
            .and_then(|v| lookup_at(v, version))
            .copied()
            .unwrap_or(self.defaults[level])
    }

    /// Apply a batch of `(key, value_hash)` updates as `version`,
    /// returning the new root. Versions must be strictly increasing.
    pub fn apply_batch<'a>(
        &mut self,
        version: u64,
        updates: impl IntoIterator<Item = (&'a Key, Digest)>,
    ) -> Digest {
        assert!(
            self.latest.is_none_or(|l| version > l),
            "version {version} not after latest {:?}",
            self.latest
        );
        let mut dirty: Vec<u64> = Vec::new();
        for (key, value_hash) in updates {
            let key_hash = sha256(key.as_bytes());
            let idx = self.bucket_index(&key_hash);
            let versions = self.buckets.entry(idx).or_default();
            // Start the new bucket version from the latest contents.
            let needs_new = versions.last().is_none_or(|(v, _)| *v != version);
            if needs_new {
                let snapshot = versions.last().map(|(_, b)| b.clone()).unwrap_or_default();
                versions.push((version, snapshot));
                dirty.push(idx);
            }
            let bucket = &mut versions.last_mut().unwrap().1;
            match bucket.binary_search_by(|e| e.key_hash.cmp(&key_hash)) {
                Ok(pos) => bucket[pos].value_hash = value_hash,
                Err(pos) => bucket.insert(
                    pos,
                    BucketEntry {
                        key_hash,
                        value_hash,
                    },
                ),
            }
        }
        // Recompute dirty paths level by level.
        let mut frontier: Vec<u64> = Vec::with_capacity(dirty.len());
        for &idx in &dirty {
            let leaf = hash_leaf(lookup_at(&self.buckets[&idx], version).unwrap());
            push_version(self.levels[0].entry(idx).or_default(), version, leaf);
            frontier.push(idx >> 1);
        }
        frontier.sort_unstable();
        frontier.dedup();
        for level in 0..self.depth as usize {
            let mut next = Vec::with_capacity(frontier.len());
            for &parent in &frontier {
                let left = self.node_at(level, parent << 1, version);
                let right = self.node_at(level, (parent << 1) | 1, version);
                let digest = hash_node(&left, &right);
                push_version(
                    self.levels[level + 1].entry(parent).or_default(),
                    version,
                    digest,
                );
                next.push(parent >> 1);
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        // Even an empty batch records a root version so `root_at` works.
        if dirty.is_empty() {
            let prev_root = self
                .latest
                .map(|l| self.root_at(l))
                .unwrap_or(self.defaults[self.depth as usize]);
            push_version(
                self.levels[self.depth as usize].entry(0).or_default(),
                version,
                prev_root,
            );
        }
        self.journal.insert(version, dirty);
        self.latest = Some(version);
        self.root_at(version)
    }

    /// Undo the *latest* version (speculative batch rejected / view
    /// change discarded the proposal).
    pub fn rollback(&mut self, version: u64) {
        assert_eq!(
            self.latest,
            Some(version),
            "can only roll back the latest version"
        );
        let dirty = self.journal.remove(&version).unwrap_or_default();
        let mut frontier: Vec<u64> = Vec::with_capacity(dirty.len());
        for idx in dirty {
            if let Some(versions) = self.buckets.get_mut(&idx) {
                pop_version(versions, version);
                if versions.is_empty() {
                    self.buckets.remove(&idx);
                }
            }
            if let Some(v) = self.levels[0].get_mut(&idx) {
                pop_version_d(v, version);
            }
            frontier.push(idx >> 1);
        }
        frontier.sort_unstable();
        frontier.dedup();
        for level in 1..=self.depth as usize {
            let mut next = Vec::with_capacity(frontier.len());
            for &parent in &frontier {
                if let Some(v) = self.levels[level].get_mut(&parent) {
                    pop_version_d(v, version);
                }
                next.push(parent >> 1);
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        // Root version recorded by an empty batch.
        if let Some(v) = self.levels[self.depth as usize].get_mut(&0) {
            pop_version_d(v, version);
        }
        // Recompute `latest` from the root node's version list.
        self.latest = self.levels[self.depth as usize]
            .get(&0)
            .and_then(|v| v.last().map(|(ver, _)| *ver));
    }

    /// Root as of `version` (the default root before any version).
    pub fn root_at(&self, version: u64) -> Digest {
        self.node_at(self.depth as usize, 0, version)
    }

    /// (Non-)inclusion proof for `key` against the root at `version`.
    pub fn prove_at(&self, key: &Key, version: u64) -> MerkleProof {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self
            .buckets
            .get(&idx)
            .and_then(|v| lookup_at(v, version))
            .cloned()
            .unwrap_or_default();
        let mut siblings = Vec::with_capacity(self.depth as usize);
        let mut index = idx;
        for level in 0..self.depth as usize {
            siblings.push(self.node_at(level, index ^ 1, version));
            index >>= 1;
        }
        MerkleProof { bucket, siblings }
    }

    /// Batched (non-)inclusion proof for a *set* of keys against the
    /// root at `version`: one [`MultiProof`] with each distinct bucket
    /// once and a deduplicated sibling set. The walk mirrors
    /// [`crate::merkle::verify_multi_proof`]: frontier nodes that are
    /// each other's sibling pair up instead of shipping both digests,
    /// so overlapping upper paths are carried once instead of once per
    /// key.
    pub fn prove_multi(&self, keys: &[Key], version: u64) -> MultiProof {
        let mut indices: Vec<u64> = keys
            .iter()
            .map(|k| self.bucket_index(&sha256(k.as_bytes())))
            .collect();
        indices.sort_unstable();
        indices.dedup();
        let buckets = indices
            .iter()
            .map(|&idx| MultiBucket {
                index: idx,
                entries: self
                    .buckets
                    .get(&idx)
                    .and_then(|v| lookup_at(v, version))
                    .cloned()
                    .unwrap_or_default(),
            })
            .collect();
        let mut siblings = Vec::new();
        let mut frontier = indices;
        for level in 0..self.depth as usize {
            let mut next = Vec::with_capacity(frontier.len());
            let mut i = 0;
            while i < frontier.len() {
                let idx = frontier[i];
                if idx & 1 == 0 && frontier.get(i + 1) == Some(&(idx + 1)) {
                    i += 2;
                } else {
                    siblings.push(self.node_at(level, idx ^ 1, version));
                    i += 1;
                }
                next.push(idx >> 1);
            }
            frontier = next;
        }
        MultiProof { buckets, siblings }
    }

    /// Completeness proof for a contiguous bucket window against the
    /// root at `version`: every non-empty bucket in the window plus the
    /// boundary siblings that fold the window back to the root. The
    /// counterpart of [`crate::range::verify_range_proof`] — see
    /// [`crate::range`] for why point proofs cannot show completeness.
    pub fn prove_range(&self, range: &ScanRange, version: u64) -> RangeProof {
        assert!(
            range.is_valid_for_depth(self.depth),
            "scan range {}..={} invalid for depth {}",
            range.first,
            range.last,
            self.depth
        );
        let mut occupied = Vec::new();
        for idx in range.first..=range.last {
            if let Some(bucket) = self.buckets.get(&idx).and_then(|v| lookup_at(v, version)) {
                if !bucket.is_empty() {
                    occupied.push((idx, bucket.clone()));
                }
            }
        }
        let (mut lo, mut hi) = (range.first, range.last);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for level in 0..self.depth as usize {
            if lo & 1 == 1 {
                left.push(self.node_at(level, lo - 1, version));
                lo -= 1;
            }
            if hi & 1 == 0 {
                right.push(self.node_at(level, hi + 1, version));
                hi += 1;
            }
            lo >>= 1;
            hi >>= 1;
        }
        RangeProof {
            occupied,
            left,
            right,
        }
    }

    /// Committed value hash for `key` as of `version`.
    pub fn get_at(&self, key: &Key, version: u64) -> Option<Digest> {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self.buckets.get(&idx).and_then(|v| lookup_at(v, version))?;
        let pos = bucket
            .binary_search_by(|e| e.key_hash.cmp(&key_hash))
            .ok()?;
        Some(bucket[pos].value_hash)
    }
}

fn push_version<T>(versions: &mut Versions<T>, version: u64, value: T) {
    if let Some((last_v, last)) = versions.last_mut() {
        if *last_v == version {
            *last = value;
            return;
        }
        debug_assert!(*last_v < version);
    }
    versions.push((version, value));
}

fn pop_version<T>(versions: &mut Versions<T>, version: u64) {
    if versions.last().is_some_and(|(v, _)| *v == version) {
        versions.pop();
    }
}

fn pop_version_d(versions: &mut Versions<Digest>, version: u64) {
    pop_version(versions, version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::{value_digest, verify_proof, MerkleTree, Verified};
    use transedge_common::Value;

    fn k(i: u32) -> Key {
        Key::from_u32(i)
    }

    fn vh(s: &str) -> Digest {
        value_digest(&Value::from(s))
    }

    #[test]
    fn matches_plain_tree_roots() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        let mut pt = MerkleTree::with_depth(8);
        for batch in 0..5u64 {
            let updates: Vec<(Key, Digest)> = (0..20)
                .map(|i| (k(batch as u32 * 20 + i), vh(&format!("{batch}-{i}"))))
                .collect();
            let root = vt.apply_batch(batch, updates.iter().map(|(k, d)| (k, *d)));
            pt.batch_update(updates.iter().map(|(k, d)| (k, *d)));
            assert_eq!(root, pt.root(), "batch {batch}");
            assert_eq!(vt.root_at(batch), pt.root());
        }
    }

    #[test]
    fn historical_roots_are_stable() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        let r0 = vt.apply_batch(0, [(&k(1), vh("a"))]);
        let r1 = vt.apply_batch(1, [(&k(1), vh("b")), (&k(2), vh("c"))]);
        let r2 = vt.apply_batch(2, [(&k(3), vh("d"))]);
        assert_eq!(vt.root_at(0), r0);
        assert_eq!(vt.root_at(1), r1);
        assert_eq!(vt.root_at(2), r2);
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn historical_proofs_verify_against_their_root() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(0, [(&k(1), vh("old"))]);
        vt.apply_batch(1, [(&k(1), vh("new"))]);
        let r0 = vt.root_at(0);
        let r1 = vt.root_at(1);
        // Proof at version 0 shows the old value.
        let p0 = vt.prove_at(&k(1), 0);
        assert_eq!(
            verify_proof(&r0, 8, &k(1), &p0).unwrap(),
            Verified::Present(vh("old"))
        );
        // Proof at version 1 shows the new value.
        let p1 = vt.prove_at(&k(1), 1);
        assert_eq!(
            verify_proof(&r1, 8, &k(1), &p1).unwrap(),
            Verified::Present(vh("new"))
        );
        // Cross-version verification fails.
        assert!(verify_proof(&r1, 8, &k(1), &p0).is_err());
    }

    #[test]
    fn absent_key_has_non_inclusion_proof_at_every_version() {
        let mut vt = VersionedMerkleTree::with_depth(6);
        vt.apply_batch(0, [(&k(1), vh("a"))]);
        vt.apply_batch(3, [(&k(2), vh("b"))]);
        for version in [0u64, 3] {
            let p = vt.prove_at(&k(999), version);
            assert_eq!(
                verify_proof(&vt.root_at(version), 6, &k(999), &p).unwrap(),
                Verified::Absent
            );
        }
    }

    #[test]
    fn rollback_restores_previous_state() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(0, [(&k(1), vh("a"))]);
        let r0 = vt.root_at(0);
        vt.apply_batch(1, [(&k(1), vh("b")), (&k(7), vh("x"))]);
        assert_ne!(vt.root_at(1), r0);
        vt.rollback(1);
        assert_eq!(vt.latest_version(), Some(0));
        assert_eq!(vt.root_at(0), r0);
        assert_eq!(vt.get_at(&k(1), 10), Some(vh("a"))); // version 1 gone
        assert_eq!(vt.get_at(&k(7), 10), None);
        // Re-applying version 1 with different content works.
        let r1b = vt.apply_batch(1, [(&k(1), vh("c"))]);
        assert_eq!(vt.root_at(1), r1b);
    }

    #[test]
    fn empty_batch_pins_root_version() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(0, [(&k(1), vh("a"))]);
        let r0 = vt.root_at(0);
        let r1 = vt.apply_batch(1, std::iter::empty::<(&Key, Digest)>());
        assert_eq!(r0, r1);
        assert_eq!(vt.latest_version(), Some(1));
        vt.rollback(1);
        assert_eq!(vt.latest_version(), Some(0));
    }

    #[test]
    fn versions_before_first_use_default_root() {
        let vt = VersionedMerkleTree::with_depth(8);
        let plain = MerkleTree::with_depth(8);
        assert_eq!(vt.root_at(0), plain.root());
    }

    #[test]
    #[should_panic(expected = "not after latest")]
    fn non_monotonic_version_panics() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(5, [(&k(1), vh("a"))]);
        vt.apply_batch(5, [(&k(2), vh("b"))]);
    }

    #[test]
    fn multi_proof_matches_per_key_proofs() {
        use crate::merkle::verify_multi_proof;
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(
            0,
            (0..40)
                .map(|i| (k(i), vh(&format!("v{i}"))))
                .collect::<Vec<_>>()
                .iter()
                .map(|(k, d)| (k, *d)),
        );
        let root = vt.root_at(0);
        // A mix of present keys (some colliding buckets at depth 8)
        // and an absent one.
        let keys: Vec<Key> = [1u32, 7, 13, 22, 39, 999].iter().map(|i| k(*i)).collect();
        let multi = vt.prove_multi(&keys, 0);
        let got = verify_multi_proof(&root, 8, &keys, &multi).unwrap();
        for (key, verdict) in keys.iter().zip(&got) {
            let single = verify_proof(&root, 8, key, &vt.prove_at(key, 0)).unwrap();
            assert_eq!(*verdict, single, "key {key:?}");
        }
        assert_eq!(got[5], Verified::Absent);
    }

    #[test]
    fn multi_proof_is_smaller_than_independent_proofs() {
        // The acceptance bar: at N >= 4 keys the deduplicated sibling
        // set must be strictly smaller on the wire than N per-key
        // proofs, at the deployment's real depth.
        let mut vt = VersionedMerkleTree::with_depth(16);
        let all: Vec<Key> = (0..64).map(k).collect();
        vt.apply_batch(0, all.iter().map(|key| (key, vh("v"))));
        for n in [4usize, 8, 16, 32] {
            let keys = &all[..n];
            let multi = vt.prove_multi(keys, 0);
            let independent: usize = keys
                .iter()
                .map(|key| vt.prove_at(key, 0).encoded_len())
                .sum();
            assert!(
                multi.encoded_len() < independent,
                "n={n}: multi {} >= independent {independent}",
                multi.encoded_len()
            );
        }
    }

    #[test]
    fn multi_proof_rejects_tampering() {
        use crate::merkle::verify_multi_proof;
        let mut vt = VersionedMerkleTree::with_depth(8);
        let all: Vec<Key> = (0..30).map(k).collect();
        vt.apply_batch(0, all.iter().map(|key| (key, vh("a"))));
        vt.apply_batch(1, [(&k(3), vh("b"))]);
        let root = vt.root_at(1);
        let keys: Vec<Key> = [2u32, 3, 11, 17].iter().map(|i| k(*i)).collect();
        let good = vt.prove_multi(&keys, 1);
        assert_eq!(
            good.buckets.len(),
            4,
            "keys chosen to occupy distinct buckets"
        );
        assert!(verify_multi_proof(&root, 8, &keys, &good).is_ok());
        // Dropping any sibling breaks it.
        for i in 0..good.siblings.len() {
            let mut p = good.clone();
            p.siblings.remove(i);
            assert!(verify_multi_proof(&root, 8, &keys, &p).is_err(), "sib {i}");
        }
        // Substituting any sibling breaks it.
        for i in 0..good.siblings.len() {
            let mut p = good.clone();
            p.siblings[i] = Digest([0xAB; 32]);
            assert!(verify_multi_proof(&root, 8, &keys, &p).is_err(), "sib {i}");
        }
        // Dropping any bucket entry (omitting a key) breaks it.
        for b in 0..good.buckets.len() {
            for e in 0..good.buckets[b].entries.len() {
                let mut p = good.clone();
                p.buckets[b].entries.remove(e);
                assert!(verify_multi_proof(&root, 8, &keys, &p).is_err());
            }
        }
        // Dropping a whole bucket breaks it.
        for b in 0..good.buckets.len() {
            let mut p = good.clone();
            p.buckets.remove(b);
            assert!(verify_multi_proof(&root, 8, &keys, &p).is_err());
        }
        // Splicing in a stale value (cross-batch) breaks it: the proof
        // at version 0 shows the old value but cannot fold to root 1.
        let stale = vt.prove_multi(&keys, 0);
        assert!(verify_multi_proof(&root, 8, &keys, &stale).is_err());
        // A superset proof serves a subset of its own keys only via the
        // full key set; verifying against a *different* key set fails.
        let other: Vec<Key> = [2u32, 3, 11].iter().map(|i| k(*i)).collect();
        assert!(verify_multi_proof(&root, 8, &other, &good).is_err());
    }

    #[test]
    fn get_at_reflects_version_history() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(2, [(&k(1), vh("v2"))]);
        vt.apply_batch(5, [(&k(1), vh("v5"))]);
        assert_eq!(vt.get_at(&k(1), 1), None);
        assert_eq!(vt.get_at(&k(1), 2), Some(vh("v2")));
        assert_eq!(vt.get_at(&k(1), 4), Some(vh("v2")));
        assert_eq!(vt.get_at(&k(1), 5), Some(vh("v5")));
    }
}
