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
//! Layout: every node and bucket slot holds its newest
//! `(version, payload)` inline and its older versions in a boxed list
//! behind it, ascending by version. Almost every read asks for the
//! newest version, and most slots are written in one version only, so a
//! lookup is one map probe and the older list of such a slot is `None`,
//! one null pointer; an older version costs a binary search. A slot's
//! list is created on its first overwrite at room for one version and
//! then grows as a `Vec` does, and a rollback that empties it frees it.
//! A new bucket, too, starts with room for exactly one entry: most
//! buckets of a replica's tree hold one key.
//!
//! All nodes below the root share one map, keyed by `level << MAX_DEPTH
//! | index`, so the map's power-of-two capacity is rounded up once for
//! the whole tree rather than once per level; buckets have a map of
//! their own. Each version's root sits in a list of its own, one
//! `(version, root)` entry per applied version, so a version that
//! changes no key writes to neither map.
//!
//! Both maps sit behind an [`Arc`], so a clone shares them and costs
//! O(1) in the maps' size: a cluster's simulated replicas, which start
//! from one genesis tree, hold it once. A tree copies a shared map on
//! its first write to it ([`Arc::make_mut`]): applying a version that
//! changes at least one key, or rolling such a version back. Each clone
//! keeps its own root list and undo record, so clones stay
//! independent values.
//!
//! The maps are keyed by node key and bucket index and hashed with one
//! folded multiply instead of SipHash. Bucket indices are prefixes of
//! key hashes, so whoever chooses keys can grind them to choose indices;
//! each new tree draws a random seed (from [`RandomState`]) that the
//! hash mixes in, so which indices collide in a map cannot be predicted
//! from outside the process. A clone keeps its source's seed: the seed
//! only has to be unknown outside the process, so trees that share one
//! (a cluster's simulated replicas, which start from one genesis tree)
//! are no easier to grind than trees that do not.
//!
//! [`VersionedMerkleTree::rollback`] undoes one speculation: the tree
//! keeps a single undo record — the latest version and the buckets it
//! touched — and rolling back consumes it, in O(touched paths).

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::Arc;

use transedge_common::Key;

use crate::digest::Digest;
use crate::merkle::{
    bucket_of, empty_subtrees, hash_leaf, hash_node, BucketEntry, MerkleProof, MultiBucket,
    MultiProof, MAX_DEPTH,
};
use crate::range::{RangeProof, ScanRange};
use crate::sha2::sha256;

/// One slot's versions: the newest inline, older ones behind it.
#[derive(Clone)]
struct Versioned<T> {
    version: u64,
    newest: T,
    /// Older `(version, payload)` pairs, ascending by version; `None`
    /// rather than an empty list, so a slot written in one version only
    /// spends one pointer here instead of a `Vec`'s three words. The
    /// box's extra allocation is paid only by slots that have history.
    #[allow(clippy::box_collection)]
    older: Option<Box<Vec<(u64, T)>>>,
}

impl<T> Versioned<T> {
    fn new(version: u64, payload: T) -> Self {
        Versioned {
            version,
            newest: payload,
            older: None,
        }
    }

    /// The payload as of `version`: the newest one at or before it.
    fn at(&self, version: u64) -> Option<&T> {
        if self.version <= version {
            return Some(&self.newest);
        }
        let older = self.older.as_deref()?;
        let idx = older.partition_point(|(v, _)| *v <= version);
        older[..idx].last().map(|(_, t)| t)
    }

    /// Record `payload` as `version`, which is not older than the
    /// newest: it replaces the newest of the same version, or pushes it
    /// down into the older list, which the first push creates with room
    /// for one.
    fn set(&mut self, version: u64, payload: T) {
        if self.version == version {
            self.newest = payload;
            return;
        }
        debug_assert!(self.version < version);
        let prev = std::mem::replace(&mut self.newest, payload);
        self.older
            .get_or_insert_with(|| Box::new(Vec::with_capacity(1)))
            .push((self.version, prev));
        self.version = version;
    }

    /// Drop the payload of `version` if it is the newest. Returns
    /// `false` when no version is left, so the slot must go. The older
    /// list is freed when it empties, so it is never an empty box.
    fn pop(&mut self, version: u64) -> bool {
        if self.version != version {
            return true;
        }
        let Some(older) = self.older.as_mut() else {
            return false;
        };
        let (v, payload) = older.pop().expect("an older list is never empty");
        if older.is_empty() {
            self.older = None;
        }
        self.version = v;
        self.newest = payload;
        true
    }
}

/// Index (a bucket index or a [`node_key`]) → versions, hashed by
/// [`IndexHash`].
type IndexMap<T> = HashMap<u64, Versioned<T>, IndexHash>;

/// Builds [`IndexHasher`]s that share one per-tree random seed.
#[derive(Clone, Copy)]
struct IndexHash {
    seed: u64,
}

impl BuildHasher for IndexHash {
    type Hasher = IndexHasher;

    fn build_hasher(&self) -> IndexHasher {
        IndexHasher(self.seed)
    }
}

/// Folded-multiply hash of a `u64`: the two halves of the 128-bit
/// product of `(state ^ word)` and an odd constant, XORed together.
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write_u64(&mut self, word: u64) {
        const MUL: u64 = 0x5851_f42d_4c95_7f2d;
        let product = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Record `payload` as `version` at `index`.
fn put<T>(map: &mut IndexMap<T>, index: u64, version: u64, payload: T) {
    match map.entry(index) {
        Entry::Occupied(slot) => slot.into_mut().set(version, payload),
        Entry::Vacant(slot) => {
            slot.insert(Versioned::new(version, payload));
        }
    }
}

/// Undo [`put`] of `version` at `index`.
fn unput<T>(map: &mut IndexMap<T>, index: u64, version: u64) {
    if let Entry::Occupied(mut slot) = map.entry(index) {
        if !slot.get_mut().pop(version) {
            slot.remove();
        }
    }
}

/// The one map key of the node at `index` on `level`: the index takes
/// the low [`MAX_DEPTH`] bits and the level the bits above them.
fn node_key(level: usize, index: u64) -> u64 {
    ((level as u64) << MAX_DEPTH) | index
}

/// The digest of the node at `index` on `level` as of `version`: the
/// empty subtree's if `nodes` holds none by then.
fn node_in(
    nodes: &IndexMap<Digest>,
    defaults: &[Digest],
    level: usize,
    index: u64,
    version: u64,
) -> Digest {
    nodes
        .get(&node_key(level, index))
        .and_then(|n| n.at(version))
        .copied()
        .unwrap_or(defaults[level])
}

/// The digest of the node at `index` on `level` (above the leaves) as
/// of `version`, hashed from its two children.
fn parent_in(
    nodes: &IndexMap<Digest>,
    defaults: &[Digest],
    level: usize,
    index: u64,
    version: u64,
) -> Digest {
    let left = node_in(nodes, defaults, level - 1, index << 1, version);
    let right = node_in(nodes, defaults, level - 1, (index << 1) | 1, version);
    hash_node(&left, &right)
}

/// The versioned tree. Versions are the batch numbers of the SMR log.
#[derive(Clone)]
pub struct VersionedMerkleTree {
    depth: u32,
    /// bucket index → versioned entry lists, shared with clones until
    /// one of them writes.
    buckets: Arc<IndexMap<Vec<BucketEntry>>>,
    /// [`node_key`]`(level, index)` → versioned digests, every level
    /// below the root in one map (level 0 = leaves), shared like
    /// `buckets`.
    nodes: Arc<IndexMap<Digest>>,
    /// `(version, root)` of every applied version, ascending by
    /// version: the last entry is the latest version.
    roots: Vec<(u64, Digest)>,
    defaults: &'static [Digest],
    /// The latest version and the buckets it touched, until it is
    /// rolled back: the only version [`Self::rollback`] may undo.
    undo: Option<(u64, Vec<u64>)>,
}

impl VersionedMerkleTree {
    pub fn with_depth(depth: u32) -> Self {
        assert!((1..=MAX_DEPTH).contains(&depth), "depth out of range");
        // A node key holds an index of up to MAX_DEPTH bits below the
        // level, so every level up to `depth` must fit in the bits left.
        assert!(
            u64::from(depth).leading_zeros() >= MAX_DEPTH,
            "depth {depth} overflows a node key"
        );
        let hash = IndexHash {
            seed: RandomState::new().build_hasher().finish(),
        };
        VersionedMerkleTree {
            depth,
            buckets: Arc::new(HashMap::with_hasher(hash)),
            nodes: Arc::new(HashMap::with_hasher(hash)),
            roots: Vec::new(),
            defaults: empty_subtrees(),
            undo: None,
        }
    }

    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Latest applied version, if any.
    pub fn latest_version(&self) -> Option<u64> {
        self.roots.last().map(|&(version, _)| version)
    }

    fn bucket_index(&self, key_hash: &Digest) -> u64 {
        bucket_of(key_hash, self.depth)
    }

    fn bucket_at(&self, index: u64, version: u64) -> Option<&Vec<BucketEntry>> {
        self.buckets.get(&index).and_then(|b| b.at(version))
    }

    fn node_at(&self, level: usize, index: u64, version: u64) -> Digest {
        node_in(&self.nodes, self.defaults, level, index, version)
    }

    /// Apply a batch of `(key, value_hash)` updates as `version`,
    /// returning the new root. Versions must be strictly increasing.
    pub fn apply_batch<'a>(
        &mut self,
        version: u64,
        updates: impl IntoIterator<Item = (&'a Key, Digest)>,
    ) -> Digest {
        let latest = self.latest_version();
        assert!(
            latest.is_none_or(|l| version > l),
            "version {version} not after latest {latest:?}"
        );
        let mut updates = updates.into_iter().peekable();
        // A version that changes no key keeps the latest root and writes
        // to neither map, so a tree that shares them keeps sharing.
        let (root, dirty) = if updates.peek().is_none() {
            (self.root_at(version), Vec::new())
        } else {
            self.write_version(version, updates)
        };
        self.roots.push((version, root));
        self.undo = Some((version, dirty));
        root
    }

    /// Write `updates` (at least one) into the maps as `version`,
    /// returning the new root and the buckets the version touched.
    fn write_version<'a>(
        &mut self,
        version: u64,
        updates: impl Iterator<Item = (&'a Key, Digest)>,
    ) -> (Digest, Vec<u64>) {
        let buckets = Arc::make_mut(&mut self.buckets);
        let nodes = Arc::make_mut(&mut self.nodes);
        let (depth, defaults) = (self.depth as usize, self.defaults);
        let mut dirty: Vec<u64> = Vec::new();
        for (key, value_hash) in updates {
            let key_hash = sha256(key.as_bytes());
            let idx = bucket_of(&key_hash, self.depth);
            let bucket = match buckets.entry(idx) {
                // Start the new bucket version from the latest contents.
                Entry::Occupied(slot) => {
                    let slot = slot.into_mut();
                    if slot.version != version {
                        let snapshot = slot.newest.clone();
                        slot.set(version, snapshot);
                        dirty.push(idx);
                    }
                    &mut slot.newest
                }
                Entry::Vacant(slot) => {
                    dirty.push(idx);
                    let bucket = Vec::with_capacity(1);
                    &mut slot.insert(Versioned::new(version, bucket)).newest
                }
            };
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
        // Recompute dirty paths level by level, up to the root's
        // children. The frontier stays sorted and distinct, so halving
        // it in place keeps it sorted and only adjacent duplicates need
        // dropping.
        let mut frontier = dirty.clone();
        frontier.sort_unstable();
        for &idx in &frontier {
            let leaf = hash_leaf(&buckets[&idx].newest);
            put(nodes, node_key(0, idx), version, leaf);
        }
        for level in 1..depth {
            halve(&mut frontier);
            for &parent in &frontier {
                let digest = parent_in(nodes, defaults, level, parent, version);
                put(nodes, node_key(level, parent), version, digest);
            }
        }
        (parent_in(nodes, defaults, depth, 0, version), dirty)
    }

    /// Undo the *latest* version (speculative batch rejected / view
    /// change discarded the proposal).
    ///
    /// One speculation, one rollback: only the latest applied version
    /// can be rolled back, and only once — the version before it is
    /// final. Panics on any other version or on a second rollback in a
    /// row.
    pub fn rollback(&mut self, version: u64) {
        let mut frontier = match self.undo.take() {
            Some((undone, dirty)) if undone == version => dirty,
            _ => panic!(
                "rollback of version {version}: only the latest applied version can be \
                 rolled back, and only once (latest {:?})",
                self.latest_version()
            ),
        };
        // The undo record's version is the latest, whose root is last.
        self.roots.pop();
        if frontier.is_empty() {
            return;
        }
        frontier.sort_unstable();
        let buckets = Arc::make_mut(&mut self.buckets);
        let nodes = Arc::make_mut(&mut self.nodes);
        for &idx in &frontier {
            unput(buckets, idx, version);
            unput(nodes, node_key(0, idx), version);
        }
        for level in 1..self.depth as usize {
            halve(&mut frontier);
            for &parent in &frontier {
                unput(nodes, node_key(level, parent), version);
            }
        }
    }

    /// Root as of `version` (the default root before any version).
    pub fn root_at(&self, version: u64) -> Digest {
        let idx = self.roots.partition_point(|&(v, _)| v <= version);
        self.roots[..idx]
            .last()
            .map_or(self.defaults[self.depth as usize], |&(_, root)| root)
    }

    /// (Non-)inclusion proof for `key` against the root at `version`.
    pub fn prove_at(&self, key: &Key, version: u64) -> MerkleProof {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self.bucket_at(idx, version).cloned().unwrap_or_default();
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
    /// key, and a slot whose sibling is an empty subtree sets its bit
    /// instead of shipping the digest.
    pub fn prove_multi(&self, keys: &[Key], version: u64) -> MultiProof {
        let mut frontier: Vec<u64> = keys
            .iter()
            .map(|k| self.bucket_index(&sha256(k.as_bytes())))
            .collect();
        frontier.sort_unstable();
        frontier.dedup();
        let buckets = frontier
            .iter()
            .map(|&idx| MultiBucket {
                entries: self.bucket_at(idx, version).cloned().unwrap_or_default(),
            })
            .collect();
        let mut empty_slots = Vec::new();
        let mut siblings = Vec::new();
        let mut slot = 0usize;
        for level in 0..self.depth as usize {
            // Parents overwrite the frontier in place: the write
            // position never passes the read position.
            let (mut read, mut write) = (0, 0);
            while read < frontier.len() {
                let idx = frontier[read];
                if idx & 1 == 0 && frontier.get(read + 1) == Some(&(idx + 1)) {
                    read += 2;
                } else {
                    if slot.is_multiple_of(8) {
                        empty_slots.push(0);
                    }
                    let sibling = self.node_at(level, idx ^ 1, version);
                    if sibling == self.defaults[level] {
                        empty_slots[slot / 8] |= 1 << (slot % 8);
                    } else {
                        siblings.push(sibling);
                    }
                    slot += 1;
                    read += 1;
                }
                frontier[write] = idx >> 1;
                write += 1;
            }
            frontier.truncate(write);
        }
        MultiProof {
            buckets,
            empty_slots,
            siblings,
        }
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
            if let Some(bucket) = self.bucket_at(idx, version) {
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
        let bucket = self.bucket_at(idx, version)?;
        let pos = bucket
            .binary_search_by(|e| e.key_hash.cmp(&key_hash))
            .ok()?;
        Some(bucket[pos].value_hash)
    }
}

/// Replace a sorted, distinct frontier by its distinct parents.
fn halve(frontier: &mut Vec<u64>) {
    for idx in frontier.iter_mut() {
        *idx >>= 1;
    }
    frontier.dedup();
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
    fn a_clone_rolls_back_without_touching_its_source() {
        let mut a = VersionedMerkleTree::with_depth(8);
        a.apply_batch(0, [(&k(1), vh("a")), (&k(2), vh("b"))]);
        a.apply_batch(1, [(&k(1), vh("c")), (&k(7), vh("x"))]);
        let (root, proof) = (a.root_at(1), a.prove_at(&k(7), 1));
        let mut b = a.clone();
        b.rollback(1);
        assert_eq!(b.latest_version(), Some(0));
        assert_eq!(b.get_at(&k(7), 1), None);
        assert_eq!(a.latest_version(), Some(1));
        assert_eq!(a.root_at(1), root);
        assert_eq!(a.prove_at(&k(7), 1), proof);
        assert_eq!(
            verify_proof(&root, 8, &k(7), &a.prove_at(&k(7), 1)).unwrap(),
            Verified::Present(vh("x"))
        );
        // The source still holds its own undo record.
        a.rollback(1);
        assert_eq!(a.root_at(1), b.root_at(1));
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
    #[should_panic(expected = "only the latest applied version can be rolled back, and only once")]
    fn a_second_rollback_in_a_row_panics() {
        let mut vt = VersionedMerkleTree::with_depth(8);
        vt.apply_batch(0, [(&k(1), vh("a"))]);
        vt.apply_batch(1, [(&k(1), vh("b"))]);
        vt.rollback(1);
        vt.rollback(0);
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
