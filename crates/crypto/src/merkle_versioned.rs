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
//! newest version, and most slots are written in one version only, so
//! the older list of such a slot is `None`, one null pointer; an older
//! version costs a binary search. A slot's list is created on its first
//! overwrite at room for one version and then grows as a `Vec` does,
//! and a rollback that empties it frees it. A new bucket, too, starts
//! with room for just the entries its first version writes: most
//! buckets of a replica's tree hold one key.
//!
//! The slots are split into chunks by the top 8 bits of their index,
//! which are the first byte of every key hash below them: each of 256
//! chunks holds the buckets and nodes of one subtree whose root sits 8
//! levels below the tree's, and one more chunk holds the (at most 254)
//! nodes above those subtrees, which every write's path crosses. (A
//! tree shallower than 8 levels keeps every slot in that top chunk.) A
//! chunk keeps its buckets and its nodes each in two arrays: the slot
//! keys ascending — bucket index, and `level << MAX_DEPTH | index` for
//! a node — and the slots at the same positions, sized to what they
//! hold and searched by bisection, which no choice of keys can degrade.
//! Each version's root sits in a list of its own, one `(version, root)`
//! entry per applied version, so a version that changes no key writes
//! to no chunk.
//!
//! Each chunk sits behind its own [`Arc`], and so does the table of
//! them, so a clone shares them all and costs O(1) in the tree's size:
//! a cluster's simulated replicas, which start from one genesis tree,
//! hold it once. A tree copies a shared chunk when it first writes to
//! it ([`Arc::make_mut`]), so applying a version, or rolling one back,
//! copies only the chunks on the touched keys' paths: a one-key version
//! copies one subtree chunk and the top chunk. Each clone keeps its own
//! root list and undo record, so clones stay independent values.
//!
//! [`VersionedMerkleTree::rollback`] undoes one speculation: the tree
//! keeps a single undo record — the latest version and the buckets it
//! touched — and rolling back consumes it, in O(touched paths).

use std::sync::Arc;

use transedge_common::Key;

use crate::digest::Digest;
use crate::merkle::{
    bucket_of, empty_subtrees, hash_leaf, hash_node, BucketEntry, MerkleProof, MultiBucket,
    MultiProof, MAX_DEPTH,
};
use crate::range::{RangeProof, ScanRange};
use crate::sha2::sha256;

/// How many top bits of a slot's index pick its chunk.
const CHUNK_BITS: u32 = 8;

/// The chunk of the nodes fewer than [`CHUNK_BITS`] levels below the
/// root; the subtree chunks come before it.
const TOP: usize = 1 << CHUNK_BITS;

/// The chunk of the slot at `index` on a level whose indices have
/// `bits` bits: its subtree's, or [`TOP`] above the subtrees.
fn chunk_of(bits: u32, index: u64) -> usize {
    match bits.checked_sub(CHUNK_BITS) {
        Some(below) => (index >> below) as usize,
        None => TOP,
    }
}

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

    /// Record `payload` as `version`, which is newer than the newest:
    /// the newest moves down into the older list, which the first push
    /// creates with room for one.
    fn set(&mut self, version: u64, payload: T) {
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

/// Slot key (a bucket index or a [`node_key`]) → versions: the keys
/// ascending in one array, which a lookup bisects, and each slot's
/// versions at the same position in another.
#[derive(Clone, Default)]
struct Slots<T> {
    keys: Vec<u64>,
    versions: Vec<Versioned<T>>,
}

impl<T> Slots<T> {
    /// The versions at slot `key`, if it was ever written.
    fn get(&self, key: u64) -> Option<&Versioned<T>> {
        let pos = self.keys.binary_search(&key).ok()?;
        Some(&self.versions[pos])
    }

    /// Record every `(slot key, payload)` of `writes` as `version`,
    /// leaving `writes` empty. New slots go into room reserved for
    /// exactly them.
    fn put_all(&mut self, writes: &mut Vec<(u64, T)>, version: u64) {
        let fresh = writes
            .iter()
            .filter(|(key, _)| self.keys.binary_search(key).is_err())
            .count();
        self.keys.reserve_exact(fresh);
        self.versions.reserve_exact(fresh);
        for (key, payload) in writes.drain(..) {
            match self.keys.binary_search(&key) {
                Ok(pos) => self.versions[pos].set(version, payload),
                Err(pos) => {
                    self.keys.insert(pos, key);
                    self.versions.insert(pos, Versioned::new(version, payload));
                }
            }
        }
    }

    /// Undo [`Self::put_all`] of `version` at slot `key`.
    fn unput(&mut self, key: u64, version: u64) {
        if let Ok(pos) = self.keys.binary_search(&key) {
            if !self.versions[pos].pop(version) {
                self.keys.remove(pos);
                self.versions.remove(pos);
            }
        }
    }

    /// Give back the room of slots a rollback removed.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.versions.shrink_to_fit();
    }
}

/// The buckets and nodes of one subtree, or the nodes above them all.
#[derive(Clone, Default)]
struct Chunk {
    buckets: Slots<Vec<BucketEntry>>,
    nodes: Slots<Digest>,
}

/// The one slot key of the node at `index` on `level`: the index takes
/// the low [`MAX_DEPTH`] bits and the level the bits above them.
fn node_key(level: usize, index: u64) -> u64 {
    ((level as u64) << MAX_DEPTH) | index
}

/// The digest of the node at `index` on `level` as of `version`: the
/// empty subtree's if `nodes` holds none by then.
fn node_in(
    nodes: &Slots<Digest>,
    defaults: &[Digest],
    level: usize,
    index: u64,
    version: u64,
) -> Digest {
    nodes
        .get(node_key(level, index))
        .and_then(|n| n.at(version))
        .copied()
        .unwrap_or(defaults[level])
}

/// Fold the new digests `frontier` of level `from`, `(index, digest)`
/// ascending, up to level `to`: push each new parent digest to `out` as
/// `(node key, digest)`, level by level, so `out` stays ascending, and
/// leave the new digests of level `to` in `frontier`. A frontier node's
/// sibling is its frontier neighbour if that is new too, else `old`.
fn fold(
    frontier: &mut Vec<(u64, Digest)>,
    from: usize,
    to: usize,
    old: impl Fn(usize, u64) -> Digest,
    out: &mut Vec<(u64, Digest)>,
) {
    for level in from..to {
        // Parents overwrite the frontier in place: the write position
        // never passes the read position.
        let (mut read, mut write) = (0, 0);
        while read < frontier.len() {
            let (idx, digest) = frontier[read];
            read += 1;
            let (left, right) = if idx & 1 == 1 {
                (old(level, idx - 1), digest)
            } else if frontier.get(read).is_some_and(|&(next, _)| next == idx + 1) {
                read += 1;
                (digest, frontier[read - 1].1)
            } else {
                (digest, old(level, idx + 1))
            };
            let parent = (idx >> 1, hash_node(&left, &right));
            out.push((node_key(level + 1, parent.0), parent.1));
            frontier[write] = parent;
            write += 1;
        }
        frontier.truncate(write);
    }
}

/// The versioned tree. Versions are the batch numbers of the SMR log.
#[derive(Clone)]
pub struct VersionedMerkleTree {
    depth: u32,
    /// The subtree chunks in tree order, then the [`TOP`] chunk, each
    /// shared with clones until one of them writes to it; so is the
    /// table of them.
    chunks: Arc<[Arc<Chunk>; TOP + 1]>,
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
        // Every chunk starts as one shared empty chunk.
        let empty = Arc::default();
        VersionedMerkleTree {
            depth,
            chunks: Arc::new(std::array::from_fn(|_| Arc::clone(&empty))),
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

    /// The chunk of the slot at `index` on `level` (0 = leaves and
    /// buckets).
    fn chunk(&self, level: usize, index: u64) -> &Chunk {
        &self.chunks[chunk_of(self.depth - level as u32, index)]
    }

    fn bucket_at(&self, index: u64, version: u64) -> Option<&Vec<BucketEntry>> {
        self.chunk(0, index)
            .buckets
            .get(index)
            .and_then(|b| b.at(version))
    }

    fn node_at(&self, level: usize, index: u64, version: u64) -> Digest {
        node_in(
            &self.chunk(level, index).nodes,
            self.defaults,
            level,
            index,
            version,
        )
    }

    /// Chunk `c` to write, copied first if it is shared.
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        Arc::make_mut(&mut Arc::make_mut(&mut self.chunks)[c])
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
        // to no chunk, so a tree that shares them keeps sharing.
        let (root, dirty) = if updates.peek().is_none() {
            (self.root_at(version), Vec::new())
        } else {
            self.write_version(version, updates)
        };
        self.roots.push((version, root));
        self.undo = Some((version, dirty));
        root
    }

    /// Write `updates` (at least one) into the chunks as `version`,
    /// returning the new root and the buckets the version touched,
    /// ascending. Each touched subtree chunk takes its buckets and nodes
    /// in one pass; the top chunk takes the paths above them last.
    fn write_version<'a>(
        &mut self,
        version: u64,
        updates: impl Iterator<Item = (&'a Key, Digest)>,
    ) -> (Digest, Vec<u64>) {
        let (depth, defaults) = (self.depth, self.defaults);
        // `(bucket, key hash, value hash)` by bucket and key hash; the
        // stable sort keeps a key written twice in order, so the last
        // write wins.
        let mut writes: Vec<(u64, Digest, Digest)> = updates
            .map(|(key, value_hash)| {
                let key_hash = sha256(key.as_bytes());
                (bucket_of(&key_hash, depth), key_hash, value_hash)
            })
            .collect();
        writes.sort_by_key(|&(bucket, key_hash, _)| (bucket, key_hash));
        // The level whose nodes root the subtree chunks: every level
        // below it and the buckets share their subtree's chunk.
        let split = depth.saturating_sub(CHUNK_BITS) as usize;
        let mut dirty: Vec<u64> = Vec::new();
        let mut buckets: Vec<(u64, Vec<BucketEntry>)> = Vec::new();
        let mut frontier: Vec<(u64, Digest)> = Vec::new();
        let mut nodes: Vec<(u64, Digest)> = Vec::new();
        let mut top: Vec<(u64, Digest)> = Vec::new();
        for run in writes.chunk_by(|a, b| chunk_of(depth, a.0) == chunk_of(depth, b.0)) {
            let c = chunk_of(depth, run[0].0);
            for group in run.chunk_by(|a, b| a.0 == b.0) {
                let idx = group[0].0;
                // Start the new bucket version from the latest contents.
                let mut bucket = match self.chunks[c].buckets.get(idx) {
                    Some(slot) => slot.newest.clone(),
                    None => Vec::with_capacity(group.len()),
                };
                for &(_, key_hash, value_hash) in group {
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
                let leaf = hash_leaf(&bucket);
                dirty.push(idx);
                frontier.push((idx, leaf));
                nodes.push((node_key(0, idx), leaf));
                buckets.push((idx, bucket));
            }
            let chunk = self.chunk_mut(c);
            chunk.buckets.put_all(&mut buckets, version);
            let old = &chunk.nodes;
            fold(
                &mut frontier,
                0,
                split,
                |level, index| node_in(old, defaults, level, index, version),
                &mut nodes,
            );
            chunk.nodes.put_all(&mut nodes, version);
            top.append(&mut frontier);
        }
        // Above the subtrees, up to the root, which goes to the root
        // list rather than a chunk.
        fold(
            &mut top,
            split,
            depth as usize,
            |level, index| self.node_at(level, index, version),
            &mut nodes,
        );
        let (_, root) = nodes.pop().expect("the fold ends at the root");
        self.chunk_mut(TOP).nodes.put_all(&mut nodes, version);
        (root, dirty)
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
        for level in 0..self.depth as usize {
            let bits = self.depth - level as u32;
            for run in frontier.chunk_by(|&a, &b| chunk_of(bits, a) == chunk_of(bits, b)) {
                let chunk = self.chunk_mut(chunk_of(bits, run[0]));
                for &idx in run {
                    if level == 0 {
                        chunk.buckets.unput(idx, version);
                    }
                    chunk.nodes.unput(node_key(level, idx), version);
                }
                // A slot the version created is gone: give back its room.
                chunk.buckets.shrink_to_fit();
                chunk.nodes.shrink_to_fit();
            }
            halve(&mut frontier);
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
        // The window's buckets, chunk by chunk in tree order.
        let mut occupied = Vec::new();
        let chunks = chunk_of(self.depth, range.first)..=chunk_of(self.depth, range.last);
        for chunk in &self.chunks[chunks] {
            let Slots { keys, versions } = &chunk.buckets;
            let from = keys.partition_point(|&idx| idx < range.first);
            for (idx, slot) in keys[from..].iter().zip(&versions[from..]) {
                if *idx > range.last {
                    break;
                }
                if let Some(bucket) = slot.at(version).filter(|b| !b.is_empty()) {
                    occupied.push((*idx, bucket.clone()));
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
        // Below CHUNK_BITS every slot sits in the top chunk; from it on
        // the buckets spread over the subtree chunks.
        for depth in 1..=16 {
            let mut vt = VersionedMerkleTree::with_depth(depth);
            let mut pt = MerkleTree::with_depth(depth);
            for batch in 0..4u64 {
                let updates: Vec<(Key, Digest)> = (0..300)
                    .map(|i| {
                        (
                            k((batch as u32 * 97 + i) % 500),
                            vh(&format!("{batch}-{i}")),
                        )
                    })
                    .collect();
                let root = vt.apply_batch(batch, updates.iter().map(|(k, d)| (k, *d)));
                pt.batch_update(updates.iter().map(|(k, d)| (k, *d)));
                assert_eq!(root, pt.root(), "depth {depth}, batch {batch}");
                assert_eq!(vt.root_at(batch), root);
            }
            let key = k(7);
            assert_eq!(
                verify_proof(&vt.root_at(3), depth, &key, &vt.prove_at(&key, 3)).unwrap(),
                verify_proof(&pt.root(), depth, &key, &pt.prove(&key)).unwrap(),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn range_proofs_across_chunk_boundaries_verify() {
        use crate::range::{verify_range_proof, MAX_RANGE_BUCKETS};
        const DEPTH: u32 = 16;
        let mut vt = VersionedMerkleTree::with_depth(DEPTH);
        let all: Vec<Key> = (0..2_000).map(k).collect();
        vt.apply_batch(0, all.iter().map(|key| (key, vh("a"))));
        vt.apply_batch(1, all.iter().step_by(7).map(|key| (key, vh("b"))));
        let buckets: Vec<u64> = all
            .iter()
            .map(|key| bucket_of(&sha256(key.as_bytes()), DEPTH))
            .collect();
        let chunk = 1u64 << (DEPTH - CHUNK_BITS);
        let last = (1u64 << DEPTH) - 1;
        let mut windows = vec![
            ScanRange::new(0, chunk - 1),
            ScanRange::new(last + 1 - MAX_RANGE_BUCKETS, last),
        ];
        for boundary in (1..1u64 << CHUNK_BITS).map(|c| c * chunk) {
            windows.push(ScanRange::new(boundary - 3, boundary + 2));
            windows.push(ScanRange::new(boundary - 1, boundary));
            windows.push(ScanRange::new(
                boundary.saturating_sub(3 * chunk / 2),
                (boundary + 3 * chunk / 2).min(last),
            ));
        }
        let mut crossed = 0;
        for range in &windows {
            for version in [0, 1] {
                let proof = vt.prove_range(range, version);
                let entries = verify_range_proof(&vt.root_at(version), DEPTH, range, &proof)
                    .unwrap_or_else(|e| panic!("{range:?} at {version}: {e:?}"));
                let inside = buckets
                    .iter()
                    .filter(|&&b| range.contains_bucket(b))
                    .count();
                assert_eq!(entries.len(), inside, "{range:?} at {version}");
                crossed += usize::from(proof.occupied.len() > 1);
            }
        }
        assert!(crossed > 256, "windows must carry buckets on both sides");
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
        // At depth 8 every bucket is a chunk of its own; at depth 16 the
        // keys spread over many subtree chunks below the top chunk.
        for depth in [8, 16] {
            let mut a = VersionedMerkleTree::with_depth(depth);
            let all: Vec<Key> = (0..600).map(k).collect();
            a.apply_batch(0, all[..500].iter().map(|key| (key, vh("a"))));
            // Overwrites and new keys.
            a.apply_batch(1, all[450..].iter().map(|key| (key, vh("b"))));
            // Every bucket, in the widest windows a range proof may cover.
            let width = crate::range::MAX_RANGE_BUCKETS.min(1 << depth);
            let windows: Vec<ScanRange> = (0..(1 << depth) / width)
                .map(|w| ScanRange::new(w * width, (w + 1) * width - 1))
                .collect();
            let reads = |t: &VersionedMerkleTree| {
                [0, 1].map(|v| {
                    let ranges: Vec<RangeProof> =
                        windows.iter().map(|r| t.prove_range(r, v)).collect();
                    (t.root_at(v), ranges, t.prove_multi(&all, v))
                })
            };
            let before = reads(&a);
            let mut b = a.clone();
            b.rollback(1);
            assert_eq!(b.latest_version(), Some(0));
            assert_eq!(a.latest_version(), Some(1));
            assert_eq!(b.root_at(1), a.root_at(0));
            assert_eq!(b.get_at(&all[550], 1), None);
            assert!(
                reads(&a) == before,
                "depth {depth}: the source's reads moved"
            );
            assert_eq!(
                verify_proof(&a.root_at(1), depth, &all[550], &a.prove_at(&all[550], 1)).unwrap(),
                Verified::Present(vh("b"))
            );
            // The clone applies a different version 1 without touching
            // the source either.
            b.apply_batch(1, [(&all[3], vh("c"))]);
            assert!(
                reads(&a) == before,
                "depth {depth}: the source's reads moved"
            );
            assert_ne!(b.root_at(1), a.root_at(1));
            // The source still holds its own undo record.
            a.rollback(1);
            assert_eq!(a.root_at(1), a.root_at(0));
        }
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
