//! The bucketed sparse Merkle tree TransEdge uses as its Authenticated
//! Data Structure (ADS).
//!
//! The paper (§4.1) keeps one Merkle tree per partition; every batch
//! commit updates the tree with the batch's write-sets and the new root
//! is certified by `f+1` replica signatures. A client reading from a
//! *single* untrusted node verifies returned values against that root.
//!
//! Shape: a complete binary tree of configurable `depth`. A key hashes
//! (SHA-256) to one of `2^depth` *buckets*; a bucket's leaf digest
//! commits to the sorted list of `(key-hash, value-hash)` entries it
//! holds, so hash-prefix collisions are handled exactly rather than
//! probabilistically. Empty subtrees use precomputed default digests,
//! so the tree is sparse: memory is proportional to occupied buckets,
//! and updates touch `O(depth)` nodes.
//!
//! Proofs carry the full bucket contents plus the `depth` sibling
//! digests. The verifier recomputes the bucket index from the key
//! itself (it never trusts the prover for position), rebuilds the leaf
//! digest, folds up to the root, and compares. The same proof form
//! shows *non-inclusion*: a bucket list without the key's hash proves
//! absence.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use transedge_common::{
    Decode, Encode, Key, Result, TransEdgeError, Value, WireReader, WireWriter,
};

use crate::digest::Digest;
use crate::sha2::{sha256, Sha256};

/// Domain-separation prefixes for the three hash shapes in the tree.
const TAG_LEAF: u8 = 0x00;
const TAG_NODE: u8 = 0x01;
const TAG_VALUE: u8 = 0x02;

/// Deepest tree a prover builds (`with_depth` asserts it).
pub(crate) const MAX_DEPTH: u32 = 48;

/// `empty_subtrees()[h]` is the digest of an empty subtree of height
/// `h` (`[0]` the empty leaf): the one table both provers index for
/// absent nodes and the range verifier folds empty space with.
pub(crate) fn empty_subtrees() -> &'static [Digest; MAX_DEPTH as usize + 1] {
    static TABLE: OnceLock<[Digest; MAX_DEPTH as usize + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [hash_leaf(&[]); MAX_DEPTH as usize + 1];
        for h in 1..table.len() {
            table[h] = hash_node(&table[h - 1], &table[h - 1]);
        }
        table
    })
}

/// Hash of a stored value, as committed in leaf entries.
pub fn value_digest(value: &Value) -> Digest {
    let mut h = Sha256::new();
    h.update(&[TAG_VALUE]);
    h.update(value.as_bytes());
    h.finalize()
}

/// One committed entry in a bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BucketEntry {
    /// SHA-256 of the key (full 32 bytes — collisions in the bucket
    /// prefix are disambiguated here).
    pub key_hash: Digest,
    /// [`value_digest`] of the current value.
    pub value_hash: Digest,
}

impl Encode for BucketEntry {
    fn encode(&self, w: &mut WireWriter) {
        self.key_hash.encode(w);
        self.value_hash.encode(w);
    }
}

impl Decode for BucketEntry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(BucketEntry {
            key_hash: Digest::decode(r)?,
            value_hash: Digest::decode(r)?,
        })
    }
}

/// An inclusion or non-inclusion proof for one key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MerkleProof {
    /// Entire contents of the key's bucket (sorted by key hash).
    pub bucket: Vec<BucketEntry>,
    /// Sibling digests from the leaf level up to just below the root.
    pub siblings: Vec<Digest>,
}

impl MerkleProof {
    /// Size in bytes when wire-encoded — used by the simulator's
    /// message-size-aware latency model.
    pub fn encoded_len(&self) -> usize {
        8 + self.bucket.len() * 64 + self.siblings.len() * 32
    }
}

impl Encode for MerkleProof {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(&self.bucket);
        w.put_seq(&self.siblings);
    }
}

impl Decode for MerkleProof {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(MerkleProof {
            bucket: r.get_seq()?,
            siblings: r.get_seq()?,
        })
    }
}

/// One distinct bucket carried by a [`MultiProof`].
///
/// The index is carried for the prover's frontier layout but is never
/// trusted alone: the verifier recomputes the needed bucket set from
/// the keys themselves and requires an exact match.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MultiBucket {
    /// Bucket index in the leaf space.
    pub index: u64,
    /// Entire contents of the bucket (sorted by key hash).
    pub entries: Vec<BucketEntry>,
}

impl Encode for MultiBucket {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.index);
        w.put_seq(&self.entries);
    }
}

impl Decode for MultiBucket {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(MultiBucket {
            index: r.get_u64()?,
            entries: r.get_seq()?,
        })
    }
}

/// A batched (non-)inclusion proof for a *set* of keys against one
/// root: every distinct bucket the keys hash into, plus one
/// deduplicated sibling set. Where N per-key [`MerkleProof`]s repeat
/// the shared upper-path digests N times, a multiproof carries each
/// digest once — the paths fold jointly, pairing frontier nodes that
/// are siblings of each other instead of shipping both.
///
/// Sibling order is deterministic: bottom-up by level, left-to-right
/// within a level, one digest per frontier node whose sibling is not
/// itself on the frontier. Prover and verifier replay the same walk,
/// so any dropped, spliced, or reordered sibling lands in the wrong
/// fold position and breaks the recomputed root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MultiProof {
    /// Distinct buckets covering the proven keys, ascending by index.
    pub buckets: Vec<MultiBucket>,
    /// Shared sibling digests in fold order.
    pub siblings: Vec<Digest>,
}

impl MultiProof {
    /// Size in bytes when wire-encoded — used by the simulator's
    /// message-size-aware latency model.
    pub fn encoded_len(&self) -> usize {
        8 + self
            .buckets
            .iter()
            .map(|b| 12 + b.entries.len() * 64)
            .sum::<usize>()
            + self.siblings.len() * 32
    }
}

impl Encode for MultiProof {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(&self.buckets);
        w.put_seq(&self.siblings);
    }
}

impl Decode for MultiProof {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(MultiProof {
            buckets: r.get_seq()?,
            siblings: r.get_seq()?,
        })
    }
}

/// The tree itself (the prover side, held by replicas).
#[derive(Clone)]
pub struct MerkleTree {
    depth: u32,
    /// bucket index → sorted entries. Absent buckets are empty.
    buckets: HashMap<u64, Vec<BucketEntry>>,
    /// levels[l] maps node-index → digest for non-default nodes;
    /// l = 0 is the leaf level, l = depth is the root level.
    levels: Vec<HashMap<u64, Digest>>,
    /// defaults[l] = digest of an empty subtree whose leaves sit l
    /// levels down.
    defaults: &'static [Digest],
    len: usize,
}

impl MerkleTree {
    /// Default depth: 2^20 buckets — matches the paper's 1M-key
    /// workload at about one key per bucket.
    pub const DEFAULT_DEPTH: u32 = 20;

    pub fn new() -> Self {
        Self::with_depth(Self::DEFAULT_DEPTH)
    }

    /// A tree with `2^depth` buckets. `depth` must be in `1..=48`.
    pub fn with_depth(depth: u32) -> Self {
        assert!((1..=MAX_DEPTH).contains(&depth), "depth out of range");
        MerkleTree {
            depth,
            buckets: HashMap::new(),
            levels: vec![HashMap::new(); depth as usize + 1],
            defaults: empty_subtrees(),
            len: 0,
        }
    }

    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current root digest.
    pub fn root(&self) -> Digest {
        self.node_digest(self.depth as usize, 0)
    }

    fn node_digest(&self, level: usize, index: u64) -> Digest {
        self.levels[level]
            .get(&index)
            .copied()
            .unwrap_or(self.defaults[level])
    }

    fn bucket_index(&self, key_hash: &Digest) -> u64 {
        let prefix = u64::from_be_bytes(key_hash.0[..8].try_into().unwrap());
        prefix >> (64 - self.depth)
    }

    /// Insert or update a key. Returns the previous value hash if the
    /// key was present.
    pub fn insert(&mut self, key: &Key, value_hash: Digest) -> Option<Digest> {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self.buckets.entry(idx).or_default();
        let prev = match bucket.binary_search_by(|e| e.key_hash.cmp(&key_hash)) {
            Ok(pos) => {
                let old = bucket[pos].value_hash;
                bucket[pos].value_hash = value_hash;
                Some(old)
            }
            Err(pos) => {
                bucket.insert(
                    pos,
                    BucketEntry {
                        key_hash,
                        value_hash,
                    },
                );
                self.len += 1;
                None
            }
        };
        let leaf = hash_leaf(bucket);
        self.set_leaf_and_bubble(idx, leaf);
        prev
    }

    /// Remove a key. Returns its value hash if it was present.
    pub fn remove(&mut self, key: &Key) -> Option<Digest> {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let MapEntry::Occupied(mut occ) = self.buckets.entry(idx) else {
            return None;
        };
        let bucket = occ.get_mut();
        let pos = bucket
            .binary_search_by(|e| e.key_hash.cmp(&key_hash))
            .ok()?;
        let old = bucket.remove(pos).value_hash;
        self.len -= 1;
        let leaf = if bucket.is_empty() {
            occ.remove();
            self.defaults[0]
        } else {
            hash_leaf(occ.get())
        };
        self.set_leaf_and_bubble(idx, leaf);
        Some(old)
    }

    fn set_leaf_and_bubble(&mut self, idx: u64, leaf: Digest) {
        self.set_node(0, idx, leaf);
        let mut index = idx;
        for level in 0..self.depth as usize {
            let parent = index >> 1;
            let left = self.node_digest(level, parent << 1);
            let right = self.node_digest(level, (parent << 1) | 1);
            self.set_node(level + 1, parent, hash_node(&left, &right));
            index = parent;
        }
    }

    fn set_node(&mut self, level: usize, index: u64, digest: Digest) {
        if digest == self.defaults[level] {
            self.levels[level].remove(&index);
        } else {
            self.levels[level].insert(index, digest);
        }
    }

    /// Apply many updates, recomputing each affected interior node once.
    /// Orders of magnitude faster than repeated [`MerkleTree::insert`] for the
    /// batch sizes in the paper's evaluation (900–3500 writes).
    pub fn batch_update<'a>(&mut self, updates: impl IntoIterator<Item = (&'a Key, Digest)>) {
        let mut dirty: HashSet<u64> = HashSet::new();
        for (key, value_hash) in updates {
            let key_hash = sha256(key.as_bytes());
            let idx = self.bucket_index(&key_hash);
            let bucket = self.buckets.entry(idx).or_default();
            match bucket.binary_search_by(|e| e.key_hash.cmp(&key_hash)) {
                Ok(pos) => bucket[pos].value_hash = value_hash,
                Err(pos) => {
                    bucket.insert(
                        pos,
                        BucketEntry {
                            key_hash,
                            value_hash,
                        },
                    );
                    self.len += 1;
                }
            }
            dirty.insert(idx);
        }
        // Recompute dirty leaves, then propagate level by level.
        for &idx in &dirty {
            let leaf = hash_leaf(&self.buckets[&idx]);
            self.set_node(0, idx, leaf);
        }
        let mut frontier: HashSet<u64> = dirty.iter().map(|i| i >> 1).collect();
        for level in 0..self.depth as usize {
            let mut next = HashSet::with_capacity(frontier.len() / 2 + 1);
            for &parent in &frontier {
                let left = self.node_digest(level, parent << 1);
                let right = self.node_digest(level, (parent << 1) | 1);
                self.set_node(level + 1, parent, hash_node(&left, &right));
                next.insert(parent >> 1);
            }
            frontier = next;
        }
    }

    /// Produce an (non-)inclusion proof for `key` against the current
    /// root.
    pub fn prove(&self, key: &Key) -> MerkleProof {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self.buckets.get(&idx).cloned().unwrap_or_default();
        let mut siblings = Vec::with_capacity(self.depth as usize);
        let mut index = idx;
        for level in 0..self.depth as usize {
            siblings.push(self.node_digest(level, index ^ 1));
            index >>= 1;
        }
        MerkleProof { bucket, siblings }
    }

    /// Look up the committed value hash for a key (prover-side; clients
    /// use [`verify_proof`]).
    pub fn get(&self, key: &Key) -> Option<Digest> {
        let key_hash = sha256(key.as_bytes());
        let idx = self.bucket_index(&key_hash);
        let bucket = self.buckets.get(&idx)?;
        let pos = bucket
            .binary_search_by(|e| e.key_hash.cmp(&key_hash))
            .ok()?;
        Some(bucket[pos].value_hash)
    }
}

impl Default for MerkleTree {
    fn default() -> Self {
        Self::new()
    }
}

/// What a verified proof says about the key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verified {
    /// Key present with this value hash.
    Present(Digest),
    /// Key provably absent.
    Absent,
}

/// Client-side verification of a [`MerkleProof`] against a trusted
/// `root`. `depth` must be the agreed tree depth (part of the system
/// configuration, not attacker-controlled).
pub fn verify_proof(root: &Digest, depth: u32, key: &Key, proof: &MerkleProof) -> Result<Verified> {
    if proof.siblings.len() != depth as usize {
        return Err(TransEdgeError::Verification(format!(
            "proof has {} siblings, want {depth}",
            proof.siblings.len()
        )));
    }
    // Buckets must be strictly sorted — otherwise a malicious prover
    // could hide an entry from the binary search.
    for pair in proof.bucket.windows(2) {
        if pair[0].key_hash >= pair[1].key_hash {
            return Err(TransEdgeError::Verification(
                "proof bucket not strictly sorted".into(),
            ));
        }
    }
    let key_hash = sha256(key.as_bytes());
    // Recompute the bucket index from the key; never trust the prover.
    let prefix = u64::from_be_bytes(key_hash.0[..8].try_into().unwrap());
    let idx = prefix >> (64 - depth);
    // Every entry in the bucket must actually belong to this bucket.
    for e in &proof.bucket {
        let p = u64::from_be_bytes(e.key_hash.0[..8].try_into().unwrap());
        if p >> (64 - depth) != idx {
            return Err(TransEdgeError::Verification(
                "bucket entry outside its bucket".into(),
            ));
        }
    }
    let mut digest = hash_leaf(&proof.bucket);
    let mut index = idx;
    for sibling in &proof.siblings {
        digest = if index & 1 == 0 {
            hash_node(&digest, sibling)
        } else {
            hash_node(sibling, &digest)
        };
        index >>= 1;
    }
    if digest != *root {
        return Err(TransEdgeError::Verification("merkle root mismatch".into()));
    }
    let found = proof
        .bucket
        .binary_search_by(|e| e.key_hash.cmp(&key_hash))
        .ok()
        .map(|pos| proof.bucket[pos].value_hash);
    Ok(match found {
        Some(vh) => Verified::Present(vh),
        None => Verified::Absent,
    })
}

/// Client-side verification of a [`MultiProof`] against a trusted
/// `root`: one joint fold recomputes the root once for the whole key
/// set. Returns one [`Verified`] per key, in the order given.
///
/// The needed bucket set is recomputed from the keys — the prover's
/// carried indices are checked against it, never trusted. The proof
/// may cover *more* keys than asked (a cached superset replay): the
/// caller passes the full proven key set here and filters afterwards.
pub fn verify_multi_proof(
    root: &Digest,
    depth: u32,
    keys: &[Key],
    proof: &MultiProof,
) -> Result<Vec<Verified>> {
    if keys.is_empty() {
        return Err(TransEdgeError::Verification(
            "multiproof over an empty key set".into(),
        ));
    }
    // Recompute every key's bucket index from the key itself.
    let key_hashes: Vec<Digest> = keys.iter().map(|k| sha256(k.as_bytes())).collect();
    let key_buckets: Vec<u64> = key_hashes
        .iter()
        .map(|h| {
            let prefix = u64::from_be_bytes(h.0[..8].try_into().unwrap());
            prefix >> (64 - depth)
        })
        .collect();
    let mut needed = key_buckets.clone();
    needed.sort_unstable();
    needed.dedup();
    // The carried bucket set must equal the recomputed one exactly —
    // no bucket missing (omission) and none smuggled in (splice).
    if proof.buckets.len() != needed.len()
        || proof
            .buckets
            .iter()
            .zip(&needed)
            .any(|(b, want)| b.index != *want)
    {
        return Err(TransEdgeError::Verification(
            "multiproof bucket set does not match the key set".into(),
        ));
    }
    for b in &proof.buckets {
        // Strictly sorted — otherwise a malicious prover could hide an
        // entry from the binary search.
        for pair in b.entries.windows(2) {
            if pair[0].key_hash >= pair[1].key_hash {
                return Err(TransEdgeError::Verification(
                    "multiproof bucket not strictly sorted".into(),
                ));
            }
        }
        // Every entry must actually belong to its bucket.
        for e in &b.entries {
            let p = u64::from_be_bytes(e.key_hash.0[..8].try_into().unwrap());
            if p >> (64 - depth) != b.index {
                return Err(TransEdgeError::Verification(
                    "multiproof entry outside its bucket".into(),
                ));
            }
        }
    }
    // Joint fold: pair frontier nodes that are each other's sibling;
    // consume a shipped sibling for every unpaired node.
    let mut frontier: Vec<(u64, Digest)> = proof
        .buckets
        .iter()
        .map(|b| (b.index, hash_leaf(&b.entries)))
        .collect();
    let mut sibs = proof.siblings.iter();
    for _ in 0..depth {
        let mut next: Vec<(u64, Digest)> = Vec::with_capacity(frontier.len());
        let mut i = 0;
        while i < frontier.len() {
            let (idx, digest) = frontier[i];
            if idx & 1 == 0 && frontier.get(i + 1).is_some_and(|(j, _)| *j == idx + 1) {
                next.push((idx >> 1, hash_node(&digest, &frontier[i + 1].1)));
                i += 2;
            } else {
                let Some(sib) = sibs.next() else {
                    return Err(TransEdgeError::Verification(
                        "multiproof has too few siblings".into(),
                    ));
                };
                let parent = if idx & 1 == 0 {
                    hash_node(&digest, sib)
                } else {
                    hash_node(sib, &digest)
                };
                next.push((idx >> 1, parent));
                i += 1;
            }
        }
        frontier = next;
    }
    if sibs.next().is_some() {
        return Err(TransEdgeError::Verification(
            "multiproof has unconsumed siblings".into(),
        ));
    }
    if frontier.len() != 1 || frontier[0].1 != *root {
        return Err(TransEdgeError::Verification(
            "multiproof root mismatch".into(),
        ));
    }
    // Resolve every key against its (now authenticated) bucket.
    let mut out = Vec::with_capacity(keys.len());
    for (kh, bidx) in key_hashes.iter().zip(&key_buckets) {
        let pos = needed.binary_search(bidx).expect("bucket set checked");
        let bucket = &proof.buckets[pos].entries;
        let found = bucket
            .binary_search_by(|e| e.key_hash.cmp(kh))
            .ok()
            .map(|p| bucket[p].value_hash);
        out.push(match found {
            Some(vh) => Verified::Present(vh),
            None => Verified::Absent,
        });
    }
    Ok(out)
}

pub(crate) fn hash_leaf(entries: &[BucketEntry]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[TAG_LEAF]);
    h.update(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        h.update(e.key_hash.as_bytes());
        h.update(e.value_hash.as_bytes());
    }
    h.finalize()
}

pub(crate) fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[TAG_NODE]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Key {
        Key::from_u32(i)
    }

    fn vh(s: &str) -> Digest {
        value_digest(&Value::from(s))
    }

    #[test]
    fn empty_tree_has_default_root() {
        let t = MerkleTree::with_depth(4);
        let u = MerkleTree::with_depth(4);
        assert_eq!(t.root(), u.root());
        assert!(t.is_empty());
        // Different depths produce different roots.
        assert_ne!(t.root(), MerkleTree::with_depth(5).root());
    }

    #[test]
    fn insert_changes_root_update_changes_root() {
        let mut t = MerkleTree::with_depth(8);
        let r0 = t.root();
        t.insert(&key(1), vh("a"));
        let r1 = t.root();
        assert_ne!(r0, r1);
        t.insert(&key(1), vh("b"));
        let r2 = t.root();
        assert_ne!(r1, r2);
        // Re-inserting the same value is a no-op on the root.
        t.insert(&key(1), vh("b"));
        assert_eq!(t.root(), r2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut t = MerkleTree::with_depth(8);
        t.insert(&key(1), vh("a"));
        let r1 = t.root();
        t.insert(&key(2), vh("b"));
        assert_eq!(t.remove(&key(2)), Some(vh("b")));
        assert_eq!(t.root(), r1);
        assert_eq!(t.remove(&key(2)), None);
        assert_eq!(t.remove(&key(1)), Some(vh("a")));
        assert_eq!(t.root(), MerkleTree::with_depth(8).root());
        assert!(t.is_empty());
    }

    #[test]
    fn inclusion_proof_verifies() {
        let mut t = MerkleTree::with_depth(10);
        for i in 0..100 {
            t.insert(&key(i), vh(&format!("v{i}")));
        }
        let root = t.root();
        for i in (0..100).step_by(7) {
            let proof = t.prove(&key(i));
            let got = verify_proof(&root, 10, &key(i), &proof).unwrap();
            assert_eq!(got, Verified::Present(vh(&format!("v{i}"))));
        }
    }

    #[test]
    fn non_inclusion_proof_verifies() {
        let mut t = MerkleTree::with_depth(10);
        for i in 0..50 {
            t.insert(&key(i), vh("x"));
        }
        let root = t.root();
        let absent = key(9999);
        let proof = t.prove(&absent);
        assert_eq!(
            verify_proof(&root, 10, &absent, &proof).unwrap(),
            Verified::Absent
        );
    }

    #[test]
    fn proof_against_wrong_root_fails() {
        let mut t = MerkleTree::with_depth(6);
        t.insert(&key(1), vh("a"));
        let proof = t.prove(&key(1));
        t.insert(&key(2), vh("b"));
        let new_root = t.root();
        assert!(verify_proof(&new_root, 6, &key(1), &proof).is_err());
    }

    #[test]
    fn tampered_proof_fails() {
        let mut t = MerkleTree::with_depth(6);
        for i in 0..20 {
            t.insert(&key(i), vh(&i.to_string()));
        }
        let root = t.root();
        let mut proof = t.prove(&key(3));
        // Lie about the value.
        for e in proof.bucket.iter_mut() {
            e.value_hash = vh("forged");
        }
        assert!(verify_proof(&root, 6, &key(3), &proof).is_err());
        // Tamper a sibling.
        let mut proof2 = t.prove(&key(3));
        proof2.siblings[2] = Digest([0xFF; 32]);
        assert!(verify_proof(&root, 6, &key(3), &proof2).is_err());
        // Wrong sibling count.
        let mut proof3 = t.prove(&key(3));
        proof3.siblings.pop();
        assert!(verify_proof(&root, 6, &key(3), &proof3).is_err());
    }

    #[test]
    fn prover_cannot_hide_entry_by_unsorting_bucket() {
        // Shallow tree forces collisions: depth 1 → 2 buckets.
        let mut t = MerkleTree::with_depth(1);
        for i in 0..16 {
            t.insert(&key(i), vh(&i.to_string()));
        }
        let root = t.root();
        let target = key(3);
        let mut proof = t.prove(&target);
        assert!(proof.bucket.len() > 1, "want a multi-entry bucket");
        // Attempt: reverse the bucket so binary search misses the key,
        // "proving" absence of a present key.
        proof.bucket.reverse();
        assert!(verify_proof(&root, 1, &target, &proof).is_err());
    }

    #[test]
    fn bucket_collisions_are_exact() {
        // depth 1: two buckets, plenty of collisions; lookups must
        // still be exact per key.
        let mut t = MerkleTree::with_depth(1);
        for i in 0..32 {
            t.insert(&key(i), vh(&format!("val{i}")));
        }
        assert_eq!(t.len(), 32);
        let root = t.root();
        for i in 0..32 {
            let proof = t.prove(&key(i));
            assert_eq!(
                verify_proof(&root, 1, &key(i), &proof).unwrap(),
                Verified::Present(vh(&format!("val{i}")))
            );
        }
        let proof = t.prove(&key(555));
        assert_eq!(
            verify_proof(&root, 1, &key(555), &proof).unwrap(),
            Verified::Absent
        );
    }

    #[test]
    fn batch_update_matches_sequential_inserts() {
        let mut a = MerkleTree::with_depth(12);
        let mut b = MerkleTree::with_depth(12);
        let keys: Vec<Key> = (0..500).map(key).collect();
        let updates: Vec<(&Key, Digest)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k, vh(&format!("{i}"))))
            .collect();
        for (k, v) in &updates {
            a.insert(k, *v);
        }
        b.batch_update(updates.iter().map(|(k, v)| (*k, *v)));
        assert_eq!(a.root(), b.root());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn batch_update_overwrites() {
        let mut t = MerkleTree::with_depth(8);
        t.insert(&key(1), vh("old"));
        t.batch_update([(&key(1), vh("new"))]);
        assert_eq!(t.get(&key(1)), Some(vh("new")));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_matches_inserted() {
        let mut t = MerkleTree::new();
        assert_eq!(t.get(&key(7)), None);
        t.insert(&key(7), vh("x"));
        assert_eq!(t.get(&key(7)), Some(vh("x")));
    }

    #[test]
    fn proof_encoded_len_is_accurate_enough() {
        let mut t = MerkleTree::with_depth(10);
        for i in 0..64 {
            t.insert(&key(i), vh("v"));
        }
        let p = t.prove(&key(5));
        let actual = p.encode_to_vec().len();
        let estimate = p.encoded_len();
        assert!(
            (actual as i64 - estimate as i64).abs() <= 8,
            "estimate {estimate} vs actual {actual}"
        );
    }

    #[test]
    fn wire_roundtrip() {
        use transedge_common::wire::roundtrip;
        let mut t = MerkleTree::with_depth(5);
        for i in 0..10 {
            t.insert(&key(i), vh("v"));
        }
        roundtrip(&t.prove(&key(3)));
    }

    #[test]
    fn multi_proof_wire_roundtrip_and_len() {
        use crate::VersionedMerkleTree;
        use transedge_common::wire::roundtrip;
        let mut vt = VersionedMerkleTree::with_depth(6);
        let keys: Vec<Key> = (0..12).map(key).collect();
        vt.apply_batch(0, keys.iter().map(|k| (k, vh("v"))));
        let p = vt.prove_multi(&keys[..5], 0);
        roundtrip(&p);
        let actual = p.encode_to_vec().len();
        let estimate = p.encoded_len();
        assert!(
            (actual as i64 - estimate as i64).abs() <= 16,
            "estimate {estimate} vs actual {actual}"
        );
    }

    #[test]
    fn multi_proof_rejects_empty_and_unsorted() {
        use crate::VersionedMerkleTree;
        let mut vt = VersionedMerkleTree::with_depth(4);
        // Depth 4 → 16 buckets: plenty of collisions among 24 keys.
        let keys: Vec<Key> = (0..24).map(key).collect();
        vt.apply_batch(0, keys.iter().map(|k| (k, vh("v"))));
        let root = vt.root_at(0);
        let asked = &keys[..6];
        let good = vt.prove_multi(asked, 0);
        assert!(verify_multi_proof(&root, 4, asked, &good).is_ok());
        assert!(verify_multi_proof(&root, 4, &[], &good).is_err());
        // Unsorting a multi-entry bucket must be caught even when the
        // fold would otherwise be order-insensitive to the search.
        if let Some(b) = good
            .buckets
            .iter()
            .position(|b| b.entries.len() > 1)
            .map(|i| {
                let mut p = good.clone();
                p.buckets[i].entries.reverse();
                p
            })
        {
            assert!(verify_multi_proof(&root, 4, asked, &b).is_err());
        }
        // Extra sibling appended: unconsumed → rejected.
        let mut extra = good.clone();
        extra.siblings.push(Digest([1; 32]));
        assert!(verify_multi_proof(&root, 4, asked, &extra).is_err());
    }
}
