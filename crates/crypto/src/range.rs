//! Merkle *range* proofs over the tree order.
//!
//! A point proof ([`crate::merkle::MerkleProof`]) shows what one key's
//! bucket held; it can never show that a server returned *every* key in
//! a window of the tree — an untrusted edge could silently omit rows
//! from a scan and each surviving row would still verify. Range proofs
//! close that gap (WedgeChain calls these completeness proofs): the
//! prover commits to the *entire contents* of a contiguous run of
//! leaves, plus the boundary siblings needed to fold that run back up
//! to the certified root. The verifier recomputes every leaf in the
//! window — including the empty ones — so omitting, truncating, or
//! splicing any bucket changes a leaf digest and breaks the root.
//!
//! Ranges are expressed in **tree order**: bucket indices of the
//! bucketed sparse Merkle tree, i.e. the key-*hash* order. That is the
//! only total order the ADS commits to, which is exactly why a
//! contiguous window of it is provable. (A scan over raw key bytes
//! would need a second, key-ordered ADS; see ARCHITECTURE.md.)

use std::ops::Bound;

use transedge_common::{Decode, Encode, Key, Result, TransEdgeError, WireReader, WireWriter};

use crate::digest::Digest;
use crate::merkle::{bucket_of, empty_subtrees, hash_leaf, hash_node, BucketEntry};
use crate::sha2::sha256;

/// Widest range (in buckets) a prover will produce or a verifier will
/// accept, and so the widest one verified scan reads. Bounds both proof
/// size and the verifier's hashing work.
pub const MAX_RANGE_BUCKETS: u64 = 1 << 12;

/// A contiguous, inclusive window `[first, last]` of Merkle-tree bucket
/// indices — the unit of a verified range scan.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ScanRange {
    pub first: u64,
    pub last: u64,
}

impl ScanRange {
    /// An inclusive bucket window. Panics if `first > last` (requests
    /// are built by trusted code; untrusted input goes through
    /// [`ScanRange::is_valid_for_depth`] instead).
    pub fn new(first: u64, last: u64) -> Self {
        assert!(first <= last, "empty scan range {first}..{last}");
        ScanRange { first, last }
    }

    /// Number of buckets covered.
    pub fn width(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Shape check against a tree depth: non-empty, inside the leaf
    /// space, and no wider than [`MAX_RANGE_BUCKETS`].
    pub fn is_valid_for_depth(&self, depth: u32) -> bool {
        self.first <= self.last
            && (depth >= 64 || self.last < (1u64 << depth))
            && self.width() <= MAX_RANGE_BUCKETS
    }

    pub fn contains_bucket(&self, bucket: u64) -> bool {
        (self.first..=self.last).contains(&bucket)
    }

    /// Tree-order bucket a key hash lands in at `depth`.
    pub fn bucket_of_hash(key_hash: &Digest, depth: u32) -> u64 {
        bucket_of(key_hash, depth)
    }

    /// Tree-order bucket of a key at `depth`.
    pub fn bucket_of(key: &Key, depth: u32) -> u64 {
        Self::bucket_of_hash(&sha256(key.as_bytes()), depth)
    }

    pub fn contains_key(&self, key: &Key, depth: u32) -> bool {
        self.contains_bucket(Self::bucket_of(key, depth))
    }

    /// The key-hash interval this bucket window covers, as `BTreeMap`
    /// range bounds over full 32-byte digests — what an ordered store
    /// iterates to enumerate the window's rows.
    pub fn digest_bounds(&self, depth: u32) -> (Bound<Digest>, Bound<Digest>) {
        let mut start = [0u8; 32];
        start[..8].copy_from_slice(&(self.first << (64 - depth)).to_be_bytes());
        let end = if self.last + 1 == 1u64 << depth {
            Bound::Unbounded
        } else {
            let mut end = [0u8; 32];
            end[..8].copy_from_slice(&((self.last + 1) << (64 - depth)).to_be_bytes());
            Bound::Excluded(Digest(end))
        };
        (Bound::Included(Digest(start)), end)
    }
}

impl Encode for ScanRange {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.first);
        w.put_u64(self.last);
    }
}

impl Decode for ScanRange {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let first = r.get_u64()?;
        let last = r.get_u64()?;
        if first > last {
            return Err(TransEdgeError::Verification(format!(
                "decoded empty scan range {first}..{last}"
            )));
        }
        Ok(ScanRange { first, last })
    }
}

/// A completeness proof for a contiguous bucket window: the full
/// contents of every non-empty bucket in the window, plus the sibling
/// digests that extend the window to the root. Verification recomputes
/// *all* `width` leaves (absent buckets hash as empty), so the proof
/// pins the committed row set exactly — nothing in the window can be
/// hidden, added, or moved without breaking the root.
///
/// Every entry is a row's `(sha256(key), value_digest(value))`, so a
/// reader sent the rows needs only `left` and `right`: the edge's scan
/// window ships those and the rows, and its verifier rebuilds
/// `occupied` from the rows before calling [`verify_range_proof`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeProof {
    /// `(bucket index, sorted entries)` for every non-empty bucket in
    /// the proven range, ascending by index.
    pub occupied: Vec<(u64, Vec<BucketEntry>)>,
    /// Left-boundary siblings, bottom-up: one digest for each level at
    /// which the window's left edge sat at an odd index.
    pub left: Vec<Digest>,
    /// Right-boundary siblings, bottom-up, for even right edges.
    pub right: Vec<Digest>,
}

impl Encode for RangeProof {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.occupied.len() as u32);
        for (idx, entries) in &self.occupied {
            w.put_u64(*idx);
            w.put_seq(entries);
        }
        w.put_seq(&self.left);
        w.put_seq(&self.right);
    }
}

impl Decode for RangeProof {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_u32()? as usize;
        let mut occupied = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let idx = r.get_u64()?;
            occupied.push((idx, r.get_seq()?));
        }
        Ok(RangeProof {
            occupied,
            left: r.get_seq()?,
            right: r.get_seq()?,
        })
    }
}

fn invalid(msg: impl Into<String>) -> TransEdgeError {
    TransEdgeError::Verification(msg.into())
}

/// Verify a [`RangeProof`] for `range` against a trusted `root`,
/// returning the committed `(key-hash, value-hash)` entries of the
/// window in tree order. `depth` is the agreed tree depth (system
/// configuration, never attacker-controlled); `range` is what the
/// *verifier* wants proven — the prover is never trusted for position.
///
/// Success means the returned entry list is the **complete** committed
/// content of the window at the root's version: any omission,
/// truncation at a boundary, or splice from another version would have
/// changed a recomputed leaf or consumed the wrong siblings, and the
/// fold would miss the root.
pub fn verify_range_proof(
    root: &Digest,
    depth: u32,
    range: &ScanRange,
    proof: &RangeProof,
) -> Result<Vec<BucketEntry>> {
    if !range.is_valid_for_depth(depth) {
        return Err(invalid(format!(
            "scan range {}..={} invalid for depth {depth}",
            range.first, range.last
        )));
    }
    // Occupied buckets: strictly ascending, inside the range, non-empty,
    // strictly sorted entries, every entry hashed into its own bucket.
    let mut prev: Option<u64> = None;
    for (idx, entries) in &proof.occupied {
        if !range.contains_bucket(*idx) {
            return Err(invalid("occupied bucket outside proven range"));
        }
        if prev.is_some_and(|p| p >= *idx) {
            return Err(invalid("occupied buckets not strictly ascending"));
        }
        prev = Some(*idx);
        if entries.is_empty() {
            return Err(invalid("occupied bucket with no entries"));
        }
        for pair in entries.windows(2) {
            if pair[0].key_hash >= pair[1].key_hash {
                return Err(invalid("bucket entries not strictly sorted"));
            }
        }
        for e in entries {
            if ScanRange::bucket_of_hash(&e.key_hash, depth) != *idx {
                return Err(invalid("bucket entry outside its bucket"));
            }
        }
    }
    // Recompute every leaf of the window; absent buckets hash as empty.
    // One buffer holds each level at `buf[start..end]`, with a slot of
    // headroom at either end for a boundary sibling. Parents are written
    // back from slot 1, which never passes the pair being read.
    let empties = empty_subtrees();
    let width = range.width() as usize;
    let mut buf: Vec<Digest> = vec![empties[0]; width + 2];
    for (idx, entries) in &proof.occupied {
        buf[1 + (idx - range.first) as usize] = hash_leaf(entries);
    }
    let (mut start, mut end) = (1, 1 + width);
    // Fold to the root, consuming boundary siblings exactly as parity
    // demands — no spare siblings may remain (they could smuggle state).
    let (mut lo, mut hi) = (range.first, range.last);
    let (mut li, mut ri) = (0usize, 0usize);
    for height in 0..depth as usize {
        if lo & 1 == 1 {
            let Some(s) = proof.left.get(li) else {
                return Err(invalid("missing left boundary sibling"));
            };
            start -= 1;
            buf[start] = *s;
            li += 1;
            lo -= 1;
        }
        if hi & 1 == 0 {
            let Some(s) = proof.right.get(ri) else {
                return Err(invalid("missing right boundary sibling"));
            };
            buf[end] = *s;
            end += 1;
            ri += 1;
            hi += 1;
        }
        // A window is mostly empty space: two empty subtrees of this
        // height fold to the next height's constant — the digest
        // `hash_node` would return, without hashing. (Heights past the
        // table, deeper than any tree is built, always hash.)
        let empty = empties.get(height).zip(empties.get(height + 1));
        let pairs = (end - start) / 2;
        for i in 0..pairs {
            let (l, r) = (buf[start + 2 * i], buf[start + 2 * i + 1]);
            buf[1 + i] = match empty {
                Some((e, parent)) if l == *e && r == *e => *parent,
                _ => hash_node(&l, &r),
            };
        }
        (start, end) = (1, 1 + pairs);
        lo >>= 1;
        hi >>= 1;
    }
    if li != proof.left.len() || ri != proof.right.len() {
        return Err(invalid("unused boundary siblings"));
    }
    if end - start != 1 || buf[start] != *root {
        return Err(invalid("merkle range root mismatch"));
    }
    let mut rows = Vec::with_capacity(proof.occupied.iter().map(|(_, e)| e.len()).sum());
    for (_, entries) in &proof.occupied {
        rows.extend_from_slice(entries);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::value_digest;
    use crate::VersionedMerkleTree;
    use transedge_common::Value;

    const DEPTH: u32 = 8;

    fn k(i: u32) -> Key {
        Key::from_u32(i)
    }

    fn vh(s: &str) -> Digest {
        value_digest(&Value::from(s))
    }

    fn populated(n: u32) -> VersionedMerkleTree {
        let mut t = VersionedMerkleTree::with_depth(DEPTH);
        let updates: Vec<(Key, Digest)> = (0..n).map(|i| (k(i), vh(&i.to_string()))).collect();
        t.apply_batch(0, updates.iter().map(|(key, d)| (key, *d)));
        t
    }

    #[test]
    fn full_tree_range_verifies_and_is_complete() {
        let t = populated(64);
        let root = t.root_at(0);
        let range = ScanRange::new(0, (1 << DEPTH) - 1);
        let proof = t.prove_range(&range, 0);
        let entries = verify_range_proof(&root, DEPTH, &range, &proof).unwrap();
        assert_eq!(entries.len(), 64, "every committed key is in the window");
        // Entries come back in tree order.
        for pair in entries.windows(2) {
            assert!(pair[0].key_hash < pair[1].key_hash);
        }
        // Full-tree span consumes no boundary siblings.
        assert!(proof.left.is_empty() && proof.right.is_empty());
    }

    #[test]
    fn window_ranges_verify_at_every_alignment() {
        let t = populated(40);
        let root = t.root_at(0);
        for first in [0u64, 1, 7, 128, 250] {
            for width in [1u64, 2, 5, 6] {
                let last = (first + width - 1).min((1 << DEPTH) - 1);
                let range = ScanRange::new(first, last);
                let proof = t.prove_range(&range, 0);
                let entries = verify_range_proof(&root, DEPTH, &range, &proof).unwrap();
                for e in &entries {
                    assert!(range.contains_bucket(ScanRange::bucket_of_hash(&e.key_hash, DEPTH)));
                }
            }
        }
    }

    #[test]
    fn historical_range_proofs_pin_their_version() {
        let mut t = VersionedMerkleTree::with_depth(DEPTH);
        t.apply_batch(0, [(&k(1), vh("old"))]);
        t.apply_batch(1, [(&k(1), vh("new")), (&k(2), vh("x"))]);
        let range = ScanRange::new(0, (1 << DEPTH) - 1);
        for version in [0u64, 1] {
            let proof = t.prove_range(&range, version);
            let entries = verify_range_proof(&t.root_at(version), DEPTH, &range, &proof).unwrap();
            assert_eq!(entries.len(), if version == 0 { 1 } else { 2 });
        }
        // Cross-version splice: proof of version 0 against root 1 fails.
        let spliced = t.prove_range(&range, 0);
        assert!(verify_range_proof(&t.root_at(1), DEPTH, &range, &spliced).is_err());
    }

    #[test]
    fn omitting_a_bucket_or_entry_breaks_the_proof() {
        let t = populated(64);
        let root = t.root_at(0);
        let range = ScanRange::new(0, (1 << DEPTH) - 1);
        let honest = t.prove_range(&range, 0);
        assert!(honest.occupied.len() > 2);
        // Drop a whole bucket.
        let mut p = honest.clone();
        p.occupied.remove(p.occupied.len() / 2);
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
        // Drop one entry from a bucket (or empty the bucket entirely).
        let mut p = honest.clone();
        let (idx, entries) = &mut p.occupied[0];
        if entries.len() > 1 {
            entries.pop();
        } else {
            let idx = *idx;
            p.occupied.retain(|(i, _)| *i != idx);
        }
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
        // Tamper a value hash.
        let mut p = honest.clone();
        p.occupied[0].1[0].value_hash = vh("forged");
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
    }

    #[test]
    fn boundary_truncation_is_rejected() {
        let t = populated(64);
        let root = t.root_at(0);
        // A proof for a narrower window does not verify as the wider one
        // (the attack: prove [first+1, last] and claim the first bucket
        // was empty).
        let wide = ScanRange::new(4, 11);
        let narrow = ScanRange::new(5, 11);
        let narrow_proof = t.prove_range(&narrow, 0);
        assert!(verify_range_proof(&root, DEPTH, &wide, &narrow_proof).is_err());
        // And vice versa: the wide proof is not accepted for the narrow
        // request (its siblings no longer line up).
        let wide_proof = t.prove_range(&wide, 0);
        assert!(verify_range_proof(&root, DEPTH, &narrow, &wide_proof).is_err());
    }

    #[test]
    fn tampered_siblings_and_spares_are_rejected() {
        let t = populated(64);
        let root = t.root_at(0);
        let range = ScanRange::new(3, 6);
        let honest = t.prove_range(&range, 0);
        assert!(!honest.left.is_empty() && !honest.right.is_empty());
        let mut p = honest.clone();
        p.left[0].0[0] ^= 0xFF;
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
        let mut p = honest.clone();
        p.right.push(Digest([0xAB; 32]));
        assert!(
            verify_range_proof(&root, DEPTH, &range, &p).is_err(),
            "spare siblings must be rejected"
        );
        let mut p = honest;
        p.left.pop();
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
    }

    #[test]
    fn misplaced_and_unsorted_entries_are_rejected() {
        let t = populated(64);
        let root = t.root_at(0);
        let range = ScanRange::new(0, (1 << DEPTH) - 1);
        let honest = t.prove_range(&range, 0);
        // Move an entry into a neighbouring bucket (keeps the flattened
        // set identical — only position lies).
        let mut p = honest.clone();
        let moved = p.occupied[0].1.remove(0);
        if p.occupied[0].1.is_empty() {
            p.occupied.remove(0);
        }
        p.occupied[1].1.insert(0, moved);
        assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
        // Unsorted bucket (only exercised when a bucket collides).
        if honest.occupied.iter().any(|(_, e)| e.len() > 1) {
            let mut p = honest.clone();
            for (_, e) in p.occupied.iter_mut() {
                if e.len() > 1 {
                    e.reverse();
                    break;
                }
            }
            assert!(verify_range_proof(&root, DEPTH, &range, &p).is_err());
        }
    }

    #[test]
    fn range_validity_and_width_cap() {
        assert!(!ScanRange::new(0, MAX_RANGE_BUCKETS).is_valid_for_depth(20));
        assert!(ScanRange::new(0, MAX_RANGE_BUCKETS - 1).is_valid_for_depth(20));
        assert!(!ScanRange::new(200, 300).is_valid_for_depth(8));
        assert!(ScanRange::new(200, 255).is_valid_for_depth(8));
        let r = ScanRange::new(3, 9);
        assert_eq!(r.width(), 7);
    }

    #[test]
    fn digest_bounds_partition_the_key_space() {
        use std::ops::RangeBounds as _;
        let depth = 8;
        for i in 0..200u32 {
            let key = k(i);
            let hash = sha256(key.as_bytes());
            let bucket = ScanRange::bucket_of(&key, depth);
            let range = ScanRange::new(bucket, bucket);
            assert!(range.digest_bounds(depth).contains(&hash));
            if bucket > 0 {
                let below = ScanRange::new(0, bucket - 1);
                assert!(!below.digest_bounds(depth).contains(&hash));
            }
        }
        // The last bucket's upper bound is open-ended.
        let last = ScanRange::new((1 << depth) - 1, (1 << depth) - 1);
        assert!(matches!(last.digest_bounds(depth).1, Bound::Unbounded));
    }

    #[test]
    fn wire_roundtrip() {
        use transedge_common::wire::roundtrip;
        let t = populated(32);
        let range = ScanRange::new(2, 13);
        roundtrip(&range);
        roundtrip(&t.prove_range(&range, 0));
    }
}
