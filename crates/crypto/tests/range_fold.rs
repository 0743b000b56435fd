//! The range verifier folds empty space from a table instead of
//! hashing it. These tests hold it to the fold it replaced: the old
//! `verify_range_proof`, kept here verbatim — with its own copies of
//! the two tagged hashes, so it shares nothing with `crypto::merkle` —
//! must agree with the shipped one on every proof, honest or lying,
//! error for error and row for row.

use proptest::prelude::*;
use transedge_common::{Key, Result, TransEdgeError, Value};
use transedge_crypto::merkle::{value_digest, BucketEntry};
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::{
    verify_range_proof, Digest, RangeProof, ScanRange, Sha256, VersionedMerkleTree,
};

const DEPTH: u32 = 8;

fn hash_leaf(entries: &[BucketEntry]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        h.update(e.key_hash.as_bytes());
        h.update(e.value_hash.as_bytes());
    }
    h.finalize()
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

fn invalid(msg: impl Into<String>) -> TransEdgeError {
    TransEdgeError::Verification(msg.into())
}

/// `verify_range_proof` as it stood before: `hash_node` on every pair
/// of the window, empty or not.
fn verify_range_proof_reference(
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
    let empty_leaf = hash_leaf(&[]);
    let mut level: Vec<Digest> = vec![empty_leaf; range.width() as usize];
    for (idx, entries) in &proof.occupied {
        level[(idx - range.first) as usize] = hash_leaf(entries);
    }
    let (mut lo, mut hi) = (range.first, range.last);
    let (mut li, mut ri) = (0usize, 0usize);
    for _ in 0..depth {
        if lo & 1 == 1 {
            let Some(s) = proof.left.get(li) else {
                return Err(invalid("missing left boundary sibling"));
            };
            level.insert(0, *s);
            li += 1;
            lo -= 1;
        }
        if hi & 1 == 0 {
            let Some(s) = proof.right.get(ri) else {
                return Err(invalid("missing right boundary sibling"));
            };
            level.push(*s);
            ri += 1;
            hi += 1;
        }
        level = level
            .chunks(2)
            .map(|pair| hash_node(&pair[0], &pair[1]))
            .collect();
        lo >>= 1;
        hi >>= 1;
    }
    if li != proof.left.len() || ri != proof.right.len() {
        return Err(invalid("unused boundary siblings"));
    }
    if level.len() != 1 || level[0] != *root {
        return Err(invalid("merkle range root mismatch"));
    }
    Ok(proof
        .occupied
        .iter()
        .flat_map(|(_, entries)| entries.iter().copied())
        .collect())
}

/// Digest of an empty subtree of each height `0..=depth`.
fn empty_subtrees(depth: u32) -> Vec<Digest> {
    let mut table = vec![hash_leaf(&[])];
    for h in 0..depth as usize {
        table.push(hash_node(&table[h], &table[h]));
    }
    table
}

fn populated(depth: u32, keys: u32) -> VersionedMerkleTree {
    let mut t = VersionedMerkleTree::with_depth(depth);
    let updates: Vec<(Key, Digest)> = (0..keys)
        .map(|i| {
            (
                Key::from_u32(i),
                value_digest(&Value::from(i.to_string().as_str())),
            )
        })
        .collect();
    t.apply_batch(0, updates.iter().map(|(key, d)| (key, *d)));
    t
}

/// One way a proof, or the window it is checked against, can lie.
/// `kind` 0 leaves both honest; a mutation with nothing to bite on (no
/// occupied bucket, no sibling) leaves them honest too.
fn mutate(kind: u8, pick: usize, range: &mut ScanRange, proof: &mut RangeProof) {
    let empties = empty_subtrees(DEPTH);
    let sibling = |proof: &mut RangeProof, to: &dyn Fn(Digest) -> Digest| {
        let n = proof.left.len() + proof.right.len();
        if let Some(s) = proof
            .left
            .iter_mut()
            .chain(&mut proof.right)
            .nth(pick % n.max(1))
        {
            *s = to(*s);
        }
    };
    match kind {
        0 => {}
        // Dropped occupied bucket: the row-hiding attack.
        1 if !proof.occupied.is_empty() => {
            proof.occupied.remove(pick % proof.occupied.len());
        }
        // Flipped sibling.
        2 => sibling(proof, &|mut s| {
            s.0[pick % 32] ^= 0x01;
            s
        }),
        // A boundary sibling that *equals* an empty-subtree constant,
        // of the right height or a wrong one.
        3 => sibling(proof, &|_| empties[pick % empties.len()]),
        // A spare sibling that is an empty-subtree constant.
        4 => proof.right.push(empties[pick % empties.len()]),
        // The window shifted under the proof.
        5 if range.first < range.last => range.first += 1,
        // A forged value hash in a committed row.
        6 if !proof.occupied.is_empty() => {
            let bucket = pick % proof.occupied.len();
            proof.occupied[bucket].1[0].value_hash.0[0] ^= 0x01;
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sparse and dense trees, aligned and unaligned windows, honest
    /// and lying proofs: the verifier returns what the hash-every-pair
    /// fold returns.
    #[test]
    fn empty_pair_fold_matches_the_reference(
        keys in 0u32..40,
        first in 0u64..256,
        width in 1u64..257,
        kind in 0u8..7,
        pick in any::<usize>(),
    ) {
        let t = populated(DEPTH, keys);
        let root = t.root_at(0);
        let last = (first + width - 1).min((1 << DEPTH) - 1);
        let mut range = ScanRange::new(first, last);
        let mut proof = t.prove_range(&range, 0);
        mutate(kind, pick, &mut range, &mut proof);
        let got = verify_range_proof(&root, DEPTH, &range, &proof);
        prop_assert_eq!(&got, &verify_range_proof_reference(&root, DEPTH, &range, &proof));
        if kind == 0 {
            prop_assert!(got.is_ok(), "honest proof rejected: {:?}", got);
        }
    }
}

#[test]
fn narrowest_and_widest_windows_match_the_reference() {
    const DEEP: u32 = 13;
    let t = populated(DEEP, 96);
    let root = t.root_at(0);
    let occupied = ScanRange::bucket_of(&Key::from_u32(0), DEEP);
    for range in [
        ScanRange::new(occupied, occupied),
        ScanRange::new(occupied ^ 1, occupied ^ 1),
        ScanRange::new(0, MAX_RANGE_BUCKETS - 1),
        ScanRange::new(1, MAX_RANGE_BUCKETS),
        ScanRange::new((1 << DEEP) - MAX_RANGE_BUCKETS, (1 << DEEP) - 1),
    ] {
        let honest = t.prove_range(&range, 0);
        let got = verify_range_proof(&root, DEEP, &range, &honest);
        assert!(got.is_ok(), "{range:?}: {got:?}");
        assert_eq!(
            got,
            verify_range_proof_reference(&root, DEEP, &range, &honest)
        );
        let mut hiding = honest;
        if !hiding.occupied.is_empty() {
            hiding.occupied.remove(0);
            let got = verify_range_proof(&root, DEEP, &range, &hiding);
            assert!(got.is_err(), "{range:?}: a hidden bucket verified");
            assert_eq!(
                got,
                verify_range_proof_reference(&root, DEEP, &range, &hiding)
            );
        }
    }
}

/// With no key anywhere every leaf and every boundary sibling is an
/// empty-subtree constant, so the fold is table lookups all the way up
/// — and must still land on the root the prover computes.
#[test]
fn an_empty_tree_folds_to_its_root_without_hashing_a_pair() {
    let t = populated(DEPTH, 0);
    let range = ScanRange::new(3, 6);
    let proof = t.prove_range(&range, 0);
    let empties = empty_subtrees(DEPTH);
    assert_eq!(t.root_at(0), empties[DEPTH as usize]);
    assert!(proof
        .left
        .iter()
        .chain(&proof.right)
        .all(|s| empties.contains(s)));
    assert_eq!(
        verify_range_proof(&t.root_at(0), DEPTH, &range, &proof),
        Ok(Vec::new())
    );
}
