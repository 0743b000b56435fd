//! Property-based tests: the Merkle trees against a HashMap model, and
//! the versioned tree against a plain one rebuilt for every version.

use std::collections::HashMap;

use proptest::prelude::*;
use transedge_common::{Decode, Encode, Key, Value};
use transedge_crypto::merkle::{value_digest, verify_proof, BucketEntry, Verified};
use transedge_crypto::{
    sha256, verify_multi_proof, verify_range_proof, Digest, MerkleTree, MultiProof, ScanRange,
    VersionedMerkleTree,
};

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u8),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
    ]
}

fn vh(tag: u8) -> Digest {
    value_digest(&Value::filled(8, tag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence: tree contents match a HashMap model, every
    /// present key has a verifying inclusion proof, every absent key a
    /// verifying non-inclusion proof.
    #[test]
    fn merkle_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        // Shallow tree → dense buckets → collision paths exercised.
        let mut tree = MerkleTree::with_depth(4);
        let mut model: HashMap<u16, u8> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(&Key::from_u32(*k as u32), vh(*v));
                    model.insert(*k, *v);
                }
                Op::Remove(k) => {
                    tree.remove(&Key::from_u32(*k as u32));
                    model.remove(k);
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        let root = tree.root();
        // Every modelled key verifies with the right value hash.
        for (k, v) in &model {
            let key = Key::from_u32(*k as u32);
            let proof = tree.prove(&key);
            let got = verify_proof(&root, 4, &key, &proof).unwrap();
            prop_assert_eq!(got, Verified::Present(vh(*v)));
        }
        // A few absent keys verify as absent.
        for k in 600u32..605 {
            let key = Key::from_u32(k);
            let proof = tree.prove(&key);
            prop_assert_eq!(verify_proof(&root, 4, &key, &proof).unwrap(), Verified::Absent);
        }
    }

    /// Root is a pure function of contents: any insertion order yields
    /// the same root.
    #[test]
    fn merkle_root_is_order_independent(
        mut entries in proptest::collection::hash_map(any::<u16>(), any::<u8>(), 1..40),
        seed in any::<u64>(),
    ) {
        let items: Vec<(u16, u8)> = entries.drain().collect();
        let mut a = MerkleTree::with_depth(6);
        for (k, v) in &items {
            a.insert(&Key::from_u32(*k as u32), vh(*v));
        }
        // Shuffle deterministically by seed.
        let mut shuffled = items.clone();
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s as usize) % (i + 1));
        }
        let mut b = MerkleTree::with_depth(6);
        for (k, v) in &shuffled {
            b.insert(&Key::from_u32(*k as u32), vh(*v));
        }
        prop_assert_eq!(a.root(), b.root());
    }

    /// Versioned tree: historical roots and proofs stay valid as new
    /// versions apply; rollback restores the previous root exactly.
    #[test]
    fn versioned_history_is_immutable(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), any::<u8>()), 1..10),
            1..8,
        )
    ) {
        let mut vt = VersionedMerkleTree::with_depth(6);
        let mut roots = Vec::new();
        for (version, batch) in batches.iter().enumerate() {
            let keys: Vec<(Key, Digest)> = batch
                .iter()
                .map(|(k, v)| (Key::from_u32(*k as u32 % 256), vh(*v)))
                .collect();
            let root = vt.apply_batch(version as u64, keys.iter().map(|(k, d)| (k, *d)));
            roots.push(root);
        }
        // All historical roots still readable.
        for (version, root) in roots.iter().enumerate() {
            prop_assert_eq!(vt.root_at(version as u64), *root);
        }
        // Rollback of the newest version restores the prior root.
        if roots.len() >= 2 {
            let last = roots.len() - 1;
            vt.rollback(last as u64);
            prop_assert_eq!(vt.latest_version(), Some(last as u64 - 1));
            prop_assert_eq!(vt.root_at(last as u64), roots[last - 1]);
        }
    }

    /// Multiproofs agree with per-key proofs on any key set at any
    /// density, from one key to a nearly full tree; they round-trip the
    /// wire byte for byte at their stated length; and no single-element
    /// mutation survives: dropping or substituting any sibling, dropping
    /// any bucket entry, splicing the proof onto another version's root,
    /// or any other encoding of the same slots.
    #[test]
    fn multi_proof_sound_and_unmalleable(
        entries in proptest::collection::hash_map(any::<u16>(), any::<u8>(), 1..120),
        asked in proptest::collection::vec(any::<u16>(), 1..10),
        corrupt_at in any::<u64>(),
    ) {
        // Shallow tree → dense buckets → collision paths exercised.
        let mut vt = VersionedMerkleTree::with_depth(5);
        let items: Vec<(Key, Digest)> = entries
            .iter()
            .map(|(k, v)| (Key::from_u32(*k as u32 % 512), vh(*v)))
            .collect();
        vt.apply_batch(0, items.iter().map(|(k, d)| (k, *d)));
        // A second version so cross-version splices have a target.
        vt.apply_batch(1, [(&Key::from_u32(0), vh(0xEE))]);
        let root = vt.root_at(1);
        let keys: Vec<Key> = asked.iter().map(|k| Key::from_u32(*k as u32 % 600)).collect();
        let proof = vt.prove_multi(&keys, 1);
        let got = verify_multi_proof(&root, 5, &keys, &proof).unwrap();
        for (key, verdict) in keys.iter().zip(&got) {
            let single = verify_proof(&root, 5, key, &vt.prove_at(key, 1)).unwrap();
            prop_assert_eq!(*verdict, single);
        }
        // One encoding on the wire: it decodes to the same proof,
        // re-encodes to the same bytes and is as long as stated.
        let bytes = proof.encode_to_vec();
        let decoded = MultiProof::decode_all(&bytes).unwrap();
        prop_assert_eq!(&decoded, &proof);
        prop_assert_eq!(decoded.encode_to_vec(), bytes.clone());
        prop_assert_eq!(proof.encoded_len(), bytes.len());
        // Drop / substitute one sibling (position chosen by the fuzzed
        // index).
        if !proof.siblings.is_empty() {
            let i = (corrupt_at as usize) % proof.siblings.len();
            let mut dropped = proof.clone();
            dropped.siblings.remove(i);
            prop_assert!(verify_multi_proof(&root, 5, &keys, &dropped).is_err());
            let mut swapped = proof.clone();
            swapped.siblings[i] = Digest([0x5C; 32]);
            prop_assert!(verify_multi_proof(&root, 5, &keys, &swapped).is_err());
        }
        // Drop one leaf entry from a non-empty bucket.
        if let Some(b) = proof.buckets.iter().position(|b| !b.entries.is_empty()) {
            let mut omitted = proof.clone();
            let e = (corrupt_at as usize) % omitted.buckets[b].entries.len();
            omitted.buckets[b].entries.remove(e);
            prop_assert!(verify_multi_proof(&root, 5, &keys, &omitted).is_err());
        }
        // Cross-version splice: version 0's proof against version 1's
        // root only verifies when the two roots coincide.
        let stale = vt.prove_multi(&keys, 0);
        if vt.root_at(0) != root {
            prop_assert!(verify_multi_proof(&root, 5, &keys, &stale).is_err());
        }
        // Every other encoding of the slots. Fewer buckets than the
        // tree's 32 leave at least one slot.
        let heights = slot_heights(&keys, 5);
        prop_assert_eq!(proof.empty_slots.len(), heights.len().div_ceil(8));
        let empties = MerkleTree::with_depth(5).prove(&Key::from_u32(0)).siblings;
        for (slot, &height) in heights.iter().enumerate() {
            let (byte, bit) = (slot / 8, 1u8 << (slot % 8));
            let shipped = (0..slot)
                .filter(|s| proof.empty_slots[s / 8] & (1 << (s % 8)) == 0)
                .count();
            let mut flipped = proof.clone();
            flipped.empty_slots[byte] ^= bit;
            if proof.empty_slots[byte] & bit == 0 {
                // A set bit over a non-empty sibling, its digest dropped.
                flipped.siblings.remove(shipped);
                prop_assert!(verify_multi_proof(&root, 5, &keys, &flipped).is_err());
            } else {
                // A cleared bit with the empty digest shipped: the root
                // still matches, so only canonicity rejects it.
                flipped.siblings.insert(shipped, empties[height]);
                let err = verify_multi_proof(&root, 5, &keys, &flipped).unwrap_err();
                prop_assert!(err.to_string().contains("empty-subtree sibling"), "{}", err);
            }
        }
        // A bitmap one byte short or one byte long.
        let mut short = proof.clone();
        short.empty_slots.pop();
        prop_assert!(verify_multi_proof(&root, 5, &keys, &short).is_err());
        let mut long = proof.clone();
        long.empty_slots.push(0);
        prop_assert!(verify_multi_proof(&root, 5, &keys, &long).is_err());
        // A stray bit past the last slot.
        let mut stray = proof.clone();
        match heights.len() % 8 {
            0 => stray.empty_slots.push(1),
            _ => *stray.empty_slots.last_mut().unwrap() |= 0x80,
        }
        prop_assert!(verify_multi_proof(&root, 5, &keys, &stray).is_err());
    }
}

/// The height of every fold slot of a multiproof over `keys`, in fold
/// order: the verifier's walk, replayed from the keys alone.
fn slot_heights(keys: &[Key], depth: u32) -> Vec<usize> {
    let mut frontier: Vec<u64> = keys
        .iter()
        .map(|k| ScanRange::bucket_of(k, depth))
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    let mut heights = Vec::new();
    for height in 0..depth as usize {
        let mut parents = Vec::new();
        let mut i = 0;
        while i < frontier.len() {
            let idx = frontier[i];
            if idx & 1 == 0 && frontier.get(i + 1) == Some(&(idx + 1)) {
                i += 2;
            } else {
                heights.push(height);
                i += 1;
            }
            parents.push(idx >> 1);
        }
        frontier = parents;
    }
    heights
}

/// Depth and key universe of the reference sweep: 32 buckets for 48
/// keys, so buckets collide, batches repeat keys and windows hold gaps.
const DEPTH: u32 = 5;
const KEYS: u16 = 48;

/// One step of a versioned-tree script: skip `gap` version numbers,
/// then apply `updates`. With a `speculation`, that content is applied
/// first at the same version and rolled back.
#[derive(Clone, Debug)]
struct Step {
    gap: u64,
    updates: Vec<(u16, u8)>,
    speculation: Option<Vec<(u16, u8)>>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let updates = || proptest::collection::vec((0..KEYS, any::<u8>()), 0..10);
    (0u64..3, updates(), any::<bool>(), updates()).prop_map(|(gap, updates, spec, other)| Step {
        gap,
        updates,
        speculation: spec.then_some(other),
    })
}

fn key(k: u16) -> Key {
    Key::from_u32(k as u32)
}

fn digested(updates: &[(u16, u8)]) -> Vec<(Key, Digest)> {
    updates.iter().map(|(k, v)| (key(*k), vh(*v))).collect()
}

/// Run `steps` against a `VersionedMerkleTree` and a model map, then
/// check every applied version and one version inside each gap against
/// a plain `MerkleTree` rebuilt from that version's cumulative contents.
fn versioned_tree_matches_rebuilt_reference(
    steps: &[Step],
    asked: &[u16],
    window: (u64, u64),
) -> Result<(), TestCaseError> {
    let mut vt = VersionedMerkleTree::with_depth(DEPTH);
    let mut model: HashMap<u16, u8> = HashMap::new();
    let mut history: Vec<(u64, HashMap<u16, u8>)> = Vec::new();
    let mut checked = Vec::new();
    let mut next = 0;
    for step in steps {
        let version = next + step.gap;
        if step.gap > 0 {
            checked.push(version - 1);
        }
        if let Some(spec) = &step.speculation {
            let before = vt.latest_version();
            let spec = digested(spec);
            vt.apply_batch(version, spec.iter().map(|(k, d)| (k, *d)));
            vt.rollback(version);
            prop_assert_eq!(vt.latest_version(), before);
        }
        let updates = digested(&step.updates);
        vt.apply_batch(version, updates.iter().map(|(k, d)| (k, *d)));
        model.extend(step.updates.iter().copied());
        history.push((version, model.clone()));
        checked.push(version);
        next = version + 1;
    }
    prop_assert_eq!(vt.latest_version(), history.last().map(|(v, _)| *v));

    let all: Vec<u16> = (0..KEYS + 4).collect();
    let range = ScanRange::new(window.0.min(window.1), window.0.max(window.1));
    for version in checked {
        let state = history
            .iter()
            .rev()
            .find(|(v, _)| *v <= version)
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        let mut reference = MerkleTree::with_depth(DEPTH);
        for (k, v) in &state {
            reference.insert(&key(*k), vh(*v));
        }
        let root = vt.root_at(version);
        prop_assert_eq!(root, reference.root(), "root at version {}", version);
        let expect = |k: &u16| state.get(k).map(|v| vh(*v));
        for k in &all {
            prop_assert_eq!(
                vt.get_at(&key(*k), version),
                expect(k),
                "key {} at {}",
                k,
                version
            );
        }
        for ks in [&all[..], asked] {
            let keys: Vec<Key> = ks.iter().map(|k| key(*k)).collect();
            let got = verify_multi_proof(&root, DEPTH, &keys, &vt.prove_multi(&keys, version))
                .map_err(|e| TestCaseError(format!("multiproof at {version}: {e:?}")))?;
            let want: Vec<Verified> = ks
                .iter()
                .map(|k| expect(k).map_or(Verified::Absent, Verified::Present))
                .collect();
            prop_assert_eq!(got, want, "multiproof values at {}", version);
        }
        let got = verify_range_proof(&root, DEPTH, &range, &vt.prove_range(&range, version))
            .map_err(|e| TestCaseError(format!("range proof at {version}: {e:?}")))?;
        let mut want: Vec<BucketEntry> = state
            .iter()
            .map(|(k, v)| BucketEntry {
                key_hash: sha256(key(*k).as_bytes()),
                value_hash: vh(*v),
            })
            .filter(|e| range.contains_bucket(ScanRange::bucket_of_hash(&e.key_hash, DEPTH)))
            .collect();
        want.sort_by_key(|e| e.key_hash);
        prop_assert_eq!(got, want, "range values at {}", version);
    }
    Ok(())
}

fn script_strategy() -> impl Strategy<Value = (Vec<Step>, Vec<u16>, (u64, u64))> {
    (
        proptest::collection::vec(step_strategy(), 1..8),
        proptest::collection::vec(0..KEYS + 4, 1..8),
        (0u64..1 << DEPTH, 0u64..1 << DEPTH),
    )
}

proptest! {
    /// Random batches — repeated keys, empty batches, version gaps, and
    /// speculations rolled back and replaced by other content — leave
    /// every version's roots, values and proofs equal to a reference
    /// rebuilt for that version.
    #[test]
    fn versioned_tree_matches_a_reference_at_every_version(script in script_strategy()) {
        let (steps, asked, window) = script;
        versioned_tree_matches_rebuilt_reference(&steps, &asked, window)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The release-mode sweep CI runs with `--include-ignored`.
    #[test]
    #[ignore = "10 000 cases: run in release with --include-ignored"]
    fn versioned_tree_matches_a_reference_at_every_version_10k(script in script_strategy()) {
        let (steps, asked, window) = script;
        versioned_tree_matches_rebuilt_reference(&steps, &asked, window)?;
    }
}
