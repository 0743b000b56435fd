//! Heap traffic of the crypto hot paths, counted. Signing and verifying
//! — singly or in a batch of up to `MAX_BATCH` — touch no heap once the
//! per-process tables exist, and the versioned Merkle tree allocates
//! per key, not per tree node: a batch about once per new bucket, a
//! multiproof once per bucket it carries plus its output vectors. Both
//! Merkle verifiers fold in one buffer, so a multiproof or range-proof
//! verify allocates a fixed number of times whatever the tree's depth.
//! Its own test binary: the counting allocator is global, and the count
//! is per thread so the harness's own threads cannot leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use transedge_common::{Key, Value};
use transedge_crypto::ed25519::{verify_batch, Signature, VerifyingKey, MAX_BATCH};
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    verify_multi_proof, verify_range_proof, Keypair, ScanRange, VersionedMerkleTree,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never influences the pointers
// or layouts passed through, and its const-initialised thread-local
// needs no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn sign_and_verify_make_no_allocation_after_warm_up() {
    let kp = Keypair::from_seed([42; 32]);
    let public = kp.public();
    let msg = b"no heap on the signature path";
    // Warm-up builds the base-point tables (once per process).
    let warm = kp.sign(msg);
    assert!(public.verify(msg, &warm));

    let before = ALLOCS.with(Cell::get);
    let sig = kp.sign(msg);
    let ok = public.verify(msg, &sig);
    let rejected = !public.verify(b"another message", &sig);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(ok && rejected);
    assert_eq!(allocs, 0, "sign + two verifies allocated {allocs} times");
}

#[test]
fn a_full_batch_makes_no_allocation() {
    let signers: Vec<Keypair> = (0..MAX_BATCH as u8)
        .map(|i| Keypair::from_seed([i; 32]))
        .collect();
    let keys: Vec<VerifyingKey> = signers
        .iter()
        .map(|kp| VerifyingKey::new(kp.public()))
        .collect();
    let msg = b"one multi-scalar multiplication";
    let sigs: Vec<Signature> = signers.iter().map(|kp| kp.sign(msg)).collect();
    let mut items: Vec<(&VerifyingKey, &[u8], &Signature)> = keys
        .iter()
        .zip(&sigs)
        .map(|(key, sig)| (key, &msg[..], sig))
        .collect();
    assert!(verify_batch(&items));

    let before = ALLOCS.with(Cell::get);
    let ok = verify_batch(&items);
    items.swap(0, 1);
    items[0].0 = &keys[0];
    let rejected = !verify_batch(&items);
    let single = keys[1].verify(msg, &sigs[1]);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(ok && rejected && single);
    assert_eq!(
        allocs, 0,
        "two batches of {MAX_BATCH} allocated {allocs} times"
    );
}

/// Depth 16 is the depth replicas build.
#[test]
fn a_tree_batch_allocates_per_key_not_per_node() {
    let keys: Vec<Key> = (0..2_000).map(Key::from_u32).collect();
    let digest = value_digest(&Value::filled(8, 1));
    let mut tree = VersionedMerkleTree::with_depth(16);

    let before = ALLOCS.with(Cell::get);
    tree.apply_batch(0, keys.iter().map(|key| (key, digest)));
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        allocs < 2 * keys.len() as u64,
        "a {}-key batch allocated {allocs} times",
        keys.len()
    );
}

#[test]
fn a_warm_multiproof_allocates_per_bucket_not_per_level() {
    let keys: Vec<Key> = (0..2_000).map(Key::from_u32).collect();
    let digest = value_digest(&Value::filled(8, 1));
    let mut tree = VersionedMerkleTree::with_depth(16);
    tree.apply_batch(0, keys.iter().map(|key| (key, digest)));
    let asked: Vec<Key> = [3u32, 17, 256, 999, 1_500, 1_999]
        .into_iter()
        .map(Key::from_u32)
        .collect();
    let warm = tree.prove_multi(&asked, 0);

    let before = ALLOCS.with(Cell::get);
    let proof = tree.prove_multi(&asked, 0);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(proof, warm);
    assert!(
        allocs <= 16,
        "a 6-key multiproof at depth 16 allocated {allocs} times"
    );
}

/// Allocations of one warm `verify` of what `prove` builds, at depth
/// 16 and at depth 32 over the same 2 000 keys.
fn verify_allocs<P>(
    prove: impl Fn(&VersionedMerkleTree) -> P,
    verify: impl Fn(&VersionedMerkleTree, &P) -> bool,
) -> [u64; 2] {
    let keys: Vec<Key> = (0..2_000).map(Key::from_u32).collect();
    let digest = value_digest(&Value::filled(8, 1));
    [16, 32].map(|depth| {
        let mut tree = VersionedMerkleTree::with_depth(depth);
        tree.apply_batch(0, keys.iter().map(|key| (key, digest)));
        let proof = prove(&tree);
        assert!(verify(&tree, &proof), "warm-up verify at depth {depth}");

        let before = ALLOCS.with(Cell::get);
        let ok = verify(&tree, &proof);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(ok, "verify at depth {depth}");
        allocs
    })
}

#[test]
fn a_multiproof_verify_allocates_the_same_at_any_depth() {
    let asked: Vec<Key> = [3u32, 17, 256, 999, 1_500, 1_999]
        .into_iter()
        .map(Key::from_u32)
        .collect();
    let allocs = verify_allocs(
        |tree| tree.prove_multi(&asked, 0),
        |tree, proof| verify_multi_proof(&tree.root_at(0), tree.depth(), &asked, proof).is_ok(),
    );
    assert_eq!(allocs[0], allocs[1], "depth 16 vs depth 32");
    assert!(
        allocs[0] <= 4,
        "a 6-key multiproof verify allocated {} times",
        allocs[0]
    );
}

#[test]
fn a_range_proof_verify_allocates_the_same_at_any_depth() {
    // A 256-bucket window around key 0's bucket: rows at both depths,
    // and boundary siblings on both sides.
    let allocs = verify_allocs(
        |tree| {
            let first = ScanRange::bucket_of(&Key::from_u32(0), tree.depth()) - 100;
            let window = ScanRange::new(first, first + 255);
            (window, tree.prove_range(&window, 0))
        },
        |tree, (window, proof)| {
            verify_range_proof(&tree.root_at(0), tree.depth(), window, proof)
                .is_ok_and(|rows| !rows.is_empty())
        },
    );
    assert_eq!(allocs[0], allocs[1], "depth 16 vs depth 32");
    assert!(
        allocs[0] <= 2,
        "a 256-bucket range proof verify allocated {} times",
        allocs[0]
    );
}
