//! Heap held by a replica's versioned state, counted. At the depth
//! replicas build, with the 2 000 keys of a benchmark partition, the
//! versioned Merkle tree and the value store each hold a bounded number
//! of bytes per key, a second version of a key costs a bounded number
//! of bytes more, and a rolled-back version leaves nothing behind. A
//! clone (what a cluster's other replicas take of the genesis its first
//! replica preloaded) shares the tree's and the store's chunks, so it
//! and an empty version applied to it copy none, and a one-key write to
//! it copies only the chunks that key touches. Its own test binary: the
//! counting allocator is global, and the count is per thread so the
//! harness's own threads cannot leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use transedge_common::{BatchNum, Key, Value};
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, VersionedMerkleTree};
use transedge_edge::VersionedStore;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never influences the pointers
// or layouts passed through, and its const-initialised thread-local
// needs no allocation of its own. `realloc` keeps the trait's default,
// which goes through `alloc` and `dealloc` and so is counted by them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread holds on the heap.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Depth 16 is the depth replicas build.
const DEPTH: u32 = 16;

/// A benchmark partition's worth of keys.
const KEYS: u32 = 2_000;

/// The keys, and one value per key and version, built before anything
/// is counted so that only what the store and tree hold is.
struct Data {
    keys: Vec<Key>,
    values: [Vec<Value>; 2],
    digests: [Vec<Digest>; 2],
}

impl Data {
    fn new() -> Self {
        let keys: Vec<Key> = (0..KEYS).map(Key::from_u32).collect();
        let values = [1u8, 2].map(|marker| {
            (0..KEYS)
                .map(|_| Value::filled(8, marker))
                .collect::<Vec<_>>()
        });
        let digests = [0, 1].map(|v| values[v].iter().map(value_digest).collect());
        Data {
            keys,
            values,
            digests,
        }
    }

    /// Every key at version 0.
    fn first(&self) -> impl Iterator<Item = (&Key, Digest)> {
        self.keys.iter().zip(self.digests[0].iter().copied())
    }

    /// A store holding every key at batch 0.
    fn first_store(&self) -> VersionedStore {
        let mut store = VersionedStore::new();
        for (key, value) in self.keys.iter().zip(&self.values[0]) {
            store.write(key.clone(), value.clone(), BatchNum(0));
        }
        store
    }

    /// Every tenth key at version 1.
    fn second(&self) -> impl Iterator<Item = (&Key, Digest)> {
        self.keys
            .iter()
            .zip(self.digests[1].iter().copied())
            .step_by(10)
    }
}

fn per(bytes: i64, count: u32) -> i64 {
    bytes / i64::from(count)
}

#[test]
fn the_tree_holds_at_most_720_bytes_per_key() {
    let data = Data::new();

    let before = live();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    tree.apply_batch(0, data.first());
    let per_key = per(live() - before, KEYS);
    assert!(per_key <= 720, "the tree holds {per_key} B per key");
}

#[test]
fn the_store_holds_at_most_200_bytes_per_key() {
    let data = Data::new();

    let before = live();
    let mut store = VersionedStore::new();
    for (key, value) in data.keys.iter().zip(&data.values[0]) {
        store.write(key.clone(), value.clone(), BatchNum(0));
    }
    let per_key = per(live() - before, KEYS);
    assert!(per_key <= 200, "the store holds {per_key} B per key");
}

#[test]
fn a_second_version_costs_at_most_900_bytes_per_key_write() {
    let data = Data::new();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    tree.apply_batch(0, data.first());
    let mut store = data.first_store();

    let before = live();
    tree.apply_batch(1, data.second());
    let mut writes = 0;
    for (key, value) in data.keys.iter().zip(&data.values[1]).step_by(10) {
        store.write(key.clone(), value.clone(), BatchNum(1));
        writes += 1;
    }
    let per_write = per(live() - before, writes);
    assert!(
        per_write <= 900,
        "a second version costs {per_write} B per key-write"
    );
    assert_eq!(
        store.get_latest(&data.keys[10]).map(|v| v.batch),
        Some(BatchNum(1))
    );
}

#[test]
fn a_rolled_back_version_leaves_nothing_behind() {
    let data = Data::new();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    let root = tree.apply_batch(0, data.first());

    let before = live();
    tree.apply_batch(1, data.second());
    tree.rollback(1);
    let grown = live() - before;
    assert!(
        grown <= 0,
        "apply and rollback of a version left {grown} B behind"
    );
    assert_eq!(tree.latest_version(), Some(0));
    assert_eq!(tree.root_at(1), root);
}

#[test]
fn a_clone_of_a_preloaded_tree_and_store_holds_at_most_16_bytes_per_key() {
    let data = Data::new();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    tree.apply_batch(0, data.first());
    let store = data.first_store();

    let before = live();
    let (tree_copy, store_copy) = (tree.clone(), store.clone());
    let per_key = per(live() - before, KEYS);
    // What a clone owns is its root list and its undo record (the
    // genesis version's touched buckets, 8 B each).
    assert!(
        per_key <= 16,
        "a clone of the tree and store holds {per_key} B per key"
    );
    assert_eq!(tree_copy.root_at(0), tree.root_at(0));
    assert_eq!(
        store_copy.get_latest(&data.keys[7]),
        store.get_latest(&data.keys[7])
    );
}

#[test]
fn an_empty_version_applied_to_a_clone_copies_no_table() {
    let data = Data::new();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    let root = tree.apply_batch(0, data.first());

    let before = live();
    let mut copy = tree.clone();
    copy.apply_batch(1, std::iter::empty());
    let grown = live() - before;
    // The copy's root list grows by one entry; a table of 2 000 keys'
    // buckets or nodes is hundreds of kilobytes.
    assert!(
        grown <= 1024,
        "a clone and an empty version on it hold {grown} B"
    );
    assert_eq!(copy.root_at(1), root);
    assert_eq!(tree.latest_version(), Some(0));
}

#[test]
fn a_write_to_a_clone_copies_only_the_chunks_it_touches() {
    let data = Data::new();
    let mut tree = VersionedMerkleTree::with_depth(DEPTH);
    tree.apply_batch(0, data.first());
    let store = data.first_store();
    let key = &data.keys[7];
    let asked = [data.keys[3].clone(), key.clone(), data.keys[1_999].clone()];
    let (root, proof, latest) = (
        tree.root_at(0),
        tree.prove_multi(&asked, 0),
        store.get_latest(key).cloned(),
    );

    let before = live();
    let (mut tree_copy, mut store_copy) = (tree.clone(), store.clone());
    tree_copy.apply_batch(1, [(key, data.digests[1][7])]);
    store_copy.write(key.clone(), data.values[1][7].clone(), BatchNum(1));
    let grown = live() - before;
    // One subtree chunk and the top chunk of the tree, one chunk of the
    // store and the tables of chunks: tens of kilobytes. The whole tree
    // and store of 2 000 keys are more than a megabyte and a half.
    assert!(
        grown <= 64 * 1024,
        "a one-key write to a clone of the tree and store holds {grown} B"
    );
    assert_eq!(
        store_copy.get_latest(key).map(|v| v.batch),
        Some(BatchNum(1))
    );
    assert_ne!(tree_copy.root_at(1), root);
    // The source reads as it did.
    assert_eq!(tree.latest_version(), Some(0));
    assert_eq!(tree.root_at(1), root);
    assert_eq!(tree.prove_multi(&asked, 1), proof);
    assert_eq!(store.get_latest(key).cloned(), latest);
}
