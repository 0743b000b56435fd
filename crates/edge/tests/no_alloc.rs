//! Heap traffic of the trusted checker, counted. A warm one-key point
//! read through the client's certificate memo — the certificate already
//! verified, the memo's scratch buffer already grown — allocates a fixed
//! number of times whatever the tree's depth: the header encode the
//! certified digest hashes, the multiproof rebuilt with the carried
//! value's entry back in its bucket (the keys in hash order, and a copy
//! of the shipped proof: its bucket list, slot bitmap, siblings and the
//! one bucket's entry list), the multiproof fold, and the answer handed
//! back. Its own test binary: the counting allocator is global, and the
//! count is per thread so the harness's own threads cannot leak into it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::Partition;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime};
use transedge_edge::ReadQuery;

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

const NOW: SimTime = SimTime(1_000_000);

/// Allocations of one warm `verify_query` of a one-key section at
/// `depth`, answered from the memo.
fn warm_point_verify(depth: u32) -> u64 {
    let mut p = Partition::with_depth(depth);
    p.commit(&[(1, "one"), (2, "two"), (3, "three")], Epoch::NONE, NOW);
    let keys = vec![Key::from_u32(2)];
    let query = ReadQuery::point(keys.clone());
    let response = p.section(&keys, BatchNum(0));
    let verifier = p.verifier();
    let verify = || verifier.verify_query(&p.warm, ClusterId(0), &query, &response, NOW);
    // The memo verified the certificate at commit; one pass grows
    // whatever the check reuses.
    verify().expect("an honest section verifies");
    let hits = p.warm.hits();
    let before = ALLOCS.with(Cell::get);
    let answer = verify();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(answer.is_ok());
    assert_eq!(p.warm.hits(), hits + 1, "the quorum check was a memo hit");
    allocs
}

#[test]
fn a_warm_point_verify_allocates_the_same_at_any_depth() {
    let shallow = warm_point_verify(16);
    let deep = warm_point_verify(32);
    assert_eq!(shallow, deep, "depth 16: {shallow}, depth 32: {deep}");
    // Measured when the memo stopped allocating its key (6), and again
    // when a section stopped shipping its carried values' entries (the
    // five allocations of the rebuilt proof): a change that moves it
    // says so.
    assert_eq!(
        shallow, 11,
        "a warm one-key verify allocated {shallow} times"
    );
}
