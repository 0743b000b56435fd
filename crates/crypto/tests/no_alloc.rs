//! Signing and verifying touch no heap once the per-process tables
//! exist. Its own test binary: the counting allocator is global, and
//! the count is per thread so the harness's own threads cannot leak
//! into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use transedge_crypto::Keypair;

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
