//! Signing and verifying — singly or in a batch of up to `MAX_BATCH` —
//! touch no heap once the per-process tables exist. Its own test binary: the counting allocator is global, and
//! the count is per thread so the harness's own threads cannot leak
//! into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use transedge_crypto::ed25519::{verify_batch, Signature, VerifyingKey, MAX_BATCH};
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
