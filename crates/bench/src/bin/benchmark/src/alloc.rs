//! Counting global allocator: live bytes, peak live bytes, allocation
//! count and allocated bytes, all relaxed atomics (statistics that
//! publish no other data). Feeds `peak_heap_mb` and `alloc.*`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes at the last reset.
static BASE: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence the
// pointers or layouts passed through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Counters since the last [`reset`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    /// Highest live-byte level seen, above the level at the reset.
    pub peak: u64,
    /// Allocation calls (reallocs count once).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Restart counting: the peak is measured from the current live
/// level, count and bytes from zero.
pub fn reset() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        peak: PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed)),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
