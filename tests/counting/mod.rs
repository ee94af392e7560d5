//! A global allocator that counts: the instrument of the allocation
//! budgets and bounds. A test binary installs it with
//!
//! ```ignore
//! mod counting;
//! #[global_allocator]
//! static GLOBAL: counting::Counting = counting::Counting;
//! ```
//!
//! and holds one test: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting allocations and allocated bytes.
pub struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and guard nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `work`'s result, and the allocations and bytes it made: a realloc is
/// one allocation of the bytes it grew by.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let done = work();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    (done, allocations, BYTES.load(Ordering::Relaxed) - before.1)
}
