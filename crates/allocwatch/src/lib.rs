//! The system allocator with counters in front: a test installs
//! [`Counting`] as its `#[global_allocator]` and reads [`allocations`]
//! (or [`allocated_bytes`]) around the code it claims does not allocate
//! (or allocates only so much).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting every allocation and its size (a `realloc`
/// counts as one, of its new size: the default method allocates anew
/// through [`GlobalAlloc::alloc`]).
pub struct Counting;

// SAFETY: both methods hand their arguments to `System` unchanged, so
// `System`'s guarantees are the ones this allocator gives; the counter
// is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by the whole process's allocations so far (frees
/// are not subtracted).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
