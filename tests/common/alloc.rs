//! A counting global allocator for the allocation-budget tests.
//!
//! It tallies the allocations made on the calling thread; counting per
//! thread keeps the tally exact while other tests of the same binary run
//! in parallel. A test binary opts in with
//! `#[path = "common/alloc.rs"] mod counting;`, which installs it as that
//! binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(smallest counted size, allocations counted)`; outside
    /// [`counted_at_least`] nothing is counted.
    static TALLY: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
}

fn count(size: usize) {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = TALLY.try_with(|tally| {
        let (min, n) = tally.get();
        if size >= min {
            tally.set((min, n + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The result of `f` and the allocations (including reallocations) it
/// made on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    counted_at_least(0, f)
}

/// The result of `f` and the allocations (including reallocations) of at
/// least `min_bytes` it made on this thread.
pub fn counted_at_least<T>(min_bytes: usize, f: impl FnOnce() -> T) -> (T, usize) {
    let outer = TALLY.with(|tally| tally.replace((min_bytes, 0)));
    let out = f();
    let (_, n) = TALLY.with(|tally| tally.replace(outer));
    (out, n)
}
