//! The counting allocator the allocation-budget tests share: each test
//! binary `#[path]`-includes this file and installs [`Counting`] with its
//! own `#[global_allocator]` line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocation calls (alloc, alloc_zeroed, realloc),
/// so tests running on other threads do not leak into the count.
pub struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `f`'s result and the allocation calls this thread made while it ran.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}
