//! The counting allocator the allocation-budget tests share: each test
//! binary `#[path]`-includes this file and installs [`Counting`] with its
//! own `#[global_allocator]` line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching them from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts this thread's allocation calls (alloc, alloc_zeroed, realloc)
/// and the bytes it holds live, so tests running on other threads do not
/// leak into either count.
pub struct Counting;

fn note(grown: i64) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    live(grown);
}

fn live(grown: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + grown));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches two
// thread-local `Cell`s and cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `f`'s result and the allocation calls this thread made while it ran.
#[allow(dead_code)] // not every including test binary counts calls
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

/// `f`'s result and the bytes this thread's heap grew by while it ran:
/// what `f` retained, its result's own heap included.
#[allow(dead_code)] // not every including test binary counts bytes
pub fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.get();
    let out = f();
    (out, LIVE.get() - before)
}
