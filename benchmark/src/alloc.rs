//! Counting global allocator: allocations and bytes requested by the
//! calling thread while [`counted`] runs. Per-thread cells, so a serial
//! simulation is counted exactly and nothing another thread does (the
//! test harness, `simshard` workers) leaks into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without destructors: touching them from
    // inside the allocator never allocates and never registers a dtor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator `main.rs` installs; forwards everything to [`System`].
pub struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator can be called while a thread tears its
    // locals down; then there is nobody left to count for.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|c| c.set(c.get() + 1));
            BYTES.with(|c| c.set(c.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// thread-local `Cell`s and cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// Run `f` with counting armed on this thread; returns its value, the
/// number of allocation calls (alloc, alloc_zeroed, realloc) and the
/// bytes they requested.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs0, bytes0) = (ALLOCS.get(), BYTES.get());
    let was = ARMED.replace(true);
    let out = f();
    ARMED.set(was);
    (out, ALLOCS.get() - allocs0, BYTES.get() - bytes0)
}

#[cfg(test)]
mod tests {
    use super::{counted, ALLOCS};
    use std::hint::black_box;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let (v, allocs, bytes) = counted(|| {
            // black_box: an optimised build elides allocations it can
            // prove unobserved.
            let a = black_box(Box::new(7u64)); // 1 alloc, 8 bytes
            let mut v: Vec<u32> = black_box(Vec::with_capacity(4)); // 1 alloc, 16 bytes
            v.extend([1, 2, 3, 4]);
            v.reserve_exact(4); // 1 realloc to 32 bytes
            v.push(*a as u32);
            black_box(v)
        });
        assert_eq!(v.len(), 5);
        assert_eq!((allocs, bytes), (3, 8 + 16 + 32));
    }

    #[test]
    fn counts_only_while_armed_and_only_the_arming_thread() {
        let before = ALLOCS.get();
        black_box(vec![0u8; 1024]);
        assert_eq!(ALLOCS.get(), before, "disarmed");

        // Spawning allocates on this thread (handle, packet); the 64
        // boxes the other thread makes must not come on top of that.
        let idle = counted(|| std::thread::spawn(|| ()).join().unwrap()).1;
        let busy = counted(|| {
            std::thread::spawn(|| {
                black_box((0..64).map(Box::new).collect::<Vec<Box<u8>>>());
            })
            .join()
            .unwrap()
        })
        .1;
        assert!(idle > 0);
        assert_eq!(idle, busy);
    }
}
