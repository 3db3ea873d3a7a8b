//! A counting global allocator for allocation budgets.
//!
//! [`CountingAlloc`] wraps [`System`] and counts every allocation (and
//! every `realloc`, which may move a block) into a `const`-initialized
//! thread-local, so tests running in parallel threads never see each
//! other's counts. A `#[global_allocator]` is per binary: a test or
//! bench binary that wants counts installs it itself.
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: cbqt_testkit::alloc::CountingAlloc = cbqt_testkit::alloc::CountingAlloc;
//!
//! let (rows, counts) = cbqt_testkit::alloc::count(|| db.query(sql));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting allocations per thread.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may still free and allocate
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain thread-locals with `const` initializers, which neither
// allocate nor run destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by the current thread: how many, and how many
/// bytes were asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

/// The current thread's running totals (zero unless [`CountingAlloc`]
/// is the binary's global allocator).
pub fn totals() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Runs `f` and returns its result with the allocations the current
/// thread made meanwhile.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = totals();
    let r = f();
    let after = totals();
    (
        r,
        Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}
