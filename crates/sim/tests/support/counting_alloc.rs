//! A counting global allocator, shared by the allocation tests through
//! `#[path]` (`sim/tests/hot_path_alloc.rs`,
//! `core/tests/hot_path_alloc.rs`, `metrics/tests/stream_alloc.rs`).
//!
//! [`count`] returns how many allocations and reallocations a closure
//! made. Each including binary holds exactly one test, so no concurrent
//! test thread can pollute the counter, and the allocator does not count
//! the process's main thread, where libtest keeps its own books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Its address names the thread, and taking it allocates nothing.
    static THREAD_MARK: u8 = const { 0 };
}

/// The address of the main thread's [`THREAD_MARK`], recorded at the
/// process's first allocation, which comes before libtest starts any
/// thread.
static MAIN_THREAD: AtomicUsize = AtomicUsize::new(0);

/// Whether an allocation made now counts: inside [`count`], and on any
/// thread but the process's main one, where libtest does its own
/// bookkeeping for the test it started (and once in about a hundred
/// debug runs did it inside the window). Threads the test or the
/// library start are counted.
fn counted() -> bool {
    let here = THREAD_MARK.with(|mark| std::ptr::from_ref(mark).addr());
    let mut main = MAIN_THREAD.load(Ordering::Relaxed);
    if main == 0 {
        main = match MAIN_THREAD.compare_exchange(0, here, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => here,
            Err(first) => first,
        };
    }
    COUNTING.load(Ordering::Relaxed) && here != main
}

struct CountingAllocator;

#[allow(unsafe_code, reason = "a counting allocator is the instrument")]
// SAFETY: delegates directly to the system allocator; the counter has
// no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards `layout` unchanged to `System.alloc`,
        // inheriting its contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`;
        // the caller's obligations are exactly `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards all arguments unchanged to `System.realloc`,
        // inheriting its contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocations `f` makes, on every thread but the main one.
pub fn count(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}
