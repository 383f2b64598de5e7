//! Regression test: streaming samples through [`CsvSampleWriter`]
//! must not allocate per sample.
//!
//! The writer builds each line in one reused buffer with
//! `ftgcs_sim::numfmt` (no `String` per number, no `core::fmt`
//! machinery) and hands it to its `BufWriter` whole; the first sample
//! sizes the buffer, after which an arbitrarily long run performs zero
//! allocations. Same counting-allocator technique as
//! `ftgcs-sim/tests/hot_path_alloc.rs`.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter, and the allocator does not count the
//! process's main thread, where libtest keeps its own books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use ftgcs_metrics::stream::CsvSampleWriter;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::ClockSample;

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

/// Whether an allocation made now counts: inside the window, and on any
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

#[allow(unsafe_code, reason = "a counting allocator is this test's instrument")]
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

#[test]
fn streaming_samples_after_the_first_line_does_not_allocate() {
    // Sanity: the counter must actually observe allocations, or the
    // assertion below would pass vacuously.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    COUNTING.store(false, Ordering::SeqCst);
    assert!(
        ALLOCS.load(Ordering::SeqCst) >= 1,
        "counting allocator is not wired up"
    );

    // A run as `xp run` sees it: 36 nodes, all clocks zero on the
    // first line (the shortest line there is), then full 17-digit
    // values a little apart from the sample time.
    const NODES: usize = 36;
    const SAMPLES: usize = 20_000;
    let mut sample = ClockSample {
        t: SimTime::ZERO,
        logical: vec![0.0; NODES],
    };
    let mut writer = CsvSampleWriter::new(io::sink(), 1);
    writer.on_sample(&sample);

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for i in 1..SAMPLES {
        let t = i as f64 * 0.0005;
        sample.t = SimTime::from_secs(t);
        for (v, l) in sample.logical.iter_mut().enumerate() {
            *l = t * (1.0 + 1e-4 * v as f64) + 1e-7 * v as f64;
        }
        writer.on_sample(&sample);
    }
    COUNTING.store(false, Ordering::SeqCst);

    writer.finish().expect("a sink cannot fail");
    assert_eq!(writer.written(), SAMPLES);
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "CsvSampleWriter allocated while streaming {SAMPLES} samples — \
         the line buffer must be reused and push_f64 must not allocate"
    );
}
