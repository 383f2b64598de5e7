//! Regression test: the algorithm's message path — level reports into
//! the max estimator above all, three quarters of a line's events —
//! must not allocate per message.
//!
//! The sibling of `crates/sim/tests/hot_path_alloc.rs` one layer up:
//! that one pins the engine at (essentially) zero allocations per event,
//! this one a small FT-GCS line with the max estimator on at under 30
//! per 1 000 events. What remains (about 20) is per *round*, not per
//! message: the three rows a node emits each round (`pulse`, `round`,
//! `mode`), whose values are owned by whoever observes them.
//! ClusterSync's per-round vectors used to be allocated per instance
//! per round (about 74 with them): the offset multiset is now built and
//! sorted where the round's receive times were, and the estimates handed
//! to the triggers sit in a buffer the node keeps. `MaxEstimator::on_level`
//! used to clone and sort its cluster's reports on every level message,
//! which alone read about 820.
//!
//! Set-up is held to a count too: parsing a spec, expanding it and
//! building its simulation allocates per node and per edge only where
//! the result has to own memory, never to regrow a list or to copy a
//! configuration that a whole cluster shares.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter, and the allocator does not count the
//! process's main thread, where libtest keeps its own books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::spec::ScenarioSpec;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_topology::{generators, ClusterGraph};

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

/// Drops every row and sample: what is counted is the simulation's own.
struct Discard;
impl Observer for Discard {}

#[test]
fn level_flooding_does_not_allocate_per_message() {
    // Sanity: the counter must actually observe allocations, or the
    // assertion below would pass vacuously.
    COUNTING.store(true, Ordering::SeqCst);
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    COUNTING.store(false, Ordering::SeqCst);
    assert!(
        ALLOCS.load(Ordering::SeqCst) >= 1,
        "counting allocator is not wired up"
    );

    // The headline setting in small: a line of 8 clusters, f = 1.
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible environment");
    let cg = ClusterGraph::new(generators::line(8), 4, 1);
    let mut scenario = Scenario::new(cg, params);
    scenario.seed(11).max_estimator(true).sample_interval(None);
    let mut sim = scenario.build();

    // Warm-up to the high-water mark of every queue and buffer.
    sim.run_until_with(SimTime::from_secs(2.0), &mut Discard);
    let events_before = sim.stats().events;
    let messages_before = sim.stats().messages;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_until_with(SimTime::from_secs(8.0), &mut Discard);
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let events = sim.stats().events - events_before;
    let messages = sim.stats().messages - messages_before;
    assert!(
        events > 50_000 && 2 * messages > events,
        "window too small or not message-bound: {events} events, {messages} messages"
    );
    assert!(
        allocs * 1000 < events * 30,
        "{allocs} allocations over {events} events ({} per 1 000): \
         a per-message allocation is back on the algorithm's path",
        allocs * 1000 / events
    );

    setup_stays_within_its_allocation_bound();
}

/// Allocations of parse → `from_spec` → `build` for `spec`.
fn setup_allocations(spec: &str) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let parsed = ScenarioSpec::parse(spec).expect("valid spec");
    let scenario = Scenario::from_spec(&parsed).expect("buildable spec");
    let sim = scenario.build();
    COUNTING.store(false, Ordering::SeqCst);
    drop((sim, scenario, parsed));
    ALLOCS.load(Ordering::SeqCst)
}

/// Parse → `from_spec` → `build` stays within a fixed count of
/// allocations. With a node configuration copied per node and
/// neighbour lists regrown per edge it read 734 and 4 702.
fn setup_stays_within_its_allocation_bound() {
    const ENV: &str = "env 1e-4 1e-3 1e-4\nseed 3\nduration 20 rounds\n";
    // 36 nodes, 9 clusters of degree 2 to 4.
    let grid = setup_allocations(&format!(
        "name grid\ntopology grid 3 3\nf 1\n{ENV}sample_interval 0.0005\n"
    ));
    // 256 nodes, 64 clusters in a line.
    let line = setup_allocations(&format!(
        "name line\ntopology line 64\nf 1\n{ENV}sample_interval half_round\n"
    ));
    assert!(
        grid <= 400,
        "grid 3 3 set-up allocated {grid} times (bound 400)"
    );
    assert!(
        line <= 3_000,
        "line 64 set-up allocated {line} times (bound 3 000)"
    );
}
