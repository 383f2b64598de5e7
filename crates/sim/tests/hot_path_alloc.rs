//! Regression test: the engine's hot control path — timer fires,
//! `set_multiplier` / `jump_track` re-anchoring, broadcasts — must not
//! allocate in steady state.
//!
//! Historically `reanchor` cloned the per-track timer-id `Vec` on every
//! rate change (once per node per round phase) and `broadcast` cloned
//! the adjacency list per call. Both are gone; this test proves it with
//! a counting global allocator: after a warm-up that reaches the
//! engine's high-water mark (heap capacities, slot free lists), an
//! identical steady-state window must perform (essentially) zero
//! allocations.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::SchedulerKind;
use ftgcs_sim::time::{SimDuration, SimTime};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

#[allow(unsafe_code, reason = "a counting allocator is this test's instrument")]
// SAFETY: delegates directly to the system allocator; the counter has
// no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
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
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards all arguments unchanged to `System.realloc`,
        // inheriting its contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A round-phase caricature: every node keeps three pending timers on
/// its main track (like a ClusterSync round's pulse/compute/end), and
/// every phase timer both changes the rate (reanchor → reschedule all
/// pending timers) and broadcasts to its clique.
struct PhaseNode {
    phase: u64,
}

const PHASE: f64 = 0.05;

impl Behavior<u8> for PhaseNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        for i in 1..=3u64 {
            ctx.set_timer_at(TrackId::MAIN, i as f64 * PHASE, TimerTag::new(1).with_b(i));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, tag: TimerTag) {
        self.phase += 1;
        // Alternate between a rate change and a value jump — both hit
        // `reanchor`, rescheduling the two still-pending timers.
        if self.phase.is_multiple_of(2) {
            let m = if self.phase.is_multiple_of(4) {
                1.01
            } else {
                1.0
            };
            ctx.set_multiplier(TrackId::MAIN, m);
        } else {
            let v = ctx.track_value(TrackId::MAIN);
            ctx.jump_track(TrackId::MAIN, v + 1e-6);
        }
        ctx.broadcast(0u8);
        // Keep exactly three timers pending.
        ctx.set_timer_at(
            TrackId::MAIN,
            tag.b as f64 * PHASE + 3.0 * PHASE,
            tag.with_b(tag.b + 3),
        );
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: NodeId, _: &u8) {}
}

fn build(nodes: usize) -> ftgcs_sim::engine::Simulation<u8> {
    build_with(nodes, false)
}

fn build_with(nodes: usize, telemetry: bool) -> ftgcs_sim::engine::Simulation<u8> {
    let config = SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        // Constant rates: the clock's segment list never grows, so any
        // allocation the window sees is the engine's own.
        rate_model: RateModel::Constant { frac: 0.5 },
        seed: 3,
        sample_interval: None,
        scheduler: SchedulerKind::Global,
        telemetry,
    };
    let mut b = SimBuilder::new(config);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_node(Box::new(PhaseNode { phase: 0 })))
        .collect();
    // Two cliques of 4 bridged by one edge.
    for c in 0..nodes / 4 {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(ids[4 * c + i], ids[4 * c + j]);
            }
        }
    }
    for c in 1..nodes / 4 {
        b.add_edge(ids[4 * (c - 1)], ids[4 * c]);
    }
    b.build()
}

#[test]
fn steady_state_event_loop_does_not_allocate() {
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

    let mut sim = build(8);
    // Warm-up: reach the allocation high-water mark (queue capacities,
    // timer slot pool, RNG state). 20 simulated seconds ≈ 400 phases
    // per node.
    sim.run_until(SimTime::from_secs(20.0));
    let events_before = sim.stats().events;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_until(SimTime::from_secs(40.0));
    COUNTING.store(false, Ordering::SeqCst);

    let window_allocs = ALLOCS.load(Ordering::SeqCst);
    let window_events = sim.stats().events - events_before;
    assert!(
        window_events > 10_000,
        "window too small to be meaningful: {window_events} events"
    );
    // The old engine allocated at least once per rate change (the
    // timer-list clone) plus once per broadcast (the adjacency clone):
    // tens of thousands of allocations in this window. Steady state
    // must be allocation-free; a sliver of slack tolerates incidental
    // harness noise without masking a per-event regression.
    assert!(
        window_allocs < 16,
        "hot path allocated {window_allocs} times over {window_events} \
         events — a per-event allocation crept back in"
    );

    // Telemetry times phases into fixed-size accumulators: with it
    // *enabled*, the steady-state window must still be allocation-free —
    // the side channel may never put a per-event allocation on the hot
    // path.
    let mut sim = build_with(8, true);
    sim.run_until(SimTime::from_secs(20.0));
    let events_before = sim.stats().events;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_until(SimTime::from_secs(40.0));
    COUNTING.store(false, Ordering::SeqCst);

    let window_allocs = ALLOCS.load(Ordering::SeqCst);
    let window_events = sim.stats().events - events_before;
    assert!(
        window_events > 10_000,
        "telemetry window too small to be meaningful: {window_events} events"
    );
    assert!(
        window_allocs < 16,
        "telemetry-enabled hot path allocated {window_allocs} times over \
         {window_events} events — the side channel must not allocate per event"
    );
}
