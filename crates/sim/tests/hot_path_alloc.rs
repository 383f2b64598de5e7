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
//! allocations. The same holds for a sampled run under a streaming
//! observer: the engine refills one clock sample in place, so a sample
//! costs no allocation either.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter ([`counting_alloc`]).

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::observe::Observer;
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::{ClockSample, Trace};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;

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
    build_config(nodes, telemetry, None, SchedulerKind::Global)
}

/// A streaming observer: reads every clock of every sample, keeps none.
#[derive(Default)]
struct SampleSum {
    samples: u64,
    sum: f64,
}

impl Observer for SampleSum {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.samples += 1;
        self.sum += sample.logical.iter().sum::<f64>();
    }
}

fn build_config(
    nodes: usize,
    telemetry: bool,
    sample_interval: Option<SimDuration>,
    scheduler: SchedulerKind,
) -> ftgcs_sim::engine::Simulation<u8> {
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
        sample_interval,
        scheduler,
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
    assert!(
        count(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(32)))) >= 1,
        "counting allocator is not wired up"
    );

    let mut sim = build(8);
    // Warm-up: reach the allocation high-water mark (queue capacities,
    // timer slot pool, RNG state). 20 simulated seconds ≈ 400 phases
    // per node.
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(20.0), &mut trace);
    let events_before = sim.stats().events;

    let window_allocs = count(|| sim.run_until_with(SimTime::from_secs(40.0), &mut trace));
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
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(20.0), &mut trace);
    let events_before = sim.stats().events;

    let window_allocs = count(|| sim.run_until_with(SimTime::from_secs(40.0), &mut trace));
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

    streamed_samples_do_not_allocate();
}

/// A sampled run under a streaming observer, on both schedulers: the
/// engine refills one sample, so sampling allocates nothing.
fn streamed_samples_do_not_allocate() {
    let interval = Some(SimDuration::from_millis(1.0));
    let parallel = SchedulerKind::Parallel {
        partition: Partition::by_blocks(8, 4),
        workers: 2,
    };
    for (label, scheduler) in [("global", SchedulerKind::Global), ("parallel 2", parallel)] {
        let mut sim = build_config(8, false, interval, scheduler);
        let mut obs = SampleSum::default();
        sim.run_until_with(SimTime::from_secs(5.0), &mut obs);
        let samples_before = obs.samples;

        let window_allocs = count(|| sim.run_until_with(SimTime::from_secs(25.0), &mut obs));
        let window_samples = obs.samples - samples_before;
        assert!(obs.sum.is_finite());
        assert!(
            window_samples >= 20_000,
            "{label}: window too small: {window_samples} samples"
        );
        // A fresh pair of vectors per sample would read 40 000 here;
        // the parallel executor's per-call set-up (its worker thread
        // and task tables) is what may remain.
        assert!(
            window_allocs < 64,
            "{label}: a streamed run allocated {window_allocs} times over \
             {window_samples} samples — a sample allocates again"
        );
    }
}
