//! Streaming-observer ⇄ materialized-trace equivalence.
//!
//! The observer redesign must not change a single byte of recorded
//! output: for every scheduler kind (global queue, parallel on several
//! worker counts), streaming the run through a
//! collect-everything observer must reproduce the materialized
//! [`Trace`] exactly, and stepping the simulation in fine increments
//! must match the one-shot run byte-for-byte (where a call's window
//! boundaries fall must be invisible to results).

use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, Simulation};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;

const NODES: usize = 8;
const HORIZON: f64 = 0.6;

/// A churn workload that exercises timers, broadcasts, rows, and RNG.
struct Churn;

impl Behavior<u32> for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer_at(TrackId::MAIN, 0.004, TimerTag::new(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _tag: TimerTag) {
        let token = ctx.rng().next_u32();
        ctx.broadcast(token);
        ctx.emit("tick", vec![f64::from(token % 97)]);
        let next = ctx.track_value(TrackId::MAIN) + 0.004;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
        ctx.emit("beat", vec![from.index() as f64, f64::from(*msg % 64)]);
    }
}

fn build(scheduler: SchedulerKind) -> Simulation<u32> {
    let config = SimConfig {
        seed: 23,
        sample_interval: Some(SimDuration::from_millis(15.0)),
        scheduler,
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(config);
    let ids: Vec<NodeId> = (0..NODES).map(|_| b.add_node(Box::new(Churn))).collect();
    for i in 0..NODES {
        b.add_edge(ids[i], ids[(i + 1) % NODES]);
    }
    b.build()
}

fn schedulers() -> Vec<(String, SchedulerKind)> {
    let mut kinds = vec![("global".to_string(), SchedulerKind::Global)];
    for workers in [1usize, 2, 4] {
        kinds.push((
            format!("parallel-{workers}"),
            SchedulerKind::Parallel {
                partition: Partition::by_blocks(NODES, 2),
                workers,
            },
        ));
    }
    kinds
}

/// One materialized run of the workload under `scheduler`.
fn materialized(scheduler: SchedulerKind) -> Trace {
    let mut sim = build(scheduler);
    sim.run_until(SimTime::from_secs(HORIZON));
    sim.into_trace()
}

#[test]
fn streaming_observer_matches_materialized_trace_on_every_scheduler() {
    let reference = materialized(SchedulerKind::Global).to_bytes();
    assert!(!reference.is_empty());
    for (name, kind) in schedulers() {
        // Stream the identical run into a collect-everything observer.
        let mut sim = build(kind);
        let mut collected = Trace::new();
        sim.run_until_with(SimTime::from_secs(HORIZON), &mut collected);
        collected.on_finish(&sim.stats());
        assert!(
            sim.trace().samples.is_empty() && sim.trace().rows.is_empty(),
            "{name}: streaming run must not materialize the internal trace"
        );
        assert_eq!(
            collected.to_bytes(),
            reference,
            "{name}: streamed output diverged from the materialized trace"
        );
    }
}

#[test]
fn fanout_observer_feeds_every_sink_the_full_stream() {
    let reference = materialized(SchedulerKind::Global).to_bytes();
    let mut sim = build(SchedulerKind::Global);
    let mut a = Trace::new();
    let mut b = Trace::new();
    {
        let mut fan = Fanout::new(vec![&mut a, &mut b]);
        sim.run_until_with(SimTime::from_secs(HORIZON), &mut fan);
        fan.on_finish(&sim.stats());
    }
    assert_eq!(a.to_bytes(), reference);
    assert_eq!(b.to_bytes(), reference);
}

#[test]
fn stepping_granularity_never_changes_the_trace() {
    // Fine-grained driver stepping (many run_until calls) must be
    // byte-identical to one long call, on the serial and the parallel
    // engines alike — every call is a thread scope of its own, and the
    // step boundaries fall at arbitrary times (including mid-window
    // for the parallel executor).
    for (name, kind) in schedulers() {
        let reference = materialized(kind.clone()).to_bytes();
        for step_ms in [7.0, 50.0] {
            let mut sim = build(kind.clone());
            let step = SimDuration::from_millis(step_ms);
            while sim.now() < SimTime::from_secs(HORIZON) {
                let next = (sim.now() + step).min(SimTime::from_secs(HORIZON));
                sim.run_until(next);
            }
            assert_eq!(
                sim.into_trace().to_bytes(),
                reference,
                "{name}: stepping at {step_ms} ms diverged from the one-shot run"
            );
        }
    }
}

#[test]
fn streaming_and_stepping_compose() {
    // Stream a stepped parallel run into an observer: both redesign
    // axes at once.
    let reference = materialized(SchedulerKind::Global).to_bytes();
    let kind = SchedulerKind::Parallel {
        partition: Partition::by_blocks(NODES, 2),
        workers: 2,
    };
    let mut sim = build(kind);
    let mut collected = Trace::new();
    for i in 1..=40 {
        sim.run_until_with(
            SimTime::from_secs(HORIZON * f64::from(i) / 40.0),
            &mut collected,
        );
    }
    collected.on_finish(&sim.stats());
    assert_eq!(collected.to_bytes(), reference);
}
