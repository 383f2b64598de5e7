//! Stress suite for the parallel executor's work stealing (the
//! dynamic shard→worker assignment that replaced PR 3's static
//! `shard % workers` split).
//!
//! The partitions here are chosen to make a static assignment
//! maximally lopsided — a hub shard holding a third of the nodes next
//! to singleton spokes, and one giant shard next to trivial ones — so
//! the deal-out/steal machinery actually runs (idle workers sweep the
//! unclaimed heavy shards). Determinism is the
//! assertion: whatever the claim race does, the merged trace must be
//! byte-identical to the serial global heap, at every worker count. A
//! requested count runs that many OS threads whatever this machine's
//! core count, so the 2- and 4-worker axes are real threads everywhere.

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, SimStats, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};

/// Timer + broadcast churn with per-node RNG and trace rows — enough
/// machinery that any mis-merged window shows up in the byte stream.
struct Churn {
    beats: u64,
}

impl Behavior<u64> for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_at(TrackId::MAIN, 0.004, TimerTag::new(0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        self.beats += 1;
        let token = ctx.rng().next_u64();
        if self.beats.is_multiple_of(4) {
            ctx.broadcast_with_loopback(token);
        } else {
            ctx.broadcast(token);
        }
        let next = ctx.track_value(TrackId::MAIN) + 0.004;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: &u64) {
        ctx.emit("churn", vec![from.index() as f64, (*msg % 4096) as f64]);
    }
}

fn config(seed: u64, scheduler: SchedulerKind) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(300.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomWalk {
            dwell: 0.2,
            step: 0.5,
        },
        seed,
        sample_interval: Some(SimDuration::from_millis(50.0)),
        scheduler,
        telemetry: false,
    }
}

/// Hub-and-spoke topology over `n` nodes: every spoke links to node 0,
/// plus a spoke ring so cross-spoke (cross-shard) traffic exists.
fn build(n: usize, seed: u64, scheduler: SchedulerKind) -> Simulation<u64> {
    let mut builder = SimBuilder::new(config(seed, scheduler));
    let ids: Vec<NodeId> = (0..n)
        .map(|_| builder.add_node(Box::new(Churn { beats: 0 })))
        .collect();
    for i in 1..n {
        builder.add_edge(ids[0], ids[i]);
        if i + 1 < n {
            builder.add_edge(ids[i], ids[i + 1]);
        }
    }
    builder.build()
}

/// One shard holding the hub plus a third of the spokes; every other
/// spoke is a singleton shard. The static `shard % workers` split dealt
/// shard 0 (and every `workers`-th singleton) to worker 0.
fn hub_partition(n: usize) -> Partition {
    let heavy = n / 3;
    let assignment: Vec<usize> = (0..n)
        .map(|i| if i < heavy { 0 } else { i - heavy + 1 })
        .collect();
    Partition::from_assignment(assignment)
}

/// One giant shard next to two trivial ones — the worst case for a
/// global window cap (the giant shard's front pins every window) and
/// for static assignment (two workers idle).
fn giant_partition(n: usize) -> Partition {
    let assignment: Vec<usize> = (0..n)
        .map(|i| match i {
            0 => 1,
            1 => 2,
            _ => 0,
        })
        .collect();
    Partition::from_assignment(assignment)
}

fn run_to_bytes(n: usize, seed: u64, scheduler: SchedulerKind) -> (Vec<u8>, SimStats) {
    let mut sim = build(n, seed, scheduler);
    sim.run_until(SimTime::from_secs(0.4));
    // Step tail: stepping granularity must not change the bytes either.
    sim.run_for(SimDuration::from_millis(35.0));
    sim.run_for(SimDuration::from_millis(65.0));
    let stats = sim.stats();
    (sim.into_trace().to_bytes(), stats)
}

fn assert_ragged_partition_equivalent(name: &str, partition_of: fn(usize) -> Partition) {
    let n = 18;
    for seed in [3u64, 77, 2024] {
        let reference = run_to_bytes(n, seed, SchedulerKind::Global);
        assert!(
            !reference.0.is_empty(),
            "{name}/seed {seed}: empty reference"
        );
        // workers: 1 (nothing spawned), 2 and 4 (real OS threads, the
        // caller among them), and auto (available parallelism).
        for (label, workers) in [("w1", 1usize), ("w2", 2), ("w4", 4), ("auto", 0)] {
            let candidate = run_to_bytes(
                n,
                seed,
                SchedulerKind::Parallel {
                    partition: partition_of(n),
                    workers,
                },
            );
            assert_eq!(
                candidate.1, reference.1,
                "{name}/seed {seed}/{label}: work counters diverged"
            );
            assert_eq!(
                candidate.0, reference.0,
                "{name}/seed {seed}/{label}: trace diverged from the global heap"
            );
        }
    }
}

#[test]
fn hub_and_spoke_partition_is_byte_identical_with_stealing() {
    assert_ragged_partition_equivalent("hub-and-spoke", hub_partition);
}

#[test]
fn one_giant_cluster_partition_is_byte_identical_with_stealing() {
    assert_ragged_partition_equivalent("one-giant-cluster", giant_partition);
}

#[test]
fn stealing_is_stable_across_repeated_runs() {
    // The claim race resolves differently every run; 12 repetitions
    // cycling the thread count must all merge to the same bytes.
    let reference = run_to_bytes(18, 7, SchedulerKind::Global);
    for rep in 0..12u32 {
        let workers = [2usize, 3, 4][rep as usize % 3];
        let candidate = run_to_bytes(
            18,
            7,
            SchedulerKind::Parallel {
                partition: hub_partition(18),
                workers,
            },
        );
        assert_eq!(
            candidate.0, reference.0,
            "stress rep {rep} (w{workers}) diverged"
        );
    }
}

#[test]
fn dealt_load_is_spread_on_hub_and_spoke() {
    // The acceptance bar for the balancer itself: on the hub-and-spoke
    // partition, no worker's dealt share exceeds 60% of all events.
    // The dealt record is machine-independent (the telemetry report's
    // `per_worker[].planned_events`), so this is a hard assert, not a
    // flaky perf check.
    let mut sim = build(
        18,
        7,
        SchedulerKind::Parallel {
            partition: hub_partition(18),
            workers: 4,
        },
    );
    sim.run_until(SimTime::from_secs(0.4));
    let loads: Vec<u64> = (sim.telemetry().diagnostics.per_worker.iter())
        .map(|w| w.planned_events)
        .collect();
    assert_eq!(loads.len(), 4);
    let total: u64 = loads.iter().sum();
    assert!(total > 0, "no events dealt");
    for (w, &load) in loads.iter().enumerate() {
        let share = load as f64 / total as f64;
        assert!(
            share < 0.6,
            "worker {w} was dealt {share:.2} of all events ({loads:?})"
        );
    }
}
