//! Differential test: the parallel scheduler is **byte-identical** to
//! the global queue.
//!
//! For a matrix of seeds × topologies (clique, line, NoC grid,
//! adversarial hub) the same workload runs once on the global queue and
//! once per parallel axis — even splits, a one-shard-per-node split, a
//! ragged split, across several worker counts — and every run must
//! produce the same trace byte-for-byte and the same work counters. This
//! extends the determinism tests (`tests/determinism.rs`): determinism
//! pins a run to its `(seed, config)`; this test pins it across
//! *schedulers and thread counts*, the invariant that makes deep engine
//! refactors safe to land.
//!
//! All axes funnel through one [`assert_equivalent`] helper: the global
//! queue appends rows at dispatch, parallel runs merge their per-shard
//! buffers back into `(time, key)` order before the trace is observable
//! — so a single merge-then-compare byte-identity assertion covers both
//! modes.

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, SimStats, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerId, TimerTag, TrackId};
use ftgcs_sim::observe::Observer;
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::{ClockSample, Row, Trace};

/// A workload that exercises every engine feature the schedulers must
/// agree on: timers, cancellations, rate changes, track jumps,
/// broadcasts with loopback, per-node RNG, and trace rows.
struct Churn {
    pending: Option<TimerId>,
    beats: u64,
}

impl Behavior<u64> for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
        // A decoy timer that is immediately cancelled — cancellation
        // bookkeeping must not differ between schedulers.
        let decoy = ctx.set_timer_at(TrackId::MAIN, 0.5, TimerTag::new(9));
        ctx.cancel_timer(decoy);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        self.beats += 1;
        let token = ctx.rng().next_u64();
        if self.beats.is_multiple_of(3) {
            ctx.broadcast_with_loopback(token);
        } else {
            ctx.broadcast(token);
        }
        // Wiggle the rate so timers get rescheduled (generation churn).
        let wiggle = 1.0 + 1e-3 * ctx.rng().uniform(0.0, 1.0);
        ctx.set_multiplier(TrackId::MAIN, wiggle);
        if self.beats.is_multiple_of(7) {
            let v = ctx.track_value(TrackId::MAIN);
            ctx.jump_track(TrackId::MAIN, v + 1e-4);
        }
        // Replace the pending far timer: set-then-cancel across rounds.
        if let Some(t) = self.pending.take() {
            ctx.cancel_timer(t);
        }
        let next = ctx.track_value(TrackId::MAIN) + 0.01;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
        self.pending = Some(ctx.set_timer_at(TrackId::MAIN, next + 5.0, TimerTag::new(1)));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: &u64) {
        ctx.emit("churn", vec![from.index() as f64, (*msg % 4096) as f64]);
    }
}

/// Edge lists for the four topology families, over `n` nodes.
fn edges(topology: &str, n: usize) -> Vec<(usize, usize)> {
    match topology {
        "clique" => {
            let mut e = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    e.push((i, j));
                }
            }
            e
        }
        "line" => (0..n - 1).map(|i| (i, i + 1)).collect(),
        // 4-wide NoC mesh: node (r, c) = r*4 + c, links right and down.
        "grid" => {
            let w = 4;
            let h = n / w;
            let mut e = Vec::new();
            for r in 0..h {
                for c in 0..w {
                    let v = r * w + c;
                    if c + 1 < w {
                        e.push((v, v + 1));
                    }
                    if r + 1 < h {
                        e.push((v, v + w));
                    }
                }
            }
            e
        }
        // Adversarial: a hub-and-spoke star (worst case for per-shard
        // balance — the hub's shard serializes) with a chord ring so
        // spokes also talk to each other.
        "hub" => {
            let mut e: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
            for i in 1..n {
                let j = if i + 1 < n { i + 1 } else { 1 };
                if i != j {
                    e.push((i.min(j), i.max(j)));
                }
            }
            e.sort_unstable();
            e.dedup();
            e
        }
        other => unreachable!("unknown topology {other}"),
    }
}

fn config(seed: u64, scheduler: SchedulerKind, adversarial: bool) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(300.0),
            if adversarial {
                // Direction-dependent extremal delays: the classic
                // schedule for maximizing perceived offsets.
                DelayDistribution::AsymmetricById
            } else {
                DelayDistribution::Uniform
            },
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomWalk {
            dwell: 0.2,
            step: 0.5,
        },
        seed,
        sample_interval: Some(SimDuration::from_millis(100.0)),
        scheduler,
        telemetry: false,
    }
}

/// `n` churning nodes wired as `topology`, ready to run.
fn build(topology: &str, n: usize, seed: u64, scheduler: SchedulerKind) -> Simulation<u64> {
    let adversarial = topology == "hub";
    let mut builder = SimBuilder::new(config(seed, scheduler, adversarial));
    let ids: Vec<NodeId> = (0..n)
        .map(|_| {
            builder.add_node(Box::new(Churn {
                pending: None,
                beats: 0,
            }))
        })
        .collect();
    for (a, b) in edges(topology, n) {
        builder.add_edge(ids[a], ids[b]);
    }
    builder.build()
}

fn run(topology: &str, n: usize, seed: u64, scheduler: SchedulerKind) -> (Trace, SimStats) {
    let mut sim = build(topology, n, seed, scheduler);
    sim.run_until(SimTime::from_secs(1.0));
    let stats = sim.stats();
    (sim.into_trace(), stats)
}

/// The partitions each cell is checked under.
fn partitions(n: usize) -> Vec<(&'static str, Partition)> {
    let ragged: Vec<usize> = (0..n)
        .map(|i| if i == 0 { 0 } else { 1 + (i - 1) % 3 })
        .collect();
    vec![
        ("halves", Partition::by_blocks(n, n.div_ceil(2))),
        ("quads", Partition::by_blocks(n, n.div_ceil(4))),
        ("per-node", Partition::by_blocks(n, 1)),
        ("ragged", Partition::from_assignment(ragged)),
    ]
}

/// The parallel-executor axis: partition × worker-count pairs, zipped
/// to keep the matrix affordable while covering even, fine, ragged, and
/// auto (`0` = available parallelism) configurations.
fn parallel_axes(n: usize) -> Vec<(String, SchedulerKind)> {
    let mut axes = Vec::new();
    for ((name, partition), workers) in partitions(n).into_iter().zip([1usize, 2, 4, 0]) {
        axes.push((
            format!("parallel/{name}/w{workers}"),
            SchedulerKind::Parallel { partition, workers },
        ));
    }
    axes
}

/// The single comparison point for every scheduler axis: same work
/// counters, byte-identical merged trace.
fn assert_equivalent(label: &str, reference: &(Trace, SimStats), candidate: &(Trace, SimStats)) {
    assert_eq!(candidate.1, reference.1, "{label}: work counters diverged");
    assert!(
        candidate.0.byte_identical(&reference.0),
        "{label}: trace diverged from the global heap"
    );
}

#[test]
fn parallel_executor_is_byte_identical_on_every_worker_count() {
    let n = 16;
    for topology in ["clique", "line", "grid", "hub"] {
        for seed in [1u64, 42] {
            let reference = run(topology, n, seed, SchedulerKind::Global);
            assert!(
                !reference.0.rows.is_empty() && !reference.0.samples.is_empty(),
                "{topology}/seed {seed}: reference trace must be non-trivial"
            );
            for (name, scheduler) in parallel_axes(n) {
                let candidate = run(topology, n, seed, scheduler);
                assert_equivalent(
                    &format!("{topology}/seed {seed}/{name}"),
                    &reference,
                    &candidate,
                );
            }
        }
    }
}

#[test]
fn parallel_executor_is_stable_across_repeated_runs() {
    // Scheduling races are flaky by nature: one green run proves little.
    // Re-run the same seed 20× while cycling the thread count and demand
    // the identical final trace every time — a loom-free stress test of
    // the barrier protocol.
    let reference = run("grid", 16, 7, SchedulerKind::Global);
    for rep in 0..20u32 {
        let workers = [1usize, 2, 4][rep as usize % 3];
        let candidate = run(
            "grid",
            16,
            7,
            SchedulerKind::Parallel {
                partition: Partition::by_blocks(16, 4),
                workers,
            },
        );
        assert_equivalent(
            &format!("stress rep {rep} (w{workers})"),
            &reference,
            &candidate,
        );
    }
}

#[test]
fn mid_run_reconfiguration_stays_equivalent() {
    // Delay-distribution and sampling-interval switches mid-run mutate
    // engine state outside any node callback; the schedulers must still
    // agree afterwards.
    let drive = |scheduler: SchedulerKind| {
        let mut sim = build("clique", 8, 7, scheduler);
        sim.run_until(SimTime::from_secs(0.3));
        sim.set_delay_distribution(DelayDistribution::Minimal);
        sim.set_sample_interval(Some(SimDuration::from_millis(10.0)));
        sim.run_until(SimTime::from_secs(0.6));
        sim.set_delay_distribution(DelayDistribution::Maximal);
        sim.run_until(SimTime::from_secs(1.0));
        let stats = sim.stats();
        (sim.into_trace().to_bytes(), stats)
    };
    let (global, gs) = drive(SchedulerKind::Global);
    for workers in [1usize, 2] {
        let (parallel, ps) = drive(SchedulerKind::Parallel {
            partition: Partition::by_blocks(8, 2),
            workers,
        });
        assert_eq!(gs, ps, "w{workers}: work counters diverged");
        assert_eq!(
            global, parallel,
            "mid-run reconfiguration broke the parallel executor (w{workers})"
        );
    }
}

#[test]
fn a_vanishing_sample_interval_panics_instead_of_spinning() {
    // An interval below the f64 spacing at the current time re-arms the
    // sample chain at the same instant: both schedulers must say so.
    for scheduler in [
        SchedulerKind::Global,
        SchedulerKind::Parallel {
            partition: Partition::by_blocks(4, 2),
            workers: 2,
        },
    ] {
        let mut sim = build("clique", 4, 7, scheduler.clone());
        sim.run_until(SimTime::from_secs(0.3));
        sim.set_sample_interval(Some(SimDuration::from_secs(1e-300)));
        let stuck = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_secs(0.6));
        }))
        .expect_err("the run must stop");
        let message = stuck.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("below the f64 spacing"),
            "{scheduler:?}: {message}"
        );
    }
}

/// What an observer saw, in order: a sample at `t`, or a row of a node
/// at `t`.
#[derive(Debug, PartialEq)]
enum Seen {
    Sample(f64),
    Row(usize, f64),
}

#[derive(Default)]
struct Seeing(Vec<Seen>);

impl Observer for Seeing {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.0.push(Seen::Sample(sample.t.as_secs()));
    }
    fn on_row(&mut self, row: &Row) {
        self.0.push(Seen::Row(row.node.index(), row.t.as_secs()));
    }
}

/// Emits one row at each of two Newtonian instants, both of them sample
/// instants of the run below.
struct Ticks;

impl Behavior<u64> for Ticks {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_at_newtonian(0.5, TimerTag::new(0));
        ctx.set_timer_at_newtonian(1.25, TimerTag::new(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        ctx.emit("tick", Vec::new());
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: &u64) {}
}

#[test]
fn a_sample_comes_before_every_node_event_at_its_instant() {
    // Both schedulers fire samples from one chain, so the differential
    // tests above cannot catch a bug in it: this one states the order.
    use Seen::{Row, Sample};
    let expected = [
        Sample(0.0),
        Sample(0.25),
        Sample(0.5),
        Row(0, 0.5),
        Row(1, 0.5),
        // Off and on at 0.625 restarts the one chain there: the sample
        // pending at 0.75 is replaced, not fired beside it.
        Sample(0.625),
        Sample(0.875),
        // Off at 1.0: the chain fires its pending sample, then stops.
        Sample(1.125),
        Row(0, 1.25),
        Row(1, 1.25),
        // On at 1.5, every 0.5 s.
        Sample(1.5),
        Sample(2.0),
    ];
    let parallel = |workers| SchedulerKind::Parallel {
        partition: Partition::by_blocks(2, 1),
        workers,
    };
    let secs = SimDuration::from_secs;
    for scheduler in [SchedulerKind::Global, parallel(1), parallel(2)] {
        let mut builder = SimBuilder::new(SimConfig {
            sample_interval: Some(secs(0.25)),
            scheduler: scheduler.clone(),
            ..SimConfig::default()
        });
        builder.add_node(Box::new(Ticks));
        builder.add_node(Box::new(Ticks));
        let mut sim = builder.build();
        let mut seen = Seeing::default();
        sim.run_until_with(SimTime::from_secs(0.625), &mut seen);
        sim.set_sample_interval(None);
        sim.set_sample_interval(Some(secs(0.25)));
        sim.run_until_with(SimTime::from_secs(1.0), &mut seen);
        sim.set_sample_interval(None);
        sim.run_until_with(SimTime::from_secs(1.5), &mut seen);
        sim.set_sample_interval(Some(secs(0.5)));
        sim.run_until_with(SimTime::from_secs(2.0), &mut seen);
        assert_eq!(seen.0, expected, "{scheduler:?}");
    }
}
