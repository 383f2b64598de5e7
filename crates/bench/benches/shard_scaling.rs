//! Criterion bench: scheduler sharding — the same workloads as
//! `engine_free_run` (raw substrate message flood) and
//! `cluster_simulated_second` (full ClusterSync) on the global queue
//! (the one-shard row `1`, the baseline the parallel groups are read
//! against) and on the **parallel executor** swept over 1/2/4/8
//! requested workers, each on the partition a spec's `scheduler
//! parallel <n>` selects on this machine (`worker_partition` at the
//! resolved count: four contiguous runs of clusters per worker, so the
//! rows above this machine's core count repeat the row at it).
//!
//! Both schedulers dispatch the identical event sequence (pinned by
//! `crates/sim/tests/shard_equivalence.rs`), so any time difference is
//! pure queue and executor mechanics: per-shard calendar queues versus
//! one, cut edges staged and merged, and how much of each `d − U`
//! lookahead window the workers can overlap versus barrier overhead.
//!
//! The `hub` groups run a **hub-and-spoke** cluster star under a ragged
//! explicit partition (one shard holding the hub cluster plus a third
//! of the spokes, 42 singleton shards for the rest) at a pinned worker
//! count — the stress case for the window balancer's deal and steal,
//! and the only rows here with more shards than a spec would choose.
//! The final "benches" print `events/...` lines (the
//! deterministic per-cell event counts, so `scripts/bench.sh` can
//! derive machine-local events/sec from the medians) and `balance/...`
//! lines recording each worker's *dealt* share of all events
//! (`Simulation::planned_worker_events`, deterministic on any machine);
//! `scripts/bench.sh` captures both into `BENCH_shard_scaling.json`,
//! where no worker may exceed 60% and throughput may not regress more
//! than 2x against the checked-in baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftgcs::cluster::worker_partition;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs_baselines::BaseMsg;
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::{resolve_workers, Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_topology::{generators, ClusterGraph};
use std::hint::black_box;

/// Nodes per cluster in both workloads.
const K: usize = 4;
/// Clusters in both topologies.
const CLUSTERS: usize = 64;

/// The `engine_free_run` flooder: broadcast a beacon every `period`
/// logical seconds.
#[derive(Debug)]
struct Flooder {
    period: f64,
}

impl Behavior<BaseMsg> for Flooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        ctx.set_timer_at(TrackId::MAIN, self.period, TimerTag::new(0));
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, _msg: &BaseMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, tag: TimerTag) {
        ctx.broadcast(BaseMsg::Beacon { value: 0.0 });
        ctx.set_timer_at(
            TrackId::MAIN,
            (tag.b as f64 + 2.0) * self.period,
            TimerTag::new(0).with_b(tag.b + 1),
        );
    }
}

/// The shared topology: a line of `CLUSTERS` cliques of `K`, so shard
/// splits always cut only `≥ d−U`-delayed intercluster edges.
fn cluster_graph() -> ClusterGraph {
    ClusterGraph::new(generators::line(CLUSTERS), K, 1)
}

/// The parallel executor as `scheduler parallel <workers>` selects it
/// (`Scenario::parallel`): the partition sized by the resolved count.
fn parallel_for(workers: usize) -> SchedulerKind {
    let resolved = resolve_workers(workers, CLUSTERS);
    SchedulerKind::Parallel {
        partition: worker_partition(&cluster_graph(), resolved),
        workers,
    }
}

/// Hub-and-spoke cluster star for the balance benches.
fn hub_graph() -> ClusterGraph {
    ClusterGraph::new(generators::star(CLUSTERS), K, 1)
}

/// The ragged partition over the star: the hub cluster plus the first
/// third of the spokes share shard 0; every other spoke cluster is a
/// singleton shard.
fn hub_partition() -> Partition {
    let heavy = CLUSTERS / 3;
    let assignment: Vec<usize> = (0..CLUSTERS * K)
        .map(|node| {
            let cluster = node / K;
            if cluster < heavy {
                0
            } else {
                cluster - heavy + 1
            }
        })
        .collect();
    Partition::from_assignment(assignment)
}

/// One free-run iteration of `cg` under `scheduler`, optionally pinning
/// the executor count; returns total events and the dealt per-worker
/// loads (parallel schedulers only).
fn free_run_graph(
    cg: &ClusterGraph,
    scheduler: SchedulerKind,
    pin: Option<usize>,
) -> (u64, Option<Vec<u64>>) {
    let config = SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomConstant,
        seed: 9,
        sample_interval: Some(SimDuration::from_millis(10.0)),
        scheduler,
        telemetry: false,
    };
    let mut builder = SimBuilder::<BaseMsg>::new(config);
    for _ in 0..cg.physical().node_count() {
        builder.add_node(Box::new(Flooder { period: 0.01 }));
    }
    for (a, b2) in cg.physical().edges() {
        builder.add_edge(NodeId(a), NodeId(b2));
    }
    let mut sim = builder.build();
    if let Some(workers) = pin {
        sim.pin_workers(workers);
    }
    sim.run_until(SimTime::from_secs(1.0));
    let events = sim.stats().events;
    let loads = sim.planned_worker_events().map(<[u64]>::to_vec);
    (events, loads)
}

/// One free-run iteration under `scheduler` (line-of-cliques graph).
fn free_run_once(scheduler: SchedulerKind) -> u64 {
    free_run_graph(&cluster_graph(), scheduler, None).0
}

/// One full-ClusterSync iteration under `scheduler`.
fn cluster_second_once(params: &Params, scheduler: SchedulerKind) -> u64 {
    let mut scenario = Scenario::new(cluster_graph(), params.clone());
    scenario
        .seed(3)
        .max_estimator(false)
        .sample_interval(None)
        .scheduler(scheduler);
    let run = scenario.run_for(1.0);
    run.stats.events
}

fn bench_free_run_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling_free_run");
    group.sample_size(10);
    group.bench_function("1", |b| {
        b.iter(|| black_box(free_run_once(SchedulerKind::Global)));
    });
    group.finish();
}

fn bench_free_run_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling_free_run_parallel");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| black_box(free_run_once(parallel_for(w))));
        });
    }
    group.finish();
}

fn bench_cluster_second_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling_cluster_second");
    group.sample_size(10);
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible");
    group.bench_function("1", |b| {
        b.iter(|| black_box(cluster_second_once(&params, SchedulerKind::Global)));
    });
    group.finish();
}

fn bench_cluster_second_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling_cluster_second_parallel");
    group.sample_size(10);
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible");
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| black_box(cluster_second_once(&params, parallel_for(w))));
        });
    }
    group.finish();
}

fn bench_hub_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling_hub_parallel");
    group.sample_size(10);
    let cg = hub_graph();
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(
                    free_run_graph(
                        &cg,
                        SchedulerKind::Parallel {
                            partition: hub_partition(),
                            workers: w,
                        },
                        Some(w),
                    )
                    .0,
                )
            });
        });
    }
    group.finish();
}

/// Not a timing group: one deterministic run per `(group, label)` cell,
/// printing the cell's total event count. The counts are a pure
/// function of `(seed, config)` — identical on every machine and every
/// scheduler (pinned by `shard_equivalence.rs`) — so dividing them by
/// the machine-local medians gives a throughput figure:
/// `scripts/bench.sh` joins these lines with the criterion medians into
/// `events_per_sec` fields in `BENCH_shard_scaling.json`, and gates on
/// a >2x throughput regression against the checked-in baseline.
fn report_group_events(_c: &mut Criterion) {
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible");
    let events = free_run_once(SchedulerKind::Global);
    println!("events/shard_scaling_free_run/1: {events} events");
    for workers in [1usize, 2, 4, 8] {
        let events = free_run_once(parallel_for(workers));
        println!("events/shard_scaling_free_run_parallel/{workers}: {events} events");
    }
    let events = cluster_second_once(&params, SchedulerKind::Global);
    println!("events/shard_scaling_cluster_second/1: {events} events");
    for workers in [1usize, 2, 4, 8] {
        let events = cluster_second_once(&params, parallel_for(workers));
        println!("events/shard_scaling_cluster_second_parallel/{workers}: {events} events");
    }
    let cg = hub_graph();
    for workers in [1usize, 2, 4] {
        let (events, _) = free_run_graph(
            &cg,
            SchedulerKind::Parallel {
                partition: hub_partition(),
                workers,
            },
            Some(workers),
        );
        println!("events/shard_scaling_hub_parallel/{workers}: {events} events");
    }
}

/// Not a timing group: one deterministic hub-and-spoke run at 4 pinned
/// workers, printing each worker's dealt share of all events. The
/// shares are a pure function of `(seed, config, worker count)` — see
/// `Simulation::planned_worker_events` — so the recorded numbers are
/// identical on every machine; `scripts/bench.sh` captures them into
/// `BENCH_shard_scaling.json` and the acceptance bar is share < 0.60.
fn report_hub_balance(_c: &mut Criterion) {
    let (events, loads) = free_run_graph(
        &hub_graph(),
        SchedulerKind::Parallel {
            partition: hub_partition(),
            workers: 1,
        },
        Some(4),
    );
    let loads = loads.expect("parallel scheduler records dealt loads");
    let dealt: u64 = loads.iter().sum();
    for (w, &load) in loads.iter().enumerate() {
        let share = load as f64 / dealt as f64;
        println!("balance/hub_free_run_w4/worker{w}: share {share:.4} ({load} of {dealt} dealt, {events} events)");
    }
}

criterion_group!(
    benches,
    bench_free_run_scaling,
    bench_free_run_parallel,
    bench_cluster_second_scaling,
    bench_cluster_second_parallel,
    bench_hub_parallel,
    report_group_events,
    report_hub_balance
);
criterion_main!(benches);
