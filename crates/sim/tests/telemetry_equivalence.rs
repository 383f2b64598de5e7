//! Telemetry is a pure side channel — this suite pins the four
//! guarantees `ftgcs_sim::telemetry` makes:
//!
//! 1. **Trace neutrality**: the trace and work counters of a run are
//!    byte-identical whether telemetry is enabled or disabled, on every
//!    scheduler and worker count.
//! 2. **One set of books**: the counts are kept with the flag off too —
//!    the same `deterministic` and `per_shard` blocks either way — and
//!    `SimStats` is their sum.
//! 3. **Deterministic counters**: the report's `deterministic` block is
//!    a pure function of `(seed, config, partition)` — identical across
//!    worker counts, and (for the partition-independent fields) across
//!    schedulers. Its `cross_shard_staged` counts every cross-shard
//!    send exactly once, boot included.
//! 4. **Steal accounting**: every executed shard-window was either
//!    dealt or stolen, and the two shares sum to 1.
//!
//! (A fifth — zero hot-path allocations with telemetry enabled — lives
//! in `tests/hot_path_alloc.rs`, which owns the process-wide counting
//! allocator.)

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, SimStats, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::telemetry::SCHEMA;
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;
use ftgcs_sim::TelemetryReport;
use std::sync::{Arc, Mutex};

const N: usize = 16;

/// A workload touching every counted code path: periodic timers, a
/// cancelled decoy, broadcasts (cross-shard under every partition
/// below), and trace rows.
struct Beater {
    beats: u64,
}

impl Behavior<u64> for Beater {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
        let decoy = ctx.set_timer_at(TrackId::MAIN, 0.7, TimerTag::new(9));
        ctx.cancel_timer(decoy);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        self.beats += 1;
        let token = ctx.rng().next_u64();
        ctx.broadcast(token);
        let next = ctx.track_value(TrackId::MAIN) + 0.01;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: &u64) {
        if msg.is_multiple_of(64) {
            ctx.emit("beat", &[from.index() as f64]);
        }
    }
}

fn config(scheduler: SchedulerKind, telemetry: bool) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(200.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomConstant,
        seed: 11,
        sample_interval: Some(SimDuration::from_millis(50.0)),
        scheduler,
        telemetry,
    }
}

fn build(scheduler: SchedulerKind, telemetry: bool) -> Simulation<u64> {
    build_with(config(scheduler, telemetry), || {
        Box::new(Beater { beats: 0 })
    })
}

fn build_with(
    config: SimConfig,
    mut behavior: impl FnMut() -> Box<dyn Behavior<u64>>,
) -> Simulation<u64> {
    let mut builder = SimBuilder::new(config);
    let ids: Vec<NodeId> = (0..N).map(|_| builder.add_node(behavior())).collect();
    // Ring plus cross chords: every 4-node block talks to the next, so
    // the 4-block partition always has cross-shard traffic.
    for i in 0..N {
        builder.add_edge(ids[i], ids[(i + 1) % N]);
        builder.add_edge(ids[i], ids[(i + 5) % N]);
    }
    builder.build()
}

fn run(scheduler: SchedulerKind, telemetry: bool) -> (Trace, SimStats, TelemetryReport) {
    let mut sim = build(scheduler, telemetry);
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
    let stats = sim.stats();
    let report = sim.telemetry();
    (trace, stats, report)
}

fn quads() -> Partition {
    Partition::by_blocks(N, 4)
}

/// Every scheduler axis the neutrality claim is checked on.
fn axes() -> Vec<(String, SchedulerKind)> {
    let mut axes = vec![("global".to_string(), SchedulerKind::Global)];
    for workers in [1usize, 2, 4, 0] {
        axes.push((
            format!("parallel/quads/w{workers}"),
            SchedulerKind::Parallel {
                partition: quads(),
                workers,
            },
        ));
    }
    axes
}

#[test]
fn enabling_telemetry_leaves_every_trace_byte_identical() {
    for (label, scheduler) in axes() {
        let off = run(scheduler.clone(), false);
        let on = run(scheduler, true);
        assert_eq!(
            on.1, off.1,
            "{label}: work counters changed under telemetry"
        );
        assert!(
            on.0.byte_identical(&off.0),
            "{label}: trace changed under telemetry"
        );
        assert!(!off.2.enabled, "{label}: report must mark telemetry off");
        assert!(on.2.enabled, "{label}: report must mark telemetry on");
        assert!(
            !off.0.rows.is_empty() && !off.0.samples.is_empty(),
            "{label}: comparison is vacuous on an empty trace"
        );
    }
}

#[test]
fn counts_are_kept_without_the_flag() {
    for (label, scheduler) in axes() {
        let (_, stats, off) = run(scheduler.clone(), false);
        let on = run(scheduler, true).2;
        let d = &off.deterministic;
        assert!(
            d.events > 0,
            "{label}: a run without the flag counted nothing"
        );
        assert_eq!(
            *d, on.deterministic,
            "{label}: the flag changed the deterministic block"
        );
        assert_eq!(
            off.per_shard, on.per_shard,
            "{label}: the flag changed the per-shard counts"
        );
        assert_eq!(
            (stats.events, stats.messages, stats.timers),
            (d.events, d.messages_delivered, d.timers_fired),
            "{label}: SimStats and the report disagree"
        );
    }
}

#[test]
fn deterministic_counters_are_identical_across_schedulers_and_workers() {
    let reference = run(SchedulerKind::Global, true).2;
    assert_eq!(
        reference.deterministic.events,
        reference.per_shard.iter().map(|s| s.events).sum::<u64>() + reference.deterministic.samples,
        "per-shard events + samples must roll up to the total"
    );

    let mut parallel_reports = Vec::new();
    for (label, scheduler) in axes().into_iter().skip(1) {
        let report = run(scheduler, true).2;
        // Partition-independent counters match the global queue exactly.
        assert_eq!(
            report.deterministic.events, reference.deterministic.events,
            "{label}: events diverged"
        );
        assert_eq!(
            report.deterministic.samples, reference.deterministic.samples,
            "{label}: samples diverged"
        );
        assert_eq!(
            report.deterministic.timers_set, reference.deterministic.timers_set,
            "{label}: timers_set diverged"
        );
        assert_eq!(
            report.deterministic.timers_fired, reference.deterministic.timers_fired,
            "{label}: timers_fired diverged"
        );
        assert_eq!(
            report.deterministic.timers_cancelled, reference.deterministic.timers_cancelled,
            "{label}: timers_cancelled diverged"
        );
        assert_eq!(
            report.deterministic.messages_delivered, reference.deterministic.messages_delivered,
            "{label}: messages_delivered diverged"
        );
        parallel_reports.push((label, report));
    }

    // The full deterministic block — including windows, planned
    // shard-windows, horizon span, and cross-shard staging — is
    // identical across every worker count of the same partition.
    let (first_label, first) = &parallel_reports[0];
    assert!(
        first.deterministic.cross_shard_staged > 0,
        "{first_label}: workload must stage cross-shard messages"
    );
    assert!(
        first.deterministic.windows > 0 && first.deterministic.planned_shard_windows > 0,
        "{first_label}: parallel run must plan windows"
    );
    assert!(
        first.deterministic.horizon_span_secs > 0.0,
        "{first_label}: planned windows must grant horizon"
    );
    for (label, report) in &parallel_reports[1..] {
        assert_eq!(
            report.deterministic, first.deterministic,
            "{label}: deterministic block diverged from {first_label}"
        );
    }
}

/// Counts, at send time, every send bound for another shard of
/// [`quads`], per destination shard: the independent tally the store's
/// `staged_in` must equal.
struct Stager {
    staged: Arc<Mutex<Vec<u64>>>,
    /// Sends counted from `on_start`.
    at_boot: Arc<Mutex<u64>>,
}

impl Stager {
    /// Broadcasts with a loopback (never cross-shard) and counts the
    /// broadcast's cross-shard half.
    fn volley(&self, ctx: &mut Ctx<'_, u64>) -> u64 {
        let shards = quads();
        let mine = shards.shard_of(ctx.my_id());
        let mut crossing = 0;
        for &to in ctx.neighbors() {
            let theirs = shards.shard_of(to);
            if theirs != mine {
                self.staged.lock().unwrap()[theirs] += 1;
                crossing += 1;
            }
        }
        let token = ctx.rng().next_u64();
        ctx.broadcast_with_loopback(token);
        crossing
    }
}

impl Behavior<u64> for Stager {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        *self.at_boot.lock().unwrap() += self.volley(ctx);
        ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        self.volley(ctx);
        let next = ctx.track_value(TrackId::MAIN) + 0.01;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }

    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: &u64) {}
}

#[test]
fn a_cross_shard_send_is_staged_exactly_once_boot_included() {
    for workers in [1usize, 2] {
        let staged = Arc::new(Mutex::new(vec![0u64; quads().shard_count()]));
        let at_boot = Arc::new(Mutex::new(0));
        let scheduler = SchedulerKind::Parallel {
            partition: quads(),
            workers,
        };
        let mut sim = build_with(config(scheduler, false), || {
            Box::new(Stager {
                staged: Arc::clone(&staged),
                at_boot: Arc::clone(&at_boot),
            })
        });
        sim.run_until_with(SimTime::from_secs(0.2), &mut Trace::new());
        let report = sim.telemetry();
        let staged = staged.lock().unwrap().clone();
        assert!(
            *at_boot.lock().unwrap() > 0,
            "w{workers}: boot must send across shards"
        );
        assert_eq!(
            report.deterministic.cross_shard_staged,
            staged.iter().sum::<u64>(),
            "w{workers}: cross_shard_staged is not the number of cross-shard sends"
        );
        let staged_in: Vec<u64> = report.per_shard.iter().map(|s| s.staged_in).collect();
        assert_eq!(staged_in, staged, "w{workers}: per-shard staged_in");
    }
}

#[test]
fn every_shard_window_is_dealt_or_stolen_and_shares_sum_to_one() {
    for workers in [1usize, 2, 4, 0] {
        let label = format!("parallel/quads/w{workers}");
        let report = run(
            SchedulerKind::Parallel {
                partition: quads(),
                workers,
            },
            true,
        )
        .2;
        let d = &report.diagnostics;
        assert_eq!(
            report.workers,
            Some(d.per_worker.len()),
            "{label}: the reported worker count is the number of executors"
        );
        let executed: u64 = report.per_shard.iter().map(|s| s.windows).sum();
        assert!(executed > 0, "{label}: no shard-windows executed");
        assert_eq!(
            d.shards_dealt + d.shards_stolen,
            executed,
            "{label}: dealt + stolen must account for every executed shard-window"
        );
        assert!(
            (d.dealt_share + d.stolen_share - 1.0).abs() < 1e-9,
            "{label}: shares must sum to 1, got {} + {}",
            d.dealt_share,
            d.stolen_share
        );
        let per_worker_dealt: u64 = d.per_worker.iter().map(|w| w.dealt).sum();
        let per_worker_stolen: u64 = d.per_worker.iter().map(|w| w.stolen).sum();
        assert_eq!(
            (per_worker_dealt, per_worker_stolen),
            (d.shards_dealt, d.shards_stolen),
            "{label}: per-worker claims must roll up to the totals"
        );
    }
}

#[test]
fn a_pin_above_the_shard_count_reports_the_executors_that_ran() {
    // Three shards cannot occupy eight workers: the request clamps to
    // the shard count, and the report says what ran.
    let mut sim = build(
        SchedulerKind::Parallel {
            partition: Partition::by_blocks(N, 6),
            workers: 8,
        },
        true,
    );
    sim.run_until_with(SimTime::from_secs(0.2), &mut Trace::new());
    let report = sim.telemetry();
    assert_eq!(report.shards, 3);
    assert_eq!(report.workers, Some(3));
    assert_eq!(report.diagnostics.per_worker.len(), 3);
}

#[test]
fn a_requested_count_runs_exactly_that_many_workers() {
    // Four workers on eight shards run four threads on any host, one
    // or two cores included: the count is the spec's, not the machine's.
    let (trace, _, report) = run(
        SchedulerKind::Parallel {
            partition: Partition::by_blocks(N, 2),
            workers: 4,
        },
        true,
    );
    assert_eq!(report.shards, 8);
    assert_eq!(report.workers, Some(4));
    assert_eq!(report.diagnostics.per_worker.len(), 4);
    let global = run(SchedulerKind::Global, false).0;
    assert!(
        trace.byte_identical(&global),
        "four workers diverged from the global queue"
    );
}

#[test]
fn report_json_is_stable_and_machine_readable() {
    let report = run(
        SchedulerKind::Parallel {
            partition: quads(),
            workers: 2,
        },
        true,
    )
    .2;
    let json = report.to_json();
    let schema_key = format!("\"schema\": \"{SCHEMA}\"");
    for key in [
        schema_key.as_str(),
        "\"scheduler\": \"parallel\"",
        "\"deterministic\"",
        "\"per_shard\"",
        "\"diagnostics\"",
        "\"per_worker\"",
        "\"wall\"",
        "\"events_per_sec\"",
        "\"alloc\"",
    ] {
        assert!(json.contains(key), "JSON lost key {key}:\n{json}");
    }
}
