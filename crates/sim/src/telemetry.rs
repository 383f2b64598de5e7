//! Runtime introspection for the engine: a strictly observational side
//! channel.
//!
//! The determinism contract of this codebase is that both schedulers —
//! the global queue, and the parallel one on any worker count — dispatch
//! the identical `(time, source, counter)` event order. Telemetry must
//! therefore never feed back into scheduling: everything in this module
//! is write-only from the engine's point of view (relaxed atomic
//! counters, wall-clock phase accumulators) and is read only when a
//! caller asks for a [`TelemetryReport`]. Traces are byte-identical
//! with telemetry on or off, pinned by `tests/telemetry_equivalence.rs`
//! in the `ftgcs` crate.
//!
//! Two kinds of numbers live here, and the report keeps them apart:
//!
//! - **Deterministic counters** — events dispatched, timers
//!   set/fired/cancelled, messages delivered, cross-shard messages
//!   staged at send time, windows planned, horizon spans. These are
//!   pure functions of `(seed, config)` and are identical across
//!   schedulers and worker counts (cross-shard and window counters
//!   within the family that has shards/windows at all).
//! - **Machine-dependent diagnostics** — dealt vs. stolen claim
//!   outcomes (the steal race resolves differently per machine), inbox
//!   merge batching, and all wall-clock phase timings. Only their
//!   invariants are stable (e.g. dealt + stolen shares sum to 1).
//!
//! Wall-clock readings are the one legitimate use of host time in the
//! simulation crates: they never enter the trace. Clippy's
//! `disallowed_types` / `disallowed_methods` (the root `clippy.toml`)
//! still apply here, so each of the four `Instant` sites below carries
//! its own `allow` with a reason — and the opaque [`Stamp`] /
//! [`Stopwatch`] wrappers exist precisely so *callers* (the engine, the
//! parallel executor, the bench driver) never name `Instant` and never
//! need an `allow` of their own.
//!
//! When the simulation is built with telemetry disabled (the default),
//! every recording method is a single predictable branch and the struct
//! holds no per-shard storage: the overhead is a dead `bool` test.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::SimStats;
use crate::node::NodeId;
use crate::shard::QueueStats;

/// Process-wide allocation probe, in the style of the
/// `hot_path_alloc` test's counting allocator.
///
/// The sim crates never install a global allocator themselves (that is
/// a binary's decision); instead, a binary that wraps the system
/// allocator — `xp` does — calls [`note_alloc`] from its `alloc` hook,
/// and every [`TelemetryReport`] snapshots the counter so the report
/// can show how many heap allocations the process performed since the
/// simulation was built. Without such a wrapper the counter stays at
/// zero and the report says so. The counter is process-wide, so it is
/// only meaningful in single-simulation binaries.
pub mod alloc_probe {
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Records one heap allocation. Called from a binary's
    /// `GlobalAlloc` wrapper; must not allocate (it is a single relaxed
    /// `fetch_add`).
    pub fn note_alloc() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total allocations recorded so far.
    #[must_use]
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// A wall-clock phase of the parallel executor's barrier loop (plus the
/// whole-run total), accumulated by [`Telemetry::phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Coordinator barrier work: the window's cap and the deal-out.
    Barrier,
    /// Window execution (workers advancing shards).
    Execute,
    /// Collecting the shards' results and fronts, merging rows back
    /// into global order, plus sample firing.
    Merge,
    /// The whole `run_until` span (all schedulers).
    Total,
}

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::Barrier => 0,
            Phase::Execute => 1,
            Phase::Merge => 2,
            Phase::Total => 3,
        }
    }
}

/// An opaque wall-clock reading handed out by [`Telemetry::stamp`].
///
/// `None` when telemetry is disabled, so the disabled path never
/// touches the host clock. Callers cannot see through it — the only
/// consumer is [`Telemetry::phase`] — which keeps raw `Instant`s
/// confined to this module.
#[derive(Debug, Clone, Copy)]
#[allow(
    clippy::disallowed_types,
    reason = "telemetry side channel: phase timings never enter the trace"
)]
pub struct Stamp(Option<std::time::Instant>);

/// A free-standing wall-clock stopwatch for drivers (bench harness,
/// progress heartbeats). Always on — it is not tied to a simulation's
/// telemetry flag — but still confined to the side channel: nothing it
/// measures can reach a trace or a dispatch decision.
#[derive(Debug, Clone, Copy)]
#[allow(
    clippy::disallowed_types,
    reason = "telemetry side channel: driver stopwatch, host-side only"
)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts a stopwatch at the current host time.
    #[must_use]
    #[allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "telemetry side channel: driver stopwatch, host-side only"
    )]
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds of host time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One shard's counters, padded to a cache line so shards advanced by
/// different workers never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ShardCounters {
    /// Events popped and dispatched on this shard (incl. stale timers).
    events: AtomicU64,
    /// Timers installed by this shard's nodes.
    timers_set: AtomicU64,
    /// Live timers fired.
    timers_fired: AtomicU64,
    /// Timers explicitly cancelled while still pending.
    timers_cancelled: AtomicU64,
    /// Messages delivered to this shard's nodes.
    messages: AtomicU64,
    /// Cross-shard messages staged *to* this shard, counted
    /// deterministically at send time.
    staged_in: AtomicU64,
    /// Entries drained from this shard's parallel arrival inbox
    /// (machine-dependent batching).
    merged_in: AtomicU64,
    /// Windows in which an executor advanced this shard.
    windows: AtomicU64,
}

/// One executor's claim outcomes, cache-line padded like
/// [`ShardCounters`].
#[derive(Debug, Default)]
#[repr(align(64))]
struct WorkerCounters {
    /// Shard windows this executor ran that the balancer dealt to it.
    dealt: AtomicU64,
    /// Shard windows this executor ran via the steal sweep.
    stolen: AtomicU64,
    _pad: [u64; 6],
}

/// Wall-clock phase accumulators, in nanoseconds.
#[derive(Debug, Default)]
struct PhaseNanos([AtomicU64; 4]);

/// The engine's runtime counters: shared read-only (it is all atomics)
/// by every dispatch path via `SimShared`.
///
/// Constructed once per simulation by `SimBuilder::build`. All
/// recording methods are no-ops when the simulation was configured with
/// `telemetry: false`.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// Node → shard map (copied from the partition; all-zero for the
    /// global scheduler). Empty when disabled.
    shard_of: Vec<u32>,
    shards: Vec<ShardCounters>,
    /// Indexed by executor id; executors never outnumber shards.
    workers: Vec<WorkerCounters>,
    /// Engine-global clock samples dispatched.
    samples: AtomicU64,
    /// Parallel barrier windows planned.
    windows: AtomicU64,
    /// Due shard-windows over all planned windows (what the deal-out
    /// distributed; executed claims must sum to the same number).
    planned_shard_windows: AtomicU64,
    /// Sum over due shard-windows of `cap_s − m_s`, in nanoseconds of
    /// simulated time: how much horizon each window granted.
    horizon_span_ns: AtomicU64,
    phase_ns: PhaseNanos,
    /// [`alloc_probe::allocs`] at construction time.
    alloc_base: u64,
}

impl Telemetry {
    /// Builds an active telemetry block for `nshards` shards with the
    /// given node → shard map.
    #[must_use]
    pub(crate) fn new(shard_of: Vec<u32>, nshards: usize) -> Self {
        let nshards = nshards.max(1);
        Telemetry {
            enabled: true,
            shard_of,
            shards: (0..nshards).map(|_| ShardCounters::default()).collect(),
            workers: (0..nshards).map(|_| WorkerCounters::default()).collect(),
            samples: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            planned_shard_windows: AtomicU64::new(0),
            horizon_span_ns: AtomicU64::new(0),
            phase_ns: PhaseNanos::default(),
            alloc_base: alloc_probe::allocs(),
        }
    }

    /// The disabled block: every recording call is a dead branch, no
    /// per-shard storage exists.
    #[must_use]
    pub(crate) fn disabled() -> Self {
        Telemetry {
            enabled: false,
            shard_of: Vec::new(),
            shards: Vec::new(),
            workers: Vec::new(),
            samples: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            planned_shard_windows: AtomicU64::new(0),
            horizon_span_ns: AtomicU64::new(0),
            phase_ns: PhaseNanos::default(),
            alloc_base: 0,
        }
    }

    /// Whether this simulation records telemetry.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn shard(&self, node: NodeId) -> &ShardCounters {
        &self.shards[self.shard_of[node.index()] as usize]
    }

    /// One event popped and dispatched on `node`'s shard.
    #[inline]
    pub(crate) fn event_dispatched(&self, node: NodeId) {
        if self.enabled {
            self.shard(node).events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One engine-global clock sample dispatched.
    #[inline]
    pub(crate) fn sample_dispatched(&self) {
        if self.enabled {
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `node` installed a timer.
    #[inline]
    pub(crate) fn timer_set(&self, node: NodeId) {
        if self.enabled {
            self.shard(node).timers_set.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A live timer fired on `node`.
    #[inline]
    pub(crate) fn timer_fired(&self, node: NodeId) {
        if self.enabled {
            self.shard(node)
                .timers_fired
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `node` cancelled `count` still-pending timers.
    #[inline]
    pub(crate) fn timers_cancelled(&self, node: NodeId, count: u64) {
        if self.enabled && count > 0 {
            self.shard(node)
                .timers_cancelled
                .fetch_add(count, Ordering::Relaxed);
        }
    }

    /// A message was delivered to `node`.
    #[inline]
    pub(crate) fn message_delivered(&self, node: NodeId) {
        if self.enabled {
            self.shard(node).messages.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A message was queued from `from` to `to`; counts toward the
    /// destination shard's `staged_in` iff the send crosses shards.
    /// Deterministic: it is counted at send time, which is part of the
    /// canonical dispatch sequence, not at (path-dependent) merge time.
    #[inline]
    pub(crate) fn message_queued(&self, from: NodeId, to: NodeId) {
        if self.enabled && self.shard_of[from.index()] != self.shard_of[to.index()] {
            self.shard(to).staged_in.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `count` staged arrivals were drained from shard `s`'s parallel
    /// inbox into its heap.
    #[inline]
    pub(crate) fn inbox_merged(&self, s: usize, count: u64) {
        if self.enabled && count > 0 {
            self.shards[s].merged_in.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// An executor advanced shard `s` for one window.
    #[inline]
    pub(crate) fn shard_window(&self, s: usize) {
        if self.enabled {
            self.shards[s].windows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Executor `worker` won the claim on a shard-window; `dealt` says
    /// whether the balancer had planned that shard for this executor
    /// (else it was stolen).
    #[inline]
    pub(crate) fn claim(&self, worker: usize, dealt: bool) {
        if self.enabled {
            let w = &self.workers[worker];
            if dealt {
                w.dealt.fetch_add(1, Ordering::Relaxed);
            } else {
                w.stolen.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The coordinator planned one barrier window with `due_shards` due
    /// shard-windows granting `horizon_span_secs` of summed horizon.
    #[inline]
    pub(crate) fn window_planned(&self, due_shards: u64, horizon_span_secs: f64) {
        if self.enabled {
            self.windows.fetch_add(1, Ordering::Relaxed);
            self.planned_shard_windows
                .fetch_add(due_shards, Ordering::Relaxed);
            // Accumulated in integer nanoseconds so the sum is exact
            // and associative (f64 accumulation order would otherwise
            // vary with nothing to pin it).
            let ns = (horizon_span_secs * 1e9).round();
            if ns.is_finite() && ns > 0.0 {
                // The cast is exact: checked finite and positive above,
                // and at most one lookahead per due shard — far below u64
                // range in nanoseconds.
                self.horizon_span_ns.fetch_add(ns as u64, Ordering::Relaxed);
            }
        }
    }

    /// A wall-clock reading, or an inert stamp when disabled.
    #[inline]
    #[must_use]
    #[allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "telemetry side channel: phase timings never enter the trace"
    )]
    pub(crate) fn stamp(&self) -> Stamp {
        if self.enabled {
            Stamp(Some(std::time::Instant::now()))
        } else {
            Stamp(None)
        }
    }

    /// Accumulates the time since `since` into `phase`.
    #[inline]
    pub(crate) fn phase(&self, phase: Phase, since: Stamp) {
        if let Some(t0) = since.0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.phase_ns.0[phase.index()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    fn phase_secs(&self, phase: Phase) -> f64 {
        let ns = self.phase_ns.0[phase.index()].load(Ordering::Relaxed) as f64;
        ns / 1e9
    }

    /// Assembles the report. The engine passes the run-level context
    /// telemetry cannot see on its own: scheduler identity, run stats,
    /// the shards' queue counters, and the parallel deal record.
    #[must_use]
    pub(crate) fn report(
        &self,
        scheduler: &'static str,
        workers: Option<usize>,
        stats: SimStats,
        queue: Option<QueueStats>,
        planned_events: Option<&[u64]>,
    ) -> TelemetryReport {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let per_shard: Vec<ShardReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, c)| ShardReport {
                shard: s,
                events: load(&c.events),
                timers_set: load(&c.timers_set),
                timers_fired: load(&c.timers_fired),
                timers_cancelled: load(&c.timers_cancelled),
                messages: load(&c.messages),
                staged_in: load(&c.staged_in),
                merged_in: load(&c.merged_in),
                windows: load(&c.windows),
            })
            .collect();
        let sum = |f: fn(&ShardReport) -> u64| per_shard.iter().map(f).sum::<u64>();
        let samples = load(&self.samples);
        let deterministic = DeterministicCounters {
            events: sum(|s| s.events) + samples,
            samples,
            timers_set: sum(|s| s.timers_set),
            timers_fired: sum(|s| s.timers_fired),
            timers_cancelled: sum(|s| s.timers_cancelled),
            messages_delivered: sum(|s| s.messages),
            cross_shard_staged: sum(|s| s.staged_in),
            windows: load(&self.windows),
            planned_shard_windows: load(&self.planned_shard_windows),
            horizon_span_secs: load(&self.horizon_span_ns) as f64 / 1e9,
        };
        let nworkers = workers.unwrap_or(0);
        let per_worker: Vec<WorkerReport> = self
            .workers
            .iter()
            .take(nworkers)
            .enumerate()
            .map(|(w, c)| WorkerReport {
                worker: w,
                dealt: load(&c.dealt),
                stolen: load(&c.stolen),
                planned_events: planned_events.and_then(|p| p.get(w)).copied().unwrap_or(0),
            })
            .collect();
        let dealt = per_worker.iter().map(|w| w.dealt).sum::<u64>();
        let stolen = per_worker.iter().map(|w| w.stolen).sum::<u64>();
        let claims = dealt + stolen;
        let share = |x: u64| {
            if claims == 0 {
                0.0
            } else {
                x as f64 / claims as f64
            }
        };
        let inbox_merged_entries = sum(|s| s.merged_in);
        let q = queue.unwrap_or_default();
        let total_secs = self.phase_secs(Phase::Total);
        let events_per_sec = if total_secs > 0.0 {
            stats.events as f64 / total_secs
        } else {
            0.0
        };
        TelemetryReport {
            enabled: self.enabled,
            scheduler,
            shards: self.shards.len(),
            workers,
            deterministic,
            per_shard,
            diagnostics: Diagnostics {
                shards_dealt: dealt,
                shards_stolen: stolen,
                dealt_share: share(dealt),
                stolen_share: share(stolen),
                inbox_merged_entries,
                queue_buckets_sorted: q.buckets_sorted,
                queue_entries_sorted: q.entries_sorted,
                queue_late_pushes: q.late_pushes,
                queue_key_compares: q.key_compares,
                queue_entries_walked: q.entries_walked,
                per_worker,
            },
            wall: WallClock {
                total_secs,
                barrier_secs: self.phase_secs(Phase::Barrier),
                execute_secs: self.phase_secs(Phase::Execute),
                merge_secs: self.phase_secs(Phase::Merge),
                events_per_sec,
            },
            alloc: AllocReport {
                allocations: alloc_probe::allocs().saturating_sub(self.alloc_base),
            },
        }
    }
}

/// The machine-independent section of a [`TelemetryReport`]: pure
/// functions of `(seed, config)`, identical across schedulers and
/// worker counts (window counters are meaningful for the parallel
/// scheduler, zero elsewhere; cross-shard counters depend only on the
/// partition).
#[derive(Debug, Clone, PartialEq)]
pub struct DeterministicCounters {
    /// Events dispatched (timers + deliveries + samples, incl. stale
    /// timer pops) — matches `SimStats::events`.
    pub events: u64,
    /// Engine-global clock samples dispatched.
    pub samples: u64,
    /// Timers installed by behaviors.
    pub timers_set: u64,
    /// Live timers fired — matches `SimStats::timers`.
    pub timers_fired: u64,
    /// Timers explicitly cancelled while pending.
    pub timers_cancelled: u64,
    /// Messages delivered — matches `SimStats::messages`.
    pub messages_delivered: u64,
    /// Messages queued across a shard boundary, counted at send time.
    pub cross_shard_staged: u64,
    /// Parallel barrier windows planned.
    pub windows: u64,
    /// Due shard-windows summed over all planned windows.
    pub planned_shard_windows: u64,
    /// Summed horizon `cap_s − m_s` granted to due shards, in simulated
    /// seconds.
    pub horizon_span_secs: f64,
}

/// Per-shard counter block of a [`TelemetryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Events dispatched on this shard.
    pub events: u64,
    /// Timers installed by this shard's nodes.
    pub timers_set: u64,
    /// Live timers fired on this shard.
    pub timers_fired: u64,
    /// Timers cancelled by this shard's nodes.
    pub timers_cancelled: u64,
    /// Messages delivered to this shard's nodes.
    pub messages: u64,
    /// Cross-shard messages staged to this shard (send-time count).
    pub staged_in: u64,
    /// Arrival-inbox entries bulk-merged (parallel path batching).
    pub merged_in: u64,
    /// Windows in which an executor advanced this shard.
    pub windows: u64,
}

/// Per-executor claim record of a [`TelemetryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Executor index.
    pub worker: usize,
    /// Shard-windows run that were dealt to this executor.
    pub dealt: u64,
    /// Shard-windows run via the steal sweep.
    pub stolen: u64,
    /// Events the balancer dealt to this executor (the deterministic
    /// balance record, `Simulation::planned_worker_events`).
    pub planned_events: u64,
}

/// The machine-dependent section of a [`TelemetryReport`]: outcomes of
/// the steal race and merge batching. Individually unstable across
/// machines/runs; their invariants (dealt + stolen = executed windows,
/// shares sum to 1) are stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Executed shard-windows won by the executor they were dealt to.
    pub shards_dealt: u64,
    /// Executed shard-windows won by a stealing executor.
    pub shards_stolen: u64,
    /// `shards_dealt / (shards_dealt + shards_stolen)` (0 when no
    /// claims).
    pub dealt_share: f64,
    /// `shards_stolen / (shards_dealt + shards_stolen)`.
    pub stolen_share: f64,
    /// Parallel arrival-inbox entries bulk-merged.
    pub inbox_merged_entries: u64,
    /// Calendar queues (all shards): buckets made current and sorted.
    pub queue_buckets_sorted: u64,
    /// Events in those buckets; ÷ `queue_buckets_sorted` is the mean
    /// bucket at the width the delay bound `d` sets.
    pub queue_entries_sorted: u64,
    /// Pushes into or before the current bucket (O(log b) heap tier).
    pub queue_late_pushes: u64,
    /// Key comparisons in bucket sorts and heap-tier sifts.
    pub queue_key_compares: u64,
    /// List and slab steps that dispatched nothing (events a ring of
    /// years or more ahead passed over, first-bucket scans).
    pub queue_entries_walked: u64,
    /// Per-executor claim records.
    pub per_worker: Vec<WorkerReport>,
}

/// Wall-clock section of a [`TelemetryReport`]. Host-time measurements:
/// machine-dependent by definition, never part of any equivalence
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct WallClock {
    /// Total host seconds spent inside `run_until` calls.
    pub total_secs: f64,
    /// Coordinator barrier work (window cap, deal).
    pub barrier_secs: f64,
    /// Window execution.
    pub execute_secs: f64,
    /// Row merging and sample firing at barriers.
    pub merge_secs: f64,
    /// `events / total_secs` (0 when no wall time was recorded).
    pub events_per_sec: f64,
}

/// Allocation section of a [`TelemetryReport`]; see [`alloc_probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReport {
    /// Heap allocations recorded by the process-wide probe since the
    /// simulation was built (0 unless the binary installs a counting
    /// allocator).
    pub allocations: u64,
}

/// A machine-readable snapshot of everything the engine observed about
/// one run. Obtained from `Simulation::telemetry()`; serialized with
/// [`TelemetryReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Whether the simulation recorded telemetry (a disabled report is
    /// all zeros).
    pub enabled: bool,
    /// `"global"` or `"parallel"`.
    pub scheduler: &'static str,
    /// Shard count (1 for the global scheduler).
    pub shards: usize,
    /// Resolved executor count (`None` on the global scheduler).
    pub workers: Option<usize>,
    /// Machine-independent counters.
    pub deterministic: DeterministicCounters,
    /// Per-shard counter blocks.
    pub per_shard: Vec<ShardReport>,
    /// Machine-dependent diagnostics.
    pub diagnostics: Diagnostics,
    /// Wall-clock phase timings.
    pub wall: WallClock,
    /// Allocation probe snapshot.
    pub alloc: AllocReport,
}

/// Identifies the report schema; bump on breaking shape changes.
pub const SCHEMA: &str = "ftgcs-telemetry-v1";

/// Appends the line `    "key": x` + `tail` for one `f64` field.
fn json_f64(out: &mut Vec<u8>, key: &str, x: f64, tail: &str) {
    let _ = write!(out, "    \"{key}\": ");
    // JSON has no Infinity/NaN; the report never produces them from
    // real runs, but a serializer must not emit invalid output anyway.
    if x.is_finite() {
        crate::numfmt::push_f64(out, x);
    } else {
        out.extend_from_slice(b"null");
    }
    let _ = writeln!(out, "{tail}");
}

impl TelemetryReport {
    /// Serializes the report as stable, hand-rolled JSON (offline, like
    /// `ftgcs_bench::spec` — no serde in this workspace). Keys and
    /// nesting are the `ftgcs-telemetry-v1` schema documented in
    /// EXPERIMENTS.md.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = Vec::new();
        let d = &self.deterministic;
        let g = &self.diagnostics;
        let w = &self.wall;
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"enabled\": {},", self.enabled);
        let _ = writeln!(s, "  \"scheduler\": \"{}\",", self.scheduler);
        let _ = writeln!(s, "  \"shards\": {},", self.shards);
        match self.workers {
            Some(n) => {
                let _ = writeln!(s, "  \"workers\": {n},");
            }
            None => {
                let _ = writeln!(s, "  \"workers\": null,");
            }
        }
        let _ = writeln!(s, "  \"deterministic\": {{");
        let _ = writeln!(s, "    \"events\": {},", d.events);
        let _ = writeln!(s, "    \"samples\": {},", d.samples);
        let _ = writeln!(s, "    \"timers_set\": {},", d.timers_set);
        let _ = writeln!(s, "    \"timers_fired\": {},", d.timers_fired);
        let _ = writeln!(s, "    \"timers_cancelled\": {},", d.timers_cancelled);
        let _ = writeln!(s, "    \"messages_delivered\": {},", d.messages_delivered);
        let _ = writeln!(s, "    \"cross_shard_staged\": {},", d.cross_shard_staged);
        let _ = writeln!(s, "    \"windows\": {},", d.windows);
        let _ = writeln!(
            s,
            "    \"planned_shard_windows\": {},",
            d.planned_shard_windows
        );
        json_f64(&mut s, "horizon_span_secs", d.horizon_span_secs, "");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"per_shard\": [");
        for (i, sh) in self.per_shard.iter().enumerate() {
            let comma = if i + 1 < self.per_shard.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"shard\": {}, \"events\": {}, \"timers_set\": {}, \
                 \"timers_fired\": {}, \"timers_cancelled\": {}, \"messages\": {}, \
                 \"staged_in\": {}, \"merged_in\": {}, \"windows\": {}}}{comma}",
                sh.shard,
                sh.events,
                sh.timers_set,
                sh.timers_fired,
                sh.timers_cancelled,
                sh.messages,
                sh.staged_in,
                sh.merged_in,
                sh.windows
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"diagnostics\": {{");
        let _ = writeln!(s, "    \"shards_dealt\": {},", g.shards_dealt);
        let _ = writeln!(s, "    \"shards_stolen\": {},", g.shards_stolen);
        json_f64(&mut s, "dealt_share", g.dealt_share, ",");
        json_f64(&mut s, "stolen_share", g.stolen_share, ",");
        let _ = writeln!(
            s,
            "    \"inbox_merged_entries\": {},",
            g.inbox_merged_entries
        );
        for (name, count) in [
            ("queue_buckets_sorted", g.queue_buckets_sorted),
            ("queue_entries_sorted", g.queue_entries_sorted),
            ("queue_late_pushes", g.queue_late_pushes),
            ("queue_key_compares", g.queue_key_compares),
            ("queue_entries_walked", g.queue_entries_walked),
        ] {
            let _ = writeln!(s, "    \"{name}\": {count},");
        }
        let _ = writeln!(s, "    \"per_worker\": [");
        for (i, pw) in g.per_worker.iter().enumerate() {
            let comma = if i + 1 < g.per_worker.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"worker\": {}, \"dealt\": {}, \"stolen\": {}, \
                 \"planned_events\": {}}}{comma}",
                pw.worker, pw.dealt, pw.stolen, pw.planned_events
            );
        }
        let _ = writeln!(s, "    ]");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"wall\": {{");
        json_f64(&mut s, "total_secs", w.total_secs, ",");
        json_f64(&mut s, "barrier_secs", w.barrier_secs, ",");
        json_f64(&mut s, "execute_secs", w.execute_secs, ",");
        json_f64(&mut s, "merge_secs", w.merge_secs, ",");
        json_f64(&mut s, "events_per_sec", w.events_per_sec, "");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(
            s,
            "  \"alloc\": {{\"allocations\": {}}}",
            self.alloc.allocations
        );
        let _ = writeln!(s, "}}");
        String::from_utf8(s).expect("the serializer writes only UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_records_nothing_and_allocates_no_blocks() {
        let tel = Telemetry::disabled();
        tel.sample_dispatched();
        tel.window_planned(3, 1.0);
        tel.claim(0, true);
        let r = tel.report("global", None, SimStats::default(), None, None);
        assert!(!r.enabled);
        assert_eq!(r.shards, 0);
        assert_eq!(r.deterministic.events, 0);
        assert_eq!(r.deterministic.windows, 0);
        assert_eq!(r.diagnostics.shards_dealt, 0);
    }

    #[test]
    fn counters_roll_up_per_shard_and_per_worker() {
        // Two shards: nodes 0,1 on shard 0, node 2 on shard 1.
        let tel = Telemetry::new(vec![0, 0, 1], 2);
        tel.event_dispatched(NodeId(0));
        tel.event_dispatched(NodeId(2));
        tel.event_dispatched(NodeId(2));
        tel.sample_dispatched();
        tel.timer_set(NodeId(1));
        tel.timer_fired(NodeId(1));
        tel.timers_cancelled(NodeId(0), 2);
        tel.message_delivered(NodeId(2));
        tel.message_queued(NodeId(0), NodeId(2)); // crosses 0 → 1
        tel.message_queued(NodeId(0), NodeId(1)); // same shard: not staged
        tel.inbox_merged(1, 4);
        tel.shard_window(0);
        tel.shard_window(1);
        tel.claim(0, true);
        tel.claim(1, false);
        tel.window_planned(2, 0.5);

        let stats = SimStats {
            events: 4,
            messages: 1,
            timers: 1,
        };
        let r = tel.report("parallel", Some(2), stats, None, Some(&[10, 20]));
        let d = &r.deterministic;
        assert_eq!(d.events, 4, "3 shard events + 1 sample");
        assert_eq!(d.samples, 1);
        assert_eq!(d.timers_set, 1);
        assert_eq!(d.timers_fired, 1);
        assert_eq!(d.timers_cancelled, 2);
        assert_eq!(d.messages_delivered, 1);
        assert_eq!(d.cross_shard_staged, 1);
        assert_eq!(d.windows, 1);
        assert_eq!(d.planned_shard_windows, 2);
        assert!((d.horizon_span_secs - 0.5).abs() < 1e-9);
        assert_eq!(r.per_shard[0].events, 1);
        assert_eq!(r.per_shard[1].events, 2);
        assert_eq!(r.per_shard[1].staged_in, 1);
        assert_eq!(r.per_shard[1].merged_in, 4);
        assert_eq!(r.diagnostics.shards_dealt, 1);
        assert_eq!(r.diagnostics.shards_stolen, 1);
        assert!((r.diagnostics.dealt_share + r.diagnostics.stolen_share - 1.0).abs() < 1e-12);
        assert_eq!(r.diagnostics.per_worker[1].planned_events, 20);
    }

    #[test]
    fn json_has_the_stable_schema_shape() {
        let tel = Telemetry::new(vec![0], 1);
        tel.event_dispatched(NodeId(0));
        let mut r = tel.report("global", None, SimStats::default(), None, None);
        r.wall.total_secs = 0.1 + 0.2;
        r.wall.events_per_sec = f64::INFINITY;
        let json = r.to_json();
        for key in [
            "    \"total_secs\": 0.30000000000000004,\n",
            "    \"events_per_sec\": null\n",
            "\"schema\": \"ftgcs-telemetry-v1\"",
            "\"deterministic\": {",
            "\"per_shard\": [",
            "\"diagnostics\": {",
            "\"wall\": {",
            "\"events_per_sec\":",
            "\"alloc\": {\"allocations\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — the cheap structural sanity check
        // every hand-rolled serializer owes its consumers.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces:\n{json}");
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "unbalanced brackets:\n{json}"
        );
    }

    #[test]
    fn stopwatch_and_stamps_measure_nonnegative_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
        let tel = Telemetry::new(vec![0], 1);
        let t0 = tel.stamp();
        tel.phase(Phase::Total, t0);
        let r = tel.report("global", None, SimStats::default(), None, None);
        assert!(r.wall.total_secs >= 0.0);
        // Disabled stamps are inert.
        let off = Telemetry::disabled();
        let t1 = off.stamp();
        off.phase(Phase::Total, t1);
        assert_eq!(
            off.report("global", None, SimStats::default(), None, None)
                .wall
                .total_secs,
            0.0
        );
    }
}
