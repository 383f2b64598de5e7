//! Runtime introspection for the engine: a strictly observational side
//! channel.
//!
//! The determinism contract of this codebase is that both schedulers —
//! the global queue, and the parallel one on any worker count — dispatch
//! the identical `(time, source, counter)` event order. Telemetry must
//! therefore never feed back into scheduling: nothing here is read by a
//! dispatch decision, and a [`TelemetryReport`] is assembled only when a
//! caller asks for one. Traces are byte-identical with telemetry on or
//! off, pinned by `tests/telemetry_equivalence.rs`.
//!
//! **Every count is kept once, always, as a plain integer beside the
//! state it describes**, written only by the thread that owns that
//! state: each node counts the events, timers and messages dispatched on
//! it ([`NodeCounts`]); the parallel store counts per shard what crossed
//! into it, what it merged and how many windows advanced it; the
//! coordinator counts samples and windows ([`EngineCounts`]). A report
//! is a grouping of those counts by the store's own shard map, and
//! `Simulation::stats` is their sum. The only atomics are the
//! per-executor claim outcomes ([`Claims`]), where executors race. The
//! `telemetry` flag of `SimConfig` has one job: timing the wall-clock
//! phases.
//!
//! Two kinds of numbers live here, and the report keeps them apart:
//!
//! - **Deterministic counters** — events dispatched, timers
//!   set/fired/cancelled, messages delivered, cross-shard messages
//!   staged, windows planned, horizon spans. These are pure functions of
//!   `(seed, config)` and are identical across schedulers and worker
//!   counts (cross-shard and window counters within the family that has
//!   shards/windows at all).
//! - **Machine-dependent diagnostics** — dealt vs. stolen claim
//!   outcomes (the steal race resolves differently per machine), and all
//!   wall-clock phase timings. Only their invariants are stable (e.g.
//!   dealt + stolen shares sum to 1).
//!
//! Wall-clock readings are the one legitimate use of host time in the
//! simulation crates: they never enter the trace. Clippy's
//! `disallowed_types` / `disallowed_methods` (the root `clippy.toml`)
//! still apply here, so each of the four `Instant` sites below carries
//! its own `allow` with a reason — and the opaque [`Stamp`] /
//! [`Stopwatch`] wrappers exist precisely so *callers* (the engine, the
//! parallel executor, the bench driver) never name `Instant` and never
//! need an `allow` of their own.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// whole-run total), accumulated by `Telemetry::phase`.
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

/// An opaque wall-clock reading handed out by `Telemetry::stamp`.
///
/// `None` when telemetry is disabled, so the disabled path never
/// touches the host clock. Callers cannot see through it — the only
/// consumer is `Telemetry::phase` — which keeps raw `Instant`s
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

/// One node's work, kept in its `NodeState` and written only by the
/// dispatch that holds that state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeCounts {
    /// Events popped and dispatched on this node (incl. stale timers).
    pub(crate) events: u64,
    /// Timers this node installed.
    pub(crate) timers_set: u64,
    /// Live timers fired on this node.
    pub(crate) timers_fired: u64,
    /// Timers this node cancelled while still pending.
    pub(crate) timers_cancelled: u64,
    /// Messages delivered to this node.
    pub(crate) messages: u64,
}

/// What the engine's coordinator counts beside the nodes: the serial
/// loop or the parallel barrier loop, whichever runs, is its only
/// writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EngineCounts {
    /// Engine-global clock samples dispatched.
    pub(crate) samples: u64,
    /// Parallel barrier windows planned.
    pub(crate) windows: u64,
    /// Due shard-windows over all planned windows (what the deal-out
    /// distributed; executed claims must sum to the same number).
    pub(crate) planned_shard_windows: u64,
    /// Sum over due shard-windows of `cap_s − m_s`, in nanoseconds of
    /// simulated time: how much horizon each window granted.
    pub(crate) horizon_span_ns: u64,
}

impl EngineCounts {
    /// One barrier window planned with `due_shards` due shard-windows
    /// granting `horizon_span_secs` of summed horizon.
    pub(crate) fn window_planned(&mut self, due_shards: u64, horizon_span_secs: f64) {
        self.windows += 1;
        self.planned_shard_windows += due_shards;
        // Accumulated in integer nanoseconds so the sum is exact and
        // associative (f64 accumulation order would otherwise vary with
        // nothing to pin it).
        let ns = (horizon_span_secs * 1e9).round();
        if ns.is_finite() && ns > 0.0 {
            // The cast is exact: checked finite and positive above, and
            // at most one lookahead per due shard — far below u64 range
            // in nanoseconds.
            self.horizon_span_ns += ns as u64;
        }
    }
}

/// One executor's claim outcomes, padded to a cache line so executors
/// recording their claims never false-share. The one place executors
/// race, hence the one place counts are atomic.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Claims {
    /// Shard windows this executor ran that the balancer dealt to it.
    dealt: AtomicU64,
    /// Shard windows this executor ran via the steal sweep.
    stolen: AtomicU64,
}

impl Claims {
    /// This executor won the claim on a shard-window; `dealt` says
    /// whether the balancer had planned that shard for it (else it was
    /// stolen).
    pub(crate) fn claim(&self, dealt: bool) {
        let outcome = if dealt { &self.dealt } else { &self.stolen };
        outcome.fetch_add(1, Ordering::Relaxed);
    }

    /// This executor's record, with the events the balancer dealt it.
    pub(crate) fn report(&self, worker: usize, planned_events: u64) -> WorkerReport {
        WorkerReport {
            worker,
            dealt: self.dealt.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            planned_events,
        }
    }
}

/// The wall-clock side of a simulation: the phase accumulators the
/// `telemetry` flag turns on. Owned by the simulation and written only
/// by the thread that drives it (the coordinator).
#[derive(Debug)]
pub(crate) struct Telemetry {
    enabled: bool,
    /// Phase accumulators, in nanoseconds, indexed by `Phase::index`.
    phase_ns: [u64; 4],
    /// [`alloc_probe::allocs`] at construction time.
    alloc_base: u64,
}

impl Telemetry {
    /// Phase timing on or off.
    #[must_use]
    pub(crate) fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            phase_ns: [0; 4],
            alloc_base: alloc_probe::allocs(),
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
        Stamp(self.enabled.then(std::time::Instant::now))
    }

    /// Accumulates the time since `since` into `phase`.
    #[inline]
    pub(crate) fn phase(&mut self, phase: Phase, since: Stamp) {
        if let Some(t0) = since.0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let acc = &mut self.phase_ns[phase.index()];
            *acc = acc.saturating_add(ns);
        }
    }

    fn phase_secs(&self, phase: Phase) -> f64 {
        self.phase_ns[phase.index()] as f64 / 1e9
    }

    /// Assembles the report from the counts the engine grouped: per
    /// shard (node counts summed by the store's shard map, plus the
    /// parallel store's own), the coordinator's, the shards' queue
    /// counters, and the per-executor deal and claim record.
    #[must_use]
    pub(crate) fn report(
        &self,
        scheduler: &'static str,
        workers: Option<usize>,
        per_shard: Vec<ShardReport>,
        engine: EngineCounts,
        queue: QueueStats,
        per_worker: Vec<WorkerReport>,
    ) -> TelemetryReport {
        let sum = |f: fn(&ShardReport) -> u64| per_shard.iter().map(f).sum::<u64>();
        let deterministic = DeterministicCounters {
            events: sum(|s| s.events) + engine.samples,
            samples: engine.samples,
            timers_set: sum(|s| s.timers_set),
            timers_fired: sum(|s| s.timers_fired),
            timers_cancelled: sum(|s| s.timers_cancelled),
            messages_delivered: sum(|s| s.messages),
            cross_shard_staged: sum(|s| s.staged_in),
            windows: engine.windows,
            planned_shard_windows: engine.planned_shard_windows,
            horizon_span_secs: engine.horizon_span_ns as f64 / 1e9,
        };
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
        let total_secs = self.phase_secs(Phase::Total);
        let events_per_sec = if total_secs > 0.0 {
            deterministic.events as f64 / total_secs
        } else {
            0.0
        };
        TelemetryReport {
            enabled: self.enabled,
            scheduler,
            shards: per_shard.len(),
            workers,
            deterministic,
            per_shard,
            diagnostics: Diagnostics {
                shards_dealt: dealt,
                shards_stolen: stolen,
                dealt_share: share(dealt),
                stolen_share: share(stolen),
                inbox_merged_entries,
                queue_buckets_sorted: queue.buckets_sorted,
                queue_entries_sorted: queue.entries_sorted,
                queue_late_pushes: queue.late_pushes,
                queue_key_compares: queue.key_compares,
                queue_entries_walked: queue.entries_walked,
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
    /// Messages queued across a shard boundary.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Cross-shard messages staged to this shard.
    pub staged_in: u64,
    /// Arrival-inbox entries bulk-merged (parallel path batching).
    pub merged_in: u64,
    /// Windows in which an executor advanced this shard.
    pub windows: u64,
}

impl ShardReport {
    /// Adds one of this shard's nodes' counts.
    pub(crate) fn add_node(&mut self, c: &NodeCounts) {
        self.events += c.events;
        self.timers_set += c.timers_set;
        self.timers_fired += c.timers_fired;
        self.timers_cancelled += c.timers_cancelled;
        self.messages += c.messages;
    }
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
    /// Events the balancer dealt to this executor, summed over windows:
    /// the deterministic balance record, a pure function of `(seed,
    /// config, worker count)` however the steal race resolves.
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
    /// Whether the wall-clock phases were timed (the counts are kept
    /// either way; untimed, the `wall` section is all zeros).
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

    /// Shard `s`'s block with only its index set.
    fn shard(s: usize) -> ShardReport {
        ShardReport {
            shard: s,
            ..ShardReport::default()
        }
    }

    /// A report of `per_shard` with no coordinator, queue or worker
    /// counts.
    fn bare(tel: &Telemetry, per_shard: Vec<ShardReport>) -> TelemetryReport {
        tel.report(
            "global",
            None,
            per_shard,
            EngineCounts::default(),
            QueueStats::default(),
            Vec::new(),
        )
    }

    #[test]
    fn an_untimed_report_keeps_every_count() {
        let mut tel = Telemetry::new(false);
        let t0 = tel.stamp();
        tel.phase(Phase::Total, t0);
        let mut s0 = shard(0);
        s0.add_node(&NodeCounts {
            events: 3,
            messages: 2,
            ..NodeCounts::default()
        });
        let r = bare(&tel, vec![s0]);
        assert!(!r.enabled);
        assert_eq!(r.shards, 1);
        assert_eq!(r.deterministic.events, 3);
        assert_eq!(r.deterministic.messages_delivered, 2);
        // Disabled stamps are inert: nothing was timed.
        assert_eq!(r.wall.total_secs, 0.0);
        assert_eq!(r.wall.events_per_sec, 0.0);
    }

    #[test]
    fn counters_roll_up_per_shard_and_per_worker() {
        // Two shards: nodes 0,1 on shard 0, node 2 on shard 1.
        let nodes = [
            NodeCounts {
                events: 1,
                timers_cancelled: 2,
                ..NodeCounts::default()
            },
            NodeCounts {
                timers_set: 1,
                timers_fired: 1,
                ..NodeCounts::default()
            },
            NodeCounts {
                events: 2,
                messages: 1,
                ..NodeCounts::default()
            },
        ];
        let mut per_shard = vec![shard(0), shard(1)];
        for (c, s) in nodes.iter().zip([0, 0, 1]) {
            per_shard[s].add_node(c);
        }
        per_shard[1].staged_in = 1;
        per_shard[1].merged_in = 4;
        let mut engine = EngineCounts {
            samples: 1,
            ..EngineCounts::default()
        };
        engine.window_planned(2, 0.5);
        let claims = [Claims::default(), Claims::default()];
        claims[0].claim(true);
        claims[1].claim(false);
        let per_worker = vec![claims[0].report(0, 10), claims[1].report(1, 20)];

        let r = Telemetry::new(true).report(
            "parallel",
            Some(2),
            per_shard,
            engine,
            QueueStats::default(),
            per_worker,
        );
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
        assert_eq!(r.diagnostics.inbox_merged_entries, 4);
        assert_eq!(r.diagnostics.shards_dealt, 1);
        assert_eq!(r.diagnostics.shards_stolen, 1);
        assert!((r.diagnostics.dealt_share + r.diagnostics.stolen_share - 1.0).abs() < 1e-12);
        assert_eq!(r.diagnostics.per_worker[1].planned_events, 20);
    }

    #[test]
    fn json_has_the_stable_schema_shape() {
        let mut r = bare(&Telemetry::new(true), vec![shard(0)]);
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
        let mut tel = Telemetry::new(true);
        let t0 = tel.stamp();
        tel.phase(Phase::Total, t0);
        let r = bare(&tel, vec![shard(0)]);
        assert!(r.enabled);
        assert!(r.wall.total_secs >= 0.0);
    }
}
