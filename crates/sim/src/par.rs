//! The parallel shard executor.
//!
//! [`SchedulerKind::Parallel`](crate::shard::SchedulerKind) advances the
//! per-shard calendar queues of [`crate::shard`] on several threads
//! between **conservative lookahead barriers**. The model provides the
//! safety argument: every message is delayed by at least `L = d − U > 0`,
//! so an event chain starting at key time `t` in one shard cannot
//! influence another shard before `t + L` — the classic Chandy–Misra
//! argument, executed here truly in parallel.
//!
//! ## One window, one cap
//!
//! At each barrier the coordinator takes the earliest pending key time
//! `T₀` over all shards (queue heads and staged arrivals) and opens a
//! window with the single cap `min(T₀ + L, next sample)`. A shard
//! processes every local event with `time < cap` without consulting
//! anyone: whatever another shard sends during the window was sent at or
//! after `T₀` and lands at or after `T₀ + L`. After the window every
//! pending event is at or past the cap (or past `until`) and every row
//! the window emitted lies strictly below it, so the barrier hands the
//! window's rows to the observer in full — nothing waits for a later
//! barrier. (FT-GCS traffic is dense: every node pulses every round and
//! floods every `d`, so every shard's front sits at the global front and
//! per-shard caps bought 1.2 % fewer windows for a Dijkstra per barrier;
//! EXPERIMENTS.md, "Cost of a window".)
//!
//! ## One scoped call; the caller is worker 0
//!
//! [`Simulation::run_parallel`] is one [`std::thread::scope`]. It spawns
//! `workers − 1` threads that borrow the run's [`Pool`] directly; the
//! calling thread plans each window and then executes it as worker 0
//! through the same body ([`execute_window`]) the spawned workers run, so
//! a `parallel <n>` run works on exactly `n` OS threads and with one
//! worker nothing is spawned at all. No thread outlives the call. Between
//! windows the spawned workers wait at the [`Gate`], spinning briefly and
//! then yielding.
//!
//! ## Deterministic work stealing
//!
//! Shard → worker assignment is dynamic, per window. The coordinator
//! **deals** the shards that have work this window to workers by greedy
//! longest-processing-time packing over per-shard cost estimates
//! (events dispatched in the shard's last active window), then workers
//! **steal**: after finishing their dealt shards they sweep every shard
//! still unclaimed. A per-shard atomic claim makes ownership
//! exactly-once per window, and what the claimant then locks — the
//! shard's [`Task`] — holds the queue *and* the `&mut` cells of its
//! nodes, dealt out once per run: that no two threads touch a node is
//! checked by the compiler. Shards are independent within a window, so
//! *any* executor may run *any* shard and only wall-clock changes. The
//! dealt shares are recorded per worker (the telemetry report's
//! `per_worker[].planned_events`) — a deterministic balance metric,
//! independent of how the steal race resolves on a machine.
//!
//! ## Determinism and byte-identity
//!
//! * **Scheduler-independent keys.** Every event is stamped
//!   `(time, source, per-source counter)` by the node that creates it
//!   ([`crate::engine`]); within a shard, events dispatch in key order,
//!   and per-node state evolution is a pure function of that node's own
//!   event sequence (per-node RNG and delay streams included). Which
//!   thread runs a shard, and in which order shards are claimed, is
//!   invisible to results — pinned by the claim-order property test
//!   below and the stress suites.
//! * **Trace merge.** Executors buffer emitted rows per shard, tagged
//!   with the emitting event's key; the coordinator sorts each window's
//!   rows by key and streams them out at the barrier. The result is
//!   exactly the serial engine's strict in-order stream.
//! * **Barrier-handled samples.** A periodic clock sample reads *every*
//!   node's clock and is no node's event: it never enters a shard, and
//!   the coordinator fires it from the simulation's sample chain
//!   (`Samples`) between windows. The cap never passes the earliest
//!   pending sample time, so when a sample fires every event before it
//!   has run and none at or after it has — the serial loop's order,
//!   where a sample comes before every node event at its instant.
//!
//! Cross-shard sends are batched in a per-executor outbox and flushed
//! into the destination shards' mutex-guarded inboxes once per window
//! (one lock per destination instead of one per message); owners push
//! their inbox into their queue when they next advance. Staged arrivals
//! never land below the cap, so flush/drain ordering across executors is
//! irrelevant — and a shard the coordinator found idle cannot become due
//! mid-window. A window drains its shard through the serial engine's pop
//! (`Shard::pop_if`), held strictly below the cap.
//!
//! The worker count is a pure throughput knob — results are
//! byte-identical on every count — and an explicit count runs exactly
//! that many threads, above the core count too
//! ([`crate::shard::resolve_workers`]); waiting threads yield after a
//! short spin, so an oversubscribed run still makes progress. The
//! rendezvous is hand-rolled because the build environment has no
//! crates.io access.
//!
//! ## Panics
//!
//! A behaviour that panics inside a window keeps its message whichever
//! thread ran its shard: the executor catches the unwind, stores the
//! payload at the gate and finishes the window like any other; the
//! coordinator, once every executor has acknowledged, re-raises the
//! original payload from `run_until_with`. Rows of every completed
//! window have reached the observer by then. The coordinator releases
//! the spawned workers from a drop guard, so neither that unwind nor one
//! out of its own barrier work (an observer, say) can leave a worker
//! waiting while the scope joins it.
//!
//! A lookahead below the f64 ulp of the current simulation time cannot
//! advance any window. The coordinator panics at that barrier, between
//! windows, so every processed row has reached the observer and no
//! worker is mid-window when the drop guard releases it.

use std::any::Any;
use std::cmp::Reverse;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{run_event, NodeCell, Pending, Queue, Samples, SimShared, Simulation};
use crate::observe::Observer;
use crate::shard::{Key, Partition, Shard};
use crate::telemetry::{Claims, EngineCounts, Phase, ShardReport, Telemetry, WorkerReport};
use crate::time::{SimDuration, SimTime};
use crate::trace::Row;

/// The "no pending event" sentinel.
fn time_inf() -> SimTime {
    SimTime::from_secs(f64::INFINITY)
}

/// The event store of both schedulers: one calendar queue per shard
/// (the global scheduler's store has one shard and one worker), the
/// balancer's record and the per-shard counts of parallel work.
pub(crate) struct EventStore<M> {
    pub(crate) shards: Vec<Shard<Pending<M>>>,
    pub(crate) shard_of: Vec<u32>,
    /// Resolved worker count, in `[1, shards]` (see
    /// [`crate::shard::resolve_workers`]).
    pub(crate) workers: usize,
    /// Per-shard cost estimate for the deal-out: events the shard
    /// dispatched in its last active window (halved while idle).
    pub(crate) shard_cost: Vec<u64>,
    /// Cumulative events dealt to each worker by the balancer — the
    /// deterministic load-balance record, a pure function of `(seed,
    /// config, worker count)`.
    pub(crate) planned_events: Vec<u64>,
    /// Per worker: the shard-windows it won, dealt or stolen.
    pub(crate) claims: Vec<Claims>,
    /// Per shard: cross-shard messages staged to it, counted where a
    /// boot outbox or a window's batch is handed to it.
    pub(crate) staged_in: Vec<u64>,
    /// Per shard: what the executor holding its task counted.
    pub(crate) work: Vec<ShardWork>,
}

/// One shard's executor-side counts, written under its task's lock.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardWork {
    /// Staged arrivals drained from its inbox into its queue.
    merged_in: u64,
    /// Windows in which an executor advanced it.
    windows: u64,
}

impl<M> EventStore<M> {
    /// Per-shard queues sized for messages delayed at most `max_delay`.
    pub(crate) fn new(partition: &Partition, workers: usize, max_delay: SimDuration) -> Self {
        let count = partition.shard_count().max(1);
        EventStore {
            shards: (0..count).map(|_| Shard::new(max_delay)).collect(),
            shard_of: partition.shard_map().to_vec(),
            workers,
            shard_cost: vec![0; count],
            planned_events: vec![0; workers],
            claims: (0..workers).map(|_| Claims::default()).collect(),
            staged_in: vec![0; count],
            work: vec![ShardWork::default(); count],
        }
    }

    /// Moves a boot-time outbox into the destination shards' queues,
    /// counting every entry as staged to its shard.
    pub(crate) fn stage(&mut self, outbox: &mut [Batch<M>]) {
        for (s, batch) in outbox.iter_mut().enumerate() {
            self.staged_in[s] += batch.len() as u64;
            for (key, payload) in batch.drain(..) {
                self.shards[s].push(key, payload);
            }
        }
    }

    /// The store's own per-shard counts, to which the report adds its
    /// nodes'.
    pub(crate) fn shard_reports(&self) -> Vec<ShardReport> {
        (self.staged_in.iter().zip(&self.work).enumerate())
            .map(|(shard, (&staged_in, w))| ShardReport {
                shard,
                staged_in,
                merged_in: w.merged_in,
                windows: w.windows,
                ..ShardReport::default()
            })
            .collect()
    }

    /// Each executor's deal and claim record.
    pub(crate) fn worker_reports(&self) -> Vec<WorkerReport> {
        (self.claims.iter().zip(&self.planned_events).enumerate())
            .map(|(w, (claims, &planned))| claims.report(w, planned))
            .collect()
    }
}

impl<M> std::fmt::Debug for EventStore<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventStore(shards={}, workers={})",
            self.shards.len(),
            self.workers
        )
    }
}

/// Cross-shard sends bound for one shard. An executor's *outbox* holds
/// one batch per destination shard.
pub(crate) type Batch<M> = Vec<(Key, Pending<M>)>;

pub(crate) fn new_outbox<M>(nshards: usize) -> Vec<Batch<M>> {
    (0..nshards).map(|_| Vec::new()).collect()
}

/// Staged cross-shard arrivals for one shard, with their earliest time
/// so the barrier's front scan need not walk them. Lives behind a mutex
/// in [`Pool::inboxes`]: any executor may stage into it mid-window.
struct Inbox<'a, M> {
    entries: Batch<M>,
    /// Earliest staged time (`INFINITY` when empty).
    min_time: SimTime,
    /// The shard's staged count in [`EventStore::staged_in`].
    staged_in: &'a mut u64,
}

impl<'a, M> Inbox<'a, M> {
    fn new(staged_in: &'a mut u64) -> Self {
        Inbox {
            entries: Vec::new(),
            min_time: time_inf(),
            staged_in,
        }
    }

    /// Appends one executor's window batch for this shard.
    fn stage_batch(&mut self, batch: &mut Batch<M>) {
        for &(key, _) in batch.iter() {
            self.min_time = self.min_time.min(key.time);
        }
        *self.staged_in += batch.len() as u64;
        self.entries.append(batch);
    }

    /// Moves all staged arrivals into `shard`'s queue, returning how
    /// many entries moved.
    fn drain_into(&mut self, shard: &mut Shard<Pending<M>>) -> u64 {
        let moved = self.entries.len() as u64;
        for (key, payload) in self.entries.drain(..) {
            shard.push(key, payload);
        }
        self.min_time = time_inf();
        moved
    }
}

/// One shard's window state and node cells, owned through its lock by the
/// executor that claimed it for a window, the coordinator between windows.
struct Task<'a, M> {
    shard: &'a mut Shard<Pending<M>>,
    /// The shard's counts in [`EventStore::work`].
    work: &'a mut ShardWork,
    /// The shard's nodes; node `v`'s cell is at [`Pool::local_of`]`[v]`.
    cells: Vec<&'a mut NodeCell<M>>,
    /// The queue's head time as of the shard's last advance.
    head: SimTime,
    /// Relaxed-mode trace rows: `(event key, row)`, in dispatch order.
    rows: Vec<(Key, Row)>,
    /// Events dispatched since the last barrier: the deal's cost model
    /// (the coordinator takes it there).
    events: u64,
    now: SimTime,
}

/// Spin iterations before a waiting thread starts yielding its core.
/// Windows are microseconds apart, so a short spin usually wins; the
/// yield keeps a run with more threads than cores making progress.
const SPINS_BEFORE_YIELD: u32 = 256;

/// Spins, then yields, until `cond` holds.
fn spin_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Coordinator ⇄ spawned-worker rendezvous for one `run_parallel` call.
struct Gate {
    /// Incremented by the coordinator to open a window, and once more
    /// (with `stop` set) to release the workers for good.
    epoch: AtomicU64,
    /// Count of spawned workers finished with the current window.
    done: AtomicUsize,
    stop: AtomicBool,
    /// The first unwind payload an executor caught in a window body;
    /// the coordinator re-raises it once the window is acknowledged.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Gate {
    /// Opens a window. The cap and deal stores all happen before this
    /// call on the coordinator thread, so the `Release` epoch bump
    /// publishes them to every worker's `wait_epoch` `Acquire`.
    fn open(&self) {
        self.done.store(0, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Waits until the epoch moves past `seen`.
    fn wait_epoch(&self, seen: u64) {
        spin_until(|| self.epoch.load(Ordering::Acquire) != seen);
    }

    /// Waits until `workers` spawned workers have acknowledged the
    /// current window. An executor whose window body panicked still
    /// acknowledges, so this always terminates for an open window.
    fn wait_done(&self, workers: usize) {
        spin_until(|| self.done.load(Ordering::Acquire) >= workers);
    }
}

/// Releases the spawned workers when the coordinator leaves the scope —
/// by return or by unwind — so the scope's join never waits on a thread
/// that waits on the gate.
struct ReleaseOnDrop<'a>(&'a Gate);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        // Relaxed: the flag is published by the `Release` bump below,
        // like every other store the epoch carries.
        self.0.stop.store(true, Ordering::Relaxed);
        self.0.epoch.fetch_add(1, Ordering::Release);
    }
}

/// `deal` slot of a shard with no work this window. Has [`TAKEN`] set,
/// so the claim's filter skips it like a shard already claimed.
const IDLE: u32 = u32::MAX;
/// Bit set in a shard's `deal` slot by the executor that claims it.
const TAKEN: u32 = 1 << 31;

/// Everything the executors of one `run_parallel` call share, borrowed
/// by the scoped workers.
struct Pool<'a, M> {
    tasks: Vec<Mutex<Task<'a, M>>>,
    inboxes: Vec<Mutex<Inbox<'a, M>>>,
    /// Per executor (see [`EventStore::claims`]).
    claims: &'a [Claims],
    /// Per shard: the worker the coordinator dealt it to this window, or
    /// [`IDLE`]; the claiming executor sets [`TAKEN`] with a `fetch_or`,
    /// whose atomicity makes window ownership exactly-once (the task's
    /// lock is never contended). Written by the coordinator between windows
    /// (`Relaxed`; published by the gate's `Release` epoch bump, read
    /// after the workers' `Acquire` epoch load). The claim itself is
    /// `Relaxed` too: it arbitrates and publishes nothing — what a
    /// claimed shard's owner reads was ordered by the gate.
    deal: Vec<AtomicU32>,
    /// The window's cap (exclusive), as the `f64` bits of its seconds;
    /// written and published like `deal`.
    cap_bits: AtomicU64,
    gate: Gate,
    shared: &'a SimShared,
    shard_of: &'a [u32],
    /// Per node: its slot in its shard's [`Task::cells`].
    local_of: Vec<u32>,
    until: SimTime,
}

impl<M: Clone + Send> Simulation<M> {
    /// The parallel twin of `run_serial`. Called with the boot phase
    /// already done.
    pub(crate) fn run_parallel(&mut self, until: SimTime, obs: &mut dyn Observer) {
        let Simulation {
            now,
            shared,
            cells,
            store,
            counts,
            telemetry,
            samples,
            ..
        } = self;
        let lookahead = shared.config.delay.min_delay();
        debug_assert!(
            lookahead.is_positive(),
            "parallel scheduler built with zero lookahead"
        );
        let shared: &SimShared = shared;
        let nshards = store.shards.len();
        let nworkers = store.workers;
        debug_assert!((1..=nshards).contains(&nworkers));

        let mut tasks: Vec<Task<'_, M>> = (store.shards.iter_mut().zip(&mut store.work))
            .map(|(shard, work)| Task {
                head: shard.head_key().time,
                shard,
                work,
                cells: Vec::new(),
                rows: Vec::new(),
                events: 0,
                now: *now,
            })
            .collect();
        // Deal every cell to its shard's task (any partition, contiguous
        // or not): this run reaches a cell only through that task's lock.
        let mut local_of = Vec::with_capacity(cells.len());
        for (cell, &s) in cells.iter_mut().zip(&store.shard_of) {
            let owned = &mut tasks[s as usize].cells;
            local_of.push(u32::try_from(owned.len()).expect("node count checked in build"));
            owned.push(cell);
        }

        let pool = Pool {
            tasks: tasks.into_iter().map(Mutex::new).collect(),
            inboxes: (store.staged_in.iter_mut())
                .map(|staged_in| Mutex::new(Inbox::new(staged_in)))
                .collect(),
            claims: &store.claims,
            deal: (0..nshards).map(|_| AtomicU32::new(IDLE)).collect(),
            cap_bits: AtomicU64::new(0),
            gate: Gate {
                epoch: AtomicU64::new(0),
                done: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                panic: Mutex::new(None),
            },
            shared,
            shard_of: &store.shard_of,
            local_of,
            until,
        };
        let mut windows = Windows {
            samples,
            obs,
            counts,
            telemetry,
            lookahead,
            until,
            shard_cost: &mut store.shard_cost,
            planned_events: &mut store.planned_events,
            rows: Vec::new(),
            front: vec![time_inf(); nshards],
            order: Vec::with_capacity(nshards),
            bins: vec![0; nworkers],
        };

        #[allow(
            clippy::disallowed_methods,
            reason = "the parallel executor: workers run behind the lookahead barrier"
        )]
        std::thread::scope(|scope| {
            // Before the first spawn, so that a failed one cannot strand
            // its predecessors either.
            let _release = ReleaseOnDrop(&pool.gate);
            for w in 1..nworkers {
                let pool = &pool;
                std::thread::Builder::new()
                    .name(format!("ftgcs-worker-{w}"))
                    .spawn_scoped(scope, move || worker_loop(w as u32, pool))
                    .expect("spawn parallel worker thread");
            }
            windows.coordinate(&pool);
        });

        // Arrivals staged after a shard's last window (all beyond the
        // final cap) survive into the next run_until_with call.
        let Pool { tasks, inboxes, .. } = pool;
        for (task, inbox) in tasks.into_iter().zip(inboxes) {
            let task = task.into_inner().expect("task poisoned");
            let mut inbox = inbox.into_inner().expect("inbox poisoned");
            task.work.merged_in += inbox.drain_into(task.shard);
        }
        *now = until;
    }
}

/// The coordinator's per-run state: the sample chain, the observer, its
/// counts and phase clock, and the deal-out bookkeeping it owns between
/// windows.
struct Windows<'a> {
    samples: &'a mut Samples,
    obs: &'a mut dyn Observer,
    /// Samples and windows (see [`EngineCounts`]).
    counts: &'a mut EngineCounts,
    telemetry: &'a mut Telemetry,
    lookahead: SimDuration,
    until: SimTime,
    /// Persistent per-shard cost estimates (see [`EventStore`]).
    shard_cost: &'a mut [u64],
    /// Persistent per-worker dealt-event totals (see [`EventStore`]).
    planned_events: &'a mut [u64],
    /// The last window's rows, merged from the shards (scratch; empty
    /// between barriers).
    rows: Vec<(Key, Row)>,
    /// Per-shard earliest pending time at the current barrier.
    front: Vec<SimTime>,
    /// Due shards of the current window, heaviest-cost first.
    order: Vec<u32>,
    /// Per-worker dealt cost this window (LPT packing state); one bin
    /// per executor of this run.
    bins: Vec<u64>,
}

impl Windows<'_> {
    /// The barrier loop: collect the last window's results and scan the
    /// shard fronts, emit the window's rows, fire due samples, set the
    /// cap, deal shards to executors, run the window as worker 0.
    fn coordinate<M: Clone + Send>(&mut self, pool: &Pool<'_, M>) {
        let mut outbox = new_outbox(pool.tasks.len());
        let mut ran_window = false;
        loop {
            // Telemetry phase clock: collect + scan + row emission +
            // samples are the coordinator's "merge" work. Inert stamps
            // when telemetry is off.
            let t_merge = self.telemetry.stamp();
            // Collect the previous window's results — its rows, and the
            // per-shard event counts for the cost model and the deal
            // record — and scan the shard fronts (queue heads and
            // staged arrivals) for the global minimum pending time.
            let mut t_min = time_inf();
            for (s, task) in pool.tasks.iter().enumerate() {
                let mut task = task.lock().expect("task poisoned");
                self.rows.append(&mut task.rows);
                let done = std::mem::take(&mut task.events);
                // (Skipped before the first window so persisted costs
                // are not decayed by stepping runs that open none.)
                if ran_window {
                    self.shard_cost[s] = if done > 0 {
                        done
                    } else {
                        self.shard_cost[s] / 2
                    };
                }
                let slot = pool.deal[s].load(Ordering::Relaxed);
                if slot != IDLE {
                    self.planned_events[(slot & !TAKEN) as usize] += done;
                }
                let staged = pool.inboxes[s].lock().expect("inbox poisoned").min_time;
                self.front[s] = task.head.min(staged);
                t_min = t_min.min(self.front[s]);
            }

            // Every row of the window lies below its cap and every
            // pending event or sample at or past it: the rows are final.
            // Stable sort: a single event's rows share its key and must
            // keep their emission order.
            self.rows.sort_by_key(|&(key, _)| key);
            for (_, row) in self.rows.drain(..) {
                self.obs.on_row(&row);
            }

            // Fire due samples, here at the barrier. The cap never
            // passes the earliest sample time, so every event before it
            // has run and none at or after it has: a sample comes before
            // every node event at its instant, as in the serial loop.
            let due = |ts: &SimTime| *ts <= self.until && *ts <= t_min;
            while let Some(ts) = self.samples.next().filter(due) {
                self.counts.samples += 1;
                // The spawned workers wait at the gate: uncontended locks.
                let clocks = pool.shard_of.iter().zip(&pool.local_of).map(|(&s, &l)| {
                    let mut task = pool.tasks[s as usize].lock().expect("task poisoned");
                    task.cells[l as usize].state.read_clocks(ts)
                });
                let interval = pool.shared.config.sample_interval;
                self.samples.fire(ts, clocks, interval, self.obs);
            }
            self.telemetry.phase(Phase::Merge, t_merge);
            if t_min == time_inf() || t_min > self.until {
                return;
            }

            // Set the cap and deal shards to executors; panics (cleanly,
            // between windows, every processed row already emitted) if
            // the lookahead has vanished below the f64 ulp at this
            // magnitude.
            let t_barrier = self.telemetry.stamp();
            self.plan_window(pool, t_min);
            self.telemetry.phase(Phase::Barrier, t_barrier);
            ran_window = true;
            let t_exec = self.telemetry.stamp();
            pool.gate.open();
            execute_window(0, pool, &mut outbox);
            pool.gate.wait_done(self.bins.len() - 1);
            let panic = pool.gate.panic.lock().expect("gate poisoned").take();
            if let Some(payload) = panic {
                // Every executor has acknowledged this window, so no
                // thread still touches the per-run state this unwinds
                // through.
                resume_unwind(payload);
            }
            self.telemetry.phase(Phase::Execute, t_exec);
        }
    }

    /// Sets this window's cap, checks progress, and deals the due shards
    /// to executors (greedy LPT over cost estimates). All stores are
    /// published to workers by the subsequent gate open.
    ///
    /// # Panics
    ///
    /// If the global front cannot advance: `L` has vanished below the
    /// f64 ulp at this magnitude, and every future window would be
    /// empty. This is a livelock, not a soundness issue; it occurs only
    /// where `t / (d − U)` exceeds about 2⁵³.
    fn plan_window<M>(&mut self, pool: &Pool<'_, M>, t_min: SimTime) {
        let reach = t_min + self.lookahead;
        assert!(
            reach > t_min,
            "lookahead {} s vanishes at t = {t_min} (below f64 resolution): \
             parallel windows cannot advance",
            self.lookahead.as_secs()
        );
        // Never past the next engine sample: samples must dispatch
        // before any event at/after them. (The pending sample is past
        // `t_min` here — the due ones just fired — so the window stays
        // non-empty.)
        let cap = self.samples.next().map_or(reach, |ts| reach.min(ts));
        pool.cap_bits
            .store(cap.as_secs().to_bits(), Ordering::Relaxed);

        let mut horizon_span = 0.0f64;
        self.order.clear();
        for (s, &front) in self.front.iter().enumerate() {
            pool.deal[s].store(IDLE, Ordering::Relaxed);
            if front < cap && front <= self.until {
                horizon_span += cap.as_secs() - front.as_secs();
                self.order.push(s as u32);
            }
        }
        self.counts
            .window_planned(self.order.len() as u64, horizon_span);

        // Deal-out: due shards, heaviest estimated cost first, each to
        // the currently lightest bin (ties to the lowest worker). The
        // assignment is a pure function of simulation state, so the
        // recorded balance is machine-independent; the steal pass only
        // redistributes *execution*, never the record.
        self.order
            .sort_by_key(|&s| (Reverse(self.shard_cost[s as usize]), s));
        self.bins.fill(0);
        for &s in &self.order {
            let mut w = 0usize;
            for b in 1..self.bins.len() {
                if self.bins[b] < self.bins[w] {
                    w = b;
                }
            }
            pool.deal[s as usize].store(w as u32, Ordering::Relaxed);
            self.bins[w] += self.shard_cost[s as usize] + 1;
        }
    }
}

/// One spawned worker: waits at the gate, runs its share of each window,
/// acknowledges; returns when the coordinator leaves the scope.
fn worker_loop<M: Clone + Send>(me: u32, pool: &Pool<'_, M>) {
    let mut outbox = new_outbox(pool.tasks.len());
    let mut seen = 0u64;
    loop {
        pool.gate.wait_epoch(seen);
        seen += 1;
        if pool.gate.stop.load(Ordering::Relaxed) {
            return;
        }
        execute_window(me, pool, &mut outbox);
        // Release pairs with the coordinator's `wait_done` Acquire:
        // everything this window wrote is visible to the barrier.
        pool.gate.done.fetch_add(1, Ordering::Release);
    }
}

/// One executor's share of a window — the coordinator's (as worker 0)
/// and every spawned worker's alike: the shards dealt to it, then every
/// shard still unclaimed, then its outbox.
///
/// A panicking behaviour must neither strand the barrier nor lose its
/// message to whichever thread happened to run it: the unwind is caught
/// here and its payload left at the gate for the coordinator to
/// re-raise. (Unwind safety: the run is being torn down — the poisoned
/// task mutex, which holds that shard's cells too, is never locked
/// again.)
fn execute_window<M: Clone + Send>(me: u32, pool: &Pool<'_, M>, outbox: &mut [Batch<M>]) {
    let window = catch_unwind(AssertUnwindSafe(|| {
        // Pass 1: the shards dealt to this executor (the balanced
        // plan), claimed so a stealing peer cannot double-run them.
        for (s, slot) in pool.deal.iter().enumerate() {
            if slot.load(Ordering::Relaxed) == me {
                try_claim_advance(s, pool, outbox, me);
            }
        }
        // Pass 2: steal — sweep every shard still unclaimed, so an
        // executor that finished its plan early drains stragglers
        // instead of idling at the barrier.
        for s in 0..pool.deal.len() {
            try_claim_advance(s, pool, outbox, me);
        }
        // Deliver the window's batched cross-shard sends: one inbox
        // lock per destination shard instead of one per message.
        for (inbox, batch) in pool.inboxes.iter().zip(outbox.iter_mut()) {
            if !batch.is_empty() {
                inbox.lock().expect("inbox poisoned").stage_batch(batch);
            }
        }
    }));
    if let Err(payload) = window {
        pool.gate
            .panic
            .lock()
            .expect("gate poisoned")
            .get_or_insert(payload);
    }
}

/// Claims shard `s` for this window and advances it; no-ops if the
/// shard is idle or another executor holds the claim. `me` identifies
/// the claiming executor for the dealt/stolen record.
fn try_claim_advance<M: Clone + Send>(
    s: usize,
    pool: &Pool<'_, M>,
    outbox: &mut [Batch<M>],
    me: u32,
) {
    let slot = &pool.deal[s];
    // A pure fast-path filter (keeps the sweep from writing to slots it
    // cannot win); the `fetch_or` below arbitrates.
    if slot.load(Ordering::Relaxed) & TAKEN != 0 {
        return;
    }
    let dealt_to = slot.fetch_or(TAKEN, Ordering::Relaxed);
    if dealt_to & TAKEN != 0 {
        return;
    }
    // Won the claim: record whether this shard was dealt to us or
    // stolen. A pure side-channel write — the claim outcome itself is
    // machine-dependent, the dealt/stolen *sum* is not.
    pool.claims[me as usize].claim(dealt_to == me);
    advance_shard(s, pool, outbox);
}

/// Advances one shard through the window: absorb staged arrivals,
/// pop-and-dispatch every local event below the cap, record the new
/// head.
fn advance_shard<M: Clone + Send>(s: usize, pool: &Pool<'_, M>, outbox: &mut [Batch<M>]) {
    let cap = SimTime::from_secs(f64::from_bits(pool.cap_bits.load(Ordering::Relaxed)));
    let mut task = pool.tasks[s].lock().expect("task poisoned");
    let task = &mut *task;
    task.work.windows += 1;
    task.work.merged_in += pool.inboxes[s]
        .lock()
        .expect("inbox poisoned")
        .drain_into(task.shard);
    // Strictly below the cap: an arrival from another shard may still
    // land exactly on it.
    let due =
        |time: SimTime| time.as_secs() < cap.as_secs() && time.as_secs() <= pool.until.as_secs();
    while let Some((key, pending)) = task.shard.pop_if(due) {
        debug_assert!(key.time >= task.now, "shard time went backwards");
        task.now = key.time;
        task.events += 1;
        let node = pending.owner();
        debug_assert_eq!(
            pool.shard_of[node.index()] as usize,
            s,
            "event on wrong shard"
        );
        run_event(
            &mut *task.cells[pool.local_of[node.index()] as usize],
            node,
            pool.shared,
            Queue {
                local: &mut *task.shard,
                outbox,
                shard_of: pool.shard_of,
                my_shard: s as u32,
            },
            &mut task.rows,
            key,
            pending,
        );
    }
    task.head = task.shard.head_key().time;
}

#[cfg(test)]
mod tests {
    use crate::engine::{Ctx, SimBuilder, SimConfig};
    use crate::node::{Behavior, NodeId, TimerTag, TrackId};
    use crate::shard::{Partition, SchedulerKind};
    use crate::time::{SimDuration, SimTime};
    use crate::trace::Trace;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// A minimal churn workload without shared test state, so the
    /// parallel smoke test needs no synchronization of its own.
    struct Beater;

    impl Behavior<u32> for Beater {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer_at(TrackId::MAIN, 0.005, TimerTag::new(0));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _tag: TimerTag) {
            let token = ctx.rng().next_u32();
            ctx.broadcast(token);
            let next = ctx.track_value(TrackId::MAIN) + 0.005;
            ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
            ctx.emit("beat", &[from.index() as f64, f64::from(*msg % 64)]);
        }
    }

    fn ring_sim(n: usize, scheduler: SchedulerKind) -> crate::engine::Simulation<u32> {
        let config = SimConfig {
            seed: 11,
            sample_interval: Some(SimDuration::from_millis(20.0)),
            scheduler,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(config);
        let ids: Vec<NodeId> = (0..n).map(|_| b.add_node(Box::new(Beater))).collect();
        for i in 0..n {
            b.add_edge(ids[i], ids[(i + 1) % n]);
        }
        b.build()
    }

    /// Four two-node shards on the 8-ring.
    fn paired(workers: usize) -> SchedulerKind {
        SchedulerKind::Parallel {
            partition: Partition::by_blocks(8, 2),
            workers,
        }
    }

    fn run(scheduler: SchedulerKind) -> Vec<u8> {
        let mut sim = ring_sim(8, scheduler);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(0.5), &mut trace);
        sim.run_until_with(SimTime::from_secs(0.75), &mut trace);
        trace.to_bytes()
    }

    #[test]
    fn parallel_matches_global_heap_on_every_worker_count() {
        let reference = run(SchedulerKind::Global);
        assert!(!reference.is_empty());
        for workers in [1usize, 2, 3, 8] {
            let parallel = run(paired(workers));
            assert_eq!(
                parallel, reference,
                "parallel trace diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn pool_survives_many_fine_grained_steps() {
        // Every `run_until_with` is a scope of its own: stepping in many
        // small increments (150 of them, each spawning and joining its
        // worker) must reproduce the one-shot trace exactly.
        let one_shot = run(paired(2));
        let mut sim = ring_sim(8, paired(2));
        let mut trace = Trace::new();
        for _ in 0..150 {
            let next = sim.now() + SimDuration::from_millis(5.0);
            sim.run_until_with(next, &mut trace);
        }
        assert_eq!(
            trace.to_bytes(),
            one_shot,
            "stepping granularity changed the trace"
        );
    }

    #[test]
    fn deal_out_balances_a_ragged_partition() {
        // Hub-and-spoke shard sizes: one 12-node shard plus 20 singles
        // on a 32-ring. Under the old static `shard % workers` split,
        // worker 0 owned the hub shard *plus* every fourth spoke; the
        // deal-out packs the hub alone against spread spokes, so no
        // worker's dealt share exceeds the hub's own ~37.5% by much —
        // and never the 60% the acceptance bar sets.
        let mut assignment = vec![0usize; 12];
        assignment.extend(1..=20usize);
        let mut sim = ring_sim(
            32,
            SchedulerKind::Parallel {
                partition: Partition::from_assignment(assignment),
                workers: 4,
            },
        );
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(0.5), &mut trace);
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
                "worker {w} dealt {share:.2} of all events ({loads:?})"
            );
        }
        // The trace must still match the serial reference exactly.
        let reference = {
            let mut s = ring_sim(32, SchedulerKind::Global);
            let mut reference = Trace::new();
            s.run_until_with(SimTime::from_secs(0.5), &mut reference);
            reference.to_bytes()
        };
        assert_eq!(trace.to_bytes(), reference, "deal-out changed the trace");
    }

    /// A behavior whose second timer lands at a magnitude where the
    /// configured (pathologically small) lookahead is below the f64
    /// ulp, so no parallel window can advance past it.
    struct FarTimer {
        fired: bool,
    }

    impl Behavior<()> for FarTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            // ulp(1e-4) ≈ 1.4e-20 < the one-ulp lookahead below: this
            // first timer still fits in a window and emits a row.
            ctx.set_timer_at(TrackId::MAIN, 1.0e-4, TimerTag::new(0));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _tag: TimerTag) {
            if !self.fired {
                self.fired = true;
                ctx.emit("early", &[1.0]);
                // ulp(0.01) ≈ 1.7e-18 > the lookahead: vanishes here.
                ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
    }

    /// A pathological `d − U` of exactly one ulp of `d = 1 ms`
    /// (≈ 2.2e-19 s): positive, so the builder accepts it, but below
    /// the f64 time resolution everywhere past t ≈ 1e-3.
    fn far_timer_sim(workers: usize) -> crate::engine::Simulation<()> {
        use crate::network::{DelayConfig, DelayDistribution};
        let d = 0.001f64;
        let u = f64::from_bits(d.to_bits() - 1);
        let config = SimConfig {
            rho: 0.0, // exact track == Newtonian time for the test
            delay: DelayConfig::new(
                SimDuration::from_secs(d),
                SimDuration::from_secs(u),
                DelayDistribution::Uniform,
            ),
            sample_interval: None,
            scheduler: SchedulerKind::Parallel {
                partition: Partition::from_assignment(vec![0, 1]),
                workers,
            },
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(config);
        let a = b.add_node(Box::new(FarTimer { fired: false }));
        let z = b.add_node(Box::new(FarTimer { fired: false }));
        b.add_edge(a, z);
        b.build()
    }

    #[test]
    fn vanishing_lookahead_panics_after_the_emitted_rows() {
        let mut sim = far_timer_sim(1);
        let mut trace = Trace::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
        }));
        let payload = outcome.expect_err("lookahead must vanish at t = 0.01");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            message.contains("vanishes at t = 0.010000s"),
            "got: {message}"
        );
        // The rows emitted before the stuck barrier (both nodes' at
        // t = 1e-4) are in the caller's trace.
        assert_eq!(trace.rows.len(), 2, "partial trace lost on the panic");
        assert!(trace.rows.iter().all(|row| row.kind == "early"));
    }

    #[test]
    #[should_panic(expected = "vanishes")]
    fn vanishing_lookahead_panics_with_two_threads() {
        // Two real threads: the panic must come *after* a clean barrier
        // stop — the worker released and joined by the scope — not as a
        // mid-window deadlock, which would hang (and fail) the test.
        let mut sim = far_timer_sim(2);
        sim.run_until_with(SimTime::from_secs(1.0), &mut Trace::new());
    }

    #[test]
    #[should_panic(expected = "behavior exploded")]
    fn worker_panic_propagates_instead_of_hanging() {
        /// Fires at t = 0.01; the one bomb among them panics there.
        struct Fuse {
            bomb: bool,
        }
        impl Behavior<()> for Fuse {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {
                assert!(!self.bomb, "behavior exploded");
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        }
        // Four singleton shards, all due in the bomb's window and all
        // of cost zero, so the deal is round-robin: shard 0 goes to
        // worker 0 (the caller), shard 1 to worker 1 (spawned). Which
        // thread then *runs* the bomb is the steal race's business —
        // the message must not depend on it. A hang here (a worker left
        // waiting while the scope joins it) fails the test by timeout.
        let mut payloads = Vec::new();
        for workers in [2usize, 4] {
            for bomb_shard in [0usize, 1] {
                let mut b = SimBuilder::<()>::new(SimConfig {
                    scheduler: SchedulerKind::Parallel {
                        partition: Partition::by_blocks(4, 1),
                        workers,
                    },
                    ..SimConfig::default()
                });
                for node in 0..4 {
                    b.add_node(Box::new(Fuse {
                        bomb: node == bomb_shard,
                    }));
                }
                let mut sim = b.build();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    sim.run_until_with(SimTime::from_secs(1.0), &mut Trace::new());
                }));
                payloads.push(outcome.expect_err("the bomb must go off"));
            }
        }
        // The payload is the behaviour's own, not a sentence about
        // workers; the last one leaves through `should_panic`.
        for payload in &payloads {
            let message = payload.downcast_ref::<&str>();
            assert!(
                message.is_some_and(|m| m.contains("exploded")),
                "a window replaced the behaviour's panic message"
            );
        }
        resume_unwind(payloads.pop().expect("four runs"));
    }

    #[test]
    #[should_panic(expected = "observer exploded")]
    fn observer_panic_at_a_barrier_releases_the_workers() {
        // The unwind starts on the coordinator, between windows, with a
        // spawned worker waiting at the gate: unless the coordinator
        // releases it on the way out, the scope joins it forever.
        struct Fragile;
        impl crate::observe::Observer for Fragile {
            fn on_row(&mut self, _: &crate::trace::Row) {
                panic!("observer exploded");
            }
        }
        let mut sim = ring_sim(
            8,
            SchedulerKind::Parallel {
                partition: Partition::by_blocks(8, 2),
                workers: 2,
            },
        );
        sim.run_until_with(SimTime::from_secs(0.5), &mut Fragile);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        use crate::network::{DelayConfig, DelayDistribution};
        let config = SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::from_millis(1.0),
                DelayDistribution::Uniform,
            ),
            scheduler: SchedulerKind::Parallel {
                partition: Partition::single(1),
                workers: 2,
            },
            ..SimConfig::default()
        };
        let mut b = SimBuilder::<()>::new(config);
        struct Quiet;
        impl Behavior<()> for Quiet {
            fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {}
        }
        b.add_node(Box::new(Quiet));
        let _ = b.build();
    }

    proptest! {
        /// Any shard claim order yields the identical merged trace:
        /// shards are independent within a window, so ownership order
        /// is invisible to results. A single executor claims the due
        /// shards in index order, so relabelling the shards (`keys`'
        /// ranks) runs the same eight node groups in an arbitrary order
        /// — deterministically, with no hook into the executor. The
        /// racy claim orders of real threads are a subset of these (and
        /// are stress-tested in `tests/shard_stealing.rs`).
        #[test]
        fn claim_order_never_changes_the_trace(
            keys in proptest::collection::vec(0u64..u64::MAX, 8..9),
        ) {
            static REFERENCE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let reference = REFERENCE.get_or_init(|| run(SchedulerKind::Global));
            let labels: Vec<usize> = (0..8)
                .map(|i| (0..8).filter(|&j| (keys[j], j) < (keys[i], i)).count())
                .collect();
            let parallel = run(SchedulerKind::Parallel {
                partition: Partition::from_assignment(labels.clone()),
                workers: 1,
            });
            prop_assert!(
                &parallel == reference,
                "claim order {:?} changed the trace",
                labels
            );
        }
    }
}
