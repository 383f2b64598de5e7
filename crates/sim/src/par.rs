//! The parallel shard executor.
//!
//! [`SchedulerKind::Parallel`](crate::shard::SchedulerKind) advances the
//! per-shard calendar queues of [`crate::shard`] on a pool of worker threads
//! between **conservative lookahead barriers**. The model provides the
//! safety argument: every message is delayed by at least `d − U > 0`, so
//! an event chain starting at key time `t` in one shard cannot influence
//! a neighboring shard before `t + (d − U)` — the classic Chandy–Misra
//! argument, executed here truly in parallel.
//!
//! ## Per-shard horizons
//!
//! Each window gives every shard its *own* cap instead of one global
//! `T₀ + (d − U)`. Let `m_s` be shard `s`'s earliest pending key time
//! (queue head and mutex inbox included) and `L = d − U`.
//! Messages travel only along node adjacency ([`crate::engine::Ctx`]
//! enforces it), so influence propagates along the **shard adjacency
//! graph**: the earliest time an event chain starting *outside* `s` can
//! deliver into `s` is governed by the fixpoint
//!
//! ```text
//! e_s   = min(m_s, min over neighbors s' of (e_s' + L))
//! cap_s = min over neighbors s' of (e_s' + L)      (∞ if no neighbors)
//! ```
//!
//! solved Dijkstra-style per barrier (uniform edge weight `L`). A shard
//! may process every local event with `time < cap_s` without consulting
//! anyone: any cross-shard arrival lands at or after `cap_s`. Note the
//! fixpoint — *not* the one-hop `min(other heads) + L` — is required: an
//! empty neighbor is itself constrained by *its* neighbors, and using
//! its bare head (∞) would let two-hop message bounces land in a
//! shard's already-processed past. The global minimum shard always gets
//! `cap ≥ T₀ + L`, so every window makes progress; far-ahead shards on
//! sparse shard graphs get caps that grow with their hop distance from
//! the frontier. Caps are additionally clamped at the next engine
//! sample time and at a large multiple of `L` (buffer hygiene); both
//! clamps only shrink windows and never affect soundness.
//!
//! ## Deterministic work stealing
//!
//! Shard → worker assignment is dynamic, per window. The coordinator
//! **deals** the shards that have work this window to workers by greedy
//! longest-processing-time packing over per-shard cost estimates
//! (events dispatched in the shard's last active window), then workers
//! **steal**: after finishing their dealt shards they sweep every shard
//! still unclaimed. A per-shard atomic claim flag makes ownership
//! exactly-once per window; shards are independent within a window, so
//! *any* executor may run *any* shard and only wall-clock changes. The
//! dealt shares are recorded per worker
//! ([`Simulation::planned_worker_events`]) — a deterministic balance
//! metric, independent of how the steal race resolves on a given
//! machine.
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
//! * **Watermarked trace merge.** Workers buffer emitted rows per
//!   shard, tagged with the emitting event's key. Because caps differ
//!   per shard, windows no longer partition time — so the coordinator
//!   keeps a pending-row buffer and emits, each barrier, only rows with
//!   `time` strictly below the new global minimum pending time (and
//!   below the next sample): everything earlier can no longer be
//!   preceded by any future event or sample. The remainder flushes at
//!   run end. The result is exactly the serial engine's strict in-order
//!   stream.
//! * **Barrier-handled samples.** Periodic clock samples read *every*
//!   node's clock, so they are executed by the coordinator between
//!   windows. All caps are clamped at the earliest pending sample time,
//!   so when a sample fires no processed event at or after it exists —
//!   and at equal times samples sort before node events
//!   ([`crate::shard`]'s engine tie), matching the serial order.
//!
//! Cross-shard sends are batched in a per-worker outbox and flushed into
//! the destination shards' mutex-guarded inboxes once per window (one
//! lock per destination instead of one per message); owners push their
//! inbox into their queue when they next advance. The horizon floor guarantees staged
//! arrivals never land below the destination's cap, so flush/drain
//! ordering across workers is irrelevant — and a shard skipped as idle
//! cannot become due mid-window. A window drains its shard through the
//! serial engine's pop (`Shard::pop_if`), held strictly below the cap.
//!
//! The worker count is a pure throughput knob — results are
//! byte-identical on every count — so it is clamped to the machine's
//! available parallelism ([`crate::shard::resolve_workers`]), and a
//! resolved count of one skips the pool entirely and runs the same
//! windows inline on the calling thread ([`Simulation::pin_workers`]
//! overrides the resolution for balance measurement and tests). The
//! pool is hand-rolled (a spin/yield/park gate) because the build
//! environment has no crates.io access.
//!
//! **The pool persists across `run_until` calls.** Threads are spawned
//! on the first multi-worker window and stored in the simulation's event
//! store; between calls they park on a condvar, so a driver stepping the
//! simulation in fine increments pays no per-call thread-spawn cost.
//! Each `run_until` publishes a pointer to its per-run window state
//! through the gate; the stepping-granularity equivalence test in
//! `tests/observer_equivalence.rs` pins that stepping never changes the
//! trace.
//!
//! A lookahead below the f64 ulp of the current simulation time cannot
//! advance any window; the coordinator surfaces that as the structured
//! [`RunError::LookaheadVanished`] from [`Simulation::try_run_until`]
//! (with every processed row preserved and the workers parked cleanly)
//! instead of panicking mid-run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::engine::{
    next_sample, run_event, take_sample, EventStore, NodeCell, Pending, QueueKind, RowSink,
    RunError, SimShared, SimStats, Simulation,
};
use crate::node::NodeId;
use crate::observe::Observer;
use crate::shard::{shard_adjacency, Key, Partition, Shard};
use crate::telemetry::Phase;
use crate::time::{SimDuration, SimTime};
use crate::trace::Row;

/// `f64::to_bits` of a time (the lock-free head/cap encoding).
fn time_to_bits(t: SimTime) -> u64 {
    t.as_secs().to_bits()
}

/// Inverse of [`time_to_bits`].
fn time_from_bits(bits: u64) -> SimTime {
    SimTime::from_secs(f64::from_bits(bits))
}

/// The "no pending event" sentinel.
fn time_inf() -> SimTime {
    SimTime::from_secs(f64::INFINITY)
}

/// Buffer-hygiene clamp: a shard's cap never exceeds its own front by
/// more than this many lookaheads, so one barrier's pending-row buffer
/// stays bounded even for degenerate shard graphs (e.g. a single shard,
/// whose horizon is otherwise infinite). Far larger than any hop
/// distance a real partition produces, so it never costs parallelism.
const HORIZON_WINDOW_FACTOR: f64 = 1024.0;

/// The parallel executor's event store: per-shard queues plus the sample
/// chain (samples never enter a shard — they are engine-global) and the
/// persistent worker pool.
pub(crate) struct ParQueue<M> {
    pub(crate) shards: Vec<Shard<Pending<M>>>,
    pub(crate) shard_of: Vec<u32>,
    /// Resolved worker count (see [`crate::shard::resolve_workers`] and
    /// [`Simulation::pin_workers`]).
    pub(crate) workers: usize,
    /// Pending engine-global sample times (usually one; transiently more
    /// after `set_sample_interval` toggles, mirroring the serial queue).
    pub(crate) pending_samples: Vec<SimTime>,
    /// Worker threads, spawned lazily on the first multi-worker
    /// `run_until` and kept alive (parked between runs) until the
    /// simulation is dropped.
    pub(crate) pool: Option<PoolHandle>,
    /// Inter-shard adjacency (the horizon graph), built once on the
    /// first parallel window.
    pub(crate) shard_graph: Option<Vec<Vec<u32>>>,
    /// Per-shard cost estimate for the deal-out: events the shard
    /// dispatched in its last active window (halved while idle).
    pub(crate) shard_cost: Vec<u64>,
    /// Cumulative events dealt to each worker by the balancer — the
    /// deterministic load-balance record behind
    /// [`Simulation::planned_worker_events`].
    pub(crate) planned_events: Vec<u64>,
    /// Test-only knob: permute the inline path's shard claim order per
    /// window with this seed. Results must be invariant (pinned by the
    /// claim-order property test).
    pub(crate) claim_probe: Option<u64>,
}

impl<M> ParQueue<M> {
    pub(crate) fn new(partition: &Partition, workers: usize) -> Self {
        let count = partition.shard_count().max(1);
        ParQueue {
            shards: (0..count).map(|_| Shard::new()).collect(),
            shard_of: partition.shard_map().to_vec(),
            workers,
            pending_samples: Vec::new(),
            pool: None,
            shard_graph: None,
            shard_cost: vec![0; count],
            planned_events: Vec::new(),
            claim_probe: None,
        }
    }

    /// Serial-phase push (boot / between runs): straight into the owning
    /// shard's queue.
    pub(crate) fn push(&mut self, dst: NodeId, key: Key, payload: Pending<M>) {
        let shard = self.shard_of[dst.index()] as usize;
        self.shards[shard].push(key, payload);
    }
}

impl<M> std::fmt::Debug for ParQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParQueue(shards={}, workers={}, pool={})",
            self.shards.len(),
            self.workers,
            if self.pool.is_some() { "live" } else { "-" }
        )
    }
}

/// Staged cross-shard arrivals for one shard, with their running
/// minimum key so barrier head-scans are O(1).
struct InboxBuf<M> {
    entries: Vec<(Key, Pending<M>)>,
    min: Key,
}

/// One shard's arrival inbox: the buffer itself behind a mutex, plus a
/// lock-free mirror of the staged minimum's *time* so front scans need
/// no locks at all (matching the `heads` array).
pub(crate) struct Inbox<M> {
    buf: Mutex<InboxBuf<M>>,
    /// `f64::to_bits` of `buf.min.time` (`INFINITY` when empty).
    /// Written only while holding `buf`'s lock, with `Release`; read
    /// with `Acquire` by the coordinator's barrier scan and by workers'
    /// steal-pass due checks. The coordinator-vs-worker visibility also
    /// rides the gate's release/acquire edges (see [`Pool::heads`] for
    /// the pinned argument); the explicit edge covers the *mid-window*
    /// worker-vs-worker reads that stealing introduced. A momentarily
    /// stale value is harmless either way: due checks are a fast-path
    /// filter, and the claim CAS / inbox mutex arbitrate for real.
    min_time_bits: AtomicU64,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox {
            buf: Mutex::new(InboxBuf {
                entries: Vec::new(),
                min: Key::max(),
            }),
            min_time_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// Appends one worker's window batch for this shard.
    fn stage_batch(&self, batch: &mut Vec<(Key, Pending<M>)>) {
        let mut buf = self.buf.lock().expect("inbox poisoned");
        for &(key, _) in batch.iter() {
            buf.min = buf.min.min(key);
        }
        let min_bits = buf.min.time.as_secs().to_bits();
        buf.entries.append(batch);
        self.min_time_bits.store(min_bits, Ordering::Release);
    }

    /// Moves all staged arrivals into `shard`'s queue, returning how
    /// many entries moved (telemetry: arrival batching).
    fn drain_into(&self, shard: &mut Shard<Pending<M>>) -> usize {
        let mut guard = self.buf.lock().expect("inbox poisoned");
        let buf = &mut *guard;
        let moved = buf.entries.len();
        if moved == 0 {
            return 0;
        }
        for (key, payload) in buf.entries.drain(..) {
            shard.push(key, payload);
        }
        buf.min = Key::max();
        self.min_time_bits
            .store(f64::INFINITY.to_bits(), Ordering::Release);
        moved
    }

    /// The staged minimum's time, lock-free (front scans only).
    fn min_time(&self) -> SimTime {
        SimTime::from_secs(f64::from_bits(self.min_time_bits.load(Ordering::Acquire)))
    }
}

/// One shard's window-processing state, owned by the executor that
/// claimed it during a window and by the coordinator between windows.
struct Task<M> {
    shard: Shard<Pending<M>>,
    /// Relaxed-mode trace rows: `(event key, row)`, in dispatch order.
    rows: Vec<(Key, Row)>,
    stats: SimStats,
    now: SimTime,
}

/// Raw-pointer view of the node cells, shared across the pool.
///
/// # Safety contract
///
/// Ownership of a cell is **dynamic, per window, per shard**: an
/// executor may dereference the cells of shard `s`'s nodes during a
/// window only if it *claimed* `s` for that window — either by winning
/// the `claims[s]` compare-exchange (pooled path) or by being the sole
/// inline executor. The partition maps each node to exactly one shard
/// and the claim flag flips `false → true` at most once per window, so
/// concurrent `&mut` accesses are disjoint. Happens-before for a cell
/// handed from window `k`'s owner to window `k+1`'s owner is the gate
/// chain: owner's `done.fetch_add(Release)` → coordinator's
/// `wait_done` `Acquire` loads → coordinator's claim reset and
/// `epoch.fetch_add(Release)` → new owner's `wait_epoch` `Acquire` →
/// new owner's claim CAS. Between windows (workers parked at the gate),
/// only the coordinator touches cells.
struct Cells<'a, M> {
    ptr: *mut NodeCell<M>,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [NodeCell<M>]>,
}

impl<M> Clone for Cells<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Cells<'_, M> {}

// SAFETY: sending a `Cells` to a worker moves only the raw pointer; the
// pointees (`NodeCell<M>`, which embed the boxed `Behavior` and staged
// `M` payloads) cross the thread boundary with it, hence `M: Send`.
// Which thread may then *dereference* which cell is governed by the
// struct-level claim contract above.
unsafe impl<M: Send> Send for Cells<'_, M> {}
// SAFETY: `&Cells` exposes no `&`-reachable cell data — every access
// goes through the `unsafe fn cell`/`all` below, whose callers must
// hold exclusive logical ownership (a window claim, or the coordinator
// between windows) per the struct-level contract, so sharing the handle
// itself between threads is sound (`M: Send`, not `M: Sync`, is the
// right bound: cells are handed off, never shared).
unsafe impl<M: Send> Sync for Cells<'_, M> {}

impl<'a, M> Cells<'a, M> {
    fn new(cells: &'a mut [NodeCell<M>]) -> Self {
        Cells {
            ptr: cells.as_mut_ptr(),
            len: cells.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// One node's cell.
    ///
    /// # Safety
    ///
    /// The caller must hold exclusive logical ownership of node `idx`
    /// per the struct-level contract: either it claimed `idx`'s shard
    /// for the current window (claim CAS won, or sole inline executor),
    /// or it is the coordinator between windows.
    #[allow(clippy::mut_from_ref)] // the &mut really is derived from a raw pointer, not from &self
    unsafe fn cell(&self, idx: usize) -> &mut NodeCell<M> {
        debug_assert!(idx < self.len);
        // SAFETY: `ptr..ptr+len` is a live `&mut [NodeCell<M>]` borrow
        // held exclusively by this `Cells` (constructor invariant), so
        // `idx < len` stays in bounds; uniqueness of the returned &mut
        // is the caller's obligation above.
        unsafe { &mut *self.ptr.add(idx) }
    }

    /// The whole slice.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread touching *any* cell — in
    /// practice, the coordinator between windows (workers parked at
    /// the gate).
    #[allow(clippy::mut_from_ref)] // the &mut really is derived from a raw pointer, not from &self
    unsafe fn all(&self) -> &mut [NodeCell<M>] {
        // SAFETY: `ptr` and `len` come verbatim from the exclusive
        // slice borrow captured at construction, which outlives `self`
        // via the PhantomData lifetime; exclusivity is the caller's
        // obligation above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

/// Coordinator ⇄ worker rendezvous: a sense-counting gate that spins,
/// then yields, then parks on a condvar. The parking tier is what lets
/// the pool outlive a `run_until` call without burning CPU between
/// calls.
struct Gate {
    /// Incremented by the coordinator to open a window (or to release
    /// workers into shutdown when `stop` is set).
    epoch: AtomicU64,
    /// Count of workers finished with the current window.
    done: AtomicUsize,
    stop: AtomicBool,
    /// Set by a worker whose window processing panicked (it still
    /// counts itself done so the coordinator can notice and propagate
    /// instead of spinning forever).
    panicked: AtomicBool,
    /// Pointer to the current run's [`Pool`] window state, type-erased.
    /// Published before the run's first window, cleared after its last;
    /// workers dereference it only between an epoch open and their done
    /// acknowledgement.
    ctx: AtomicPtr<u8>,
    /// Condvar tier of the epoch wait (workers park here between runs).
    /// `open`/`shut_down` notify under the lock, so a worker that
    /// decided to wait while holding it cannot miss the wakeup.
    lock: Mutex<()>,
    parked: Condvar,
}

/// Yield iterations between the spin tier and the condvar tier of an
/// epoch wait. Within a run, the next window opens within microseconds,
/// so workers almost never reach the condvar; between runs they park
/// quickly instead of busy-yielding until the next `run_until` call.
const YIELDS_BEFORE_PARK: u32 = 64;

impl Gate {
    fn new() -> Self {
        Gate {
            epoch: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            ctx: AtomicPtr::new(std::ptr::null_mut()),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// Opens a window. The per-shard caps, claims, and deal stores all
    /// happen before this call on the coordinator thread, so the
    /// `Release` epoch bump publishes them to every worker's
    /// `wait_epoch` `Acquire`.
    fn open(&self) {
        self.done.store(0, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        // Wake any parked workers. Taking the lock orders this bump
        // against a worker's decision to wait: the worker re-checks the
        // epoch while holding the lock, so either it sees the new epoch
        // or it is already waiting when the notification fires.
        let _guard = self.lock.lock().expect("gate poisoned");
        self.parked.notify_all();
    }

    fn shut_down(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        let _guard = self.lock.lock().expect("gate poisoned");
        self.parked.notify_all();
    }

    /// Waits until the epoch differs from `seen`: spin, then yield, then
    /// park.
    fn wait_epoch(&self, seen: u64, spin_limit: u32) {
        let mut spins = 0u32;
        loop {
            if self.epoch.load(Ordering::Acquire) != seen {
                return;
            }
            if spins < spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else if spins < spin_limit + YIELDS_BEFORE_PARK {
                spins += 1;
                std::thread::yield_now();
            } else {
                let mut guard = self.lock.lock().expect("gate poisoned");
                while self.epoch.load(Ordering::Acquire) == seen {
                    guard = self.parked.wait(guard).expect("gate poisoned");
                }
                return;
            }
        }
    }

    /// Waits until every worker has acknowledged the current window.
    /// A panicking worker counts itself done before unwinding, so this
    /// always terminates for an open window.
    fn wait_done(&self, workers: usize, spin_limit: u32) {
        spin_until(spin_limit, || self.done.load(Ordering::Acquire) >= workers);
    }
}

/// The persistent worker pool: the shared gate plus the OS threads.
/// Stored inside the simulation's event store; dropped (and joined)
/// with it.
pub(crate) struct PoolHandle {
    gate: Arc<Gate>,
    /// Worker count the threads were spawned with (later mutations of
    /// the requested count are ignored — the pool is fixed at spawn).
    workers: usize,
    /// Spin budget matched to the core count at spawn time.
    spin_limit: u32,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.gate.shut_down();
        for handle in self.handles.drain(..) {
            // A worker that panicked mid-run already delivered its
            // payload via the coordinator's propagation; the join
            // result is informational here.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolHandle(workers={})", self.workers)
    }
}

/// Spins up to `spin_limit` iterations, then yields. Windows are
/// microseconds apart, so a short spin usually wins — but when the
/// machine is oversubscribed (pinned worker counts above the core
/// count) the caller passes `0` and every wait yields immediately.
fn spin_until(spin_limit: u32, cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        if spins < spin_limit {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Index and value of the earliest pending sample, if any.
fn earliest_sample(pending: &[SimTime]) -> Option<(usize, SimTime)> {
    pending
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.cmp(&b.1))
}

/// Everything a window executor (worker thread or the inline path)
/// needs, bundled to keep signatures manageable.
struct Pool<'a, M> {
    tasks: &'a [Mutex<Task<M>>],
    inboxes: &'a [Inbox<M>],
    /// Post-window `head_key().time` bits per shard, published with
    /// `Release` by the claiming executor and read with `Acquire` by
    /// the coordinator's barrier scan and by other workers' steal-pass
    /// due checks. For the coordinator the gate edge alone would
    /// suffice (worker `done` `Release` → coordinator `wait_done`
    /// `Acquire` happens-before the scan), but the mid-window
    /// worker-vs-worker reads that stealing introduced have no gate
    /// edge — the explicit Release/Acquire pairing keeps every read of
    /// a head ordered after the advance that produced it. A stale head
    /// in a due check is still harmless: the claim CAS (an RMW, which
    /// always sees the latest claim value) arbitrates ownership.
    heads: &'a [AtomicU64],
    /// Per-shard window caps (exclusive, `f64::to_bits` of seconds),
    /// written by the coordinator between windows (`Relaxed`; published
    /// by the gate's `Release` epoch bump, read after the workers'
    /// `Acquire` epoch load).
    caps: &'a [AtomicU64],
    /// Per-shard claim flags, reset `false` by the coordinator between
    /// windows. The `false → true` compare-exchange is the claim: its
    /// atomicity makes window ownership exactly-once (see [`Cells`]).
    claims: &'a [AtomicBool],
    /// Per-shard dealt worker (`u32::MAX` = not dealt), written by the
    /// coordinator between windows like `caps`.
    planned: &'a [AtomicU32],
    cells: Cells<'a, M>,
    shared: &'a SimShared,
    shard_of: &'a [u32],
    until: SimTime,
}

impl<M> Clone for Pool<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Pool<'_, M> {}

impl<M> Pool<'_, M> {
    /// Shard `s`'s cap for the current window.
    fn cap(&self, s: usize) -> SimTime {
        time_from_bits(self.caps[s].load(Ordering::Relaxed))
    }
}

/// Reconstitutes the per-run window state from the gate's type-erased
/// context pointer.
///
/// # Safety
///
/// `ptr` must be the pointer published by the current run's coordinator,
/// and the caller must be inside the open-window span of the gate
/// protocol (the coordinator keeps the pointee alive until every worker
/// has acknowledged the window).
unsafe fn ctx_pool<'x, M>(ptr: *const u8) -> &'x Pool<'x, M> {
    debug_assert!(!ptr.is_null(), "window opened without a published ctx");
    // SAFETY: the coordinator stored this pointer from a live
    // `&Pool<M>` of the same monomorphization (workers and coordinator
    // share the simulation's single `M`) before opening the window, and
    // the caller contract pins the dereference inside the span where
    // the pointee is kept alive; `Pool` is `Copy + Sync`, so a shared
    // reference from another thread is sound. The `Ordering::Acquire`
    // load that produced `ptr` pairs with the coordinator's `Release`
    // store, making the pointee's initialization visible.
    unsafe { &*ptr.cast::<Pool<'x, M>>() }
}

impl<M> Simulation<M> {
    /// Overrides the parallel scheduler's resolved worker count.
    ///
    /// [`crate::shard::resolve_workers`] clamps the requested count to
    /// the machine's available parallelism at build time; this knob
    /// replaces that resolution outright (floored at 1), which is
    /// useful for pinning the pooled code path in tests and for
    /// measuring the deal-out balance ([`Simulation::planned_worker_events`])
    /// at a fixed logical worker count on any machine. Thread count
    /// never changes results — traces stay byte-identical. Must be
    /// called before the first parallel window: once the pool has
    /// spawned, the spawn-time count is fixed and later calls are
    /// ignored. No-op on the global scheduler.
    pub fn pin_workers(&mut self, workers: usize) {
        if let EventStore::Parallel(pq) = &mut self.store {
            pq.workers = workers.max(1);
        }
    }

    /// Cumulative per-worker totals of events *dealt* by the parallel
    /// executor's window balancer, or `None` on the global scheduler.
    ///
    /// Entry `w` sums, over all windows so far, the events dispatched
    /// by the shards the coordinator dealt to worker `w` in that
    /// window. This is the scheduler's load-balance record: it is a
    /// pure function of `(seed, config, worker count)` — unlike the
    /// per-thread *execution* shares, which depend on how the steal
    /// race resolves on a given machine — so benches and tests can
    /// assert on it deterministically.
    #[must_use]
    pub fn planned_worker_events(&self) -> Option<&[u64]> {
        match &self.store {
            EventStore::Parallel(pq) => Some(&pq.planned_events),
            EventStore::Serial(_) => None,
        }
    }
}

impl<M: Clone + Send + 'static> Simulation<M> {
    /// The parallel twin of the serial `run_until` loop. Called with the
    /// boot phase already done.
    pub(crate) fn run_parallel(
        &mut self,
        until: SimTime,
        obs: &mut dyn Observer,
    ) -> Result<(), RunError> {
        let Simulation {
            now,
            shared,
            cells,
            store,
            stats,
            ..
        } = self;
        let EventStore::Parallel(pq) = store else {
            unreachable!("run_parallel on a serial store");
        };
        let lookahead = shared.config.delay.min_delay();
        debug_assert!(
            lookahead.is_positive(),
            "parallel scheduler built with zero lookahead"
        );
        let nshards = pq.shards.len();
        let shared: &SimShared = shared;

        // Effective executor count: the resolved request, except that a
        // pool spawned by an earlier call fixes it for the simulation's
        // lifetime.
        let mut nworkers = pq.workers.clamp(1, nshards);
        let mut gate_bits: Option<(Arc<Gate>, usize, u32)> = None;
        if nworkers > 1 {
            let handle = pq
                .pool
                .get_or_insert_with(|| spawn_pool::<M>(nworkers, nshards));
            assert!(
                !handle.gate.panicked.load(Ordering::Relaxed),
                "a parallel worker died in a previous run; the pool cannot be reused"
            );
            nworkers = handle.workers;
            gate_bits = Some((Arc::clone(&handle.gate), handle.workers, handle.spin_limit));
        }
        if pq.shard_graph.is_none() {
            pq.shard_graph = Some(shard_adjacency(&shared.adjacency, &pq.shard_of, nshards));
        }
        if pq.planned_events.len() < nworkers {
            pq.planned_events.resize(nworkers, 0);
        }
        let claim_probe = pq.claim_probe;

        let tasks: Vec<Mutex<Task<M>>> = pq
            .shards
            .drain(..)
            .map(|shard| {
                Mutex::new(Task {
                    shard,
                    rows: Vec::new(),
                    stats: SimStats::default(),
                    now: *now,
                })
            })
            .collect();
        let inboxes: Vec<Inbox<M>> = (0..nshards).map(|_| Inbox::new()).collect();
        let heads: Vec<AtomicU64> = tasks
            .iter()
            .map(|t| {
                let time = t.lock().expect("task poisoned").shard.head_key().time;
                AtomicU64::new(time.as_secs().to_bits())
            })
            .collect();
        let caps: Vec<AtomicU64> = (0..nshards)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        let claims: Vec<AtomicBool> = (0..nshards).map(|_| AtomicBool::new(true)).collect();
        let planned: Vec<AtomicU32> = (0..nshards).map(|_| AtomicU32::new(u32::MAX)).collect();
        let pool = Pool {
            tasks: &tasks,
            inboxes: &inboxes,
            heads: &heads,
            caps: &caps,
            claims: &claims,
            planned: &planned,
            cells: Cells::new(cells),
            shared,
            shard_of: &pq.shard_of,
            until,
        };
        let mut windows = Windows {
            pending_samples: &mut pq.pending_samples,
            obs,
            stats,
            lookahead,
            until,
            graph: pq.shard_graph.as_deref().expect("graph built above"),
            nworkers,
            shard_cost: &mut pq.shard_cost,
            planned_events: &mut pq.planned_events,
            pending_rows: Vec::new(),
            m: vec![time_inf(); nshards],
            e: Vec::with_capacity(nshards),
            dijkstra: BinaryHeap::new(),
            order: Vec::with_capacity(nshards),
            bins: vec![0; nworkers],
            planned_of: vec![u32::MAX; nshards],
            prev_events: vec![0; nshards],
        };

        let result = if let Some((gate, workers, spin_limit)) = gate_bits {
            // Publish this run's window state. Workers read the pointer
            // only between an epoch open and their done acknowledgement,
            // and the coordinator keeps `pool` (and everything it
            // borrows) alive until after the final wait_done — so the
            // lifetime-erased dereference in the workers stays inside
            // the pointee's real lifetime.
            gate.ctx.store(
                std::ptr::from_ref(&pool).cast::<u8>().cast_mut(),
                Ordering::Release,
            );
            let result = windows.coordinate(pool, || {
                gate.open();
                gate.wait_done(workers, spin_limit);
                if gate.panicked.load(Ordering::Relaxed) {
                    // Every worker has acknowledged this window (the
                    // panicking one counts itself done before
                    // unwinding), so no thread still touches the
                    // per-run state we are about to unwind. Survivors
                    // park at the gate; the pool is poisoned and the
                    // next run (or drop) shuts it down.
                    panic!("a parallel worker panicked during a lookahead window");
                }
            });
            gate.ctx.store(std::ptr::null_mut(), Ordering::Release);
            result
        } else {
            // Single executor: same windows, same code path, no pool —
            // the calling thread claims every due shard itself, in an
            // order the claim probe may permute (results are invariant;
            // the property test below pins it).
            let mut outbox: Vec<Vec<(Key, Pending<M>)>> =
                (0..nshards).map(|_| Vec::new()).collect();
            let mut order: Vec<u32> = (0..nshards as u32).collect();
            let mut window_index = 0u64;
            windows.coordinate(pool, || {
                if let Some(seed) = claim_probe {
                    permute(&mut order, seed, window_index);
                }
                window_index += 1;
                for &s in &order {
                    let s = s as usize;
                    if shard_due(s, &pool) {
                        // The sole inline executor is worker 0, and the
                        // single-bin deal plans every due shard for it —
                        // record the claim so dealt + stolen still sums
                        // to the executed shard-windows.
                        let dealt = pool.planned[s].load(Ordering::Relaxed) == 0;
                        pool.shared.telemetry.claim(0, dealt);
                        advance_shard(s, pool, &mut outbox);
                    }
                }
                flush_outbox(&mut outbox, &inboxes);
            })
        };

        for task in tasks {
            let task = task.into_inner().expect("task poisoned");
            stats.absorb(task.stats);
            pq.shards.push(task.shard);
        }
        // Arrivals staged after a shard's last window (all beyond the
        // final caps) survive into the next run_until call.
        for (s, inbox) in inboxes.iter().enumerate() {
            let drained = inbox.drain_into(&mut pq.shards[s]);
            shared.telemetry.inbox_merged(s, drained as u64);
        }
        match result {
            Ok(()) => {
                *now = until;
                Ok(())
            }
            Err(err) => {
                // The stuck barrier time: everything below it was
                // processed and emitted, nothing at or above it ran.
                let RunError::LookaheadVanished { at, .. } = err;
                *now = (*now).max(at);
                Err(err)
            }
        }
    }
}

/// Spawns the persistent worker threads for a parallel simulation.
fn spawn_pool<M: Clone + Send + 'static>(nworkers: usize, nshards: usize) -> PoolHandle {
    let gate = Arc::new(Gate::new());
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The coordinator thread also wants a core while workers run.
    let spin_limit = if avail > nworkers { 256 } else { 0 };
    let handles = (0..nworkers)
        .map(|w| {
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .name(format!("ftgcs-worker-{w}"))
                .spawn(move || worker_loop::<M>(w, nshards, &gate, spin_limit))
                .expect("spawn parallel worker thread")
        })
        .collect();
    PoolHandle {
        gate,
        workers: nworkers,
        spin_limit,
        handles,
    }
}

/// The coordinator's per-run state: the sample chain, the observer/stat
/// accumulators, the horizon solver's scratch, and the deal-out
/// bookkeeping it owns between windows.
struct Windows<'a> {
    pending_samples: &'a mut Vec<SimTime>,
    obs: &'a mut dyn Observer,
    stats: &'a mut SimStats,
    lookahead: SimDuration,
    until: SimTime,
    /// Inter-shard adjacency (deduped, no self-edges).
    graph: &'a [Vec<u32>],
    /// Deal-out bin count (= executor count this run).
    nworkers: usize,
    /// Persistent per-shard cost estimates (see [`ParQueue`]).
    shard_cost: &'a mut [u64],
    /// Persistent per-worker dealt-event totals (see [`ParQueue`]).
    planned_events: &'a mut [u64],
    /// Rows merged from finished windows but not yet emitted: with
    /// per-shard horizons, a row's time may exceed a *different*
    /// shard's pending front, so rows wait until the global front
    /// passes them.
    pending_rows: Vec<(Key, Row)>,
    /// Per-shard front `m_s` of the current barrier.
    m: Vec<SimTime>,
    /// Earliest-influence fixpoint `e_s` of the current barrier.
    e: Vec<SimTime>,
    /// Dijkstra frontier for the `e` relaxation.
    dijkstra: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Due shards of the current window, heaviest-cost first.
    order: Vec<u32>,
    /// Per-worker dealt cost this window (LPT packing state).
    bins: Vec<u64>,
    /// Worker each shard was dealt to this window (`u32::MAX` = idle).
    planned_of: Vec<u32>,
    /// Per-shard cumulative event counts at the previous barrier, for
    /// windowed deltas.
    prev_events: Vec<u64>,
}

impl Windows<'_> {
    /// The barrier loop: collect the last window's results, scan shard
    /// fronts, emit matured rows, fire due samples, solve per-shard
    /// horizons, deal shards to executors, run the window.
    fn coordinate<M: Clone + Send>(
        &mut self,
        pool: Pool<'_, M>,
        mut run_window: impl FnMut(),
    ) -> Result<(), RunError> {
        let nshards = pool.tasks.len();
        let tel = &pool.shared.telemetry;
        let mut ran_window = false;
        loop {
            // Telemetry phase clock: collect + scan + row emission +
            // samples are the coordinator's "merge" work. Inert stamps
            // when telemetry is off.
            let t_merge = tel.stamp();
            // Collect the previous window's results: merge the relaxed
            // row buffers into the pending buffer and account per-shard
            // event deltas to the cost model and the deal record.
            // (Skipped before the first window so persisted costs are
            // not decayed by stepping runs that open zero windows.)
            if ran_window {
                for (s, task) in pool.tasks.iter().enumerate() {
                    let mut task = task.lock().expect("task poisoned");
                    self.pending_rows.append(&mut task.rows);
                    let events = task.stats.events;
                    let delta = events - self.prev_events[s];
                    self.prev_events[s] = events;
                    self.shard_cost[s] = if delta > 0 {
                        delta
                    } else {
                        self.shard_cost[s] / 2
                    };
                    let w = self.planned_of[s];
                    if w != u32::MAX {
                        self.planned_events[w as usize] += delta;
                    }
                }
            }

            // Scan shard fronts (published heads + staged inboxes) for
            // the global minimum pending time.
            let mut t_min = time_inf();
            for s in 0..nshards {
                // Acquire pairs with the claiming executor's Release
                // head publication (see `Pool::heads`).
                let head = time_from_bits(pool.heads[s].load(Ordering::Acquire));
                let m = head.min(pool.inboxes[s].min_time());
                self.m[s] = m;
                t_min = t_min.min(m);
            }
            let t_min = (t_min < time_inf()).then_some(t_min);

            // Emit every pending row strictly below the watermark: no
            // future event (all at/after `t_min`) or sample can emit
            // below it, and ties at the watermark itself must wait (an
            // unprocessed event at `t_min` may carry a smaller tie).
            let mut watermark = t_min.unwrap_or_else(time_inf);
            if let Some((_, ts)) = earliest_sample(self.pending_samples) {
                watermark = watermark.min(ts);
            }
            self.emit_rows_below(watermark);

            // Fire due samples: engine-global reads, dispatched here at
            // the barrier. Every cap is clamped at the sample time, so
            // no processed event at or after it exists — and at equal
            // times samples sort before node events, so firing now
            // matches the serial tie-break.
            while let Some((idx, ts)) = earliest_sample(self.pending_samples) {
                if ts > self.until || t_min.is_some_and(|tm| ts > tm) {
                    break;
                }
                self.pending_samples.swap_remove(idx);
                self.stats.events += 1;
                tel.sample_dispatched();
                // SAFETY: workers are parked at the gate; the
                // coordinator is the only thread touching node state.
                take_sample(unsafe { pool.cells.all() }, ts, self.obs);
                if let Some(interval) = pool.shared.config.sample_interval {
                    self.pending_samples.push(next_sample(ts, interval));
                }
            }

            let Some(tm) = t_min else {
                tel.phase(Phase::Merge, t_merge);
                break;
            };
            if tm > self.until {
                tel.phase(Phase::Merge, t_merge);
                break;
            }
            tel.phase(Phase::Merge, t_merge);

            // Solve per-shard horizons and deal shards to executors;
            // fails (cleanly, workers parked) if the lookahead has
            // vanished below the f64 ulp at this magnitude.
            let t_barrier = tel.stamp();
            let planned = self.plan_window(&pool, tm);
            tel.phase(Phase::Barrier, t_barrier);
            if let Err(err) = planned {
                // Everything processed so far is real — flush it so the
                // partial trace survives the error.
                self.emit_rows_below(time_inf());
                return Err(err);
            }
            ran_window = true;
            let t_exec = tel.stamp();
            run_window();
            tel.phase(Phase::Execute, t_exec);
        }
        // Run complete: every pending event is beyond `until`, so all
        // buffered rows are final.
        self.emit_rows_below(time_inf());
        Ok(())
    }

    /// Emits pending rows with `time < watermark`, in global key order.
    fn emit_rows_below(&mut self, watermark: SimTime) {
        if self.pending_rows.is_empty() {
            return;
        }
        // Stable sort: a single event's rows share its key and must
        // keep their emission order.
        self.pending_rows.sort_by_key(|&(key, _)| key);
        let cut = self
            .pending_rows
            .partition_point(|&(key, _)| key.time < watermark);
        for (_, row) in self.pending_rows.drain(..cut) {
            self.obs.on_row_owned(row);
        }
    }

    /// Computes this window's per-shard caps (the earliest-influence
    /// fixpoint over the shard graph), checks progress, and deals the
    /// due shards to executors (greedy LPT over cost estimates). All
    /// stores are published to workers by the subsequent gate open.
    fn plan_window<M>(&mut self, pool: &Pool<'_, M>, tm: SimTime) -> Result<(), RunError> {
        let nshards = self.m.len();
        let inf = time_inf();

        // e_s = min(m_s, min over neighbors s' of e_s' + L), by
        // Dijkstra with uniform weight L: pop the smallest tentative
        // value, relax its neighbors. Monotone (weights ≥ 0), so each
        // shard settles at its true fixpoint value.
        self.e.clear();
        self.e.extend_from_slice(&self.m);
        self.dijkstra.clear();
        for s in 0..nshards {
            if self.e[s] < inf && !self.graph[s].is_empty() {
                self.dijkstra.push(Reverse((self.e[s], s as u32)));
            }
        }
        while let Some(Reverse((t, s))) = self.dijkstra.pop() {
            if t > self.e[s as usize] {
                continue; // stale frontier entry
            }
            let reach = t + self.lookahead;
            for &n in &self.graph[s as usize] {
                if reach < self.e[n as usize] {
                    self.e[n as usize] = reach;
                    self.dijkstra.push(Reverse((reach, n)));
                }
            }
        }

        // cap_s: the earliest any neighbor's influence can arrive. The
        // progress check runs on the raw caps: if no shard at the
        // global front can advance, `L` has vanished below the f64 ulp
        // at this magnitude and every future window would be empty.
        let next_sample = earliest_sample(self.pending_samples).map(|(_, ts)| ts);
        let mut progress = false;
        let mut horizon_span = 0.0f64;
        self.order.clear();
        for s in 0..nshards {
            let mut cap = inf;
            for &n in &self.graph[s] {
                cap = cap.min(self.e[n as usize] + self.lookahead);
            }
            if self.m[s] == tm && cap > tm {
                progress = true;
            }
            // Clamps: never past the next engine sample (samples must
            // dispatch before any event at/after them), and never more
            // than a fixed horizon past the shard's own front (bounds
            // the pending-row buffer; costs no real parallelism).
            if let Some(ts) = next_sample {
                cap = cap.min(ts);
            }
            if self.m[s] < inf {
                cap = cap.min(self.m[s] + self.lookahead * HORIZON_WINDOW_FACTOR);
            }
            pool.caps[s].store(time_to_bits(cap), Ordering::Relaxed);
            self.planned_of[s] = u32::MAX;
            if self.m[s] < cap && self.m[s] <= self.until {
                // Due shard: `cap − m` is the horizon this window
                // grants it (both finite here — a finite front clamps
                // its own cap).
                horizon_span += cap.as_secs() - self.m[s].as_secs();
                self.order.push(s as u32);
            }
        }
        if !progress {
            return Err(RunError::LookaheadVanished {
                at: tm,
                lookahead: self.lookahead,
            });
        }
        pool.shared
            .telemetry
            .window_planned(self.order.len() as u64, horizon_span);

        // Deal-out: due shards, heaviest estimated cost first, each to
        // the currently lightest bin (ties to the lowest worker). The
        // assignment is a pure function of simulation state, so the
        // recorded balance is machine-independent; the steal pass only
        // redistributes *execution*, never the record.
        self.order
            .sort_by_key(|&s| (Reverse(self.shard_cost[s as usize]), s));
        self.bins.clear();
        self.bins.resize(self.nworkers, 0);
        for &s in &self.order {
            let mut w = 0usize;
            for b in 1..self.nworkers {
                if self.bins[b] < self.bins[w] {
                    w = b;
                }
            }
            self.planned_of[s as usize] = w as u32;
            self.bins[w] += self.shard_cost[s as usize] + 1;
        }
        for s in 0..nshards {
            pool.planned[s].store(self.planned_of[s], Ordering::Relaxed);
            // Reset the claim; workers are parked, and the gate's
            // Release epoch bump publishes the reset together with the
            // caps and the deal.
            pool.claims[s].store(false, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Whether shard `s` has any event below its cap this window. A pure
/// fast-path filter: a stale head/inbox read can only mis-report a
/// shard as due (the claim CAS then arbitrates) or as idle after
/// another executor already claimed it — never skip real work, because
/// mid-window arrivals always land at or beyond `cap_s` (the horizon
/// floor), so a shard idle at the barrier stays idle all window.
fn shard_due<M>(s: usize, pool: &Pool<'_, M>) -> bool {
    let cap = pool.cap(s);
    let head = time_from_bits(pool.heads[s].load(Ordering::Acquire));
    let m = head.min(pool.inboxes[s].min_time());
    m < cap && m <= pool.until
}

/// Claims shard `s` for this window and advances it; no-ops if the
/// shard is idle or another executor holds the claim. `me` identifies
/// the claiming executor for the telemetry dealt/stolen record.
fn try_claim_advance<M: Clone + Send>(
    s: usize,
    pool: Pool<'_, M>,
    outbox: &mut [Vec<(Key, Pending<M>)>],
    me: u32,
) {
    if !shard_due(s, &pool) {
        return;
    }
    // The claim. Success ordering Acquire: pairs with the previous
    // owner's Release head store for the fast path, though the real
    // inter-window visibility edge is the gate chain documented on
    // `Cells` (claims are reset only between windows, so within a
    // window the flag flips false → true at most once — that atomicity
    // alone makes cell ownership exclusive).
    if pool.claims[s]
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    // Won the claim: record whether this shard was dealt to us or
    // stolen. A pure side-channel write — the claim outcome itself is
    // machine-dependent, the dealt/stolen *sum* is not.
    let dealt = pool.planned[s].load(Ordering::Relaxed) == me;
    pool.shared.telemetry.claim(me as usize, dealt);
    advance_shard(s, pool, outbox);
}

/// One worker: waits at the gate (spin → yield → park), processes the
/// shards the coordinator dealt it, then sweeps every shard still
/// unclaimed (work stealing), and flushes its outbox. Lives for the
/// whole simulation; between `run_until` calls it parks on the gate's
/// condvar.
fn worker_loop<M: Clone + Send>(worker: usize, nshards: usize, gate: &Gate, spin_limit: u32) {
    let mut outbox: Vec<Vec<(Key, Pending<M>)>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut seen = 0u64;
    let me = worker as u32;
    loop {
        gate.wait_epoch(seen, spin_limit);
        seen = seen.wrapping_add(1);
        if gate.stop.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: the coordinator published this run's Pool before
        // opening the window and keeps it alive until every worker has
        // acknowledged; we acknowledge only after the last dereference.
        let pool = unsafe { ctx_pool::<M>(gate.ctx.load(Ordering::Acquire)) };
        // A panicking behavior must not strand the coordinator: catch,
        // flag, count this worker done, and re-raise so the panic is
        // reported on this thread. (Unwind safety: the run is being
        // torn down — the poisoned task mutexes are never read.)
        let window = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Pass 1: the shards dealt to this worker (the balanced
            // plan), claimed so a stealing peer cannot double-run them.
            for s in 0..nshards {
                if pool.planned[s].load(Ordering::Relaxed) == me {
                    try_claim_advance(s, *pool, &mut outbox, me);
                }
            }
            // Pass 2: steal — sweep every shard still unclaimed, so an
            // executor that finished its plan early drains stragglers
            // instead of idling at the barrier.
            for s in 0..nshards {
                try_claim_advance(s, *pool, &mut outbox, me);
            }
            flush_outbox(&mut outbox, pool.inboxes);
        }));
        if let Err(payload) = window {
            gate.panicked.store(true, Ordering::Relaxed);
            gate.done.fetch_add(1, Ordering::Release);
            std::panic::resume_unwind(payload);
        }
        gate.done.fetch_add(1, Ordering::Release);
    }
}

/// Delivers a window's batched cross-shard sends: one inbox lock per
/// destination shard instead of one per message.
fn flush_outbox<M>(outbox: &mut [Vec<(Key, Pending<M>)>], inboxes: &[Inbox<M>]) {
    for (dst, batch) in outbox.iter_mut().enumerate() {
        if !batch.is_empty() {
            inboxes[dst].stage_batch(batch);
        }
    }
}

/// Advances one shard through the window: absorb staged arrivals,
/// pop-and-dispatch every local event below the shard's cap, publish
/// the new head.
fn advance_shard<M: Clone + Send>(
    s: usize,
    pool: Pool<'_, M>,
    outbox: &mut [Vec<(Key, Pending<M>)>],
) {
    let cap = pool.cap(s);
    let tel = &pool.shared.telemetry;
    tel.shard_window(s);
    let mut task = pool.tasks[s].lock().expect("task poisoned");
    let task = &mut *task;
    let drained = pool.inboxes[s].drain_into(&mut task.shard);
    tel.inbox_merged(s, drained as u64);
    // Strictly below the cap: an arrival from another shard may still
    // land exactly on it.
    let due =
        |time: SimTime| time.as_secs() < cap.as_secs() && time.as_secs() <= pool.until.as_secs();
    while let Some((key, pending)) = task.shard.pop_if(due) {
        debug_assert!(key.time >= task.now, "shard time went backwards");
        task.now = key.time;
        task.stats.events += 1;
        let node = pending.owner().expect("samples never enter shard queues");
        tel.event_dispatched(node);
        debug_assert_eq!(
            pool.shard_of[node.index()] as usize,
            s,
            "event on wrong shard"
        );
        // SAFETY: this executor claimed shard `s` for the current
        // window (claim CAS won, or sole inline executor), so it holds
        // exclusive logical ownership of every node mapped to `s` —
        // see the `Cells` contract.
        let cell = unsafe { pool.cells.cell(node.index()) };
        run_event(
            cell,
            node,
            pool.shared,
            QueueKind::Worker {
                local: &mut task.shard,
                outbox,
                shard_of: pool.shard_of,
                my_shard: s as u32,
            },
            RowSink::Buffered(&mut task.rows),
            &mut task.stats,
            key,
            pending,
        );
    }
    // Release pairs with the Acquire loads in the coordinator scan and
    // in peers' steal-pass due checks (see `Pool::heads`).
    pool.heads[s].store(
        task.shard.head_key().time.as_secs().to_bits(),
        Ordering::Release,
    );
}

/// splitmix64 step — the claim probe's permutation source. Not a
/// simulation RNG: it only shuffles the inline claim order, which is
/// invisible to results.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates over the inline path's claim order, keyed by the probe
/// seed and the window index.
fn permute(order: &mut [u32], seed: u64, window: u64) {
    let mut state = seed ^ window.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Ctx, RunError, SimBuilder, SimConfig};
    use crate::node::{Behavior, NodeId, TimerTag, TrackId};
    use crate::shard::{Partition, SchedulerKind};
    use crate::time::{SimDuration, SimTime};
    use proptest::prelude::*;

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
            ctx.emit("beat", vec![from.index() as f64, f64::from(*msg % 64)]);
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

    fn run(scheduler: SchedulerKind) -> Vec<u8> {
        let mut sim = ring_sim(8, scheduler);
        sim.run_until(SimTime::from_secs(0.5));
        sim.run_for(SimDuration::from_secs(0.25));
        sim.into_trace().to_bytes()
    }

    #[test]
    fn parallel_matches_global_heap_on_every_worker_count() {
        let reference = run(SchedulerKind::Global);
        assert!(!reference.is_empty());
        for workers in [1usize, 2, 3, 8] {
            let parallel = run(SchedulerKind::Parallel {
                partition: Partition::by_blocks(8, 2),
                workers,
            });
            assert_eq!(
                parallel, reference,
                "parallel trace diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn pool_survives_many_fine_grained_steps() {
        // Stepping in many small increments must reuse the persistent
        // pool (one spawn) and reproduce the one-shot trace exactly.
        let one_shot = run(SchedulerKind::Parallel {
            partition: Partition::by_blocks(8, 2),
            workers: 2,
        });
        let mut sim = ring_sim(
            8,
            SchedulerKind::Parallel {
                partition: Partition::by_blocks(8, 2),
                workers: 2,
            },
        );
        // Force the pooled path regardless of this machine's cores.
        sim.pin_workers(2);
        for _ in 0..150 {
            sim.run_for(SimDuration::from_millis(5.0));
        }
        if let crate::engine::EventStore::Parallel(pq) = &sim.store {
            assert!(pq.pool.is_some(), "pool must persist across steps");
        }
        assert_eq!(
            sim.into_trace().to_bytes(),
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
                workers: 1,
            },
        );
        // Fixed logical worker count => machine-independent balance.
        sim.pin_workers(4);
        sim.run_until(SimTime::from_secs(0.5));
        let loads = sim
            .planned_worker_events()
            .expect("parallel scheduler records dealt loads")
            .to_vec();
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
            s.run_until(SimTime::from_secs(0.5));
            s.into_trace().to_bytes()
        };
        assert_eq!(
            sim.into_trace().to_bytes(),
            reference,
            "deal-out changed the trace"
        );
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
                ctx.emit("early", vec![1.0]);
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
        // The edge is what constrains the horizon: without neighbors a
        // shard's cap is infinite and no livelock is possible.
        b.add_edge(a, z);
        b.build()
    }

    #[test]
    fn vanishing_lookahead_is_a_structured_error() {
        let mut sim = far_timer_sim(1);
        let err = sim
            .try_run_until(SimTime::from_secs(1.0))
            .expect_err("lookahead must vanish at t = 0.01");
        let RunError::LookaheadVanished { at, lookahead } = err;
        assert_eq!(at, SimTime::from_secs(0.01));
        assert!(lookahead.is_positive());
        assert!(err.to_string().contains("vanishes"), "got: {err}");
        // The partial trace (the rows emitted at t = 1e-4) survives.
        assert!(
            !sim.trace().to_bytes().is_empty(),
            "partial trace lost on error"
        );
        // The clock stopped at the stuck barrier, and retrying reports
        // the same error instead of wedging or panicking.
        assert_eq!(sim.now(), SimTime::from_secs(0.01));
        let again = sim.try_run_until(SimTime::from_secs(1.0));
        assert_eq!(again, Err(err));
    }

    #[test]
    #[should_panic(expected = "vanishes")]
    fn vanishing_lookahead_panics_via_run_until() {
        // The pooled path: the error must come out of `run_until` as a
        // panic *after* a clean barrier stop — workers parked, pool
        // reusable/joinable — not as a mid-window deadlock. Dropping
        // the simulation during unwind joins the pool, which hangs (and
        // fails the test) if any worker were stranded.
        let mut sim = far_timer_sim(2);
        sim.pin_workers(2);
        sim.run_until(SimTime::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates_instead_of_hanging() {
        struct Bomb;
        impl Behavior<()> for Bomb {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {
                panic!("behavior exploded");
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        }
        let mut b = SimBuilder::<()>::new(SimConfig {
            scheduler: SchedulerKind::Parallel {
                partition: Partition::by_blocks(2, 1),
                workers: 2,
            },
            ..SimConfig::default()
        });
        b.add_node(Box::new(Bomb));
        b.add_node(Box::new(Bomb));
        let mut sim = b.build();
        // Force two real OS threads regardless of this machine's core
        // count (thread count never changes results; this only selects
        // the pooled code path).
        sim.pin_workers(2);
        sim.run_until(SimTime::from_secs(1.0));
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
        /// Any per-window shard claim order yields the identical merged
        /// trace: shards are independent within a window, so ownership
        /// order is invisible to results. The probe shuffles the inline
        /// executor's claim sequence; the pooled paths' racy claim
        /// orders are a subset of these (and are stress-tested across
        /// real threads in `tests/shard_stealing.rs`).
        #[test]
        fn claim_order_never_changes_the_trace(probe in 1u64..u64::MAX) {
            static REFERENCE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let reference = REFERENCE.get_or_init(|| run(SchedulerKind::Global));
            let mut sim = ring_sim(
                8,
                SchedulerKind::Parallel {
                    partition: Partition::by_blocks(8, 2),
                    workers: 1,
                },
            );
            if let crate::engine::EventStore::Parallel(pq) = &mut sim.store {
                pq.claim_probe = Some(probe);
            }
            sim.run_until(SimTime::from_secs(0.5));
            sim.run_for(SimDuration::from_secs(0.25));
            prop_assert!(
                &sim.into_trace().to_bytes() == reference,
                "claim order {} changed the trace",
                probe
            );
        }
    }
}
