//! The discrete-event simulation engine.
//!
//! The engine owns, per node: a drifting [`HardwareClock`], a set of *clock
//! tracks*, and a [`Behavior`]. A track is a value that advances as
//! `value(t) = anchor + m · (H_v(t) − H_anchor)` for a behavior-controlled
//! multiplier `m > 0`; the main track of node `v` is its logical clock
//! `L_v`. Because hardware clocks are piecewise linear and multipliers are
//! piecewise constant, timers set at *track targets* can be inverted to
//! exact Newtonian instants — the engine replays the paper's continuous-time
//! model without discretization error.
//!
//! Changing a multiplier (or jumping a track) re-anchors the track and
//! transparently reschedules every pending timer on it; stale queue entries
//! are skipped via generation counters. All mutable per-node state —
//! clocks, tracks, timer slots, RNG streams — lives in one [`NodeState`]
//! per node, which is what lets [`SchedulerKind::Parallel`] hand disjoint
//! node sets to worker threads (see [`crate::par`]).
//!
//! Node events — timers and message deliveries — wait in one store of
//! calendar queues, one queue per shard of the network (see
//! [`crate::shard`] and [`crate::par`]): [`SchedulerKind::Global`] is the
//! store over a single shard, drained by the serial loop here;
//! [`SchedulerKind::Parallel`] advances its shards on several threads.
//! Both schedulers — the parallel one on any worker count — dispatch the
//! identical global event order, so they produce byte-identical traces.
//! The order is `(time, source, per-source counter)`: each node stamps
//! the events it creates with its own monotone counter, which is a
//! deterministic function of the node's observed event sequence and
//! therefore independent of how shards raced across threads.
//!
//! A clock sample is not an event: no node receives it. The one pending
//! sample instant lives beside the store (`Samples`), and both loops
//! fire it once every node event before its instant has run, so at
//! equal times the sample comes before every node event.
//!
//! Every event a dispatch creates goes through one `Queue::push`, on
//! either scheduler and at boot: into the dispatching shard's queue, or
//! into an outbox bound for another shard. Both dispatch loops (the
//! serial one here, a parallel window's in [`crate::par`]) have the pop
//! and `run_event` inlined into them, and `push` builds the event where
//! it stores it: an event is copied once into the queue and once out
//! (see [`crate::shard`]).

use crate::clock::{HardwareClock, RateModel};
use crate::network::{DelayConfig, DelayDistribution};
use crate::node::{Behavior, NodeId, TimerId, TimerTag, TrackId};
use crate::observe::Observer;
use crate::par::{new_outbox, Batch, EventStore};
use crate::rng::SimRng;
use crate::shard::{
    resolve_workers, tie_for_node, Key, Partition, QueueStats, SchedulerKind, Shard,
};
use crate::telemetry::{EngineCounts, NodeCounts, Phase, Telemetry, TelemetryReport};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ClockSample, Row, RowValues};

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Message delay bounds and distribution.
    pub delay: DelayConfig,
    /// Hardware clock drift bound ρ.
    pub rho: f64,
    /// Default hardware rate model for nodes without an override.
    pub rate_model: RateModel,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// If set, record a [`ClockSample`] every interval of Newtonian time.
    pub sample_interval: Option<SimDuration>,
    /// Event scheduler: one global queue, or per-shard queues on
    /// several threads under conservative lookahead. Never changes a
    /// run's result — only its throughput.
    pub scheduler: SchedulerKind,
    /// Time the run's wall-clock phases for the telemetry report (see
    /// [`crate::telemetry`]). The report's counts are kept either way.
    /// Strictly a side channel: traces are byte-identical on or off.
    pub telemetry: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delay: DelayConfig::default(),
            rho: 1e-4,
            rate_model: RateModel::default(),
            seed: 0,
            sample_interval: None,
            scheduler: SchedulerKind::Global,
            telemetry: false,
        }
    }
}

/// One logical clock track.
#[derive(Debug, Clone, Copy)]
struct Track {
    /// Hardware reading at the last re-anchoring.
    hw_anchor: f64,
    /// Track value at the last re-anchoring.
    value_anchor: f64,
    /// Current rate multiplier relative to the hardware clock.
    multiplier: f64,
}

impl Track {
    fn value_at(&self, hw: f64) -> f64 {
        self.value_anchor + self.multiplier * (hw - self.hw_anchor)
    }
}

#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    track: TrackId,
    target: f64,
    tag: TimerTag,
    /// Newtonian timers fire at an absolute simulation time instead of a
    /// track reading: `target` is interpreted in Newtonian seconds, and
    /// the slot is on no timer list — nothing ever reschedules it, so
    /// only its `active` flag says it is pending. Used by the
    /// fault-lifecycle layer, whose transition times are spec-given
    /// Newtonian instants.
    newtonian: bool,
    /// Bumped on every reschedule (re-anchoring); stale queue entries
    /// carry an older generation and are skipped on pop.
    generation: u32,
    /// Bumped on every slot *reuse*; a [`TimerId`] carries the epoch it
    /// was issued under, so stale handles cannot cancel a successor
    /// timer occupying the same slot. Distinct from `generation`, which
    /// changes while one timer is still pending.
    epoch: u32,
    active: bool,
    /// Index of this slot's id inside its `track_timers` list — kept in
    /// sync on every insertion/removal so firing and cancelling are O(1)
    /// with no list scan. Unused by a Newtonian slot.
    list_pos: usize,
}

/// The port of a delivery that arrived on none: a loopback. Never a real
/// port — a port is below its node's degree, which is below the node
/// count, which [`SimBuilder::build`] keeps below 2³².
const NO_PORT: u32 = u32::MAX;

/// A queued event: a timer or a message, owned by one node and
/// dispatched on its shard.
///
/// Node ids, the timer slot and the port are stored as `u32` so that an
/// event with a 16-byte message stays 32 bytes and its slab node in the
/// calendar queue 64 — one cache line ([`queued_event_sizes`]; as
/// `usize` they made 40 and 80, which cost the bare queue 4–5 %). The
/// narrowing is checked once, where the value is made:
/// [`SimBuilder::build`] for node ids and ports, `install_timer_slot`
/// for slots.
#[derive(Debug)]
pub(crate) enum Pending<M> {
    /// A timer of `node`'s slab firing.
    Timer {
        /// Owning node (whose slab `id` indexes).
        node: u32,
        /// Slot index in the owner's slab.
        id: u32,
        /// Schedule generation; stale entries are skipped.
        generation: u32,
    },
    /// A message delivery.
    Message {
        /// Sender.
        from: u32,
        /// Receiver (owns the event).
        to: u32,
        /// The sender's index in the receiver's neighbour list
        /// ([`NO_PORT`] for a loopback).
        port: u32,
        /// Payload.
        msg: M,
    },
}

impl<M> Pending<M> {
    /// The node whose shard dispatches this event.
    pub(crate) fn owner(&self) -> NodeId {
        match *self {
            Pending::Timer { node, .. } => NodeId(node as usize),
            Pending::Message { to, .. } => NodeId(to as usize),
        }
    }
}

/// A node id as a queued event stores it. Cannot truncate:
/// [`SimBuilder::build`] refuses a simulation of 2³² nodes or more.
#[inline(always)]
fn id32(node: NodeId) -> u32 {
    debug_assert!(u32::try_from(node.0).is_ok(), "node id beyond u32");
    node.0 as u32
}

/// `(size_of::<Pending<M>>(), size of the calendar queue's slab node
/// holding one)` — what a queued event with message type `M` occupies.
/// Tests pin it at `(32, 64)` for the 16-byte messages of this workspace,
/// so that a later field cannot silently push an event onto a second
/// cache line.
#[must_use]
pub fn queued_event_sizes<M>() -> (usize, usize) {
    (
        std::mem::size_of::<Pending<M>>(),
        crate::shard::slab_node_size::<Pending<M>>(),
    )
}

/// Counters describing how much work a run performed: sums of the
/// per-node counts the telemetry report groups by shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched (timers + deliveries + samples).
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Timers fired.
    pub timers: u64,
}

/// All mutable state owned by one node: its clock, tracks, timer slab,
/// and RNG streams. Behaviors only ever touch their own `NodeState`
/// (via [`Ctx`]), which is the disjointness the parallel executor
/// exploits.
pub(crate) struct NodeState {
    clock: HardwareClock,
    tracks: Vec<Track>,
    /// track → pending track timer ids (Newtonian timers are on no list).
    track_timers: Vec<Vec<u32>>,
    timer_slots: Vec<TimerSlot>,
    timer_free: Vec<u32>,
    rng: SimRng,
    /// Per-node message-delay stream. Keeping the stream per *sender*
    /// (instead of one engine-global stream) makes the sampled delays a
    /// pure function of the sender's own event sequence — required for
    /// the parallel executor to reproduce the serial engine exactly.
    delay_rng: SimRng,
    /// Monotone counter stamping every event this node creates; the
    /// deterministic tie-break of the global dispatch order.
    key_counter: u64,
    /// The work dispatched on this node, counted where it happens.
    pub(crate) counts: NodeCounts,
}

impl NodeState {
    fn hardware_now(&mut self, now: SimTime) -> f64 {
        self.clock.hardware_time(now)
    }

    fn track_value(&mut self, track: TrackId, now: SimTime) -> f64 {
        let hw = self.hardware_now(now);
        self.tracks[track.index()].value_at(hw)
    }

    /// The value a sample at `now` records: the main track, `L_v(now)`.
    /// One hardware reading, a multiply-add while `now` stays in the
    /// clock's current rate segment.
    pub(crate) fn read_clocks(&mut self, now: SimTime) -> f64 {
        let hw = self.hardware_now(now);
        self.tracks[TrackId::MAIN.index()].value_at(hw)
    }

    /// Newtonian time at which `track` reaches `target`; never earlier
    /// than `now`.
    fn when_track_reaches(&mut self, track: TrackId, target: f64, now: SimTime) -> SimTime {
        let tr = self.tracks[track.index()];
        let hw_target = tr.hw_anchor + (target - tr.value_anchor) / tr.multiplier;
        let hw_now = self.hardware_now(now);
        if hw_target <= hw_now {
            return now;
        }
        self.clock.when_hardware_reaches(hw_target)
    }

    fn next_tie(&mut self, node: NodeId) -> u128 {
        let c = self.key_counter;
        self.key_counter += 1;
        tie_for_node(node, c)
    }

    /// Unlinks a retired timer id from its track list in O(1) via the
    /// slot's back-pointer, repairing the pointer of the element swapped
    /// into its place. A Newtonian timer is on no list.
    fn unlink_timer(&mut self, id: u32) {
        let slot = self.timer_slots[id as usize];
        if slot.newtonian {
            return;
        }
        let list = &mut self.track_timers[slot.track.index()];
        let pos = slot.list_pos;
        debug_assert_eq!(list[pos], id, "timer back-pointer out of sync");
        list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.timer_slots[moved as usize].list_pos = pos;
        }
    }

    /// Returns whether a live timer was actually cancelled (stale
    /// handles and double-cancels are no-ops).
    fn cancel_timer(&mut self, timer: TimerId) -> bool {
        let id = timer.id as usize;
        if id >= self.timer_slots.len() || !self.timer_slots[id].active {
            return false;
        }
        // A handle outliving its timer must not cancel an unrelated
        // timer that reused the slot: the epoch pins the handle to the
        // exact timer it was issued for.
        if self.timer_slots[id].epoch != timer.epoch {
            return false;
        }
        self.timer_slots[id].active = false;
        self.unlink_timer(timer.id);
        self.timer_free.push(timer.id);
        true
    }

    /// Retires a timer whose queue entry just fired: O(1), no allocation.
    fn retire_fired_timer(&mut self, id: u32) {
        self.timer_slots[id as usize].active = false;
        self.unlink_timer(id);
        self.timer_free.push(id);
    }

    /// Deactivates every pending timer of this node in slot order and
    /// returns how many were live. Already-queued entries become
    /// stale (inactive slots are skipped on pop) — no queue surgery, no
    /// allocation beyond the free-list pushes.
    fn cancel_all_timers(&mut self) -> usize {
        let mut cancelled = 0;
        for (id, slot) in (0u32..).zip(&mut self.timer_slots) {
            if slot.active {
                slot.active = false;
                self.timer_free.push(id);
                cancelled += 1;
            }
        }
        for list in &mut self.track_timers {
            list.clear();
        }
        cancelled
    }
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NodeState(tracks={}, timers={})",
            self.tracks.len(),
            self.timer_slots.len() - self.timer_free.len()
        )
    }
}

/// One node: its state plus its behavior (taken out while a callback
/// runs so the behavior can receive `&mut self` alongside a context).
pub(crate) struct NodeCell<M> {
    pub(crate) state: NodeState,
    pub(crate) behavior: Option<Box<dyn Behavior<M>>>,
}

/// Engine data shared read-only by every dispatch (worker or serial):
/// the configuration and the communication graph. Mutated only between
/// [`Simulation::run_until_with`] calls.
pub(crate) struct SimShared {
    pub(crate) config: SimConfig,
    /// Every node's neighbour list, one after the other: `node`'s runs
    /// from `first_port[node]` to `first_port[node + 1]`.
    neighbors: Vec<NodeId>,
    /// For `a`'s `i`-th link, at `first_port[a] + i`: the position of `a`
    /// in the neighbour list of `a`'s `i`-th neighbour — the port a
    /// message sent over that link arrives on. Flat, four bytes per
    /// directed link.
    back_port: Vec<u32>,
    /// Where each node's run of `neighbors` and `back_port` begins, and
    /// (last) the number of directed links.
    first_port: Vec<u32>,
}

impl SimShared {
    /// Where `node`'s links sit in `neighbors` and `back_port`.
    fn links(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.first_port[i] as usize..self.first_port[i + 1] as usize
    }

    /// `node`'s neighbours, in `add_edge` order.
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[self.links(node)]
    }

    /// The arrival ports of `node`'s links, beside its neighbours.
    fn back_ports(&self, node: NodeId) -> &[u32] {
        &self.back_port[self.links(node)]
    }
}

/// Where a dispatch pushes the events it creates: the queue of the
/// shard it runs on, or an outbox bound for another shard. The global
/// loop passes its one shard and an empty outbox (every node is on
/// shard 0); the boot phase and a parallel window pass a batch per
/// shard, moved on after each `on_start` (into the destination queues)
/// or once per window (into their inboxes).
pub(crate) struct Queue<'a, M> {
    /// The queue of the shard being advanced.
    pub(crate) local: &'a mut Shard<Pending<M>>,
    /// Per-destination-shard batches of cross-shard sends.
    pub(crate) outbox: &'a mut [Batch<M>],
    /// Node → shard map.
    pub(crate) shard_of: &'a [u32],
    /// Index of `local` among the shards.
    pub(crate) my_shard: u32,
}

impl<M> Queue<'_, M> {
    /// Queues the event `make` builds for node `dst`. Each branch calls
    /// `make` where it stores the result, so the event is built in
    /// place: as an argument, it would be staged on the stack first.
    #[inline(always)]
    fn push(&mut self, dst: NodeId, time: SimTime, tie: u128, make: impl FnOnce() -> Pending<M>) {
        let key = Key { time, tie };
        let shard = self.shard_of[dst.index()];
        if shard == self.my_shard {
            self.local.push(key, make());
        } else {
            // Cross-shard: batch in the outbox; a window's batch is
            // delivered to the destination inbox under one lock at the
            // barrier. The lookahead floor keeps the arrival outside the
            // current window, so deferred delivery is invisible.
            self.outbox[shard as usize].push((key, make()));
        }
    }
}

/// The mutable view of the simulation handed to behavior callbacks.
///
/// All interaction with the world — clocks, timers, messaging, tracing —
/// goes through this context. See [`Behavior`] for an example.
///
/// # Ports
///
/// A node's links are numbered by its neighbour list: port `i` leads to
/// `ctx.neighbors()[i]`. Inside [`Behavior::on_message`],
/// [`Ctx::sender_port`] names the port the delivery arrived on, so
/// per-neighbour state can be a table built once in `on_start` from
/// `ctx.neighbors()` and indexed in O(1) per message, with no search
/// for `from`.
pub struct Ctx<'a, M> {
    node: NodeId,
    /// Port the message being delivered arrived on ([`NO_PORT`] for a
    /// loopback and wherever no message is: `on_start`, timers).
    port: u32,
    now: SimTime,
    /// Key of the event being dispatched (tags its rows).
    key: Key,
    state: &'a mut NodeState,
    shared: &'a SimShared,
    queue: Queue<'a, M>,
    /// Rows the dispatch emits, tagged with its key: the serial loop
    /// hands them to the observer right after the dispatch, a parallel
    /// window merges its shards' rows by key at the barrier.
    rows: &'a mut Vec<(Key, Row)>,
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ctx(node={}, now={})", self.node, self.now)
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// The node this callback belongs to.
    #[must_use]
    pub fn my_id(&self) -> NodeId {
        self.node
    }

    /// Neighbors of this node in the communication graph.
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.shared.neighbors(self.node)
    }

    /// The port the message being delivered arrived on: `Some(p)` with
    /// `ctx.neighbors()[p] == from` for a message from a neighbour;
    /// `None` for a loopback ([`Ctx::send_self`], the own copy of
    /// [`Ctx::broadcast_with_loopback`], [`Ctx::send`] to oneself) and
    /// outside [`Behavior::on_message`].
    #[must_use]
    pub fn sender_port(&self) -> Option<usize> {
        (self.port != NO_PORT).then_some(self.port as usize)
    }

    /// Current reading of this node's hardware clock.
    #[must_use]
    pub fn hardware_now(&mut self) -> f64 {
        self.state.hardware_now(self.now)
    }

    /// Current Newtonian time.
    ///
    /// Correct-algorithm behaviors must not base decisions on this — it
    /// exists for Byzantine adversaries (which are omniscient by definition)
    /// and for trace annotation.
    #[must_use]
    pub fn newtonian_now(&self) -> SimTime {
        self.now
    }

    /// Current value of one of this node's clock tracks.
    #[must_use]
    pub fn track_value(&mut self, track: TrackId) -> f64 {
        self.state.track_value(track, self.now)
    }

    /// Current rate multiplier of a track.
    #[must_use]
    pub fn multiplier(&self, track: TrackId) -> f64 {
        self.state.tracks[track.index()].multiplier
    }

    /// Sets the rate multiplier of a track (relative to the hardware
    /// clock), re-anchoring it at the current instant.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not strictly positive.
    pub fn set_multiplier(&mut self, track: TrackId, multiplier: f64) {
        self.reanchor(track, None, multiplier);
    }

    /// Discontinuously sets a track's value, keeping its multiplier.
    ///
    /// Pending timers whose targets are now in the past fire immediately
    /// (at the current instant, after this callback returns).
    pub fn jump_track(&mut self, track: TrackId, value: f64) {
        let m = self.multiplier(track);
        self.reanchor(track, Some(value), m);
    }

    /// Creates an additional clock track with the given initial value and
    /// multiplier, returning its id.
    pub fn new_track(&mut self, initial: f64, multiplier: f64) -> TrackId {
        assert!(multiplier > 0.0, "track multipliers must be positive");
        let hw = self.state.hardware_now(self.now);
        self.state.tracks.push(Track {
            hw_anchor: hw,
            value_anchor: initial,
            multiplier,
        });
        self.state.track_timers.push(Vec::new());
        TrackId(self.state.tracks.len() - 1)
    }

    /// Re-anchors a track at the current instant with a new multiplier and
    /// (optionally) a new value, rescheduling its pending timers.
    ///
    /// This is the hottest control-path operation (once per node per round
    /// phase): it must not allocate. Rescheduling bumps each pending
    /// timer's generation — the stale queue entries are skipped on pop —
    /// and iterates the live-timer list in place by index.
    fn reanchor(&mut self, track: TrackId, new_value: Option<f64>, new_mult: f64) {
        assert!(new_mult > 0.0, "track multipliers must be positive");
        let hw = self.state.hardware_now(self.now);
        let tr = &mut self.state.tracks[track.index()];
        let value = new_value.unwrap_or_else(|| tr.value_at(hw));
        *tr = Track {
            hw_anchor: hw,
            value_anchor: value,
            multiplier: new_mult,
        };
        let count = self.state.track_timers[track.index()].len();
        for i in 0..count {
            let id = self.state.track_timers[track.index()][i];
            let slot = &mut self.state.timer_slots[id as usize];
            slot.generation = slot.generation.wrapping_add(1);
            self.schedule_timer_entry(id);
        }
    }

    fn schedule_timer_entry(&mut self, id: u32) {
        let slot = self.state.timer_slots[id as usize];
        let time = if slot.newtonian {
            SimTime::from_secs(slot.target).max(self.now)
        } else {
            self.state
                .when_track_reaches(slot.track, slot.target, self.now)
        };
        let tie = self.state.next_tie(self.node);
        let node = self.node;
        self.queue.push(node, time, tie, || Pending::Timer {
            node: id32(node),
            id,
            generation: slot.generation,
        });
    }

    /// Schedules [`Behavior::on_timer`] for when `track` reaches `target`.
    ///
    /// If the target has already been reached, the timer fires at the
    /// current instant (after this callback returns).
    pub fn set_timer_at(&mut self, track: TrackId, target: f64, tag: TimerTag) -> TimerId {
        assert!(
            track.index() < self.state.tracks.len(),
            "unknown track {track:?} on {}",
            self.node
        );
        let list_pos = self.state.track_timers[track.index()].len();
        let slot = TimerSlot {
            track,
            target,
            tag,
            newtonian: false,
            generation: 0,
            epoch: 0,
            active: true,
            list_pos,
        };
        let id = self.install_timer_slot(slot);
        self.state.track_timers[track.index()].push(id);
        self.schedule_timer_entry(id);
        self.state.counts.timers_set += 1;
        TimerId {
            id,
            epoch: self.state.timer_slots[id as usize].epoch,
        }
    }

    /// Schedules [`Behavior::on_timer`] at an absolute **Newtonian**
    /// instant, independent of every clock track.
    ///
    /// Unlike [`Ctx::set_timer_at`], the firing time is immune to rate
    /// changes and track jumps: the event is queued once with the
    /// standard `(time, source, counter)` dispatch key and never
    /// rescheduled. A target in the past fires at the current instant
    /// (after this callback returns). This is the scheduling primitive
    /// of the fault-lifecycle layer — transitions are spec-given
    /// Newtonian times, and omniscient-adversary machinery is the one
    /// place Newtonian scheduling is legitimate.
    pub fn set_timer_at_newtonian(&mut self, at_secs: f64, tag: TimerTag) -> TimerId {
        assert!(at_secs.is_finite(), "Newtonian timer target must be finite");
        let slot = TimerSlot {
            track: TrackId::MAIN,
            target: at_secs,
            tag,
            newtonian: true,
            generation: 0,
            epoch: 0,
            active: true,
            list_pos: 0,
        };
        let id = self.install_timer_slot(slot);
        self.schedule_timer_entry(id);
        self.state.counts.timers_set += 1;
        TimerId {
            id,
            epoch: self.state.timer_slots[id as usize].epoch,
        }
    }

    /// Installs `slot` into the slab, reusing a free slot (bumping its
    /// generation and epoch so stale queue entries and stale handles
    /// cannot touch the new timer) or growing the slab.
    fn install_timer_slot(&mut self, slot: TimerSlot) -> u32 {
        if let Some(id) = self.state.timer_free.pop() {
            let reused = &mut self.state.timer_slots[id as usize];
            *reused = TimerSlot {
                generation: reused.generation.wrapping_add(1),
                epoch: reused.epoch.wrapping_add(1),
                ..slot
            };
            id
        } else {
            let id = u32::try_from(self.state.timer_slots.len())
                .expect("fewer than 2^32 timer slots per node");
            self.state.timer_slots.push(slot);
            id
        }
    }

    /// Cancels **every** pending timer of this node (track-driven and
    /// Newtonian alike), returning how many were live.
    ///
    /// Already-queued entries are left in place and skipped as
    /// stale when popped. This is the shutdown primitive of crash and
    /// lifecycle behaviors: a crashed node must not drag its dead
    /// timers through the event queue for the rest of the run.
    pub fn cancel_all_timers(&mut self) -> usize {
        let cancelled = self.state.cancel_all_timers();
        self.state.counts.timers_cancelled += cancelled as u64;
        cancelled
    }

    /// Drops every clock track except [`TrackId::MAIN`], which survives
    /// with its value and rate untouched.
    ///
    /// Requires that no pending timer references any track (call
    /// [`Ctx::cancel_all_timers`] first). The fault-lifecycle layer uses
    /// this when a node's behavior is replaced mid-run: the successor
    /// re-creates its tracks from scratch, and `new_track` hands out the
    /// same contiguous indices a boot-time start would have seen — so
    /// layout contracts like "track `1 + i` is estimator `i`" keep
    /// holding across recoveries, and tracks do not grow without bound
    /// under churn.
    ///
    /// # Panics
    ///
    /// Panics if any timer is still pending.
    pub fn reset_tracks(&mut self) {
        assert!(
            !self.state.timer_slots.iter().any(|slot| slot.active),
            "reset_tracks with pending timers on {}: cancel_all_timers first",
            self.node
        );
        self.state.tracks.truncate(1);
        self.state.track_timers.truncate(1);
    }

    /// Cancels a pending timer; cancelling an already-fired or cancelled
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        if self.state.cancel_timer(timer) {
            self.state.counts.timers_cancelled += 1;
        }
    }

    /// Queues the delivery of `msg` to `to`, where it arrives on `port`.
    fn send_to(&mut self, to: NodeId, port: u32, msg: M) {
        let from = self.node;
        let delay = self
            .shared
            .config
            .delay
            .sample(from, to, &mut self.state.delay_rng);
        let time = self.now + delay;
        let tie = self.state.next_tie(from);
        self.queue.push(to, time, tie, || Pending::Message {
            from: id32(from),
            to: id32(to),
            port,
            msg,
        });
    }

    /// Sends `msg` to a neighbor; delivery is delayed per the configured
    /// [`DelayConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `to` is neither a neighbor nor the node itself — the
    /// communication graph restricts even Byzantine nodes.
    pub fn send(&mut self, to: NodeId, msg: M) {
        if to == self.node {
            return self.send_to(to, NO_PORT, msg);
        }
        // One scan is both the neighbour check and the port lookup.
        let Some(link) = self.neighbors().iter().position(|&n| n == to) else {
            panic!("{} attempted to send to non-neighbor {}", self.node, to);
        };
        self.send_to(to, self.shared.back_ports(self.node)[link], msg);
    }

    /// Sends `msg` to every neighbor (not to the sender itself).
    pub fn broadcast(&mut self, msg: M) {
        let shared = self.shared;
        let links = shared.neighbors(self.node).iter();
        for (&to, &port) in links.zip(shared.back_ports(self.node)) {
            self.send_to(to, port, msg.clone());
        }
    }

    /// Sends `msg` to every neighbor *and* to the sender itself (loopback
    /// with the same delay bounds) — the pulse semantics of ClusterSync,
    /// where a node also observes its own pulse.
    pub fn broadcast_with_loopback(&mut self, msg: M) {
        self.broadcast(msg.clone());
        self.send_to(self.node, NO_PORT, msg);
    }

    /// Sends `msg` only to the sender itself (a *virtual* pulse, used by
    /// silent estimator instances).
    pub fn send_self(&mut self, msg: M) {
        self.send_to(self.node, NO_PORT, msg);
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.state.rng
    }

    /// Emits a trace row of `kind` holding `values`; panics, naming the
    /// kind, if they are more than [`RowValues::CAPACITY`].
    pub fn emit(&mut self, kind: &'static str, values: &[f64]) {
        let (n, cap) = (values.len(), RowValues::CAPACITY);
        let values = RowValues::new(values)
            .unwrap_or_else(|| panic!("a `{kind}` row of {n} values: rows hold at most {cap}"));
        self.rows.push((
            self.key,
            Row {
                t: self.now,
                node: self.node,
                kind,
                values,
            },
        ));
    }
}

/// Runs `call` on `cell`'s behavior — taken out meanwhile, so that it
/// can be handed `&mut self` beside the context — with the [`Ctx`] of
/// the event `key` on `node`.
#[inline(always)]
fn with_ctx<M: Clone>(
    cell: &mut NodeCell<M>,
    node: NodeId,
    shared: &SimShared,
    queue: Queue<'_, M>,
    rows: &mut Vec<(Key, Row)>,
    key: Key,
    call: impl FnOnce(&mut dyn Behavior<M>, &mut Ctx<'_, M>),
) {
    let mut behavior = cell.behavior.take().expect("behavior present");
    let mut ctx = Ctx {
        node,
        port: NO_PORT,
        now: key.time,
        key,
        state: &mut cell.state,
        shared,
        queue,
        rows,
    };
    call(&mut *behavior, &mut ctx);
    cell.behavior = Some(behavior);
}

/// Dispatches one popped timer or message event on its owning node,
/// counting it in the node's own state. Inlined into both dispatch
/// loops, so the context is put together from their registers and not
/// from a copy of the arguments.
#[inline(always)]
pub(crate) fn run_event<M: Clone>(
    cell: &mut NodeCell<M>,
    node: NodeId,
    shared: &SimShared,
    queue: Queue<'_, M>,
    rows: &mut Vec<(Key, Row)>,
    key: Key,
    pending: Pending<M>,
) {
    cell.state.counts.events += 1;
    match pending {
        Pending::Timer { id, generation, .. } => {
            let slot = cell.state.timer_slots[id as usize];
            if !slot.active || slot.generation != generation {
                return;
            }
            // Retire the timer before dispatch so the behavior can set a
            // new one from the callback.
            cell.state.retire_fired_timer(id);
            cell.state.counts.timers_fired += 1;
            with_ctx(cell, node, shared, queue, rows, key, |b, ctx| {
                b.on_timer(ctx, slot.tag);
            });
        }
        Pending::Message {
            from, port, msg, ..
        } => {
            cell.state.counts.messages += 1;
            with_ctx(cell, node, shared, queue, rows, key, |b, ctx| {
                ctx.port = port;
                b.on_message(ctx, NodeId(from as usize), &msg);
            });
        }
    }
}

/// The sample chain: when the next periodic clock sample is due, and the
/// one [`ClockSample`] every firing refills. A sample reads every node's
/// clock and no node reacts to it, so it never enters the event store;
/// both dispatch loops fire it once every node event before its instant
/// has run.
pub(crate) struct Samples {
    /// The pending sample instant (`None`: no chain). Each fired sample
    /// re-arms it; `set_sample_interval` restarting a chain replaces it.
    pending: Option<SimTime>,
    /// Refilled by every firing, so sampling allocates nothing once its
    /// vectors hold every node.
    sample: ClockSample,
}

impl Samples {
    /// The pending sample instant.
    pub(crate) fn next(&self) -> Option<SimTime> {
        self.pending
    }

    /// Fires the sample due at `now`, the pending instant: `clocks` is
    /// every node's logical clock ([`NodeState::read_clocks`]) at `now`,
    /// in node order, and refills the one vector the sample holds.
    /// Streams it to `obs` and re-arms it `interval` later (`None` ends
    /// the chain). An interval below the f64 spacing at `now` would
    /// re-arm it at the same instant for ever: that is a panic, not a
    /// hang.
    pub(crate) fn fire(
        &mut self,
        now: SimTime,
        clocks: impl Iterator<Item = f64>,
        interval: Option<SimDuration>,
        obs: &mut dyn Observer,
    ) {
        let sample = &mut self.sample;
        sample.t = now;
        sample.logical.clear();
        sample.logical.extend(clocks);
        obs.on_sample(sample);
        debug_assert_eq!(self.pending, Some(now), "not the pending sample");
        self.pending = interval.map(|interval| {
            let next = now + interval;
            assert!(
                next > now,
                "sample interval {} s is below the f64 spacing at t = {now}",
                interval.as_secs()
            );
            next
        });
    }
}

/// Builder for a [`Simulation`].
///
/// # Examples
///
/// ```
/// use ftgcs_sim::engine::{SimBuilder, SimConfig};
/// use ftgcs_sim::node::{Behavior, NodeId, TimerTag};
/// use ftgcs_sim::engine::Ctx;
///
/// struct Quiet;
/// impl Behavior<()> for Quiet {
///     fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
///     fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
///     fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {}
/// }
///
/// let mut b = SimBuilder::new(SimConfig::default());
/// let a = b.add_node(Box::new(Quiet));
/// let c = b.add_node(Box::new(Quiet));
/// b.add_edge(a, c);
/// let sim = b.build();
/// assert_eq!(sim.node_count(), 2);
/// ```
pub struct SimBuilder<M> {
    config: SimConfig,
    behaviors: Vec<Box<dyn Behavior<M>>>,
    /// Every `add_edge(a, b)`, in call order: what `build` lays the
    /// neighbour lists and ports out from.
    edges: Vec<(u32, u32)>,
    rate_overrides: Vec<Option<RateModel>>,
}

impl<M> std::fmt::Debug for SimBuilder<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimBuilder(nodes={})", self.behaviors.len())
    }
}

impl<M: Clone> SimBuilder<M> {
    /// Creates a builder with the given configuration and no nodes.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        SimBuilder {
            config,
            behaviors: Vec::new(),
            edges: Vec::new(),
            rate_overrides: Vec::new(),
        }
    }

    /// Adds a node driven by `behavior`, returning its id.
    pub fn add_node(&mut self, behavior: Box<dyn Behavior<M>>) -> NodeId {
        self.behaviors.push(behavior);
        self.rate_overrides.push(None);
        NodeId(self.behaviors.len() - 1)
    }

    /// Adds an undirected communication edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or unknown endpoints; a duplicate edge
    /// panics in [`SimBuilder::build`].
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self-loops are implicit (loopback), not edges");
        let n = self.behaviors.len();
        assert!(a.index() < n && b.index() < n, "unknown endpoint");
        let id = |v: NodeId| u32::try_from(v.index()).expect("fewer than 2^32 nodes");
        self.edges.push((id(a), id(b)));
    }

    /// Overrides the hardware rate model of one node.
    pub fn set_rate_model(&mut self, node: NodeId, model: RateModel) {
        self.rate_overrides[node.index()] = Some(model);
    }

    /// Finalizes the simulation. Behaviors' `on_start` runs on the first
    /// [`Simulation::run_until_with`] call.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate edge; if [`SchedulerKind::Parallel`] is
    /// selected with a partition that does not cover exactly the
    /// simulation's nodes, or with a zero lookahead (`d == U`) — the
    /// conservative windows would make no progress; or if there are 2³²
    /// nodes or more (a queued event stores node ids as `u32`).
    #[must_use]
    pub fn build(self) -> Simulation<M> {
        let n = self.behaviors.len();
        assert!(
            u32::try_from(n).is_ok(),
            "a queued event stores node ids as u32: {n} nodes are too many"
        );
        // Degrees first, so every node's run of the flat lists is sized
        // once: `first_port[v]` is where `v`'s run begins.
        let mut first_port = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            first_port[a as usize + 1] += 1;
            first_port[b as usize + 1] += 1;
        }
        for v in 0..n {
            first_port[v + 1] = first_port[v]
                .checked_add(first_port[v + 1])
                .expect("fewer than 2^32 directed links");
        }
        // One pass over the edges: an edge is the next link at each of
        // its ends, and each end's position is the port the other's
        // messages arrive on.
        let links = first_port[n] as usize;
        let mut neighbors = vec![NodeId(0); links];
        let mut back_port = vec![0u32; links];
        let mut next = first_port.clone();
        for &(a, b) in &self.edges {
            let (at_a, at_b) = (next[a as usize], next[b as usize]);
            neighbors[at_a as usize] = NodeId(b as usize);
            neighbors[at_b as usize] = NodeId(a as usize);
            back_port[at_a as usize] = at_b - first_port[b as usize];
            back_port[at_b as usize] = at_a - first_port[a as usize];
            next[a as usize] += 1;
            next[b as usize] += 1;
        }
        // Duplicates, one sorted copy of each node's run: O(d log d).
        let mut run = Vec::new();
        for a in 0..n {
            run.clear();
            run.extend_from_slice(&neighbors[first_port[a] as usize..first_port[a + 1] as usize]);
            run.sort_unstable();
            if let Some(pair) = run.windows(2).find(|pair| pair[0] == pair[1]) {
                panic!("duplicate edge {}-{}", NodeId(a), pair[0]);
            }
        }
        let max_delay = self.config.delay.max_delay();
        let store = match &self.config.scheduler {
            SchedulerKind::Global => EventStore::new(&Partition::single(n), 1, max_delay),
            SchedulerKind::Parallel { partition, workers } => {
                assert_eq!(
                    partition.node_count(),
                    n,
                    "scheduler partition covers {} nodes but the simulation has {n}",
                    partition.node_count()
                );
                assert!(
                    self.config.delay.min_delay().is_positive(),
                    "the parallel scheduler requires a positive lookahead (d − U > 0)"
                );
                let resolved = resolve_workers(*workers, partition.shard_count());
                EventStore::new(partition, resolved, max_delay)
            }
        };
        let root = SimRng::seed_from(self.config.seed);
        let cells = self
            .behaviors
            .into_iter()
            .enumerate()
            .map(|(i, behavior)| {
                let model = self.rate_overrides[i]
                    .clone()
                    .unwrap_or_else(|| self.config.rate_model.clone());
                NodeCell {
                    state: NodeState {
                        clock: HardwareClock::new(
                            self.config.rho,
                            model,
                            root.derive("clock", i as u64),
                        ),
                        tracks: vec![Track {
                            hw_anchor: 0.0,
                            value_anchor: 0.0,
                            multiplier: 1.0,
                        }],
                        track_timers: vec![Vec::new()],
                        timer_slots: Vec::new(),
                        timer_free: Vec::new(),
                        rng: root.derive("node", i as u64),
                        delay_rng: root.derive("delay", i as u64),
                        key_counter: 0,
                        counts: NodeCounts::default(),
                    },
                    behavior: Some(behavior),
                }
            })
            .collect();
        Simulation {
            now: SimTime::ZERO,
            telemetry: Telemetry::new(self.config.telemetry),
            shared: SimShared {
                config: self.config,
                neighbors,
                back_port,
                first_port,
            },
            cells,
            store,
            counts: EngineCounts::default(),
            samples: Samples {
                pending: None,
                sample: ClockSample {
                    t: SimTime::ZERO,
                    logical: Vec::with_capacity(n),
                },
            },
            rows: Vec::new(),
            started: false,
        }
    }
}

/// A runnable discrete-event simulation.
pub struct Simulation<M> {
    pub(crate) now: SimTime,
    pub(crate) shared: SimShared,
    pub(crate) cells: Vec<NodeCell<M>>,
    pub(crate) store: EventStore<M>,
    /// Samples and windows, counted by whichever loop runs.
    pub(crate) counts: EngineCounts,
    /// Wall-clock phase timing (the `telemetry` flag).
    pub(crate) telemetry: Telemetry,
    /// When the clock samples are due, and the sample they refill.
    pub(crate) samples: Samples,
    /// The rows of one serial dispatch, flushed to the observer after it.
    rows: Vec<(Key, Row)>,
    started: bool,
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation(nodes={}, now={}, events={})",
            self.cells.len(),
            self.now,
            self.stats().events
        )
    }
}

impl<M> Simulation<M> {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.cells.len()
    }

    /// Current Newtonian time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Work counters for the run so far: every node's counts summed,
    /// plus the engine's samples.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut stats = SimStats {
            events: self.counts.samples,
            ..SimStats::default()
        };
        for cell in &self.cells {
            let c = &cell.state.counts;
            stats.events += c.events;
            stats.messages += c.messages;
            stats.timers += c.timers_fired;
        }
        stats
    }

    /// Snapshot of the runtime telemetry recorded so far (see
    /// [`crate::telemetry`]): the nodes' counts grouped by the store's
    /// shard map (the global scheduler has one shard), beside the
    /// coordinator's and the parallel store's own. The counts are kept
    /// on every run; the wall-clock phases only when the simulation was
    /// built with `telemetry: true`, which the report's `enabled` says.
    #[must_use]
    pub fn telemetry(&self) -> TelemetryReport {
        let store = &self.store;
        let mut per_shard = store.shard_reports();
        for (cell, &s) in self.cells.iter().zip(&store.shard_of) {
            per_shard[s as usize].add_node(&cell.state.counts);
        }
        let (scheduler, workers, per_worker) = match self.shared.config.scheduler {
            SchedulerKind::Global => ("global", None, Vec::new()),
            SchedulerKind::Parallel { .. } => {
                ("parallel", Some(store.workers), store.worker_reports())
            }
        };
        self.telemetry.report(
            scheduler,
            workers,
            per_shard,
            self.counts,
            QueueStats::of_shards(&store.shards),
            per_worker,
        )
    }

    /// Current main logical clock value `L_v` of a node.
    #[must_use]
    pub fn logical_value(&mut self, node: NodeId) -> f64 {
        let now = self.now;
        self.cells[node.index()]
            .state
            .track_value(TrackId::MAIN, now)
    }

    /// Current value of an arbitrary track of a node.
    #[must_use]
    pub fn track_value_of(&mut self, node: NodeId, track: TrackId) -> f64 {
        let now = self.now;
        self.cells[node.index()].state.track_value(track, now)
    }

    /// Current hardware reading of a node.
    #[must_use]
    pub fn hardware_value(&mut self, node: NodeId) -> f64 {
        let now = self.now;
        self.cells[node.index()].state.hardware_now(now)
    }

    /// Switches the message-delay distribution mid-run. The bounds
    /// `[d−U, d]` are unchanged — the adversary is free to re-pick the
    /// schedule within them at any time, and regime switches (stretch
    /// with maximal delays, then compress with minimal ones) are the
    /// classic worst case for master/slave synchronization. Messages
    /// already in flight keep their sampled delays.
    pub fn set_delay_distribution(&mut self, distribution: DelayDistribution) {
        self.shared.config.delay.set_distribution(distribution);
    }

    /// Changes the clock-sampling interval mid-run (e.g. to record a
    /// short window at high resolution). Takes effect from the next
    /// pending sample, and `None` ends the chain after it. If sampling
    /// was configured off, the chain restarts at the current time,
    /// replacing a sample still pending from before: there is only
    /// ever one chain.
    pub fn set_sample_interval(&mut self, interval: Option<SimDuration>) {
        let was_off = self.shared.config.sample_interval.is_none();
        self.shared.config.sample_interval = interval;
        if was_off && interval.is_some() && self.started {
            self.samples.pending = Some(self.now);
        }
    }
}

impl<M: Clone + Send> Simulation<M> {
    pub(crate) fn start_if_needed(&mut self, obs: &mut dyn Observer) {
        if self.started {
            return;
        }
        self.started = true;
        if self.shared.config.sample_interval.is_some() {
            self.samples.pending = Some(SimTime::ZERO);
        }
        let Simulation {
            shared,
            cells,
            store,
            rows,
            ..
        } = self;
        let mut outbox = new_outbox(store.shards.len());
        for (i, cell) in cells.iter_mut().enumerate() {
            let my_shard = store.shard_of[i];
            let queue = Queue {
                local: &mut store.shards[my_shard as usize],
                outbox: &mut outbox,
                shard_of: &store.shard_of,
                my_shard,
            };
            // Boot phase, always serial: every `on_start` at the zero key.
            let key = Key {
                time: SimTime::ZERO,
                tie: 0,
            };
            with_ctx(cell, NodeId(i), shared, queue, rows, key, |b, ctx| {
                b.on_start(ctx);
            });
            // Flushed per node, so every shard receives its events in
            // the order the nodes sent them.
            store.stage(&mut outbox);
            for (_, row) in rows.drain(..) {
                obs.on_row(&row);
            }
        }
    }

    /// Processes events until Newtonian time `until` (inclusive),
    /// streaming every sample and row to `obs`; `now()` afterwards equals
    /// `until` even if the queue drained early. This is the one way to
    /// run a simulation: a caller that wants the whole record passes a
    /// [`Trace`](crate::trace::Trace), the collect-everything
    /// [`Observer`].
    ///
    /// The observer receives samples and rows in the global dispatch
    /// order on every scheduler ([`crate::observe`]). Consecutive calls
    /// continue the run; callers invoke [`Observer::on_finish`] once
    /// after the last.
    ///
    /// # Panics
    ///
    /// A behavior's panic unwinds with the behavior's own payload, on
    /// either scheduler. The parallel scheduler also panics when its
    /// lookahead `d − U` falls below the f64 resolution of the current
    /// time, so that no window can advance (`ScenarioSpec`'s checks
    /// refuse such a configuration before it gets here). Either way,
    /// every row and sample emitted before the panic has already reached
    /// `obs`, in order (on the parallel scheduler, the rows of every
    /// completed window).
    pub fn run_until_with(&mut self, until: SimTime, obs: &mut dyn Observer) {
        self.start_if_needed(obs);
        // Whole-run wall clock (telemetry side channel; inert stamp
        // when telemetry is off).
        let t0 = self.telemetry.stamp();
        match self.shared.config.scheduler {
            SchedulerKind::Global => self.run_serial(until, obs),
            SchedulerKind::Parallel { .. } => self.run_parallel(until, obs),
        }
        self.telemetry.phase(Phase::Total, t0);
    }

    /// The reference loop: the store's one shard, drained on the calling
    /// thread, with no windows. Node events due strictly before the next
    /// sample dispatch first, then the sample fires.
    fn run_serial(&mut self, until: SimTime, obs: &mut dyn Observer) {
        let Simulation {
            now,
            shared,
            cells,
            store,
            counts,
            samples,
            rows,
            ..
        } = self;
        debug_assert_eq!(store.shards.len(), 1, "the global scheduler has one shard");
        let queue = &mut store.shards[0];
        let shard_of = &store.shard_of;
        loop {
            let next = samples.next();
            let cap = next.map_or(f64::INFINITY, SimTime::as_secs);
            let due = |time: SimTime| time.as_secs() <= until.as_secs() && time.as_secs() < cap;
            while let Some((key, pending)) = queue.pop_if(due) {
                debug_assert!(key.time >= *now, "time went backwards");
                *now = key.time;
                let node = pending.owner();
                run_event(
                    &mut cells[node.index()],
                    node,
                    shared,
                    Queue {
                        local: queue,
                        outbox: &mut [],
                        shard_of,
                        my_shard: 0,
                    },
                    rows,
                    key,
                    pending,
                );
                for (_, row) in rows.drain(..) {
                    obs.on_row(&row);
                }
            }
            // Sampling continues across consecutive run_until_with calls: a
            // sample beyond `until` stays pending (`None` ends the chain;
            // a later set_sample_interval restarts it).
            let Some(time) = next.filter(|&time| time <= until) else {
                break;
            };
            debug_assert!(time >= *now, "time went backwards");
            *now = time;
            counts.samples += 1;
            let clocks = cells.iter_mut().map(|cell| cell.state.read_clocks(time));
            samples.fire(time, clocks, shared.config.sample_interval, obs);
        }
        *now = until;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DelayDistribution;
    use crate::shard::Partition;
    use crate::trace::Trace;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    enum Msg {
        Ping,
    }

    struct PingPong {
        log: Arc<Mutex<Vec<(NodeId, f64)>>>,
        max_rounds: usize,
        seen: usize,
    }

    impl Behavior<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.my_id() == NodeId(0) {
                ctx.broadcast(Msg::Ping);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.my_id(), ctx.newtonian_now().as_secs()));
            self.seen += 1;
            if self.seen < self.max_rounds {
                ctx.broadcast(Msg::Ping);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
    }

    fn fixed_delay_config() -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::ZERO,
                DelayDistribution::Maximal,
            ),
            rho: 0.0,
            rate_model: RateModel::Constant { frac: 0.0 },
            seed: 42,
            sample_interval: None,
            scheduler: SchedulerKind::Global,
            telemetry: false,
        }
    }

    /// Emits one row per timer tick and panics on the third.
    struct EmitThenBoom {
        ticks: u32,
    }

    impl Behavior<Msg> for EmitThenBoom {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer_at(TrackId::MAIN, 0.1, TimerTag::new(0));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {
            self.ticks += 1;
            assert!(self.ticks < 3, "boom");
            ctx.emit("tick", &[f64::from(self.ticks)]);
            let next = ctx.track_value(TrackId::MAIN) + 0.1;
            ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
        }
    }

    #[test]
    fn trace_recorded_before_a_behavior_panic_is_preserved() {
        let parallel = SchedulerKind::Parallel {
            partition: Partition::by_blocks(2, 1),
            workers: 2,
        };
        for scheduler in [SchedulerKind::Global, parallel] {
            let mut b = SimBuilder::new(SimConfig {
                scheduler,
                ..fixed_delay_config()
            });
            b.add_node(Box::new(EmitThenBoom { ticks: 0 }));
            b.add_node(Box::new(EmitThenBoom { ticks: 0 }));
            let mut sim = b.build();
            let mut trace = Trace::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
            }));
            assert!(outcome.is_err(), "the behavior must have panicked");
            // Everything streamed before the panic is in the caller's
            // trace: both nodes' first two ticks (on the parallel
            // scheduler, the rows of every completed window).
            assert_eq!(trace.rows.len(), 4);
            assert!(trace.rows.iter().all(|row| row.kind == "tick"));
        }
    }

    /// Emits one row of eight values at start.
    struct Overfull;

    impl Behavior<Msg> for Overfull {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.emit("overfull", &[0.0; 8]);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
    }

    #[test]
    #[should_panic(expected = "a `overfull` row of 8 values: rows hold at most 7")]
    fn a_row_of_more_values_than_it_holds_panics_naming_its_kind() {
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(Overfull));
        b.build().run_until_with(SimTime::ZERO, &mut Trace::new());
    }

    #[test]
    fn messages_arrive_with_exact_delay() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(fixed_delay_config());
        let a = b.add_node(Box::new(PingPong {
            log: log.clone(),
            max_rounds: 3,
            seen: 0,
        }));
        let c = b.add_node(Box::new(PingPong {
            log: log.clone(),
            max_rounds: 3,
            seen: 0,
        }));
        b.add_edge(a, c);
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(1.0), &mut Trace::new());
        let log = log.lock().unwrap();
        // Ping bounces: n1 at 1ms, n0 at 2ms, n1 at 3ms, ...
        assert!(log.len() >= 4);
        for (i, (node, t)) in log.iter().take(4).enumerate() {
            assert_eq!(node.index(), (i + 1) % 2);
            assert!((t - 1e-3 * (i + 1) as f64).abs() < 1e-12);
        }
    }

    struct TimerNode {
        fired: Arc<Mutex<Vec<f64>>>,
        plan: &'static str,
    }

    impl Behavior<()> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            match self.plan {
                "simple" => {
                    ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(0));
                }
                "retimed" => {
                    ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(0));
                    // At logical 1.0, double the rate.
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                "jump" => {
                    ctx.set_timer_at(TrackId::MAIN, 5.0, TimerTag::new(0));
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                _ => unreachable!(),
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            match tag.kind {
                0 => self
                    .fired
                    .lock()
                    .unwrap()
                    .push(ctx.newtonian_now().as_secs()),
                1 if self.plan == "retimed" => ctx.set_multiplier(TrackId::MAIN, 2.0),
                1 if self.plan == "jump" => ctx.jump_track(TrackId::MAIN, 10.0),
                _ => unreachable!(),
            }
        }
    }

    fn run_timer_plan(plan: &'static str) -> Vec<f64> {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(TimerNode {
            fired: fired.clone(),
            plan,
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(100.0), &mut Trace::new());
        let v = fired.lock().unwrap().clone();
        v
    }

    #[test]
    fn timer_fires_at_exact_logical_target() {
        let fired = run_timer_plan("simple");
        assert_eq!(fired.len(), 1);
        assert!((fired[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiplier_change_reschedules_timer() {
        // Rate 1 until L=1 (t=1), then rate 2: L=2 at t = 1 + 0.5.
        let fired = run_timer_plan("retimed");
        assert_eq!(fired.len(), 1);
        assert!((fired[0] - 1.5).abs() < 1e-12, "fired at {}", fired[0]);
    }

    #[test]
    fn jump_past_target_fires_immediately() {
        // Timer at L=5; at t=1 the track jumps to 10 → fires at t=1.
        let fired = run_timer_plan("jump");
        assert_eq!(fired.len(), 1);
        assert!((fired[0] - 1.0).abs() < 1e-12, "fired at {}", fired[0]);
    }

    struct CancelNode {
        fired: Arc<Mutex<Vec<u32>>>,
    }

    impl Behavior<()> for CancelNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            let t1 = ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
            ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(2));
            ctx.cancel_timer(t1);
            ctx.cancel_timer(t1); // double-cancel is a no-op
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            self.fired.lock().unwrap().push(tag.kind);
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(CancelNode {
            fired: fired.clone(),
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(10.0), &mut Trace::new());
        assert_eq!(*fired.lock().unwrap(), vec![2]);
    }

    /// Exercises the lifecycle primitives: Newtonian timers,
    /// `cancel_all_timers`, and `reset_tracks`.
    struct LifecyclePrims {
        fired: Arc<Mutex<Vec<(u32, f64)>>>,
        plan: &'static str,
    }

    impl Behavior<()> for LifecyclePrims {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            match self.plan {
                "newtonian" => {
                    // Track runs at double rate: the logical timer for
                    // L = 2 fires at t = 1, while the Newtonian timer
                    // for t = 2 ignores the track entirely.
                    ctx.set_multiplier(TrackId::MAIN, 2.0);
                    ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(1));
                    ctx.set_timer_at_newtonian(2.0, TimerTag::new(2));
                }
                "newtonian-reanchor" => {
                    // A value jump reschedules pending logical timers
                    // (reanchor) but must leave Newtonian ones alone.
                    ctx.set_timer_at_newtonian(3.0, TimerTag::new(2));
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                "newtonian-past" => {
                    // A target in the past clamps to "now" (fires on the
                    // next dispatch), never schedules backwards.
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                "cancel-all" | "reset" => {
                    ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(3));
                    ctx.set_timer_at_newtonian(2.5, TimerTag::new(4));
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                "reset-pending" => {
                    ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(3));
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                "reset-newtonian-pending" => {
                    // Tag 1 is the only track timer: once it fires, the
                    // Newtonian timer alone is pending.
                    ctx.set_timer_at_newtonian(2.0, TimerTag::new(4));
                    ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1));
                }
                _ => unreachable!(),
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            self.fired
                .lock()
                .unwrap()
                .push((tag.kind, ctx.newtonian_now().as_secs()));
            if tag.kind != 1 {
                return;
            }
            match self.plan {
                "newtonian-reanchor" => ctx.jump_track(TrackId::MAIN, 10.0),
                "newtonian-past" => {
                    ctx.set_timer_at_newtonian(0.25, TimerTag::new(2));
                }
                "cancel-all" => {
                    assert_eq!(ctx.cancel_all_timers(), 2);
                    assert_eq!(ctx.cancel_all_timers(), 0);
                }
                "reset" => {
                    let extra = ctx.new_track(0.0, 1.0);
                    assert_eq!(extra.index(), 1);
                    ctx.cancel_all_timers();
                    ctx.reset_tracks();
                    // A fresh track re-issues the first extra index.
                    assert_eq!(ctx.new_track(5.0, 1.0).index(), 1);
                }
                "reset-pending" | "reset-newtonian-pending" => ctx.reset_tracks(),
                _ => {}
            }
        }
    }

    fn run_lifecycle_plan(plan: &'static str) -> Vec<(u32, f64)> {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(LifecyclePrims {
            fired: fired.clone(),
            plan,
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(10.0), &mut Trace::new());
        let v = fired.lock().unwrap().clone();
        v
    }

    #[test]
    fn newtonian_timer_ignores_track_rate() {
        let fired = run_lifecycle_plan("newtonian");
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].0, 1);
        assert!(
            (fired[0].1 - 1.0).abs() < 1e-12,
            "logical at {}",
            fired[0].1
        );
        assert_eq!(fired[1].0, 2);
        assert!(
            (fired[1].1 - 2.0).abs() < 1e-12,
            "newtonian at {}",
            fired[1].1
        );
    }

    #[test]
    fn newtonian_timer_survives_reanchor() {
        // The jump at t = 1 fires nothing early: the Newtonian timer
        // still lands at exactly t = 3.
        let fired = run_lifecycle_plan("newtonian-reanchor");
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[1].0, 2);
        assert!((fired[1].1 - 3.0).abs() < 1e-12, "fired at {}", fired[1].1);
    }

    #[test]
    fn newtonian_timer_in_the_past_fires_now() {
        let fired = run_lifecycle_plan("newtonian-past");
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[1].0, 2);
        assert!((fired[1].1 - 1.0).abs() < 1e-12, "fired at {}", fired[1].1);
    }

    #[test]
    fn cancel_all_timers_silences_both_kinds() {
        let fired = run_lifecycle_plan("cancel-all");
        assert_eq!(fired, vec![(1, 1.0)]);
    }

    #[test]
    fn reset_tracks_reissues_track_indices() {
        let fired = run_lifecycle_plan("reset");
        assert_eq!(fired, vec![(1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "cancel_all_timers first")]
    fn reset_tracks_with_pending_timers_panics() {
        let _ = run_lifecycle_plan("reset-pending");
    }

    #[test]
    #[should_panic(expected = "cancel_all_timers first")]
    fn reset_tracks_with_only_a_newtonian_timer_pending_panics() {
        let _ = run_lifecycle_plan("reset-newtonian-pending");
    }

    struct StaleCanceller {
        fired: Arc<Mutex<Vec<u32>>>,
        first: Option<TimerId>,
    }

    impl Behavior<()> for StaleCanceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.first = Some(ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(1)));
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            self.fired.lock().unwrap().push(tag.kind);
            if tag.kind == 1 {
                // Timer 1 just fired, freeing its slot; the next timer
                // reuses it. Cancelling the *stale* handle must be a
                // no-op and leave the successor alive.
                let successor = ctx.set_timer_at(TrackId::MAIN, 2.0, TimerTag::new(2));
                let stale = self.first.take().expect("handle stored at start");
                assert_ne!(stale, successor, "epoch must distinguish reused slots");
                ctx.cancel_timer(stale);
            }
        }
    }

    #[test]
    fn stale_handle_cannot_cancel_a_slot_reusing_successor() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(StaleCanceller {
            fired: fired.clone(),
            first: None,
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(10.0), &mut Trace::new());
        assert_eq!(*fired.lock().unwrap(), vec![1, 2]);
    }

    struct Extra {
        track: Option<TrackId>,
    }

    impl Behavior<()> for Extra {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            let tr = ctx.new_track(100.0, 0.5);
            self.track = Some(tr);
            ctx.set_timer_at(tr, 101.0, TimerTag::new(7));
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            assert_eq!(tag.kind, 7);
            ctx.emit("extra_fired", &[ctx.newtonian_now().as_secs()]);
        }
    }

    #[test]
    fn extra_tracks_advance_at_their_multiplier() {
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(Extra { track: None }));
        let mut sim = b.build();
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(10.0), &mut trace);
        // multiplier 0.5 → track gains 1.0 after 2 s.
        let rows: Vec<_> = trace.rows_of_kind("extra_fired").collect();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].values[0] - 2.0).abs() < 1e-12);
        assert_eq!(
            sim.track_value_of(NodeId(0), TrackId(1)),
            100.0 + 0.5 * 10.0
        );
    }

    #[test]
    fn sampling_records_grid() {
        let mut config = fixed_delay_config();
        config.sample_interval = Some(SimDuration::from_secs(0.25));
        let mut b = SimBuilder::new(config);
        b.add_node(Box::new(CancelNode {
            fired: Arc::new(Mutex::new(Vec::new())),
        }));
        let mut sim = b.build();
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
        let samples = &trace.samples;
        assert_eq!(samples.len(), 5); // t = 0, .25, .5, .75, 1.0
        assert!((samples[4].logical[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut config = SimConfig {
                seed: 7,
                ..SimConfig::default()
            };
            config.sample_interval = Some(SimDuration::from_millis(100.0));
            let mut b = SimBuilder::new(config);
            let a = b.add_node(Box::new(PingPong {
                log: log.clone(),
                max_rounds: 50,
                seen: 0,
            }));
            let c = b.add_node(Box::new(PingPong {
                log: log.clone(),
                max_rounds: 50,
                seen: 0,
            }));
            b.add_edge(a, c);
            let mut sim = b.build();
            sim.run_until_with(SimTime::from_secs(1.0), &mut Trace::new());
            let v = log.lock().unwrap().clone();
            (v, sim.stats())
        };
        let (l1, s1) = run();
        let (l2, s2) = run();
        assert_eq!(l1, l2);
        assert_eq!(s1, s2);
        assert!(s1.messages > 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        struct Bad;
        impl Behavior<()> for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(NodeId(1), ());
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {}
        }
        let mut b = SimBuilder::new(fixed_delay_config());
        b.add_node(Box::new(Bad));
        b.add_node(Box::new(CancelNode {
            fired: Arc::new(Mutex::new(Vec::new())),
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(1.0), &mut Trace::new());
    }

    #[test]
    #[should_panic(expected = "duplicate edge n1-n2")]
    fn a_duplicate_edge_is_refused_by_name() {
        let mut b = SimBuilder::<()>::new(fixed_delay_config());
        let ids: Vec<NodeId> = (0..3)
            .map(|_| {
                b.add_node(Box::new(CancelNode {
                    fired: Arc::new(Mutex::new(Vec::new())),
                }))
            })
            .collect();
        b.add_edge(ids[1], ids[2]);
        b.add_edge(ids[0], ids[1]);
        b.add_edge(ids[1], ids[2]);
        let _ = b.build();
    }

    #[test]
    fn run_until_advances_now_even_when_idle() {
        let mut b = SimBuilder::<()>::new(fixed_delay_config());
        b.add_node(Box::new(CancelNode {
            fired: Arc::new(Mutex::new(Vec::new())),
        }));
        let mut sim = b.build();
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(3.5), &mut trace);
        assert_eq!(sim.now(), SimTime::from_secs(3.5));
        sim.run_until_with(SimTime::from_secs(4.0), &mut trace);
        assert_eq!(sim.now(), SimTime::from_secs(4.0));
        assert!((sim.logical_value(NodeId(0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_survives_consecutive_run_until_calls() {
        let mut config = fixed_delay_config();
        config.sample_interval = Some(SimDuration::from_millis(100.0));
        let mut b = SimBuilder::<()>::new(config);
        b.add_node(Box::new(CancelNode {
            fired: Arc::new(Mutex::new(Vec::new())),
        }));
        let mut sim = b.build();
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
        let after_first = trace.samples.len();
        sim.run_until_with(SimTime::from_secs(2.0), &mut trace);
        let after_second = trace.samples.len();
        assert!(after_first >= 10);
        // The sample chain must keep running in the second window.
        assert!(
            after_second >= after_first + 9,
            "sampling died between calls: {after_first} -> {after_second}"
        );
    }

    #[test]
    fn sample_interval_can_be_retuned_mid_run() {
        let mut config = fixed_delay_config();
        config.sample_interval = Some(SimDuration::from_millis(500.0));
        let mut b = SimBuilder::<()>::new(config);
        b.add_node(Box::new(CancelNode {
            fired: Arc::new(Mutex::new(Vec::new())),
        }));
        let mut sim = b.build();
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(1.0), &mut trace);
        let coarse = trace.samples.len();
        sim.set_sample_interval(Some(SimDuration::from_millis(10.0)));
        sim.run_until_with(SimTime::from_secs(2.0), &mut trace);
        let fine = trace.samples.len() - coarse;
        assert!(coarse <= 4, "coarse phase oversampled: {coarse}");
        // The new interval takes effect after the pending coarse sample
        // (up to one old interval of latency), so ~50 of the 100 fine
        // slots are guaranteed.
        assert!(fine >= 45, "fine phase undersampled: {fine}");
    }

    #[test]
    fn delay_distribution_switch_applies_to_new_messages() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut config = fixed_delay_config();
        // U = 0.5 ms so Maximal (1 ms) and Minimal (0.5 ms) differ.
        config.delay = DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(500.0),
            DelayDistribution::Maximal,
        );
        let mut b = SimBuilder::new(config);
        let a = b.add_node(Box::new(PingPong {
            log: log.clone(),
            max_rounds: 100,
            seen: 0,
        }));
        let c = b.add_node(Box::new(PingPong {
            log: log.clone(),
            max_rounds: 100,
            seen: 0,
        }));
        b.add_edge(a, c);
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(0.0105), &mut Trace::new());
        // ~10 hops at 1 ms each.
        let hops_maximal = log.lock().unwrap().len();
        sim.set_delay_distribution(DelayDistribution::Minimal);
        sim.run_until_with(SimTime::from_secs(0.021), &mut Trace::new());
        let hops_minimal = log.lock().unwrap().len() - hops_maximal;
        // Same wall-clock window, half the delay: about twice the hops.
        assert!(
            hops_minimal >= hops_maximal + 5,
            "minimal-delay phase should roughly double throughput: \
             {hops_maximal} then {hops_minimal}"
        );
    }
}
