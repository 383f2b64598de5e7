//! Byzantine fault strategies.
//!
//! The model places no restriction on faulty nodes (paper, Section 2,
//! "Faults"): they need not broadcast, may send at arbitrary times, and may
//! send different messages to different neighbors. True worst-case behavior
//! cannot be enumerated, so this module provides concrete adversaries that
//! attack each defended surface:
//!
//! | strategy | attacks |
//! |---|---|
//! | [`SilentNode`] / crash | liveness of pulse collection (missing entries) |
//! | [`RandomPulser`] | round attribution windows |
//! | [`TwoFacedPulser`] | agreement: different timing per receiver |
//! | [`SkewPuller`] | validity: drag the cluster's midpoint |
//! | [`StealthyRusher`] | rate bounds: plausible-but-too-fast pulses |
//! | [`LevelFlooder`] | the `f+1` confirmation rule of the max estimator |
//!
//! Strategies that need to stay *plausible* (land inside the listening
//! window round after round) track their own cluster with a silent
//! [`ClusterInstance`] — the same estimator machinery correct neighbors
//! use — and then time their lies relative to that estimate.

use std::sync::Arc;

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};

use crate::cluster::{ClusterInstance, InstanceEvent, TIMER_ROUND_END};
use crate::messages::Msg;
use crate::node::{FtGcsNode, NodeConfig};
use crate::params::Params;

/// Timer kind for a Byzantine node's "early face" pulse.
const TIMER_EARLY: u32 = 10;
/// Timer kind for a Byzantine node's "late face" pulse.
const TIMER_LATE: u32 = 11;
/// Timer kind for periodic Byzantine actions.
const TIMER_PERIODIC: u32 = 12;
/// Timer kind for [`LifecycleNode`] phase transitions. Outside every
/// namespace the wrapped behaviors use (cluster timers 1–3, the max
/// estimator's 4, fault timers 10–12), so the wrapper can route by kind
/// alone.
pub const TIMER_LIFECYCLE: u32 = 20;

/// Trace row kind emitted when [`TwoFacedPulser`] skips a degenerate
/// early face: `values = [round, target, amplitude]`.
pub const ROW_FACE_SKIPPED: &str = "face_skipped";

/// A fault strategy, used by the scenario runner to instantiate behaviors.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Never sends anything (fail-silent from the start).
    Silent,
    /// Runs the correct protocol until the given Newtonian time, then goes
    /// silent (a crash; equivalent to deleting its links, cf. §1).
    Crash {
        /// Crash time (Newtonian seconds).
        at: f64,
    },
    /// Sends pulses to all neighbors at random intervals.
    RandomPulser {
        /// Mean interval between pulse volleys (seconds).
        mean_interval: f64,
    },
    /// Sends each round's pulse *early* to half its neighbors and *late*
    /// to the other half, by ±`amplitude` logical seconds around the
    /// correct pulse time.
    TwoFaced {
        /// Timing asymmetry (logical seconds); keep below `ϕ·τ₃` to stay
        /// plausible.
        amplitude: f64,
    },
    /// Sends every pulse `offset` logical seconds away from the correct
    /// time (negative = early, trying to drag the cluster fast).
    SkewPuller {
        /// Constant timing offset (logical seconds).
        offset: f64,
    },
    /// Free-runs the round schedule at a rate beyond the legal bound,
    /// drifting steadily ahead of the cluster.
    StealthyRusher {
        /// Extra rate beyond `(1+ϕ)(1+µ)` (e.g. `0.01` = 1% fast).
        extra_rate: f64,
    },
    /// Broadcasts absurd max-estimator levels to inflate `M_v`.
    LevelFlooder {
        /// Level increment announced per round.
        level_step: u64,
    },
}

/// Builds the behavior implementing `kind` for the node described by
/// `cfg`.
#[must_use]
pub fn make_fault_behavior(kind: &FaultKind, cfg: NodeConfig) -> Box<dyn Behavior<Msg>> {
    make_fault_behavior_at(kind, cfg, 0.0, 1)
}

/// Builds the behavior implementing `kind` for a node that takes up the
/// strategy **mid-run**, at Newtonian time `nominal` during round
/// `round` (per [`rejoin_round`]). `make_fault_behavior` is the boot
/// special case `(nominal, round) = (0.0, 1)`.
///
/// Strategies that follow their own cluster (via a silent tracker
/// instance) open their tracker at value `nominal` in round `round`, so
/// their lies stay plausibly inside the listening windows from the
/// first post-transition round on.
#[must_use]
pub fn make_fault_behavior_at(
    kind: &FaultKind,
    cfg: NodeConfig,
    nominal: f64,
    round: u64,
) -> Box<dyn Behavior<Msg>> {
    match kind {
        FaultKind::Silent => Box::new(SilentNode),
        FaultKind::Crash { at } => Box::new(CrashNode::new_at(cfg, *at, round)),
        FaultKind::RandomPulser { mean_interval } => Box::new(RandomPulser::new(*mean_interval)),
        FaultKind::TwoFaced { amplitude } => {
            Box::new(TwoFacedPulser::new_at(cfg, *amplitude, nominal, round))
        }
        FaultKind::SkewPuller { offset } => {
            Box::new(SkewPuller::new_at(cfg, *offset, nominal, round))
        }
        FaultKind::StealthyRusher { extra_rate } => Box::new(StealthyRusher::new_at(
            Arc::clone(&cfg.params),
            *extra_rate,
            round,
        )),
        FaultKind::LevelFlooder { level_step } => {
            Box::new(LevelFlooder::new(Arc::clone(&cfg.params), *level_step))
        }
    }
}

/// The round a node (re)joining at Newtonian time `nominal` should
/// start in: the smallest round whose pulse time `(r−1)·T + τ₁` lies
/// strictly in the future of `nominal`, so the first thing the rejoined
/// node does is *listen* for a full pulse window rather than resume a
/// round already in flight.
#[must_use]
pub fn rejoin_round(params: &Params, nominal: f64) -> u64 {
    if nominal < params.tau1 {
        return 1;
    }
    let completed = ((nominal - params.tau1) / params.t_round).floor();
    debug_assert!(completed >= 0.0 && completed.is_finite());
    completed as u64 + 2
}

/// A node that never sends anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentNode;

impl Behavior<Msg> for SilentNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
}

/// Correct behavior until a crash time, then silence.
#[derive(Debug)]
pub struct CrashNode {
    inner: FtGcsNode,
    crash_at: f64,
    start_round: u64,
    /// Whether the post-crash timer sweep already ran.
    shut_down: bool,
}

impl CrashNode {
    /// Creates a node that runs `FtGcsNode` semantics from round
    /// `start_round` (1 at boot; see [`rejoin_round`]) until `crash_at`
    /// (Newtonian seconds).
    #[must_use]
    pub fn new_at(cfg: NodeConfig, crash_at: f64, start_round: u64) -> Self {
        CrashNode {
            inner: FtGcsNode::new(cfg),
            crash_at,
            start_round,
            shut_down: false,
        }
    }

    fn alive(&self, ctx: &Ctx<'_, Msg>) -> bool {
        ctx.newtonian_now().as_secs() < self.crash_at
    }

    /// On the first post-crash event, cancels every outstanding timer so
    /// a long-horizon run does not drag the dead node's round schedule
    /// through the event queue forever (a crash deletes the node, cf.
    /// §1 — including its pending work).
    fn shutdown_once(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.shut_down {
            self.shut_down = true;
            ctx.cancel_all_timers();
        }
    }
}

impl Behavior<Msg> for CrashNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.alive(ctx) {
            self.inner.start_at_round(ctx, self.start_round);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        if self.alive(ctx) {
            self.inner.on_message(ctx, from, msg);
        } else {
            self.shutdown_once(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        if self.alive(ctx) {
            self.inner.on_timer(ctx, tag);
        } else {
            self.shutdown_once(ctx);
        }
    }
}

/// Pulses at random times, ignoring the protocol entirely.
#[derive(Debug)]
pub struct RandomPulser {
    mean_interval: f64,
}

impl RandomPulser {
    /// Creates a pulser with the given mean volley interval (seconds).
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    #[must_use]
    pub fn new(mean_interval: f64) -> Self {
        assert!(mean_interval > 0.0, "interval must be positive");
        RandomPulser { mean_interval }
    }

    fn arm(&self, ctx: &mut Ctx<'_, Msg>) {
        let next =
            ctx.track_value(TrackId::MAIN) + ctx.rng().uniform(0.1, 1.9) * self.mean_interval;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_PERIODIC));
    }
}

impl Behavior<Msg> for RandomPulser {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.arm(ctx);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {
        // Send to a random subset of neighbors, one by one (Byzantine
        // nodes are not bound to broadcast).
        for i in 0..ctx.neighbors().len() {
            if ctx.rng().chance(0.7) {
                let to = ctx.neighbors()[i];
                ctx.send(to, Msg::Pulse);
            }
        }
        self.arm(ctx);
    }
}

/// Shared machinery for Byzantine strategies that stay synchronized to
/// their own cluster via a silent tracker instance.
#[derive(Debug)]
struct ClusterFollower {
    tracker: Option<ClusterInstance>,
    params: Arc<Params>,
    cluster_id: usize,
    /// Own-cluster members excluding this node.
    peers: Vec<NodeId>,
    /// The tracker slot of the peer behind each port (`None`: the
    /// neighbour is in another cluster).
    peer_slots: Vec<Option<usize>>,
    /// Tracker clock value at start (0 at boot; ≈ the cluster's logical
    /// clock for strategies adopted mid-run).
    nominal: f64,
    /// Round the tracker opens in (1 at boot; see [`rejoin_round`]).
    start_round: u64,
}

impl ClusterFollower {
    fn new_at(cfg: &NodeConfig, nominal: f64, start_round: u64) -> Self {
        ClusterFollower {
            tracker: None,
            params: Arc::clone(&cfg.params),
            cluster_id: cfg.cluster_id,
            peers: cfg.members.to_vec(),
            peer_slots: Vec::new(),
            nominal,
            start_round,
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.my_id();
        self.peers.retain(|&m| m != me);
        let track = ctx.new_track(self.nominal, 1.0);
        let mut tracker = ClusterInstance::new(
            1,
            track,
            self.cluster_id,
            self.peers.clone(),
            true,
            Arc::clone(&self.params),
        );
        tracker.start_at(ctx, self.start_round);
        self.peer_slots = ctx
            .neighbors()
            .iter()
            .map(|&n| tracker.slot_of(n))
            .collect();
        self.tracker = Some(tracker);
    }

    /// Routes messages into the tracker; returns `true` if consumed.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) -> bool {
        let Some(tracker) = &mut self.tracker else {
            return false;
        };
        match *msg {
            Msg::Pulse => match ctx.sender_port().and_then(|port| self.peer_slots[port]) {
                Some(slot) => {
                    tracker.on_pulse(ctx, slot);
                    true
                }
                None => false,
            },
            Msg::VirtualPulse { instance: 1 } if from == ctx.my_id() => {
                tracker.on_virtual_pulse(ctx);
                true
            }
            _ => false,
        }
    }

    /// Routes tracker timers; returns the instance event if it was a
    /// tracker timer (tag.a == 1).
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) -> Option<InstanceEvent> {
        if tag.a == 1 && tag.kind <= TIMER_ROUND_END {
            let tracker = self.tracker.as_mut().expect("started");
            Some(tracker.on_timer(ctx, tag))
        } else {
            None
        }
    }

    fn track(&self) -> TrackId {
        self.tracker.as_ref().expect("started").track()
    }

    /// Logical time of the next round-`r` pulse on the tracker clock.
    fn pulse_target(&self, round: u64) -> f64 {
        (round - 1) as f64 * self.params.t_round + self.params.tau1
    }
}

/// Sends pulses early to even-indexed neighbors and late to odd-indexed
/// ones — the classic equivocation attack on agreement-based sync.
#[derive(Debug)]
pub struct TwoFacedPulser {
    follower: ClusterFollower,
    amplitude: f64,
}

impl TwoFacedPulser {
    /// Creates the attacker; `amplitude` is the ± timing lie in logical
    /// seconds. The tracker opens at clock value `nominal` in round
    /// `round` (`(0.0, 1)` at boot; see [`rejoin_round`]).
    #[must_use]
    pub fn new_at(cfg: NodeConfig, amplitude: f64, nominal: f64, round: u64) -> Self {
        TwoFacedPulser {
            follower: ClusterFollower::new_at(&cfg, nominal, round),
            amplitude: amplitude.abs(),
        }
    }

    fn schedule_faces(&self, ctx: &mut Ctx<'_, Msg>, round: u64) {
        let target = self.follower.pulse_target(round);
        let track = self.follower.track();
        let tag = |kind: u32| TimerTag::new(kind).with_b(round);
        let early = target - self.amplitude;
        if early > 0.0 {
            ctx.set_timer_at(track, early, tag(TIMER_EARLY));
        } else {
            // `amplitude ≥ target` (possible in round 1 when the lie
            // exceeds τ₁): clamping onto t = 0 would make the "early"
            // face indistinguishable from start-of-round noise, so the
            // degenerate face is skipped and logged instead.
            ctx.emit(ROW_FACE_SKIPPED, &[round as f64, target, self.amplitude]);
        }
        ctx.set_timer_at(track, target + self.amplitude, tag(TIMER_LATE));
    }

    fn send_face(&self, ctx: &mut Ctx<'_, Msg>, early: bool) {
        for i in 0..ctx.neighbors().len() {
            if (i % 2 == 0) == early {
                let to = ctx.neighbors()[i];
                ctx.send(to, Msg::Pulse);
            }
        }
    }
}

impl Behavior<Msg> for TwoFacedPulser {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.follower.start(ctx);
        self.schedule_faces(ctx, self.follower.start_round);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let _ = self.follower.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        match tag.kind {
            TIMER_EARLY => self.send_face(ctx, true),
            TIMER_LATE => self.send_face(ctx, false),
            _ => {
                if let Some(InstanceEvent::RoundEnded { new_round }) =
                    self.follower.on_timer(ctx, tag)
                {
                    self.schedule_faces(ctx, new_round);
                }
            }
        }
    }
}

/// Sends every pulse at a constant offset from the correct time, trying to
/// drag the cluster's trimmed midpoint.
#[derive(Debug)]
pub struct SkewPuller {
    follower: ClusterFollower,
    offset: f64,
}

impl SkewPuller {
    /// Creates the attacker; negative `offset` pulses early (pulls the
    /// cluster fast), positive pulses late. The tracker opens at clock
    /// value `nominal` in round `round` (`(0.0, 1)` at boot; see
    /// [`rejoin_round`]).
    #[must_use]
    pub fn new_at(cfg: NodeConfig, offset: f64, nominal: f64, round: u64) -> Self {
        SkewPuller {
            follower: ClusterFollower::new_at(&cfg, nominal, round),
            offset,
        }
    }

    fn schedule(&self, ctx: &mut Ctx<'_, Msg>, round: u64) {
        let target = (self.follower.pulse_target(round) + self.offset).max(0.0);
        ctx.set_timer_at(
            self.follower.track(),
            target,
            TimerTag::new(TIMER_EARLY).with_b(round),
        );
    }
}

impl Behavior<Msg> for SkewPuller {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.follower.start(ctx);
        self.schedule(ctx, self.follower.start_round);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let _ = self.follower.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        if tag.kind == TIMER_EARLY {
            ctx.broadcast(Msg::Pulse);
        } else if let Some(InstanceEvent::RoundEnded { new_round }) =
            self.follower.on_timer(ctx, tag)
        {
            self.schedule(ctx, new_round);
        }
    }
}

/// Free-runs the pulse schedule at an illegally fast rate.
#[derive(Debug)]
pub struct StealthyRusher {
    params: Arc<Params>,
    extra_rate: f64,
    round: u64,
}

impl StealthyRusher {
    /// Creates the attacker with the given extra rate beyond
    /// `(1+ϕ)(1+µ)`; the rushed round schedule starts in `start_round`
    /// (1 at boot; see [`rejoin_round`]).
    #[must_use]
    pub fn new_at(params: Arc<Params>, extra_rate: f64, start_round: u64) -> Self {
        StealthyRusher {
            params,
            extra_rate,
            round: start_round,
        }
    }

    /// The track multiplier the rusher free-runs at (the engine wants it
    /// positive; the spec gate says so before a run is built).
    pub(crate) fn multiplier(p: &Params, extra_rate: f64) -> f64 {
        (1.0 + p.phi) * (1.0 + p.mu) * (1.0 + extra_rate)
    }

    fn schedule(&self, ctx: &mut Ctx<'_, Msg>) {
        let target = (self.round - 1) as f64 * self.params.t_round + self.params.tau1;
        ctx.set_timer_at(
            TrackId::MAIN,
            target,
            TimerTag::new(TIMER_PERIODIC).with_b(self.round),
        );
    }
}

impl Behavior<Msg> for StealthyRusher {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let rate = StealthyRusher::multiplier(&self.params, self.extra_rate);
        ctx.set_multiplier(TrackId::MAIN, rate);
        self.schedule(ctx);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {
        ctx.broadcast(Msg::Pulse);
        self.round += 1;
        self.schedule(ctx);
    }
}

/// Broadcasts inflated max-estimator levels every round.
#[derive(Debug)]
pub struct LevelFlooder {
    params: Arc<Params>,
    level_step: u64,
    current: u64,
}

impl LevelFlooder {
    /// Creates the attacker announcing `level_step` extra levels per round.
    #[must_use]
    pub fn new(params: Arc<Params>, level_step: u64) -> Self {
        LevelFlooder {
            params,
            level_step,
            current: 0,
        }
    }
}

impl Behavior<Msg> for LevelFlooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Relative to the current clock value (0 at boot) so a mid-run
        // adoption floods one round later, not instantly.
        let next = ctx.track_value(TrackId::MAIN) + self.params.t_round;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_PERIODIC));
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {
        self.current = self.current.saturating_add(self.level_step);
        ctx.broadcast(Msg::Level {
            level: self.current,
        });
        let next = ctx.track_value(TrackId::MAIN) + self.params.t_round;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_PERIODIC));
    }
}

/// One phase of a node's fault lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecyclePhase {
    /// The node runs the correct FTGCS protocol.
    Correct,
    /// The node runs the given fault strategy.
    Faulty(FaultKind),
}

/// A node whose behavior changes at scheduled Newtonian times:
/// `Correct → Faulty(kind) → Correct → …` — the engine-side half of the
/// fault lifecycle layer (time-windowed faults, crash–recover churn,
/// mobile Byzantine adversaries).
///
/// Transitions are ordinary timer events: each is armed with
/// [`Ctx::set_timer_at_newtonian`] and dispatched under the standard
/// `(time, source, counter)` key, so lifecycle runs stay byte-identical
/// across the global and parallel schedulers.
///
/// At a transition the wrapper cancels every pending timer, drops all
/// extra clock tracks, and boots a fresh inner behavior. **Recovery** is
/// the interesting direction: the rejoining node does *not* resume
/// stale round state. It re-initializes its [`ClusterInstance`]s at
/// [`rejoin_round`] with its clocks jumped to the current Newtonian
/// time, then re-integrates through the same machinery every node uses
/// each round — trimmed-midpoint corrections over the pulse window for
/// cluster agreement, and the max estimator's `f+1` level confirmations
/// for the global clock. In-flight messages sent to the node's previous
/// incarnation (at most one delay bound `d` worth) are absorbed by that
/// machinery as ordinary Byzantine noise; with the node counted against
/// the cluster's `f`-budget for its faulty window, they are within the
/// adversary the algorithm already tolerates.
pub struct LifecycleNode {
    cfg: NodeConfig,
    /// `(time, phase)` transitions, strictly increasing in time.
    schedule: Vec<(f64, LifecyclePhase)>,
    /// Index of the next transition to arm/apply.
    next: usize,
    inner: Box<dyn Behavior<Msg>>,
}

impl std::fmt::Debug for LifecycleNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LifecycleNode(next={}/{})",
            self.next,
            self.schedule.len()
        )
    }
}

impl LifecycleNode {
    /// Creates a node that boots correct and then applies `schedule` in
    /// order. Transition times are Newtonian seconds.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty, starts at a negative time, or is
    /// not strictly increasing.
    #[must_use]
    pub fn new(cfg: NodeConfig, schedule: Vec<(f64, LifecyclePhase)>) -> Self {
        assert!(!schedule.is_empty(), "empty lifecycle schedule");
        assert!(
            schedule[0].0 >= 0.0 && schedule.windows(2).all(|w| w[0].0 < w[1].0),
            "lifecycle schedule must be strictly increasing"
        );
        let inner = Box::new(FtGcsNode::new(cfg.clone()));
        LifecycleNode {
            cfg,
            schedule,
            next: 0,
            inner,
        }
    }

    /// Arms a Newtonian timer for the next transition, if any. Exactly
    /// one lifecycle timer is pending at any moment, so the transition
    /// handler's blanket `cancel_all_timers` never kills a live one.
    fn arm_next(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(&(at, _)) = self.schedule.get(self.next) {
            ctx.set_timer_at_newtonian(at, TimerTag::new(TIMER_LIFECYCLE).with_b(self.next as u64));
        }
    }

    /// Applies the transition `self.next`: tears down the current
    /// incarnation (timers, extra tracks) and boots the next one at the
    /// current instant.
    fn transition(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let phase = self.schedule[self.next].1.clone();
        self.next += 1;
        ctx.cancel_all_timers();
        ctx.reset_tracks();
        let nominal = ctx.newtonian_now().as_secs();
        let round = rejoin_round(&self.cfg.params, nominal);
        self.inner = match phase {
            LifecyclePhase::Correct => {
                // Rejoin with clocks at nominal time: close enough for
                // the pulse window (proper initialization within E), and
                // the first correction re-synchronizes exactly.
                let mut cfg = self.cfg.clone();
                cfg.initial_offset = nominal;
                cfg.neighbor_offsets = vec![nominal; cfg.neighbors.len()].into();
                let mut node = FtGcsNode::new(cfg);
                node.start_at_round(ctx, round);
                Box::new(node)
            }
            LifecyclePhase::Faulty(kind) => {
                let mut behavior = make_fault_behavior_at(&kind, self.cfg.clone(), nominal, round);
                behavior.on_start(ctx);
                behavior
            }
        };
        self.arm_next(ctx);
    }
}

impl Behavior<Msg> for LifecycleNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_start(ctx);
        self.arm_next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        self.inner.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        if tag.kind == TIMER_LIFECYCLE {
            self.transition(ctx);
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> NodeConfig {
        NodeConfig {
            params: Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap()),
            cluster_id: 0,
            members: (0..4).map(NodeId).collect(),
            neighbors: Vec::new().into(),
            neighbor_offsets: Vec::new().into(),
            mode_policy: crate::triggers::ModePolicy::CatchUp,
            enable_max_estimator: false,
            initial_offset: 0.0,
        }
    }

    #[test]
    fn all_kinds_construct() {
        let kinds = [
            FaultKind::Silent,
            FaultKind::Crash { at: 1.0 },
            FaultKind::RandomPulser { mean_interval: 0.1 },
            FaultKind::TwoFaced { amplitude: 1e-3 },
            FaultKind::SkewPuller { offset: -1e-3 },
            FaultKind::StealthyRusher { extra_rate: 0.01 },
            FaultKind::LevelFlooder { level_step: 100 },
        ];
        for kind in &kinds {
            let _behavior = make_fault_behavior(kind, config());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn random_pulser_rejects_zero_interval() {
        let _ = RandomPulser::new(0.0);
    }
}
