//! The ClusterSync round state machine (paper, Section 3, Algorithm 1).
//!
//! One [`ClusterInstance`] tracks one observed cluster. A node runs:
//!
//! * one **active** instance for its own cluster — it drives the node's
//!   main logical clock `L_v` and broadcasts real pulses; and
//! * one **silent** instance per adjacent cluster `B` — the estimator of
//!   Corollary 3.5, identical except that its pulse is a self-loopback
//!   ([`crate::messages::Msg::VirtualPulse`]) and it controls a private
//!   virtual clock track whose value is `L̃_vB`.
//!
//! Each round `r` has three phases of logical durations `τ₁, τ₂, τ₃`:
//! pulse at `(r−1)T + τ₁`; collect pulses until `(r−1)T + τ₁ + τ₂`, then
//! compute the trimmed-midpoint correction `Δ_v(r)`; amortize it over
//! phase 3 by setting (line 13)
//!
//! ```text
//! δ_v = 1 − (1 + 1/ϕ)·Δ_v / (τ₃ + Δ_v),
//! ```
//!
//! which by Lemma 3.1 stretches the round's nominal length to
//! `T + Δ_v(r)` while keeping the clock rate within
//! `[1, ϑ_max]` (Lemma B.4).

use std::sync::Arc;

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::Partition;
use ftgcs_topology::ClusterGraph;

use crate::agreement::trimmed_midpoint_mut;
use crate::messages::Msg;
use crate::params::Params;

/// Shards per worker in [`worker_partition`]: enough that the window
/// balancer has something to deal and steal (with one shard per worker
/// a window waits on its slower half: `line64_par2` reads 7.4–10.5 M
/// events/s from run to run where four read 9.2–10.2 M; EXPERIMENTS.md,
/// "Cost of a window"), few enough that each shard keeps its calendar
/// queue busy and few edges are cut.
const SHARDS_PER_WORKER: usize = 4;

/// The engine [`Partition`] of the parallel scheduler for `workers`
/// threads (resolved by [`ftgcs_sim::shard::resolve_workers`], which
/// changes only `0` and counts above the cluster count):
/// `min(4 · workers, clusters)` shards, each a contiguous run of whole
/// clusters, the runs' lengths differing by at most one.
///
/// Any partition is sound — every message, intra-cluster ones included,
/// is delayed by at least `d − U` ([`crate::params::Params::lookahead`])
/// — so this one is sized for cost: a cluster's clique traffic never
/// crosses shards, and on a line or grid of clusters numbered along the
/// topology only the edges between consecutive runs do.
/// [`crate::runner::Scenario::parallel`] selects this partition. The
/// trace does not depend on it.
///
/// # Examples
///
/// ```
/// use ftgcs::cluster::worker_partition;
/// use ftgcs_topology::{generators, ClusterGraph};
///
/// let cg = ClusterGraph::new(generators::line(64), 4, 1);
/// let p = worker_partition(&cg, 2);
/// assert_eq!(p.shard_count(), 8);
/// assert_eq!(p.node_count(), 256);
/// // Few workers on a small graph: one shard per cluster at most.
/// let cg = ClusterGraph::new(generators::line(3), 4, 1);
/// assert_eq!(worker_partition(&cg, 2).shard_count(), 3);
/// ```
#[must_use]
pub fn worker_partition(cg: &ClusterGraph, workers: usize) -> Partition {
    let clusters = cg.cluster_count();
    let shards = (SHARDS_PER_WORKER * workers).clamp(1, clusters.max(1));
    let k = cg.cluster_size();
    Partition::from_assignment(
        (0..cg.physical().node_count())
            .map(|node| (node / k) * shards / clusters)
            .collect(),
    )
}

/// Timer kind: send the round's pulse (end of phase 1).
pub const TIMER_PULSE: u32 = 1;
/// Timer kind: compute the correction (end of phase 2).
pub const TIMER_COMPUTE: u32 = 2;
/// Timer kind: end of round (end of phase 3).
pub const TIMER_ROUND_END: u32 = 3;

/// Trace row kind for real pulses: `values = [cluster, round]`.
pub const ROW_PULSE: &str = "pulse";
/// Trace row kind for round corrections:
/// `values = [cluster, round, delta, delta_v, missing]`.
pub const ROW_ROUND: &str = "round";

/// What an instance reports back to its owning node after a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceEvent {
    /// Nothing the owner needs to act on.
    None,
    /// A round ended and the next one started; for the *own-cluster*
    /// instance this is the moment `t_v(r)` at which InterclusterSync may
    /// switch modes (Algorithm 2).
    RoundEnded {
        /// The round that just started (1-indexed).
        new_round: u64,
    },
}

/// Robustness counters (all zero in proper executions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Corrections that had to be clamped to `|Δ| ≤ ϕ·τ₃`
    /// (Definition B.3, condition 3).
    pub clamped_corrections: u32,
    /// Rounds in which more than `f` member pulses were missing.
    pub overfull_missing: u32,
    /// Duplicate pulses ignored (same sender, same round window).
    pub duplicate_pulses: u32,
    /// Own (loopback/virtual) pulse missing at compute time.
    pub own_pulse_missing: u32,
}

/// Phase of the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phases 1–2: listening for this round's pulses, `δ_v = 1`.
    Listening,
    /// Phase 3: amortizing the correction; arriving pulses belong to the
    /// next round.
    Amortizing,
}

/// State machine replaying Algorithm 1 for one observed cluster.
#[derive(Debug)]
pub struct ClusterInstance {
    /// Instance index on the owning node (0 = own cluster).
    idx: u32,
    /// The clock track this instance controls.
    track: TrackId,
    /// Base-graph id of the observed cluster (for tracing).
    cluster_id: usize,
    /// Physical members of the observed cluster, in slot order (shared
    /// with every instance observing the same cluster).
    observed: Arc<[NodeId]>,
    /// True for estimator instances (no real broadcast).
    silent: bool,
    params: Arc<Params>,
    /// Current round, 1-indexed.
    round: u64,
    phase: Phase,
    /// Per-slot receive logical time for the current round (`∞` missing)
    /// — until `compute_correction` turns it, in place, into the round's
    /// sorted offset multiset: from then on pulses go to `pending`, and
    /// nothing reads `current` before `advance_round` resets it.
    current: Vec<f64>,
    /// Early arrivals for the next round.
    pending: Vec<f64>,
    /// Own pulse receive logical time (the self entry for estimators; for
    /// active instances the self-slot of `current` is used instead).
    own_virtual: f64,
    own_virtual_pending: f64,
    /// Logical time at which this round's pulse was sent (fallback anchor).
    pulse_logical: f64,
    /// `1 + µ·γ_v` — the InterclusterSync rate factor. Always 1 for
    /// silent instances; updated by the owner at round boundaries.
    gamma_factor: f64,
    stats: InstanceStats,
    /// The most recent correction `Δ` (for tracing/tests).
    last_delta: f64,
}

impl ClusterInstance {
    /// Creates an instance observing `observed` (the members of cluster
    /// `cluster_id`, in slot order).
    ///
    /// For an **active** instance, `observed` must contain the owning node
    /// itself; for a **silent** one it must not.
    ///
    /// # Panics
    ///
    /// Panics if `observed` is empty or smaller than `3f+1`.
    #[must_use]
    #[allow(clippy::int_plus_one, reason = "mirror the paper's k >= 3f+1 form")]
    pub fn new(
        idx: u32,
        track: TrackId,
        cluster_id: usize,
        observed: impl Into<Arc<[NodeId]>>,
        silent: bool,
        params: Arc<Params>,
    ) -> Self {
        let observed = observed.into();
        // Correct nodes always observe full clusters of k >= 3f+1 members;
        // Byzantine self-trackers observe their own cluster minus
        // themselves (k-1 >= 3f members), which still satisfies the
        // 2f+1-observation minimum of the trimmed midpoint (with the
        // virtual self entry added for silent instances).
        assert!(
            observed.len() + usize::from(silent) >= 2 * params.f + 1,
            "observed cluster too small for fault budget f = {}",
            params.f
        );
        let n = observed.len();
        ClusterInstance {
            idx,
            track,
            cluster_id,
            observed,
            silent,
            params,
            round: 1,
            phase: Phase::Listening,
            current: vec![f64::INFINITY; n],
            pending: vec![f64::INFINITY; n],
            own_virtual: f64::INFINITY,
            own_virtual_pending: f64::INFINITY,
            pulse_logical: 0.0,
            gamma_factor: 1.0,
            stats: InstanceStats::default(),
            last_delta: 0.0,
        }
    }

    /// The track this instance controls.
    #[must_use]
    pub fn track(&self) -> TrackId {
        self.track
    }

    /// The observed cluster's base-graph id.
    #[must_use]
    pub fn cluster_id(&self) -> usize {
        self.cluster_id
    }

    /// The slot of `node` among the observed cluster's members, if it
    /// is one. A scan: owners look a neighbour up once, when they build
    /// their port tables, and hand [`Self::on_pulse`] the slot.
    #[must_use]
    pub fn slot_of(&self, node: NodeId) -> Option<usize> {
        self.observed.iter().position(|&m| m == node)
    }

    /// Current round (1-indexed).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Robustness counters.
    #[must_use]
    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// The most recent correction `Δ_v(r)`.
    #[must_use]
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Sets the InterclusterSync rate factor `1 + µ·γ_v`. Takes effect at
    /// the next round boundary (Algorithm 2 switches only at `t_v(r)`).
    pub fn set_gamma_factor(&mut self, factor: f64) {
        assert!(factor >= 1.0, "gamma factor is 1 or 1+mu");
        self.gamma_factor = factor;
    }

    /// Current value of this instance's clock.
    #[must_use]
    pub fn clock(&self, ctx: &mut Ctx<'_, Msg>) -> f64 {
        ctx.track_value(self.track)
    }

    /// Starts round 1: sets the phase-1/2 multiplier and schedules the
    /// round's timers. Call once from the owner's `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start_at(ctx, 1);
    }

    /// Starts at an arbitrary round — the mid-run entry point for nodes
    /// (re)joining an execution in progress, e.g. a lifecycle recovery.
    ///
    /// The instance behaves exactly as if it had reached round `round`
    /// normally but observed no pulses yet: it listens for the round's
    /// pulse window and re-integrates through the same trimmed-midpoint
    /// machinery as every other round. Call instead of
    /// [`ClusterInstance::start`], once, before any message routing.
    ///
    /// # Panics
    ///
    /// Panics if `round` is zero (rounds are 1-indexed).
    pub fn start_at(&mut self, ctx: &mut Ctx<'_, Msg>, round: u64) {
        assert!(round >= 1, "rounds are 1-indexed");
        self.round = round;
        self.apply_listen_multiplier(ctx);
        self.schedule_round_timers(ctx);
    }

    fn apply_listen_multiplier(&self, ctx: &mut Ctx<'_, Msg>) {
        // Phases 1-2: delta_v = 1 (Algorithm 1, line 3).
        let m = (1.0 + self.params.phi) * self.gamma_factor;
        ctx.set_multiplier(self.track, m);
    }

    fn round_start_logical(&self) -> f64 {
        // Lemma B.6: L(t_v(r)) = (r-1)·T under uniform round lengths.
        (self.round - 1) as f64 * self.params.t_round
    }

    fn schedule_round_timers(&self, ctx: &mut Ctx<'_, Msg>) {
        let p = &self.params;
        let start = self.round_start_logical();
        let tag = |kind: u32| TimerTag::new(kind).with_a(self.idx).with_b(self.round);
        ctx.set_timer_at(self.track, start + p.tau1, tag(TIMER_PULSE));
        ctx.set_timer_at(self.track, start + p.tau1 + p.tau2, tag(TIMER_COMPUTE));
        ctx.set_timer_at(self.track, start + p.t_round, tag(TIMER_ROUND_END));
    }

    /// Records a pulse from the member in `slot` (see [`Self::slot_of`]).
    ///
    /// # Panics
    ///
    /// Panics if the observed cluster has no such slot — the owner is
    /// responsible for routing.
    pub fn on_pulse(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize) {
        let l = ctx.track_value(self.track);
        let bucket = match self.phase {
            Phase::Listening => &mut self.current[slot],
            Phase::Amortizing => &mut self.pending[slot],
        };
        if bucket.is_finite() {
            self.stats.duplicate_pulses += 1;
        } else {
            *bucket = l;
        }
    }

    /// Records this node's own *virtual* pulse receipt (silent instances).
    pub fn on_virtual_pulse(&mut self, ctx: &mut Ctx<'_, Msg>) {
        debug_assert!(self.silent, "active instances receive real loopback");
        let l = ctx.track_value(self.track);
        let bucket = match self.phase {
            Phase::Listening => &mut self.own_virtual,
            Phase::Amortizing => &mut self.own_virtual_pending,
        };
        if bucket.is_finite() {
            self.stats.duplicate_pulses += 1;
        } else {
            *bucket = l;
        }
    }

    /// Handles one of this instance's timers. The owner must route tags
    /// whose `a` equals this instance's index.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) -> InstanceEvent {
        debug_assert_eq!(tag.a, self.idx, "timer routed to wrong instance");
        match tag.kind {
            TIMER_PULSE => {
                self.pulse_logical = ctx.track_value(self.track);
                if self.silent {
                    ctx.send_self(Msg::VirtualPulse { instance: self.idx });
                } else {
                    ctx.broadcast_with_loopback(Msg::Pulse);
                    ctx.emit(ROW_PULSE, &[self.cluster_id as f64, self.round as f64]);
                }
                InstanceEvent::None
            }
            TIMER_COMPUTE => {
                self.compute_correction(ctx);
                InstanceEvent::None
            }
            TIMER_ROUND_END => {
                self.advance_round(ctx);
                InstanceEvent::RoundEnded {
                    new_round: self.round,
                }
            }
            other => unreachable!("unknown cluster timer kind {other}"),
        }
    }

    /// End of phase 2 (Algorithm 1, lines 7–13).
    fn compute_correction(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let p = Arc::clone(&self.params);
        // The reference entry t_vv: own loopback (active) or virtual
        // (silent) receipt.
        let own = if self.silent {
            self.own_virtual
        } else {
            let slot = self
                .slot_of(ctx.my_id())
                .expect("active instance observes own cluster");
            self.current[slot]
        };
        let own = if own.is_finite() {
            own
        } else {
            // Improper execution (cannot be caused by Byzantine nodes):
            // fall back to the nominal self-delay.
            self.stats.own_pulse_missing += 1;
            self.pulse_logical + p.theta_g * p.d
        };
        // Multiset S_v of offsets tau_wv = L(t_wv) - L(t_vv); missing
        // pulses become +inf and are trimmed if within the fault budget.
        // Built where the receive times were (see `current`): no copy,
        // no allocation.
        let observations = &mut self.current;
        for l in observations.iter_mut() {
            *l = if l.is_finite() {
                *l - own
            } else {
                f64::INFINITY
            };
        }
        if self.silent {
            // The estimator participates as a (k+1)-th virtual member.
            observations.push(0.0);
        }
        let missing = observations.iter().filter(|x| !x.is_finite()).count();
        let delta = match trimmed_midpoint_mut(observations, p.f) {
            Ok(m) => m.delta,
            Err(_) => {
                // More than f missing: improper execution. Apply no
                // correction this round, but record it.
                self.stats.overfull_missing += 1;
                0.0
            }
        };
        // Defensive clamp to |delta| <= phi*tau3 (Definition B.3(3) holds
        // in proper executions; Corollary B.12).
        let limit = p.phi * p.tau3;
        let clamped = delta.clamp(-limit * (1.0 - 1e-9), limit);
        if clamped != delta {
            self.stats.clamped_corrections += 1;
        }
        self.last_delta = clamped;
        // Line 13: delta_v = 1 - (1 + 1/phi) * Delta / (tau3 + Delta).
        let delta_v = 1.0 - (1.0 + 1.0 / p.phi) * clamped / (p.tau3 + clamped);
        debug_assert!(delta_v >= 0.0 && delta_v <= 2.0 / (1.0 - p.phi) + 1e-12);
        let m = (1.0 + p.phi * delta_v) * self.gamma_factor;
        ctx.set_multiplier(self.track, m);
        self.phase = Phase::Amortizing;
        if !self.silent {
            ctx.emit(
                ROW_ROUND,
                &[
                    self.cluster_id as f64,
                    self.round as f64,
                    clamped,
                    delta_v,
                    missing as f64,
                ],
            );
        }
    }

    /// End of phase 3 (Algorithm 1, line 14): begin the next round.
    fn advance_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.round += 1;
        self.phase = Phase::Listening;
        // Pulses that arrived during phase 3 belong to the new round.
        std::mem::swap(&mut self.current, &mut self.pending);
        self.pending.clear();
        self.pending.resize(self.observed.len(), f64::INFINITY);
        self.own_virtual = self.own_virtual_pending;
        self.own_virtual_pending = f64::INFINITY;
        self.apply_listen_multiplier(ctx);
        self.schedule_round_timers(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::engine::{SimBuilder, SimConfig};
    use ftgcs_sim::network::{DelayConfig, DelayDistribution};
    use ftgcs_sim::node::Behavior;
    use ftgcs_sim::time::{SimDuration, SimTime};
    use ftgcs_sim::trace::Trace;
    use std::sync::Mutex;

    /// Shared observation window for the harness.
    #[derive(Debug, Default)]
    struct Probe {
        rounds: Vec<u64>,
        deltas: Vec<f64>,
        stats: InstanceStats,
    }

    /// Drives one ClusterInstance in a deterministic world (ρ = 0,
    /// exact delay d) so the Algorithm 1 arithmetic can be checked to
    /// float precision. A non-zero `initial_jump` fabricates an
    /// *improper* execution (the clock starts several rounds ahead).
    struct Harness {
        inst: ClusterInstance,
        probe: Arc<Mutex<Probe>>,
        initial_jump: f64,
    }

    impl Behavior<Msg> for Harness {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if self.initial_jump != 0.0 {
                ctx.jump_track(TrackId::MAIN, self.initial_jump);
            }
            self.inst.start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
            match msg {
                Msg::Pulse => {
                    let slot = self.inst.slot_of(from).expect("peers are members");
                    self.inst.on_pulse(ctx, slot);
                }
                Msg::VirtualPulse { .. } => self.inst.on_virtual_pulse(ctx),
                Msg::Level { .. } => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
            if tag.kind == TIMER_COMPUTE {
                self.inst.on_timer(ctx, tag);
                let mut probe = self.probe.lock().unwrap();
                probe.deltas.push(self.inst.last_delta());
                probe.stats = self.inst.stats();
                return;
            }
            if let InstanceEvent::RoundEnded { new_round } = self.inst.on_timer(ctx, tag) {
                self.probe.lock().unwrap().rounds.push(new_round);
            }
        }
    }

    /// Broadcasts one `Msg::Pulse` at each Newtonian time in `at`
    /// (ρ = 0 ⇒ hardware = logical = Newtonian for this node).
    struct ScriptedPulser {
        at: Vec<f64>,
    }

    impl Behavior<Msg> for ScriptedPulser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for (i, &t) in self.at.iter().enumerate() {
                ctx.set_timer_at(TrackId::MAIN, t, TimerTag::new(99).with_b(i as u64));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {
            ctx.broadcast(Msg::Pulse);
        }
    }

    fn params() -> Arc<Params> {
        Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 0).unwrap())
    }

    /// A drift-free, exact-delay world: every message takes exactly `d`.
    fn config() -> SimConfig {
        config_for(1e-3)
    }

    fn config_for(d: f64) -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_secs(d),
                SimDuration::ZERO,
                DelayDistribution::Maximal,
            ),
            rho: 0.0,
            rate_model: RateModel::Constant { frac: 0.0 },
            seed: 1,
            sample_interval: None,
            ..SimConfig::default()
        }
    }

    /// Builds a 2-member world: the harness (slot 0) plus a scripted
    /// pulser (slot 1), both observed by the instance under test. With
    /// f = 0 nothing is trimmed, so `Δ = τ_pulser / 2` exactly
    /// (Algorithm 1 line 12 on the two-entry multiset {0, τ}).
    fn run_with_pulses(pulse_times: Vec<f64>, horizon: f64) -> (Arc<Mutex<Probe>>, Arc<Params>) {
        run_with_pulses_in(params(), pulse_times, horizon)
    }

    fn run_with_pulses_in(
        p: Arc<Params>,
        pulse_times: Vec<f64>,
        horizon: f64,
    ) -> (Arc<Mutex<Probe>>, Arc<Params>) {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let mut b = SimBuilder::new(config_for(p.d));
        let inst = ClusterInstance::new(
            0,
            TrackId::MAIN,
            0,
            vec![NodeId(0), NodeId(1)],
            false,
            Arc::clone(&p),
        );
        let h = b.add_node(Box::new(Harness {
            inst,
            probe: Arc::clone(&probe),
            initial_jump: 0.0,
        }));
        let s = b.add_node(Box::new(ScriptedPulser { at: pulse_times }));
        b.add_edge(h, s);
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(horizon), &mut Trace::new());
        (probe, p)
    }

    /// Newtonian time at which the harness pulses in round 1: its clock
    /// runs at `1 + ϕ` through phases 1–2 (ρ = 0, γ = 0), so it reaches
    /// `τ₁` at `τ₁ / (1+ϕ)`.
    fn harness_pulse_time(p: &Params) -> f64 {
        p.tau1 / (1.0 + p.phi)
    }

    #[test]
    fn round_progression_is_exact_without_peers() {
        // A singleton cluster (k = 1, f = 0) observing only itself: the
        // loopback self-entry gives Δ = 0 every round, and with ρ = 0
        // every round takes exactly T/(1+ϕ) Newtonian seconds
        // (Lemma B.6 + Lemma 3.1 with Δ = 0).
        let p = params();
        let probe = Arc::new(Mutex::new(Probe::default()));
        let mut b = SimBuilder::new(config());
        let inst =
            ClusterInstance::new(0, TrackId::MAIN, 0, vec![NodeId(0)], false, Arc::clone(&p));
        b.add_node(Box::new(Harness {
            inst,
            probe: Arc::clone(&probe),
            initial_jump: 0.0,
        }));
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(3.5 * p.t_round), &mut Trace::new());
        let probe = probe.lock().unwrap();
        assert!(probe.rounds.len() >= 3, "rounds seen: {:?}", probe.rounds);
        assert_eq!(probe.rounds[0], 2);
        assert_eq!(probe.rounds[1], 3);
        for d in &probe.deltas {
            assert!(d.abs() < 1e-12, "unexpected correction {d}");
        }
        assert_eq!(probe.stats.duplicate_pulses, 0);
        assert_eq!(probe.stats.overfull_missing, 0);
    }

    #[test]
    fn midpoint_correction_matches_line_12_exactly() {
        let p = params();
        // Pulser fires x (logical) after the harness's pulse: its pulse
        // arrives in phase 2 with offset τ = (1+ϕ)·(t0 − t_p), so choose
        // t0 = t_p + x/(1+ϕ) to make τ = x exactly.
        let x = 0.5 * p.e;
        let t0 = harness_pulse_time(&p) + x / (1.0 + p.phi);
        let (probe, _) = run_with_pulses(vec![t0], 0.9 * p.t_round);
        let probe = probe.lock().unwrap();
        assert_eq!(probe.deltas.len(), 1);
        // Two-entry multiset {0, x}, f = 0: Δ = (0 + x)/2.
        let expect = x / 2.0;
        assert!(
            (probe.deltas[0] - expect).abs() < 1e-12,
            "delta {} != {expect}",
            probe.deltas[0]
        );
        assert_eq!(probe.stats.clamped_corrections, 0);
    }

    #[test]
    fn duplicate_pulses_are_counted_and_ignored() {
        let p = params();
        let x = 0.25 * p.e;
        let t0 = harness_pulse_time(&p) + x / (1.0 + p.phi);
        // Same round window, two pulses: second is a duplicate and the
        // correction must use the first.
        let (probe, _) = run_with_pulses(vec![t0, t0 + 2e-4], 0.9 * p.t_round);
        let probe = probe.lock().unwrap();
        assert_eq!(probe.stats.duplicate_pulses, 1);
        assert!((probe.deltas[0] - x / 2.0).abs() < 1e-12);
    }

    #[test]
    fn phase_three_pulses_belong_to_the_next_round() {
        let p = params();
        // Fire while the harness is amortizing (after τ₁+τ₂ of its
        // logical time, before T): the pulse must not affect round 1
        // (already computed) and must be round 2's entry — *not* a
        // duplicate when the pulser also fires in round 2's window.
        let amortize_t = (p.tau1 + p.tau2) / (1.0 + p.phi) + 0.1 * p.tau3;
        let (probe, _) = run_with_pulses(vec![amortize_t], 1.9 * p.t_round);
        let probe = probe.lock().unwrap();
        assert_eq!(probe.stats.duplicate_pulses, 0);
        assert_eq!(probe.deltas.len(), 2, "two rounds computed");
        // Round 2's correction uses the early pulse: it arrived well
        // before round 2's own pulse, giving a *negative* offset.
        assert!(probe.deltas[1] < 0.0, "delta2 = {}", probe.deltas[1]);
    }

    #[test]
    fn extreme_offsets_are_clamped_in_improper_executions() {
        // In *proper* executions the clamp can never fire (Cor. B.12):
        // every in-window offset is bounded by the phase lengths. So we
        // fabricate an improper one — the harness's clock starts 2.5
        // rounds ahead, making peer pulses arrive with multi-round
        // negative offsets — and check the defensive clamp caps every
        // correction at ϕ·τ₃ and counts the events.
        let p = params();
        let probe = Arc::new(Mutex::new(Probe::default()));
        let mut b = SimBuilder::new(config());
        let inst = ClusterInstance::new(
            0,
            TrackId::MAIN,
            0,
            vec![NodeId(0), NodeId(1)],
            false,
            Arc::clone(&p),
        );
        let h = b.add_node(Box::new(Harness {
            inst,
            probe: Arc::clone(&probe),
            initial_jump: 2.5 * p.t_round,
        }));
        // The peer pulses on the *honest* schedule, once per round.
        let honest: Vec<f64> = (0..6)
            .map(|r| (r as f64 * p.t_round + p.tau1) / (1.0 + p.phi))
            .collect();
        let s = b.add_node(Box::new(ScriptedPulser { at: honest }));
        b.add_edge(h, s);
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(4.0 * p.t_round), &mut Trace::new());
        let probe = probe.lock().unwrap();
        let limit = p.phi * p.tau3;
        assert!(
            probe.stats.clamped_corrections >= 1,
            "no clamping despite a 2.5-round initial offset: {:?}",
            probe.stats
        );
        for d in &probe.deltas {
            assert!(
                d.abs() <= limit * (1.0 + 1e-9),
                "correction {d} escaped the clamp {limit}"
            );
        }
    }

    #[test]
    fn missing_peer_pulse_is_trimmed_within_budget() {
        // With f = 1 and k = 4, a silent member's missing entry becomes
        // +inf and is trimmed: Δ stays 0 when the others are punctual.
        let p = Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap());
        let probe = Arc::new(Mutex::new(Probe::default()));
        let mut b = SimBuilder::new(config());
        let inst = ClusterInstance::new(
            0,
            TrackId::MAIN,
            0,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            false,
            Arc::clone(&p),
        );
        let h = b.add_node(Box::new(Harness {
            inst,
            probe: Arc::clone(&probe),
            initial_jump: 0.0,
        }));
        let t_p = p.tau1 / (1.0 + p.phi);
        // Two punctual peers (offset 0), one forever-silent peer.
        for _ in 0..2 {
            let n = b.add_node(Box::new(ScriptedPulser { at: vec![t_p] }));
            b.add_edge(h, n);
        }
        let silent = b.add_node(Box::new(ScriptedPulser { at: vec![] }));
        b.add_edge(h, silent);
        let mut sim = b.build();
        sim.run_until_with(SimTime::from_secs(0.9 * p.t_round), &mut Trace::new());
        let probe = probe.lock().unwrap();
        assert_eq!(probe.deltas.len(), 1);
        assert!(probe.deltas[0].abs() < 1e-12, "delta {}", probe.deltas[0]);
        assert_eq!(probe.stats.overfull_missing, 0);
        assert_eq!(probe.stats.clamped_corrections, 0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_observation_set_rejected() {
        let p = Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap());
        let _ = ClusterInstance::new(0, TrackId::MAIN, 0, vec![NodeId(0)], false, p);
    }

    #[test]
    #[should_panic(expected = "gamma factor")]
    fn sub_unit_gamma_rejected() {
        let p = params();
        let mut inst =
            ClusterInstance::new(0, TrackId::MAIN, 0, vec![NodeId(0), NodeId(1)], false, p);
        inst.set_gamma_factor(0.5);
    }
}
