//! The complete FTGCS node: ClusterSync + estimators + InterclusterSync +
//! global-max catch-up, assembled as one [`Behavior`].
//!
//! Per physical node `v` in cluster `C` the behavior runs:
//!
//! * an **active** [`ClusterInstance`] on the main clock track — `L_v`;
//! * a **silent** [`ClusterInstance`] per adjacent cluster `B` on its own
//!   track — the estimate `L̃_vB` (Corollary 3.5);
//! * **InterclusterSync** (Algorithm 2): at every round boundary
//!   `t_v(r)` the fast/slow triggers are evaluated on
//!   `(L_v, {L̃_vB})` and `γ_v` is set for the round;
//! * optionally the **max estimator** `M_v` with Theorem C.3's catch-up
//!   rule.
//!
//! The division of labor mirrors the paper's black-box composition: the
//! cluster layer treats `(1+µγ_v)h_v` as its hardware clock, and the GCS
//! layer sees only clock-difference estimates.

use std::sync::Arc;

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};

use crate::cluster::{ClusterInstance, InstanceEvent, TIMER_ROUND_END};
use crate::global_max::{MaxEstimator, TIMER_LEVEL};
use crate::messages::{sender_index, senders, Msg};
use crate::params::Params;
use crate::triggers::{evaluate, Mode, ModePolicy};

/// Trace row kind for per-round mode decisions:
/// `values = [cluster, round, gamma, ft, st, own_logical, max_estimate]`
/// (`max_estimate = -1` when the estimator is disabled).
pub const ROW_MODE: &str = "mode";

/// Static wiring of one FTGCS node.
///
/// Everything but `initial_offset` is the same for every member of a
/// cluster, and the lists are shared: cloning a config copies no list,
/// so one built per cluster serves all `k` members.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Shared algorithm parameters.
    pub params: Arc<Params>,
    /// Base-graph id of this node's cluster.
    pub cluster_id: usize,
    /// Members of this node's cluster (including the node itself), in slot
    /// order.
    pub members: Arc<[NodeId]>,
    /// Adjacent clusters: `(cluster_id, members)` in a fixed order.
    pub neighbors: Arc<[(usize, Arc<[NodeId]>)]>,
    /// Initial logical clock value of each adjacent cluster (aligned with
    /// `neighbors`). Estimator tracks start here — the natural
    /// generalization of the paper's perfect-initialization assumption
    /// (estimates start exact). Empty means all zeros.
    pub neighbor_offsets: Arc<[f64]>,
    /// Policy when neither trigger fires.
    pub mode_policy: ModePolicy,
    /// Whether to run the global-max estimator (needed by
    /// [`ModePolicy::CatchUp`]).
    pub enable_max_estimator: bool,
    /// Initial logical clock value (models bounded initialization skew;
    /// keep within `E` for proper executions).
    pub initial_offset: f64,
}

/// The FTGCS node behavior.
///
/// Track layout (observable via `Simulation::track_value_of`):
/// track 0 is `L_v`; track `1+i` is the estimate of
/// `config.neighbors[i]`; the last track (if enabled) is `M_v`.
#[derive(Debug)]
pub struct FtGcsNode {
    cfg: NodeConfig,
    own: ClusterInstance,
    estimators: Vec<ClusterInstance>,
    /// Where a pulse goes, by sender (laid out by [`senders`]): the
    /// instance observing the sender's cluster — 0 is `own`, `1 + i` is
    /// `estimators[i]` — and the sender's slot in it; `None` for a
    /// sender in no observed cluster.
    routes: Vec<Option<(u32, u32)>>,
    /// The estimators' track values at the last round boundary: the
    /// buffer `choose_mode` refills each round.
    estimates: Vec<f64>,
    max_est: Option<MaxEstimator>,
    mode: Mode,
}

impl FtGcsNode {
    /// Creates the behavior for one node.
    ///
    /// # Panics
    ///
    /// Panics if `members` is smaller than `3f+1`.
    #[must_use]
    #[allow(clippy::int_plus_one, reason = "mirror the paper's k >= 3f+1 form")]
    pub fn new(cfg: NodeConfig) -> Self {
        assert!(
            cfg.members.len() >= 3 * cfg.params.f + 1,
            "correct nodes need k >= 3f+1 cluster members"
        );
        let own = ClusterInstance::new(
            0,
            TrackId::MAIN,
            cfg.cluster_id,
            Arc::clone(&cfg.members),
            false,
            Arc::clone(&cfg.params),
        );
        FtGcsNode {
            own,
            estimators: Vec::new(),
            routes: Vec::new(),
            estimates: Vec::new(),
            max_est: None,
            mode: Mode::Slow,
            cfg,
        }
    }

    /// The number of clock tracks this node will create (for observers).
    #[must_use]
    pub fn track_count(&self) -> usize {
        1 + self.cfg.neighbors.len() + usize::from(self.cfg.enable_max_estimator)
    }

    /// The current InterclusterSync mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// InterclusterSync: evaluate triggers at a round boundary `t_v(r)`
    /// and commit `γ_v` for the round (Algorithm 2 + Theorem C.3).
    fn choose_mode(&mut self, ctx: &mut Ctx<'_, Msg>, new_round: u64) {
        let p = &self.cfg.params;
        let own_l = ctx.track_value(TrackId::MAIN);
        self.estimates.clear();
        self.estimates
            .extend(self.estimators.iter().map(|e| ctx.track_value(e.track())));
        let outcome = evaluate(own_l, &self.estimates, p.kappa, p.delta);
        // Keep M_v >= L_v before it is consulted.
        let max_value = if let Some(est) = &mut self.max_est {
            est.observe_own_clock(ctx, own_l);
            est.value(ctx)
        } else {
            -1.0
        };
        self.mode = if outcome.fast {
            Mode::Fast
        } else if outcome.slow {
            Mode::Slow
        } else {
            match self.cfg.mode_policy {
                ModePolicy::Sticky => self.mode,
                ModePolicy::DefaultSlow => Mode::Slow,
                ModePolicy::CatchUp => {
                    if self.max_est.is_some() && own_l <= max_value - p.catch_up_c * p.delta {
                        Mode::Fast
                    } else {
                        Mode::Slow
                    }
                }
            }
        };
        let factor = match self.mode {
            Mode::Fast => 1.0 + p.mu,
            Mode::Slow => 1.0,
        };
        self.own.set_gamma_factor(factor);
        ctx.emit(
            ROW_MODE,
            vec![
                self.cfg.cluster_id as f64,
                new_round as f64,
                f64::from(self.mode == Mode::Fast),
                f64::from(outcome.fast),
                f64::from(outcome.slow),
                own_l,
                max_value,
            ],
        );
    }

    /// Routes a real pulse to the instance observing the sender's cluster.
    fn route_pulse(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // `None`: a pulse from a node in no observed cluster. Impossible
        // for correct senders (the graph only connects adjacent
        // clusters); ignore defensively.
        if let Some((instance, slot)) = self.routes[sender_index(ctx, self.routes.len())] {
            let instance = match instance {
                0 => &mut self.own,
                i => &mut self.estimators[i as usize - 1],
            };
            instance.on_pulse(ctx, slot as usize);
        }
    }
}

impl FtGcsNode {
    /// Starts the node mid-run at round `round`: jumps `L_v` to
    /// `initial_offset`, starts the own-cluster instance and every
    /// estimator at `round`, and boots a fresh max estimator.
    ///
    /// This is [`Behavior::on_start`] generalized to a non-initial round
    /// — the entry point the fault-lifecycle layer uses when a crashed
    /// node rejoins an execution in progress. The caller must hand this
    /// node a context whose extra tracks have been dropped
    /// (`Ctx::reset_tracks`), so the track-layout contract (track `1+i`
    /// is estimator `i`) holds again.
    pub fn start_at_round(&mut self, ctx: &mut Ctx<'_, Msg>, round: u64) {
        if self.cfg.initial_offset != 0.0 {
            ctx.jump_track(TrackId::MAIN, self.cfg.initial_offset);
        }
        self.own.start_at(ctx, round);
        // One silent estimator per adjacent cluster, on its own track.
        self.estimators.clear();
        for (i, (cluster_id, members)) in self.cfg.neighbors.iter().enumerate() {
            let init = self.cfg.neighbor_offsets.get(i).copied().unwrap_or(0.0);
            let track = ctx.new_track(init, 1.0);
            debug_assert_eq!(track.index(), 1 + i, "track layout contract");
            let mut inst = ClusterInstance::new(
                (i + 1) as u32,
                track,
                *cluster_id,
                Arc::clone(members),
                true,
                Arc::clone(&self.cfg.params),
            );
            inst.start_at(ctx, round);
            self.estimators.push(inst);
        }
        // The own cluster first, as a member of several is routed.
        let instances = || (0u32..).zip(std::iter::once(&self.own).chain(&self.estimators));
        self.routes = senders(ctx)
            .map(|sender| {
                let (instance, slot) =
                    instances().find_map(|(i, inst)| Some((i, inst.slot_of(sender)?)))?;
                let slot = u32::try_from(slot).expect("fewer than 2^32 cluster members");
                Some((instance, slot))
            })
            .collect();
        if self.cfg.enable_max_estimator {
            let p = &self.cfg.params;
            let track = ctx.new_track(0.0, 1.0 / (1.0 + p.rho));
            let mut est = MaxEstimator::new(track, p.level_unit, p.d - p.u, p.f);
            let adjacent = self.cfg.neighbors.iter().map(|(_, m)| &**m);
            est.start(ctx, std::iter::once(&*self.cfg.members).chain(adjacent));
            self.max_est = Some(est);
        }
    }
}

impl Behavior<Msg> for FtGcsNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start_at_round(ctx, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        match *msg {
            Msg::Pulse => self.route_pulse(ctx),
            Msg::VirtualPulse { instance } => {
                // Only trust our own virtual pulses (self-loopback).
                if from == ctx.my_id() {
                    let idx = instance as usize;
                    if idx >= 1 && idx <= self.estimators.len() {
                        self.estimators[idx - 1].on_virtual_pulse(ctx);
                    }
                }
            }
            Msg::Level { level } => {
                if let Some(est) = &mut self.max_est {
                    est.on_level(ctx, level);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        if tag.kind == TIMER_LEVEL {
            if let Some(est) = &mut self.max_est {
                est.on_timer(ctx, tag);
            }
            return;
        }
        if tag.a == 0 {
            // Own-cluster instance. At round boundaries, Algorithm 2 first
            // re-evaluates the mode so the new gamma applies to the round
            // that starts now.
            if tag.kind == TIMER_ROUND_END {
                self.choose_mode(ctx, tag.b + 1);
            }
            let event = self.own.on_timer(ctx, tag);
            debug_assert!(
                tag.kind != TIMER_ROUND_END || matches!(event, InstanceEvent::RoundEnded { .. })
            );
        } else {
            let idx = (tag.a - 1) as usize;
            self.estimators[idx].on_timer(ctx, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Arc<Params> {
        Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap())
    }

    fn config() -> NodeConfig {
        NodeConfig {
            params: params(),
            cluster_id: 0,
            members: (0..4).map(NodeId).collect(),
            neighbors: vec![(1, (4..8).map(NodeId).collect())].into(),
            neighbor_offsets: Vec::new().into(),
            mode_policy: ModePolicy::CatchUp,
            enable_max_estimator: true,
            initial_offset: 0.0,
        }
    }

    #[test]
    fn track_layout_contract() {
        let node = FtGcsNode::new(config());
        assert_eq!(node.track_count(), 3); // main + 1 estimator + max
        assert_eq!(node.mode(), Mode::Slow);
        let mut cfg = config();
        cfg.enable_max_estimator = false;
        cfg.neighbors = Vec::new().into();
        assert_eq!(FtGcsNode::new(cfg).track_count(), 1);
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn rejects_undersized_cluster() {
        let mut cfg = config();
        cfg.members = cfg.members[..3].into();
        let _ = FtGcsNode::new(cfg);
    }
}
