//! Master/slave tree synchronization (the paper's §1 straw-man).
//!
//! A root cluster/node free-runs; every other node synchronizes to its
//! parent in a BFS tree by "echoing" the root's beacons: on receiving a
//! beacon it estimates the parent's clock and either **jumps** its logical
//! clock to the estimate or **slews** toward it, then re-broadcasts.
//!
//! This achieves global skew `O(D·(U + ρ·P))` — asymptotically optimal —
//! but offers *no* non-trivial local-skew guarantee: while a beacon wave
//! propagates, the entire accumulated correction sits across the single
//! edge separating updated from not-yet-updated nodes ("this will compress
//! the full global skew onto a single edge", §1, cf. \[15\]). Experiment F2
//! measures exactly that.

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};

use crate::messages::BaseMsg;

/// How a node applies its parent-clock estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Correction {
    /// Set the logical clock to the estimate (never backwards). Shows the
    /// skew-compression phenomenon most starkly.
    #[default]
    Jump,
    /// Adjust the clock rate to close the gap within one beacon interval,
    /// subject to a ±10% rate clamp.
    Slew,
}

/// Configuration of a tree-sync node.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Parent in the BFS tree; `None` marks the root.
    pub parent: Option<NodeId>,
    /// Root beacon period `P` (logical seconds).
    pub beacon_interval: f64,
    /// Expected one-way delay used for compensation (`d − U/2` is the
    /// unbiased choice).
    pub delay_compensation: f64,
    /// Jump or slew.
    pub correction: Correction,
}

/// A master/slave tree-synchronization node.
#[derive(Debug)]
pub struct TreeSyncNode {
    cfg: TreeConfig,
}

const TIMER_BEACON: u32 = 1;

/// Trace row kind for applied jump corrections: `values = [delta]`.
///
/// While a beacon wave propagates, a node that just jumped by `delta`
/// sits `≈ delta` ahead of its not-yet-updated child — the jump sizes
/// *are* the transient local skews the wavefront compresses onto single
/// edges, at a timescale (`d − U`) far below any practical sampling
/// grid. Experiment F2 reads these rows.
pub const ROW_TREE_JUMP: &str = "tree_jump";

impl TreeSyncNode {
    /// Creates a node from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the beacon interval is not positive.
    #[must_use]
    pub fn new(cfg: TreeConfig) -> Self {
        assert!(
            cfg.beacon_interval > 0.0,
            "beacon interval must be positive"
        );
        TreeSyncNode { cfg }
    }
}

impl Behavior<BaseMsg> for TreeSyncNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        if self.cfg.parent.is_none() {
            ctx.set_timer_at(
                TrackId::MAIN,
                self.cfg.beacon_interval,
                TimerTag::new(TIMER_BEACON),
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BaseMsg>, from: NodeId, msg: &BaseMsg) {
        let BaseMsg::Beacon { value } = *msg else {
            return;
        };
        if self.cfg.parent != Some(from) {
            return; // only the parent's beacons matter
        }
        let estimate = value + self.cfg.delay_compensation;
        let own = ctx.track_value(TrackId::MAIN);
        match self.cfg.correction {
            Correction::Jump => {
                if estimate > own {
                    ctx.jump_track(TrackId::MAIN, estimate);
                    ctx.emit(ROW_TREE_JUMP, &[estimate - own]);
                }
            }
            Correction::Slew => {
                let gap = estimate - own;
                let rate = (1.0 + gap / self.cfg.beacon_interval).clamp(0.9, 1.1);
                ctx.set_multiplier(TrackId::MAIN, rate);
            }
        }
        // Echo downwards (children filter by parent pointer).
        let own_now = ctx.track_value(TrackId::MAIN);
        ctx.broadcast(BaseMsg::Beacon { value: own_now });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _tag: TimerTag) {
        // Root: periodic beacon.
        let value = ctx.track_value(TrackId::MAIN);
        ctx.broadcast(BaseMsg::Beacon { value });
        let next = value + self.cfg.beacon_interval;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_BEACON));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_tree_sim;
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::engine::SimConfig;
    use ftgcs_sim::network::{DelayConfig, DelayDistribution};
    use ftgcs_sim::time::{SimDuration, SimTime};
    use ftgcs_sim::trace::Trace;
    use ftgcs_topology::generators::line;

    fn config() -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::from_micros(100.0),
                DelayDistribution::Uniform,
            ),
            rho: 1e-4,
            rate_model: RateModel::RandomConstant,
            seed: 3,
            sample_interval: Some(SimDuration::from_millis(10.0)),
            ..SimConfig::default()
        }
    }

    #[test]
    fn tree_sync_bounds_global_skew() {
        let g = line(6);
        let mut sim = build_tree_sim(&g, 0, config(), 0.5, Correction::Jump);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(20.0), &mut trace);
        let final_clocks = trace.final_logical().unwrap().to_vec();
        let spread = final_clocks.iter().cloned().fold(f64::MIN, f64::max)
            - final_clocks.iter().cloned().fold(f64::MAX, f64::min);
        // Free-running would spread ~rho*t per hop pair; synced stays near
        // the per-hop delay-compensation error, far below 1 ms * 5 hops * big.
        assert!(spread < 5.0 * 2e-3, "global spread {spread}");
        assert!(spread >= 0.0);
    }

    #[test]
    fn jump_mode_clocks_never_go_backwards() {
        let g = line(4);
        let mut sim = build_tree_sim(&g, 0, config(), 0.2, Correction::Jump);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(5.0), &mut trace);
        let samples = &trace.samples;
        for node in 0..4 {
            for w in samples.windows(2) {
                assert!(
                    w[1].logical[node] >= w[0].logical[node],
                    "clock of n{node} regressed"
                );
            }
        }
    }

    #[test]
    fn slew_mode_also_synchronizes() {
        let g = line(4);
        let mut sim = build_tree_sim(&g, 0, config(), 0.2, Correction::Slew);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(30.0), &mut trace);
        let final_clocks = trace.final_logical().unwrap().to_vec();
        let spread = final_clocks.iter().cloned().fold(f64::MIN, f64::max)
            - final_clocks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.05, "slewed spread {spread}");
    }
}
