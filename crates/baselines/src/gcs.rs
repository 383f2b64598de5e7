//! The non-fault-tolerant GCS algorithm \[13\] on a plain graph.
//!
//! Each node periodically reports its logical clock to its neighbors,
//! maintains dead-reckoned estimates of theirs, and applies the fast/slow
//! trigger rule (the even/odd-`sκ` formulation of Defs. 4.3/4.4) to pick
//! its rate. In fault-free networks this achieves the optimal
//! `Θ(log D)` local skew — but a *single* Byzantine neighbor can lie
//! per-edge and drive unbounded skew between correct nodes
//! ("the GCS algorithm utterly fails in face of non-benign faults", §1).
//! [`GcsLiar`] implements that attack; experiment F5 measures it against
//! FTGCS.

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};

use crate::messages::BaseMsg;

const TIMER_REPORT: u32 = 1;

/// Configuration of the GCS baseline.
#[derive(Debug, Clone)]
pub struct GcsConfig {
    /// Trigger step `κ`.
    pub kappa: f64,
    /// Trigger slack `δ < κ/2`.
    pub slack: f64,
    /// Fast-mode rate boost `µ`.
    pub mu: f64,
    /// Report period `P` (logical seconds).
    pub report_interval: f64,
    /// Expected one-way delay compensation (`d − U/2`).
    pub delay_compensation: f64,
}

impl GcsConfig {
    /// A reasonable configuration for the given physical constants: the
    /// estimate error is `≈ U/2 + ρ·P`, and `κ` is set to 20× that.
    #[must_use]
    pub fn for_network(rho: f64, d: f64, u: f64) -> Self {
        let p = 0.05_f64;
        let err = u / 2.0 + rho * p + 1e-9;
        let kappa = 20.0 * err;
        GcsConfig {
            kappa,
            slack: kappa / 3.0,
            mu: 0.01,
            report_interval: p,
            delay_compensation: d - u / 2.0,
        }
    }
}

/// Dead-reckoned estimate of one neighbor's clock.
#[derive(Debug, Clone, Copy)]
struct NeighborEstimate {
    /// Reported value plus delay compensation.
    base: f64,
    /// Own hardware reading at receipt.
    hw_at_receipt: f64,
}

/// A correct GCS-baseline node.
#[derive(Debug)]
pub struct GcsNode {
    cfg: GcsConfig,
    estimates: Vec<Option<NeighborEstimate>>,
}

impl GcsNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `κ`, period, or `µ`, or `slack ≥ κ/2`.
    #[must_use]
    pub fn new(cfg: GcsConfig) -> Self {
        assert!(cfg.kappa > 0.0 && cfg.mu > 0.0 && cfg.report_interval > 0.0);
        assert!(
            cfg.slack < cfg.kappa / 2.0,
            "need slack < kappa/2 for trigger exclusivity"
        );
        GcsNode {
            cfg,
            estimates: Vec::new(),
        }
    }

    fn estimate_now(&self, ctx: &mut Ctx<'_, BaseMsg>, idx: usize) -> Option<f64> {
        let est = self.estimates.get(idx).copied().flatten()?;
        let hw = ctx.hardware_now();
        Some(est.base + (hw - est.hw_at_receipt))
    }

    /// The even/odd trigger rule; returns `Some(true)` = fast,
    /// `Some(false)` = slow, `None` = neither.
    fn trigger(&self, own: f64, estimates: &[f64]) -> Option<bool> {
        if estimates.is_empty() {
            return None;
        }
        let kappa = self.cfg.kappa;
        let slack = self.cfg.slack;
        let max_up = estimates
            .iter()
            .map(|&e| e - own)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_down = estimates
            .iter()
            .map(|&e| own - e)
            .fold(f64::NEG_INFINITY, f64::max);
        let ft_hi = ((max_up + slack) / (2.0 * kappa)).floor();
        let ft_lo = ((max_down - slack) / (2.0 * kappa)).ceil().max(1.0);
        if ft_lo <= ft_hi {
            return Some(true);
        }
        let st_hi = (((max_down + slack) / kappa + 1.0) / 2.0).floor();
        let st_lo = (((max_up - slack) / kappa + 1.0) / 2.0).ceil().max(1.0);
        if st_lo <= st_hi {
            return Some(false);
        }
        None
    }

    fn react(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        let own = ctx.track_value(TrackId::MAIN);
        let n = ctx.neighbors().len();
        let estimates: Vec<f64> = (0..n).filter_map(|i| self.estimate_now(ctx, i)).collect();
        match self.trigger(own, &estimates) {
            Some(true) => ctx.set_multiplier(TrackId::MAIN, 1.0 + self.cfg.mu),
            Some(false) | None => ctx.set_multiplier(TrackId::MAIN, 1.0),
        }
    }

    fn arm(&self, ctx: &mut Ctx<'_, BaseMsg>) {
        let next = ctx.track_value(TrackId::MAIN) + self.cfg.report_interval;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_REPORT));
    }
}

impl Behavior<BaseMsg> for GcsNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        self.estimates = vec![None; ctx.neighbors().len()];
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, msg: &BaseMsg) {
        let BaseMsg::ClockReport { value } = *msg else {
            return;
        };
        let Some(idx) = ctx.sender_port() else {
            return;
        };
        let hw = ctx.hardware_now();
        self.estimates[idx] = Some(NeighborEstimate {
            base: value + self.cfg.delay_compensation,
            hw_at_receipt: hw,
        });
        self.react(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _tag: TimerTag) {
        let value = ctx.track_value(TrackId::MAIN);
        ctx.broadcast(BaseMsg::ClockReport { value });
        self.react(ctx);
        self.arm(ctx);
    }
}

/// A Byzantine node for the GCS baseline: it tailors a *different* clock
/// report to each neighbor — pushing half of them ("I am far ahead of
/// you") and pulling the other half ("I am behind you") — based on each
/// neighbor's own last report, so the pressure never relents.
///
/// The bias *escalates* linearly in time. A constant lie saturates at
/// one trigger level `s` and is then capped by the victims' FT-2/ST-2
/// checks against their correct neighbors; a growing lie keeps raising
/// the level `s` at which the victims' triggers fire, so the pushed side
/// runs fast forever and the pulled side slow forever. The divergence
/// must be distributed across the correct path connecting the two sides,
/// so the correct-edge local skew grows at rate `Θ(µ)` — unbounded.
#[derive(Debug)]
pub struct GcsLiar {
    cfg: GcsConfig,
    /// Extra claimed offset per logical second (`µ/2` by default): fast
    /// enough to outpace every victim-side cap, slow enough that victims
    /// in fast mode can keep believing they must catch up.
    escalation: f64,
    last_reports: Vec<Option<f64>>,
}

impl GcsLiar {
    /// Creates the attacker (it uses `cfg` only for `κ`, `δ`, `µ`, and
    /// the report period). The claimed offsets grow at `µ/2` per second.
    #[must_use]
    pub fn new(cfg: GcsConfig) -> Self {
        let escalation = cfg.mu / 2.0;
        GcsLiar {
            cfg,
            escalation,
            last_reports: Vec::new(),
        }
    }
}

impl Behavior<BaseMsg> for GcsLiar {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BaseMsg>) {
        self.last_reports = vec![None; ctx.neighbors().len()];
        ctx.set_timer_at(
            TrackId::MAIN,
            self.cfg.report_interval,
            TimerTag::new(TIMER_REPORT),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _from: NodeId, msg: &BaseMsg) {
        let BaseMsg::ClockReport { value } = *msg else {
            return;
        };
        if let Some(idx) = ctx.sender_port() {
            self.last_reports[idx] = Some(value);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BaseMsg>, _tag: TimerTag) {
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        let own_fallback = ctx.track_value(TrackId::MAIN);
        let ramp = self.escalation * ctx.track_value(TrackId::MAIN);
        for (i, to) in neighbors.iter().enumerate() {
            let anchor = self.last_reports[i].unwrap_or(own_fallback);
            // Push even-indexed neighbors 2κ+2δ+ramp ahead of *their own*
            // clock (their FT fires at ever-higher levels s); pull
            // odd-indexed ones κ+2δ+ramp behind (their ST fires). The
            // delay compensation makes the received estimate land near
            // `anchor ± bias`.
            let bias = if i % 2 == 0 {
                2.0 * self.cfg.kappa + 2.0 * self.cfg.slack + ramp
            } else {
                -(self.cfg.kappa + 2.0 * self.cfg.slack + ramp)
            };
            let claimed = anchor + bias - self.cfg.delay_compensation;
            ctx.send(*to, BaseMsg::ClockReport { value: claimed });
        }
        let next = ctx.track_value(TrackId::MAIN) + self.cfg.report_interval;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(TIMER_REPORT));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_gcs_sim;
    use ftgcs_metrics::skew::{local_skew_series, FaultMask};
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::engine::SimConfig;
    use ftgcs_sim::network::{DelayConfig, DelayDistribution};
    use ftgcs_sim::time::{SimDuration, SimTime};
    use ftgcs_sim::trace::Trace;
    use ftgcs_topology::generators::ring;

    fn sim_config() -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::from_micros(100.0),
                DelayDistribution::Uniform,
            ),
            rho: 1e-4,
            rate_model: RateModel::RandomConstant,
            seed: 11,
            sample_interval: Some(SimDuration::from_millis(50.0)),
            ..SimConfig::default()
        }
    }

    #[test]
    fn fault_free_gcs_keeps_local_skew_small() {
        let g = ring(8);
        let cfg = GcsConfig::for_network(1e-4, 1e-3, 1e-4);
        let kappa = cfg.kappa;
        let mut sim = build_gcs_sim(&g, cfg, sim_config(), &[]);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(60.0), &mut trace);
        let skew = local_skew_series(&trace, &g, &FaultMask::none(8));
        // Steady-state local skew should stay within a few kappa levels.
        let steady = skew.after(30.0).max().unwrap();
        assert!(steady < 6.0 * kappa, "steady local skew {steady}");
    }

    #[test]
    fn single_liar_breaks_plain_gcs() {
        let g = ring(8);
        let cfg = GcsConfig::for_network(1e-4, 1e-3, 1e-4);
        let mut sim = build_gcs_sim(&g, cfg, sim_config(), &[0]);
        let mut trace = Trace::new();
        sim.run_until_with(SimTime::from_secs(120.0), &mut trace);
        let faulty = FaultMask::from_nodes(8, &[0]);
        let skew = local_skew_series(&trace, &g, &faulty);
        // Divergence: skew in the second half far exceeds the first half.
        let early = skew.after(10.0).value_at_or_before(30.0).unwrap();
        let late = skew.last().unwrap();
        assert!(
            late > 3.0 * early.max(1e-4),
            "no divergence: early={early}, late={late}"
        );
    }

    #[test]
    fn trigger_rule_matches_expectations() {
        let cfg = GcsConfig {
            kappa: 3.0,
            slack: 1.0,
            mu: 0.01,
            report_interval: 0.05,
            delay_compensation: 1e-3,
        };
        let node = GcsNode::new(cfg);
        assert_eq!(node.trigger(0.0, &[5.0]), Some(true));
        assert_eq!(node.trigger(0.0, &[-2.0]), Some(false));
        assert_eq!(node.trigger(0.0, &[0.5]), None);
        assert_eq!(node.trigger(0.0, &[]), None);
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn rejects_excessive_slack() {
        let mut cfg = GcsConfig::for_network(1e-4, 1e-3, 1e-4);
        cfg.slack = cfg.kappa;
        let _ = GcsNode::new(cfg);
    }
}
