//! The fault-tolerant global-maximum estimator `M_v` (Appendix C.2).
//!
//! Every node maintains a conservative estimate `M_v(t) ≤ L_max(t)` of the
//! maximum correct logical clock:
//!
//! * `M_v` grows continuously at rate `h_v/(1+ρ) ≤ 1` — never faster than
//!   `L_max`, whose rate is at least 1 (Lemma C.1);
//! * `M_v ← max(M_v, L_v)` — a node's own clock is a valid lower bound;
//! * whenever `M_v` crosses a multiple of the *level unit* `X`, the node
//!   broadcasts a level pulse; when `f+1` members of any single adjacent
//!   cluster have reported level `ℓ`, the receiver raises
//!   `M_v ← max(M_v, ℓ·X + (d−U))` — at least one reporter was correct and
//!   its message was in flight for at least `d−U` while `L_max` kept
//!   rising at rate ≥ 1 (Lemma C.2's argument).
//!
//! **Deviation from the paper (measured by ablation `a4_level_unit_ablation`,
//! EXPERIMENTS.md "Ablations"):** the paper uses
//! `X = d−U`, which is safe with the bump `(ℓ+1)(d−U)` but floods
//! `Θ(1/(d−U))` messages per second per node. We use a configurable
//! `X ≥ d−U` (default `δ`) with the weaker-but-safe bump
//! `ℓ·X + (d−U)`; the resulting estimate lag is `O(X + d·D)` ⊆ `O(δ·D)`,
//! preserving Theorem C.3's global skew bound while keeping message rates
//! practical.

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{NodeId, TimerTag, TrackId};

use crate::messages::Msg;

/// Timer kind: `M_v` reached the next level boundary.
pub const TIMER_LEVEL: u32 = 4;

/// Level reports observed from one adjacent cluster.
#[derive(Debug, Clone)]
struct ClusterLevels {
    /// Members of the cluster, in slot order.
    members: Vec<NodeId>,
    /// Highest level reported by each member.
    seen: Vec<u64>,
    /// The `(f+1)`-th largest of `seen`: the highest level at least one
    /// correct member has reported. Reports only rise, so it does too.
    confirmed: u64,
}

/// The `(n+1)`-th largest of `values` (0 if there are at most `n`),
/// selected by counting — no copy, no sort; `values` holds one cluster.
fn nth_largest(values: &[u64], n: usize) -> u64 {
    values
        .iter()
        .copied()
        .find(|&x| {
            let above = values.iter().filter(|&&v| v > x).count();
            let at_or_above = values.iter().filter(|&&v| v >= x).count();
            above <= n && n < at_or_above
        })
        .unwrap_or(0)
}

/// The per-node max-estimator component.
#[derive(Debug)]
pub struct MaxEstimator {
    track: TrackId,
    /// Level unit `X` (logical seconds per level pulse).
    unit: f64,
    /// Minimum message delay `d − U`.
    min_delay: f64,
    /// Per-cluster fault budget `f`.
    f: usize,
    /// Highest level this node has announced.
    sent_level: u64,
    /// Level reports per observable cluster (own + adjacent).
    clusters: Vec<ClusterLevels>,
}

impl MaxEstimator {
    /// Creates the estimator.
    ///
    /// `track` must be a dedicated clock track created by the owner with
    /// multiplier `1/(1+ρ)` (so `M_v` self-advances at ≤ 1). `clusters`
    /// lists the member sets of every cluster this node can hear (its own
    /// plus all adjacent ones).
    ///
    /// # Panics
    ///
    /// Panics if `unit < min_delay` (the bump rule would over-claim) or
    /// `min_delay < 0`.
    #[must_use]
    pub fn new(
        track: TrackId,
        unit: f64,
        min_delay: f64,
        f: usize,
        clusters: Vec<Vec<NodeId>>,
    ) -> Self {
        assert!(min_delay >= 0.0, "minimum delay must be non-negative");
        assert!(
            unit >= min_delay,
            "level unit must be at least d-U for the flooding to make progress"
        );
        MaxEstimator {
            track,
            unit,
            min_delay,
            f,
            sent_level: 0,
            clusters: clusters
                .into_iter()
                .map(|members| ClusterLevels {
                    seen: vec![0; members.len()],
                    members,
                    confirmed: 0,
                })
                .collect(),
        }
    }

    /// Arms the first level-boundary timer. Call from the owner's
    /// `on_start` after creating the track.
    pub fn start(&self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer_at(self.track, self.unit, TimerTag::new(TIMER_LEVEL).with_b(1));
    }

    /// Current estimate `M_v`.
    #[must_use]
    pub fn value(&self, ctx: &mut Ctx<'_, Msg>) -> f64 {
        ctx.track_value(self.track)
    }

    /// Applies `M_v ← max(M_v, own_logical)` (the node's own clock lower-
    /// bounds `L_max`). Call at round boundaries before reading
    /// [`Self::value`] for the catch-up rule.
    pub fn observe_own_clock(&mut self, ctx: &mut Ctx<'_, Msg>, own_logical: f64) {
        if own_logical > self.value(ctx) {
            ctx.jump_track(self.track, own_logical);
        }
    }

    /// Handles a level report from a neighbor.
    ///
    /// Reports from nodes outside the registered clusters are ignored (a
    /// Byzantine node cannot inject reports for clusters it is not in,
    /// because identity is carried by the channel).
    pub fn on_level(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, level: u64) {
        let Some((cl, slot)) = self.clusters.iter_mut().find_map(|cl| {
            let slot = cl.members.iter().position(|&m| m == from)?;
            Some((cl, slot))
        }) else {
            return;
        };
        if level > cl.seen[slot] {
            cl.seen[slot] = level;
        }
        // A report at or below the confirmed level cannot move the
        // (f+1)-th largest, and `M_v` never falls back below a bump it
        // already took: nothing to do for most of the flood.
        if level <= cl.confirmed {
            return;
        }
        // (f+1)-th largest report: at least one correct member of this
        // cluster has genuinely crossed this level.
        let confirmed = nth_largest(&cl.seen, self.f);
        if confirmed > cl.confirmed {
            cl.confirmed = confirmed;
            let bump = confirmed as f64 * self.unit + self.min_delay;
            if bump > self.value(ctx) {
                ctx.jump_track(self.track, bump);
                // The pending boundary timer now targets the past and will
                // fire immediately, announcing the crossed levels.
            }
        }
    }

    /// Handles the level-boundary timer: announce newly crossed levels and
    /// re-arm for the next boundary.
    ///
    /// `tag` must be the fired timer's tag: its `b` field carries the
    /// level the timer was armed for. The track has reached that boundary
    /// (that is why the timer fired), but re-reading the track can yield
    /// a value a few ulps *below* it; trusting only the re-read value
    /// would re-arm at the same boundary and livelock the event loop at a
    /// constant Newtonian time.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        let value = self.value(ctx);
        let level = ((value / self.unit).floor() as u64).max(tag.b);
        if level > self.sent_level {
            self.sent_level = level;
            ctx.broadcast(Msg::Level { level });
        }
        let next_level = self.sent_level + 1;
        ctx.set_timer_at(
            self.track,
            next_level as f64 * self.unit,
            TimerTag::new(TIMER_LEVEL).with_b(next_level),
        );
    }

    /// Highest level announced so far.
    #[must_use]
    pub fn sent_level(&self) -> u64 {
        self.sent_level
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
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    #[test]
    #[should_panic(expected = "at least d-U")]
    fn rejects_sub_delay_unit() {
        let _ = MaxEstimator::new(TrackId(1), 0.5e-3, 1e-3, 1, vec![]);
    }

    #[test]
    fn construction_and_accessors() {
        let est = MaxEstimator::new(
            TrackId(1),
            0.01,
            1e-3,
            1,
            vec![vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]],
        );
        assert_eq!(est.sent_level(), 0);
    }

    const UNIT: f64 = 0.01;
    const MIN_DELAY: f64 = 1e-3;

    /// The clone-and-sort `on_level` this module shipped with, kept as
    /// the reference the allocation-free one is compared against.
    fn on_level_reference(
        est: &mut MaxEstimator,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        level: u64,
    ) {
        let mut candidate = None;
        for cl in &mut est.clusters {
            if let Some(slot) = cl.members.iter().position(|&m| m == from) {
                if level > cl.seen[slot] {
                    cl.seen[slot] = level;
                }
                let mut sorted = cl.seen.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let confirmed = sorted.get(est.f).copied().unwrap_or(0);
                if confirmed > 0 {
                    let bump = confirmed as f64 * est.unit + est.min_delay;
                    candidate = Some(candidate.map_or(bump, |c: f64| c.max(bump)));
                }
                break;
            }
        }
        if let Some(bump) = candidate {
            if bump > est.value(ctx) {
                ctx.jump_track(est.track, bump);
            }
        }
    }

    /// Feeds one script to two estimators on two tracks of one node —
    /// the shipped `on_level` and the reference — and records both
    /// values after every report.
    struct TwinHarness {
        f: usize,
        clusters: Vec<Vec<NodeId>>,
        script: Vec<(NodeId, u64)>,
        values: Arc<Mutex<Vec<(f64, f64)>>>,
    }

    impl Behavior<Msg> for TwinHarness {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let mut twins = [(); 2].map(|()| {
                let track = ctx.new_track(0.0, 1.0);
                MaxEstimator::new(track, UNIT, MIN_DELAY, self.f, self.clusters.clone())
            });
            for &(from, level) in &self.script {
                twins[0].on_level(ctx, from, level);
                on_level_reference(&mut twins[1], ctx, from, level);
                let pair = (twins[0].value(ctx), twins[1].value(ctx));
                self.values.lock().unwrap().push(pair);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
    }

    proptest! {
        #[test]
        fn on_level_matches_the_clone_and_sort_reference(
            f in 0usize..3,
            ops in prop::collection::vec((0u8..4, 0usize..12, 0u64..40), 1..120),
        ) {
            // Two audible clusters of 3f+1 members (ids from 1), and a
            // few ids nobody registered.
            let k = 3 * f + 1;
            let clusters: Vec<Vec<NodeId>> =
                (0..2).map(|c| (1 + c * k..=(c + 1) * k).map(NodeId).collect()).collect();
            let mut liar_claim = 0;
            let script: Vec<(NodeId, u64)> = ops
                .into_iter()
                .map(|(kind, who, level)| match kind {
                    // A lone liar escalating without bound.
                    0 => {
                        liar_claim += 1000;
                        (NodeId(1), liar_claim)
                    }
                    // A sender no cluster lists.
                    1 => (NodeId(2 * k + 1 + who), level),
                    // Members, with repeats and regressions.
                    _ => (NodeId(1 + who % (2 * k)), level),
                })
                .collect();
            let values = run_twins(f, clusters, script.clone());
            prop_assert_eq!(values.len(), script.len());
            for (step, &(new, reference)) in values.iter().enumerate() {
                prop_assert!(
                    new.to_bits() == reference.to_bits(),
                    "step {step} {:?}: M_v {new} != reference {reference}",
                    script[step]
                );
            }
        }
    }

    /// No drift, no sampling: a track read is its anchor exactly.
    fn quiet_config() -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::ZERO,
                DelayDistribution::Maximal,
            ),
            rho: 0.0,
            rate_model: RateModel::Constant { frac: 0.0 },
            seed: 5,
            sample_interval: None,
            ..SimConfig::default()
        }
    }

    /// Runs `script` at t = 0 (before the tracks have self-advanced
    /// measurably) and returns `(M_v, reference M_v)` after each report.
    fn run_twins(
        f: usize,
        clusters: Vec<Vec<NodeId>>,
        script: Vec<(NodeId, u64)>,
    ) -> Vec<(f64, f64)> {
        let values = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimBuilder::new(quiet_config());
        b.add_node(Box::new(TwinHarness {
            f,
            clusters,
            script,
            values: Arc::clone(&values),
        }));
        b.build().run_until(SimTime::ZERO);
        let out = values.lock().unwrap().clone();
        out
    }

    /// `M_v` after each report of `script`, one cluster `1..=4`, `f = 1`.
    fn run_script(script: Vec<(NodeId, u64)>) -> Vec<f64> {
        let members = (1..=4).map(NodeId).collect();
        let twins = run_twins(1, vec![members], script);
        twins.into_iter().map(|(value, _)| value).collect()
    }

    #[test]
    fn single_report_is_not_confirmed() {
        // f = 1: one reporter may be Byzantine; no bump.
        let v = run_script(vec![(NodeId(1), 3)]);
        assert!(v[0].abs() < 1e-12, "bumped on unconfirmed report: {}", v[0]);
    }

    #[test]
    fn f_plus_one_distinct_reporters_confirm_a_level() {
        let v = run_script(vec![(NodeId(1), 3), (NodeId(2), 3)]);
        let expect = 3.0 * UNIT + MIN_DELAY;
        assert!(v[0].abs() < 1e-12);
        assert!((v[1] - expect).abs() < 1e-12, "bump {} != {expect}", v[1]);
    }

    #[test]
    fn repeated_reports_from_one_sender_do_not_confirm() {
        // A flooder escalating alone: the (f+1)-th largest stays at the
        // honest level, so its huge claims never move M_v.
        let v = run_script(vec![
            (NodeId(1), 3),
            (NodeId(2), 3),
            (NodeId(1), 100),
            (NodeId(1), 100_000),
        ]);
        let expect = 3.0 * UNIT + MIN_DELAY;
        assert!((v[2] - expect).abs() < 1e-12, "flooder moved M_v: {}", v[2]);
        assert!((v[3] - expect).abs() < 1e-12, "flooder moved M_v: {}", v[3]);
    }

    #[test]
    fn confirmation_takes_the_f_plus_one_th_largest() {
        // Reports 5, 4, 3 from three distinct members with f = 1: the
        // 2nd largest (4) is confirmed — at least one of {5, 4} is
        // honest, so L_max has genuinely crossed level 4.
        let v = run_script(vec![(NodeId(1), 5), (NodeId(2), 4), (NodeId(3), 3)]);
        let expect = 4.0 * UNIT + MIN_DELAY;
        assert!((v[1] - expect).abs() < 1e-12, "bump {} != {expect}", v[1]);
        // The third (lower) report must not regress the estimate.
        assert!((v[2] - expect).abs() < 1e-12);
    }

    #[test]
    fn reports_from_unknown_senders_are_ignored() {
        let v = run_script(vec![(NodeId(9), 50), (NodeId(8), 50)]);
        assert!(v[1].abs() < 1e-12, "strangers moved M_v: {}", v[1]);
    }

    #[test]
    fn value_never_decreases_on_lower_confirmations() {
        let v = run_script(vec![
            (NodeId(1), 10),
            (NodeId(2), 10),
            (NodeId(3), 2),
            (NodeId(4), 2),
        ]);
        let expect = 10.0 * UNIT + MIN_DELAY;
        assert!((v[3] - expect).abs() < 1e-12, "M_v regressed: {}", v[3]);
    }
}
