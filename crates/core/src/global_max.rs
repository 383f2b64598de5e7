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

use crate::messages::{sender_index, senders, Msg};

/// Timer kind: `M_v` reached the next level boundary.
pub const TIMER_LEVEL: u32 = 4;

/// What one port has reported (see [`MaxEstimator::ports`]).
#[derive(Debug, Clone, Copy)]
struct PortLevels {
    /// Highest level reported on this port.
    seen: u64,
    /// Its cluster's confirmed level — the `(f+1)`-th largest `seen` of
    /// the cluster's ports, i.e. the highest level at least one correct
    /// member has reported (reports only rise, so it does too) — copied
    /// into each of them so that a report which cannot move it is
    /// rejected from this one record. `u64::MAX` for a stranger, whom no
    /// report gets past.
    confirmed: u64,
    /// Its cluster's ports: this run of [`MaxEstimator::members`] (empty
    /// for a stranger).
    first: u32,
    len: u32,
}

/// A sender in no audible cluster: its reports are ignored (a Byzantine
/// node cannot inject reports for clusters it is not in, because
/// identity is carried by the channel).
const STRANGER: PortLevels = PortLevels {
    seen: 0,
    confirmed: u64::MAX,
    first: 0,
    len: 0,
};

/// The `(n+1)`-th largest `seen` among `members` (0 if there are at most
/// `n`), selected by counting — no copy, no sort; `members` are the ports
/// of one cluster.
fn nth_largest(ports: &[PortLevels], members: &[u32], n: usize) -> u64 {
    let seen = |&p: &u32| ports[p as usize].seen;
    members
        .iter()
        .map(seen)
        .find(|&x| {
            let above = members.iter().filter(|p| seen(p) > x).count();
            let at_or_above = members.iter().filter(|p| seen(p) >= x).count();
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
    /// Level reports by sender (laid out by [`senders`]). Filled by
    /// [`Self::start`].
    ports: Vec<PortLevels>,
    /// The ports of each audible cluster (own + adjacent), cluster after
    /// cluster: one short array, so that confirming a level touches two
    /// allocations, `ports` and this.
    members: Vec<u32>,
}

impl MaxEstimator {
    /// Creates the estimator.
    ///
    /// `track` must be a dedicated clock track created by the owner with
    /// multiplier `1/(1+ρ)` (so `M_v` self-advances at ≤ 1).
    ///
    /// # Panics
    ///
    /// Panics if `unit < min_delay` (the bump rule would over-claim) or
    /// `min_delay < 0`.
    #[must_use]
    pub fn new(track: TrackId, unit: f64, min_delay: f64, f: usize) -> Self {
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
            ports: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Wires the estimator to this node's ports and arms the first
    /// level-boundary timer. Call from the owner's `on_start` after
    /// creating the track.
    ///
    /// `clusters` lists the member sets of every cluster this node can
    /// hear (its own plus all adjacent ones); a neighbour belongs to the
    /// first that names it, one that none names is a stranger. Members
    /// that are not neighbours cannot report and get no record: a level
    /// nobody reported never raises an `(f+1)`-th largest.
    pub fn start<'a>(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        clusters: impl IntoIterator<Item = &'a [NodeId]>,
    ) {
        let count = senders(ctx).count();
        self.ports = vec![STRANGER; count];
        self.members = Vec::with_capacity(count);
        let narrow = |i: usize| u32::try_from(i).expect("fewer than 2^32 ports");
        for cluster in clusters {
            let first = self.members.len();
            for (port, sender) in senders(ctx).enumerate() {
                // Still a stranger: no earlier cluster named it.
                let unclaimed = self.ports[port].confirmed == STRANGER.confirmed;
                if unclaimed && cluster.contains(&sender) {
                    self.ports[port].confirmed = 0;
                    self.members.push(narrow(port));
                }
            }
            for &port in &self.members[first..] {
                self.ports[port as usize].first = narrow(first);
                self.ports[port as usize].len = narrow(self.members.len() - first);
            }
        }
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

    /// Handles the level report being delivered (call from
    /// `on_message`): its sender is the port it arrived on.
    pub fn on_level(&mut self, ctx: &mut Ctx<'_, Msg>, level: u64) {
        let port = sender_index(ctx, self.ports.len());
        let port = &mut self.ports[port];
        port.seen = port.seen.max(level);
        // A report at or below the confirmed level cannot move the
        // (f+1)-th largest, and `M_v` never falls back below a bump it
        // already took: nothing to do for most of the flood.
        if level <= port.confirmed {
            return;
        }
        let members = &self.members[port.first as usize..][..port.len as usize];
        let before = port.confirmed;
        // (f+1)-th largest report: at least one correct member of this
        // cluster has genuinely crossed this level.
        let ports = &mut self.ports;
        let confirmed = nth_largest(ports, members, self.f);
        if confirmed > before {
            for &p in members {
                ports[p as usize].confirmed = confirmed;
            }
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
    use crate::node::{FtGcsNode, NodeConfig};
    use crate::params::Params;
    use crate::triggers::ModePolicy;
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::engine::{SimBuilder, SimConfig, Simulation};
    use ftgcs_sim::network::{DelayConfig, DelayDistribution};
    use ftgcs_sim::node::Behavior;
    use ftgcs_sim::time::{SimDuration, SimTime};
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    #[test]
    #[should_panic(expected = "at least d-U")]
    fn rejects_sub_delay_unit() {
        let _ = MaxEstimator::new(TrackId(1), 0.5e-3, 1e-3, 1);
    }

    #[test]
    fn construction_and_accessors() {
        let est = MaxEstimator::new(TrackId(1), 0.01, 1e-3, 1);
        assert_eq!(est.sent_level(), 0);
    }

    const UNIT: f64 = 0.01;
    const MIN_DELAY: f64 = 1e-3;
    /// Newtonian spacing of a script's reports, and the (exact) message
    /// delay of the test world: a whole script is over in microseconds.
    const STEP: f64 = 1e-9;
    const DELAY: f64 = 1e-6;
    /// Rate of the twins' tracks: over a script they self-advance by
    /// 1e-15, far below the tests' 1e-12 tolerance.
    const FROZEN: f64 = 1e-9;

    /// The clone-and-sort `on_level` this module shipped with, kept as
    /// the reference the port-indexed, allocation-free one is compared
    /// against. It knows nothing of ports: it searches the member lists
    /// for the sender and keeps its own reports.
    struct Reference {
        track: TrackId,
        f: usize,
        clusters: Vec<(Vec<NodeId>, Vec<u64>)>,
    }

    impl Reference {
        fn on_level(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, level: u64) {
            let mut candidate = None;
            for (members, seen) in &mut self.clusters {
                if let Some(slot) = members.iter().position(|&m| m == from) {
                    if level > seen[slot] {
                        seen[slot] = level;
                    }
                    let mut sorted = seen.clone();
                    sorted.sort_unstable_by(|a, b| b.cmp(a));
                    let confirmed = sorted.get(self.f).copied().unwrap_or(0);
                    if confirmed > 0 {
                        let bump = confirmed as f64 * UNIT + MIN_DELAY;
                        candidate = Some(candidate.map_or(bump, |c: f64| c.max(bump)));
                    }
                    break;
                }
            }
            if let Some(bump) = candidate {
                if bump > ctx.track_value(self.track) {
                    ctx.jump_track(self.track, bump);
                }
            }
        }
    }

    /// Feeds every level report delivered to it to two estimators on two
    /// tracks of one node — the shipped `on_level` and the reference —
    /// and records both values after each.
    struct TwinHarness {
        f: usize,
        clusters: Vec<Vec<NodeId>>,
        twins: Option<(MaxEstimator, Reference)>,
        values: Arc<Mutex<Vec<(f64, f64)>>>,
    }

    impl Behavior<Msg> for TwinHarness {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let track = ctx.new_track(0.0, FROZEN);
            let mut shipped = MaxEstimator::new(track, UNIT, MIN_DELAY, self.f);
            shipped.start(ctx, self.clusters.iter().map(Vec::as_slice));
            let reference = Reference {
                track: ctx.new_track(0.0, FROZEN),
                f: self.f,
                clusters: self
                    .clusters
                    .iter()
                    .map(|members| (members.clone(), vec![0; members.len()]))
                    .collect(),
            };
            self.twins = Some((shipped, reference));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
            let Msg::Level { level } = *msg else {
                return;
            };
            let (shipped, reference) = self.twins.as_mut().expect("started");
            shipped.on_level(ctx, level);
            reference.on_level(ctx, from, level);
            let pair = (shipped.value(ctx), ctx.track_value(reference.track));
            self.values.lock().unwrap().push(pair);
        }
        // The shipped twin's level-boundary timer: nothing to announce.
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
    }

    /// A neighbour of `to` that sends it `Msg::Level { level }` at each
    /// `(Newtonian time, level)` of its script.
    struct Reporter {
        to: NodeId,
        script: Vec<(f64, u64)>,
    }

    impl Behavior<Msg> for Reporter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for &(at, level) in &self.script {
                ctx.set_timer_at_newtonian(at, TimerTag::new(0).with_b(level));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
            ctx.send(self.to, Msg::Level { level: tag.b });
        }
    }

    /// No drift, no sampling, every message takes exactly `DELAY`.
    fn quiet_config() -> SimConfig {
        SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_secs(DELAY),
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

    /// Node 0 is `listener`; nodes `1..=reporters` are its neighbours,
    /// and report `script[j] = (who, level)` at time `at[j]`.
    fn world(
        listener: Box<dyn Behavior<Msg>>,
        reporters: usize,
        script: &[(NodeId, u64)],
        at: impl Fn(usize) -> f64,
    ) -> Simulation<Msg> {
        let mut b = SimBuilder::new(quiet_config());
        let hub = b.add_node(listener);
        for id in 1..=reporters {
            let own = script.iter().enumerate();
            let own = own.filter(|(_, &(who, _))| who == NodeId(id));
            let node = b.add_node(Box::new(Reporter {
                to: hub,
                script: own.map(|(j, &(_, level))| (at(j), level)).collect(),
            }));
            b.add_edge(hub, node);
        }
        b.build()
    }

    /// Delivers `script` to a twin harness hearing `clusters`, report
    /// after report, from `reporters` real neighbours; returns
    /// `(M_v, reference M_v)` after each.
    fn run_twins(
        f: usize,
        clusters: Vec<Vec<NodeId>>,
        reporters: usize,
        script: &[(NodeId, u64)],
    ) -> Vec<(f64, f64)> {
        let values = Arc::new(Mutex::new(Vec::new()));
        let harness = TwinHarness {
            f,
            clusters,
            twins: None,
            values: Arc::clone(&values),
        };
        let mut sim = world(Box::new(harness), reporters, script, |j| j as f64 * STEP);
        sim.run_until(SimTime::from_secs(script.len() as f64 * STEP + 2.0 * DELAY));
        let out = values.lock().unwrap().clone();
        out
    }

    proptest! {
        #[test]
        fn on_level_matches_the_clone_and_sort_reference(
            f in 0usize..3,
            ops in prop::collection::vec((0u8..4, 0usize..12, 0u64..40), 1..120),
        ) {
            // Two audible clusters of 3f+1 members (ids from 1), and
            // twelve neighbours nobody registered.
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
            let values = run_twins(f, clusters, 2 * k + 12, &script);
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

    /// `M_v` after each report of `script`: one cluster `1..=4`, `f = 1`,
    /// and neighbours `5..=9` in no cluster.
    fn run_script(script: Vec<(NodeId, u64)>) -> Vec<f64> {
        let members = (1..=4).map(NodeId).collect();
        let twins = run_twins(1, vec![members], 9, &script);
        assert_eq!(twins.len(), script.len(), "every report is delivered");
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

    /// An `FtGcsNode` that is torn down and started again at `at`, the
    /// way a lifecycle recovery does it.
    struct Rejoiner {
        inner: FtGcsNode,
        at: f64,
    }

    const TIMER_REJOIN: u32 = 77;

    impl Behavior<Msg> for Rejoiner {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.inner.on_start(ctx);
            ctx.set_timer_at_newtonian(self.at, TimerTag::new(TIMER_REJOIN));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
            self.inner.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
            if tag.kind == TIMER_REJOIN {
                ctx.cancel_all_timers();
                ctx.reset_tracks();
                self.inner.start_at_round(ctx, 1);
            } else {
                self.inner.on_timer(ctx, tag);
            }
        }
    }

    #[test]
    fn a_rejoin_rebuilds_the_port_tables() {
        // Node 0 of cluster {0..4} hears cluster {4..8}; f = 1. Its
        // seven neighbours are reporters, so its ports are 0..7 and its
        // own loopback is the eighth record.
        let params = Arc::new(Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap());
        let (unit, min_delay) = (params.level_unit, params.d - params.u);
        let cfg = NodeConfig {
            params,
            cluster_id: 0,
            members: (0..4).map(NodeId).collect(),
            neighbors: vec![(1, (4..8).map(NodeId).collect())].into(),
            neighbor_offsets: Vec::new().into(),
            mode_policy: ModePolicy::CatchUp,
            enable_max_estimator: true,
            initial_offset: 0.0,
        };
        let max_track = TrackId(FtGcsNode::new(cfg.clone()).track_count() - 1);
        // Levels far above what the tracks reach on their own in a
        // millisecond. Before the rejoin: 4 and 5 confirm 1000, and 5
        // alone claims 2000. After it: 4 claims 2000 — confirmed only
        // if the old incarnation's `seen` survived — then 6 does too.
        let script = [
            (NodeId(4), 1000),
            (NodeId(5), 1000),
            (NodeId(5), 2000),
            (NodeId(4), 2000),
            (NodeId(6), 2000),
        ];
        let at = |j: usize| [1e-4, 1e-4, 2e-4, 4e-4, 6e-4][j];
        let rejoiner = Rejoiner {
            inner: FtGcsNode::new(cfg),
            at: 3e-4,
        };
        let mut sim = world(Box::new(rejoiner), 7, &script, at);
        let mut m_v_at = |t: f64| {
            sim.run_until(SimTime::from_secs(t));
            sim.track_value_of(NodeId(0), max_track)
        };
        let bump = |level: f64| level * unit + min_delay;
        assert!(m_v_at(2.5e-4) >= bump(1000.0), "f+1 reports confirm");
        assert!(m_v_at(2.5e-4) < bump(2000.0), "one report does not");
        // A fresh estimator on a fresh track.
        assert!(m_v_at(3.5e-4) < 1e-3, "M_v restarts with the node");
        assert!(
            m_v_at(5e-4) < 1e-3,
            "a report to the old incarnation counted after the rejoin"
        );
        assert!(m_v_at(7e-4) >= bump(2000.0), "the new tables confirm");
    }
}
