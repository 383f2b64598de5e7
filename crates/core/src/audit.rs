//! Audits of the paper's intermediate claims, over correct nodes. Each
//! is one [`Observer`] whose state does not grow with the run:
//!
//! * [`BothTriggers`] — Lemma 4.5: FT and ST never fire together;
//! * [`FaithfulnessAudit`] — Lemma 4.8: FC ⇒ FT and SC ⇒ ST
//!   (Definition 4.6);
//! * [`MaxBrackets`] — Lemma C.2: `M_v ≤ L_max`;
//! * [`RateEnvelope`] — axiom A1 / Lemma B.4: logical rates lie in
//!   `[1, ϑ_max]`.
//!
//! Each audit counts or brackets; which bound to hold the result to is
//! the caller's. A run streams into an audit
//! ([`Scenario::run_streaming`](crate::runner::Scenario::run_streaming)),
//! or a collected one is replayed into it
//! ([`ScenarioRun::replay`](crate::runner::ScenarioRun::replay)); either
//! way the audit is finished by `on_finish`. Mode rows are read through
//! [`ModeRow`].
//!
//! # Tie order
//!
//! A row emitted at a sample's very instant counts as at or before that
//! sample, yet a run delivers the sample first. An audit that relates
//! rows to samples therefore holds a sample back until a callback with a
//! later time, or `on_finish`: its counts do not depend on which of a
//! row and a sample at one instant comes first.

use ftgcs_metrics::skew::{cluster_clocks, FaultMask};
use ftgcs_sim::engine::SimStats;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::{ClockSample, Row};
use ftgcs_topology::ClusterGraph;

use crate::node::{ModeRow, ROW_MODE};
use crate::triggers::conditions;

/// The decision a correct node's mode row reports; `None` for any other
/// row.
fn correct_mode(row: &Row, mask: &FaultMask) -> Option<ModeRow> {
    (row.kind == ROW_MODE && !mask.is_faulty(row.node.index())).then(|| ModeRow::of(row))
}

/// Counts correct nodes' mode rows on which both FT and ST fired
/// (Lemma 4.5 says none).
#[derive(Debug)]
pub struct BothTriggers<'a> {
    mask: &'a FaultMask,
    count: usize,
}

impl<'a> BothTriggers<'a> {
    /// An audit of the nodes `mask` calls correct.
    #[must_use]
    pub fn new(mask: &'a FaultMask) -> Self {
        BothTriggers { mask, count: 0 }
    }

    /// The mode rows seen so far with both triggers set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Observer for BothTriggers<'_> {
    fn on_row(&mut self, row: &Row) {
        if correct_mode(row, self.mask).is_some_and(|m| m.fast_trigger && m.slow_trigger) {
            self.count += 1;
        }
    }
}

/// What [`FaithfulnessAudit`] counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faithfulness {
    /// Cluster-samples at which the fast condition FC held.
    pub fc_checks: usize,
    /// Correct members of those clusters whose latest decision had no FT.
    pub fc_violations: usize,
    /// Cluster-samples at which the slow condition SC held.
    pub sc_checks: usize,
    /// Correct members of those clusters whose latest decision had no ST.
    pub sc_violations: usize,
}

/// Lemma 4.8's faithfulness, from clock samples at or after `warm`: when
/// a cluster's clock satisfies FC (SC) against its neighbours' at slack
/// `kappa`, every correct member's latest mode decision at or before the
/// sample must have FT (ST) set. A member with no decision yet is not
/// counted.
///
/// It keeps each node's latest decision and the sample held back (see
/// "Tie order" in the module docs).
#[derive(Debug)]
pub struct FaithfulnessAudit<'a> {
    cg: &'a ClusterGraph,
    mask: &'a FaultMask,
    kappa: f64,
    warm: f64,
    latest: Vec<Option<ModeRow>>,
    /// The held-back sample's time; its cluster clocks are `clocks`.
    pending: Option<f64>,
    clocks: Vec<f64>,
    neighbor_clocks: Vec<f64>,
    counts: Faithfulness,
}

impl<'a> FaithfulnessAudit<'a> {
    /// An audit of `cg`'s clusters over the nodes `mask` calls correct.
    #[must_use]
    pub fn new(cg: &'a ClusterGraph, mask: &'a FaultMask, kappa: f64, warm: f64) -> Self {
        FaithfulnessAudit {
            cg,
            mask,
            kappa,
            warm,
            latest: vec![None; cg.physical().node_count()],
            pending: None,
            clocks: Vec::new(),
            neighbor_clocks: Vec::new(),
            counts: Faithfulness::default(),
        }
    }

    /// What the audit has counted; complete after `on_finish`.
    #[must_use]
    pub fn counts(&self) -> Faithfulness {
        self.counts
    }

    /// Checks the held-back sample, if any, against the latest decisions.
    fn settle(&mut self) {
        if self.pending.take().is_none() {
            return;
        }
        let FaithfulnessAudit {
            cg,
            latest,
            clocks,
            neighbor_clocks,
            counts,
            ..
        } = self;
        for c in 0..cg.cluster_count() {
            neighbor_clocks.clear();
            neighbor_clocks.extend(cg.neighbor_clusters(c).iter().map(|&a| clocks[a]));
            let holds = conditions(clocks[c], neighbor_clocks, self.kappa);
            let decisions = || cg.members(c).filter_map(|v| latest[v]);
            if holds.fast {
                counts.fc_checks += 1;
                counts.fc_violations += decisions().filter(|m| !m.fast_trigger).count();
            }
            if holds.slow {
                counts.sc_checks += 1;
                counts.sc_violations += decisions().filter(|m| !m.slow_trigger).count();
            }
        }
    }
}

impl Observer for FaithfulnessAudit<'_> {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.settle();
        let t = sample.t.as_secs();
        if t >= self.warm {
            cluster_clocks(&sample.logical, self.cg, self.mask, &mut self.clocks);
            self.pending = Some(t);
        }
    }

    fn on_row(&mut self, row: &Row) {
        if self.pending.is_some_and(|t| row.t.as_secs() > t) {
            self.settle();
        }
        if let Some(mode) = correct_mode(row, self.mask) {
            self.latest[row.node.index()] = Some(mode);
        }
    }

    fn on_finish(&mut self, _stats: &SimStats) {
        self.settle();
    }
}

/// `L_max`, the largest correct logical clock, at one clock sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LMax {
    /// The sample's time, in seconds.
    pub t: f64,
    /// The largest correct logical clock in it.
    pub value: f64,
}

/// A correct node's max estimate between the clock samples around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxBracket {
    /// When the mode row reporting the estimate was emitted.
    pub t: SimTime,
    /// `M_v` as the row reports it.
    pub estimate: f64,
    /// `L_max` at the last sample before `t`; `None` before the first.
    pub before: Option<LMax>,
    /// `L_max` at the first sample at or after `t`; `None` past the last.
    pub after: Option<LMax>,
}

/// Brackets every correct node's mode row that carries a max estimate
/// by `L_max` at the clock samples around it (Lemma C.2), and hands each
/// [`MaxBracket`] to `on_bracket` as it completes, in row order. `L_max`
/// does not decrease, so `after` bounds the estimate's safety
/// (`estimate ≤ after.value`) and `before` its lag from below.
///
/// It keeps `L_max` at the last two samples and the rows since the last,
/// which wait for the next; those still waiting at `on_finish` have no
/// `after`.
#[derive(Debug)]
pub struct MaxBrackets<'a, F> {
    mask: &'a FaultMask,
    on_bracket: F,
    before_last: Option<LMax>,
    last: Option<LMax>,
    /// `(t, estimate)` of each row after the last sample.
    waiting: Vec<(SimTime, f64)>,
}

impl<'a, F: FnMut(MaxBracket)> MaxBrackets<'a, F> {
    /// An audit of the nodes `mask` calls correct.
    #[must_use]
    pub fn new(mask: &'a FaultMask, on_bracket: F) -> Self {
        MaxBrackets {
            mask,
            on_bracket,
            before_last: None,
            last: None,
            waiting: Vec::new(),
        }
    }

    /// Hands over the waiting rows, bracketed by the last sample and
    /// `after`.
    fn release(&mut self, after: Option<LMax>) {
        let before = self.last;
        for (t, estimate) in self.waiting.drain(..) {
            (self.on_bracket)(MaxBracket {
                t,
                estimate,
                before,
                after,
            });
        }
    }
}

impl<F: FnMut(MaxBracket)> Observer for MaxBrackets<'_, F> {
    fn on_sample(&mut self, sample: &ClockSample) {
        let now = LMax {
            t: sample.t.as_secs(),
            value: sample
                .logical
                .iter()
                .enumerate()
                .filter(|&(v, _)| !self.mask.is_faulty(v))
                .map(|(_, &l)| l)
                .fold(f64::NEG_INFINITY, f64::max),
        };
        self.release(Some(now));
        self.before_last = self.last.replace(now);
    }

    fn on_row(&mut self, row: &Row) {
        let Some(estimate) = correct_mode(row, self.mask).and_then(|m| m.max_estimate) else {
            return;
        };
        match self.last {
            // At the last sample's instant: it is the first at or after.
            Some(last) if row.t.as_secs() <= last.t => (self.on_bracket)(MaxBracket {
                t: row.t,
                estimate,
                before: self.before_last,
                after: Some(last),
            }),
            _ => self.waiting.push((row.t, estimate)),
        }
    }

    fn on_finish(&mut self, _stats: &SimStats) {
        self.release(None);
    }
}

/// Axiom A1's rate envelope (Lemma B.4): every correct node's logical
/// clock rate between consecutive samples lies in `[1, theta_max]`, to
/// within `1e-9`. It keeps the previous sample only.
#[derive(Debug)]
pub struct RateEnvelope<'a> {
    mask: &'a FaultMask,
    theta_max: f64,
    prev: Option<SimTime>,
    prev_logical: Vec<f64>,
    violations: usize,
    min: f64,
    max: f64,
}

impl<'a> RateEnvelope<'a> {
    /// An audit of the nodes `mask` calls correct against
    /// `[1, theta_max]`.
    #[must_use]
    pub fn new(mask: &'a FaultMask, theta_max: f64) -> Self {
        RateEnvelope {
            mask,
            theta_max,
            prev: None,
            prev_logical: Vec::new(),
            violations: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Node-intervals whose rate left the envelope.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// The smallest and the largest rate seen; `(∞, −∞)` before two
    /// samples.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }
}

impl Observer for RateEnvelope<'_> {
    fn on_sample(&mut self, sample: &ClockSample) {
        if let Some(prev) = self.prev {
            let dt = sample.t.as_secs() - prev.as_secs();
            let correct = (0..sample.logical.len()).filter(|&v| !self.mask.is_faulty(v));
            for v in correct {
                let rate = (sample.logical[v] - self.prev_logical[v]) / dt;
                self.min = self.min.min(rate);
                self.max = self.max.max(rate);
                if rate < 1.0 - 1e-9 || rate > self.theta_max + 1e-9 {
                    self.violations += 1;
                }
            }
        }
        self.prev = Some(sample.t);
        self.prev_logical.clone_from(&sample.logical);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_sim::node::NodeId;
    use ftgcs_sim::trace::{RowValues, Trace};
    use ftgcs_topology::generators::line;

    /// Two clusters of four, node 7 faulty and far ahead. Cluster 0
    /// trails cluster 1 by 2κ, so FC holds for it and SC for cluster 1
    /// at both samples (t = 1 and 2). Node 6 runs at rate 1.5.
    fn trace() -> Trace {
        let sample = |t: f64, behind: f64, ahead: f64, fast: f64| ClockSample {
            t: SimTime::from_secs(t),
            logical: vec![behind, behind, behind, behind, ahead, ahead, fast, 100.0],
        };
        let mode = |t: f64, node: usize, ft: bool, st: bool, estimate: Option<f64>| {
            let mode = ModeRow {
                cluster: node / 4,
                round: 0,
                fast_mode: ft,
                fast_trigger: ft,
                slow_trigger: st,
                own_logical: 0.0,
                max_estimate: estimate,
            };
            Row {
                t: SimTime::from_secs(t),
                node: NodeId(node),
                kind: ROW_MODE,
                values: RowValues::new(&mode.values()).unwrap(),
            }
        };
        Trace {
            samples: vec![sample(1.0, 0.0, 2.0, 2.0), sample(2.0, 1.0, 3.0, 3.5)],
            rows: vec![
                mode(0.2, 3, true, true, None),
                mode(0.5, 0, false, false, None),
                mode(0.7, 7, true, true, Some(100.0)),
                // At the first sample's instant: they count as before it.
                mode(1.0, 0, true, false, Some(0.5)),
                mode(1.0, 4, false, true, Some(2.5)),
                mode(1.5, 1, false, false, Some(1.0)),
                mode(2.5, 5, false, false, Some(1.0)),
            ],
        }
    }

    /// Feeds `trace` to `obs` with each row at a sample's instant after
    /// the sample (as a run delivers it) or before it; `on_finish` is the
    /// caller's.
    fn feed(trace: &Trace, rows_first: bool, obs: &mut dyn Observer) {
        let mut rows = trace.rows.iter().peekable();
        for sample in &trace.samples {
            while let Some(row) = rows.next_if(|r| r.t < sample.t || rows_first && r.t == sample.t)
            {
                obs.on_row(row);
            }
            obs.on_sample(sample);
        }
        rows.for_each(|row| obs.on_row(row));
    }

    #[test]
    fn audits_count_the_same_whichever_of_a_tied_row_and_sample_comes_first() {
        let cg = ClusterGraph::new(line(2), 4, 1);
        let mask = FaultMask::from_nodes(8, &[7]);
        let trace = trace();
        let l_max = |t, value| Some(LMax { t, value });
        for rows_first in [false, true] {
            let mut both = BothTriggers::new(&mask);
            let mut faithful = FaithfulnessAudit::new(&cg, &mask, 1.0, 0.0);
            let mut rates = RateEnvelope::new(&mask, 1.01);
            let mut brackets = Vec::new();
            let mut max = MaxBrackets::new(&mask, |b| brackets.push(b));
            let mut fan = ftgcs_sim::observe::Fanout::new(vec![
                &mut both,
                &mut faithful,
                &mut rates,
                &mut max,
            ]);
            feed(&trace, rows_first, &mut fan);
            fan.on_finish(&SimStats::default());
            drop(fan);
            drop(max);

            assert_eq!(both.count(), 1, "rows first: {rows_first}");
            // Node 0's decision at t = 1 is its latest at the first
            // sample; node 1's at t = 1.5 lacks FT at the second.
            let expected = Faithfulness {
                fc_checks: 2,
                fc_violations: 1,
                sc_checks: 2,
                sc_violations: 0,
            };
            assert_eq!(faithful.counts(), expected, "rows first: {rows_first}");
            assert_eq!(rates.violations(), 1);
            assert_eq!(rates.range(), (1.0, 1.5));
            let bracket = |t, estimate, before, after| MaxBracket {
                t: SimTime::from_secs(t),
                estimate,
                before,
                after,
            };
            assert_eq!(
                brackets,
                [
                    bracket(1.0, 0.5, None, l_max(1.0, 2.0)),
                    bracket(1.0, 2.5, None, l_max(1.0, 2.0)),
                    bracket(1.5, 1.0, l_max(1.0, 2.0), l_max(2.0, 3.5)),
                    bracket(2.5, 1.0, l_max(2.0, 3.5), None),
                ],
                "rows first: {rows_first}"
            );
        }
    }

    #[test]
    fn the_last_sample_waits_for_on_finish() {
        let cg = ClusterGraph::new(line(2), 4, 1);
        let mask = FaultMask::none(8);
        let mut faithful = FaithfulnessAudit::new(&cg, &mask, 1.0, 0.0);
        let mut trace = trace();
        trace.rows.pop(); // the one row after the last sample
        feed(&trace, false, &mut faithful);
        assert_eq!(faithful.counts().fc_checks, 1);
        faithful.on_finish(&SimStats::default());
        assert_eq!(faithful.counts().fc_checks, 2);
    }
}
