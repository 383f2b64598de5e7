//! Trace audits of the paper's intermediate claims, over correct nodes:
//!
//! * [`both_triggers`] — Lemma 4.5: FT and ST never fire together;
//! * [`faithfulness`] — Lemma 4.8: FC ⇒ FT and SC ⇒ ST (Definition 4.6);
//! * [`max_brackets`] — Lemma C.2: `M_v ≤ L_max`.
//!
//! Each audit counts or brackets; which bound to hold the result to is
//! the caller's. Mode rows are read through [`ModeRow`], in the trace's
//! emission order, which is time order.

use ftgcs_metrics::skew::{cluster_clock_samples, FaultMask};
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::{Row, Trace};
use ftgcs_topology::ClusterGraph;

use crate::node::{ModeRow, ROW_MODE};
use crate::triggers::conditions;

/// The mode rows of correct nodes.
fn mode_rows<'a>(
    trace: &'a Trace,
    mask: &'a FaultMask,
) -> impl Iterator<Item = (&'a Row, ModeRow)> + 'a {
    trace
        .rows_of_kind(ROW_MODE)
        .filter(|row| !mask.is_faulty(row.node.index()))
        .map(|row| (row, ModeRow::of(row)))
}

/// Correct nodes' mode rows on which both FT and ST fired (Lemma 4.5
/// says none).
#[must_use]
pub fn both_triggers(trace: &Trace, mask: &FaultMask) -> usize {
    mode_rows(trace, mask)
        .filter(|(_, mode)| mode.fast_trigger && mode.slow_trigger)
        .count()
}

/// What [`faithfulness`] counted.
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
#[must_use]
pub fn faithfulness(
    trace: &Trace,
    cg: &ClusterGraph,
    mask: &FaultMask,
    kappa: f64,
    warm: f64,
) -> Faithfulness {
    let mut rows = mode_rows(trace, mask).peekable();
    let mut latest: Vec<Option<ModeRow>> = vec![None; cg.physical().node_count()];
    let mut counts = Faithfulness::default();
    let mut neighbor_clocks = Vec::new();
    for (t, clocks) in cluster_clock_samples(trace, cg, mask) {
        while let Some((row, mode)) = rows.next_if(|(row, _)| row.t.as_secs() <= t) {
            latest[row.node.index()] = Some(mode);
        }
        if t < warm {
            continue;
        }
        for c in 0..cg.cluster_count() {
            neighbor_clocks.clear();
            neighbor_clocks.extend(cg.neighbor_clusters(c).iter().map(|&a| clocks[a]));
            let holds = conditions(clocks[c], &neighbor_clocks, kappa);
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
    counts
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

/// Every correct node's mode row that carries a max estimate, bracketed
/// by `L_max` at the clock samples around it (Lemma C.2). `L_max` does
/// not decrease, so `after` bounds the estimate's safety
/// (`estimate ≤ after.value`) and `before` its lag from below.
pub fn max_brackets<'a>(
    trace: &'a Trace,
    mask: &'a FaultMask,
) -> impl Iterator<Item = MaxBracket> + 'a {
    let samples = &trace.samples;
    let l_max = |i: usize| LMax {
        t: samples[i].t.as_secs(),
        value: samples[i]
            .logical
            .iter()
            .enumerate()
            .filter(|&(v, _)| !mask.is_faulty(v))
            .map(|(_, &l)| l)
            .fold(f64::NEG_INFINITY, f64::max),
    };
    mode_rows(trace, mask).filter_map(move |(row, mode)| {
        let after = samples.partition_point(|s| s.t < row.t);
        Some(MaxBracket {
            t: row.t,
            estimate: mode.max_estimate?,
            before: after.checked_sub(1).map(l_max),
            after: (after < samples.len()).then(|| l_max(after)),
        })
    })
}
