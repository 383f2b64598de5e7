//! Skew extraction from simulation traces.
//!
//! All quantities follow the paper's definitions, restricted to *correct*
//! nodes (skew between or relative to Byzantine nodes is meaningless):
//!
//! * **local skew** — `max |L_v − L_w|` over edges of a given graph;
//! * **global skew** — `max_{v,w} |L_v − L_w|` over all correct nodes;
//! * **cluster clock** — `L_C = (L⁺_C + L⁻_C)/2` (Definition 3.3);
//! * **intra-cluster skew** — `L⁺_C − L⁻_C`;
//! * **pulse diameter** — `‖p_C(r)‖ = max p_C(r) − min p_C(r)`
//!   (Definition B.7), extracted from `"pulse"` trace rows.

use crate::series::TimeSeries;
use ftgcs_sim::trace::Trace;
use ftgcs_topology::{ClusterGraph, Graph};

/// Which nodes are faulty (dense mask over node ids).
///
/// # Examples
///
/// ```
/// use ftgcs_metrics::skew::FaultMask;
///
/// let mask = FaultMask::from_nodes(5, &[1, 3]);
/// assert!(mask.is_faulty(1));
/// assert!(!mask.is_faulty(0));
/// assert_eq!(mask.correct_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMask {
    faulty: Vec<bool>,
}

impl FaultMask {
    /// A mask with no faulty nodes.
    #[must_use]
    pub fn none(n: usize) -> Self {
        FaultMask {
            faulty: vec![false; n],
        }
    }

    /// A mask marking the listed node ids faulty.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    #[must_use]
    pub fn from_nodes(n: usize, nodes: &[usize]) -> Self {
        let mut mask = FaultMask::none(n);
        for &v in nodes {
            assert!(v < n, "faulty node id {v} out of range");
            mask.faulty[v] = true;
        }
        mask
    }

    /// Whether node `v` is faulty; out-of-range ids count as correct.
    #[must_use]
    pub fn is_faulty(&self, v: usize) -> bool {
        self.faulty.get(v).copied().unwrap_or(false)
    }

    /// Number of nodes covered by the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faulty.len()
    }

    /// Whether the mask covers zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faulty.is_empty()
    }

    /// Number of correct nodes.
    #[must_use]
    pub fn correct_count(&self) -> usize {
        self.faulty.iter().filter(|&&f| !f).count()
    }

    /// Ids of the faulty nodes.
    #[must_use]
    pub fn faulty_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.faulty[v]).collect()
    }
}

/// Local skew over the edges of `graph` at each trace sample.
///
/// Edges with a faulty endpoint are skipped; samples with no eligible edge
/// are omitted.
#[must_use]
pub fn local_skew_series(trace: &Trace, graph: &Graph, faulty: &FaultMask) -> TimeSeries {
    let edges: Vec<(usize, usize)> = graph
        .edges()
        .filter(|&(a, b)| !faulty.is_faulty(a) && !faulty.is_faulty(b))
        .collect();
    let mut series = TimeSeries::new();
    for s in &trace.samples {
        let mut max_skew: Option<f64> = None;
        for &(a, b) in &edges {
            let skew = (s.logical[a] - s.logical[b]).abs();
            max_skew = Some(max_skew.map_or(skew, |m| m.max(skew)));
        }
        if let Some(m) = max_skew {
            series.push(s.t.as_secs(), m);
        }
    }
    series
}

/// Global skew (max − min logical clock over correct nodes) at each sample.
#[must_use]
pub fn global_skew_series(trace: &Trace, faulty: &FaultMask) -> TimeSeries {
    let mut series = TimeSeries::new();
    for s in &trace.samples {
        let correct = s
            .logical
            .iter()
            .enumerate()
            .filter(|&(v, _)| !faulty.is_faulty(v))
            .map(|(_, &l)| l);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for l in correct {
            min = min.min(l);
            max = max.max(l);
        }
        if min.is_finite() {
            series.push(s.t.as_secs(), max - min);
        }
    }
    series
}

/// Per-cluster clock values `L_C = (L⁺_C + L⁻_C)/2` at each sample.
///
/// Returns `(t, clocks)` pairs; clusters whose correct membership is empty
/// yield NaN (callers should treat such clusters as failed).
#[must_use]
pub fn cluster_clock_samples(
    trace: &Trace,
    cg: &ClusterGraph,
    faulty: &FaultMask,
) -> Vec<(f64, Vec<f64>)> {
    trace
        .samples
        .iter()
        .map(|s| {
            let clocks = (0..cg.cluster_count())
                .map(|c| {
                    let mut min = f64::INFINITY;
                    let mut max = f64::NEG_INFINITY;
                    for v in cg.members(c) {
                        if !faulty.is_faulty(v) {
                            min = min.min(s.logical[v]);
                            max = max.max(s.logical[v]);
                        }
                    }
                    if min.is_finite() {
                        (min + max) / 2.0
                    } else {
                        f64::NAN
                    }
                })
                .collect();
            (s.t.as_secs(), clocks)
        })
        .collect()
}

/// Local skew between *cluster clocks* over base-graph edges (the quantity
/// bounded by Theorem 4.10) at each sample.
#[must_use]
pub fn cluster_local_skew_series(
    trace: &Trace,
    cg: &ClusterGraph,
    faulty: &FaultMask,
) -> TimeSeries {
    let edges: Vec<(usize, usize)> = cg.base().edges().collect();
    let mut series = TimeSeries::new();
    for (t, clocks) in cluster_clock_samples(trace, cg, faulty) {
        let mut max_skew: Option<f64> = None;
        for &(a, b) in &edges {
            if clocks[a].is_nan() || clocks[b].is_nan() {
                continue;
            }
            let skew = (clocks[a] - clocks[b]).abs();
            max_skew = Some(max_skew.map_or(skew, |m| m.max(skew)));
        }
        if let Some(m) = max_skew {
            series.push(t, m);
        }
    }
    series
}

/// The worst intra-cluster skew `max_C (L⁺_C − L⁻_C)` at each sample (the
/// quantity bounded by Corollary 3.2).
#[must_use]
pub fn intra_cluster_skew_series(
    trace: &Trace,
    cg: &ClusterGraph,
    faulty: &FaultMask,
) -> TimeSeries {
    let mut series = TimeSeries::new();
    for s in &trace.samples {
        let mut worst: Option<f64> = None;
        for c in 0..cg.cluster_count() {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for v in cg.members(c) {
                if !faulty.is_faulty(v) {
                    min = min.min(s.logical[v]);
                    max = max.max(s.logical[v]);
                }
            }
            if min.is_finite() {
                let skew = max - min;
                worst = Some(worst.map_or(skew, |w| w.max(skew)));
            }
        }
        if let Some(w) = worst {
            series.push(s.t.as_secs(), w);
        }
    }
    series
}

/// Pulse diameters `‖p_C(r)‖` per cluster and round, extracted from trace
/// rows of the given kind (by convention `"pulse"`, emitted with
/// `values = [cluster, round]` at the Newtonian send time).
///
/// Returns `result[cluster][round-1] = Some(diameter)` for every round in
/// which at least one correct member pulsed.
#[must_use]
pub fn pulse_diameters(
    trace: &Trace,
    cg: &ClusterGraph,
    faulty: &FaultMask,
    kind: &str,
) -> Vec<Vec<Option<f64>>> {
    // (cluster, round) -> (min_t, max_t)
    let mut extremes: Vec<Vec<Option<(f64, f64)>>> = vec![Vec::new(); cg.cluster_count()];
    for row in trace.rows_of_kind(kind) {
        if faulty.is_faulty(row.node.index()) {
            continue;
        }
        let cluster = row.values[0] as usize;
        let round = row.values[1] as usize;
        assert!(round >= 1, "rounds are 1-indexed");
        let t = row.t.as_secs();
        let per_cluster = &mut extremes[cluster];
        if per_cluster.len() < round {
            per_cluster.resize(round, None);
        }
        let slot = &mut per_cluster[round - 1];
        *slot = Some(match *slot {
            None => (t, t),
            Some((lo, hi)) => (lo.min(t), hi.max(t)),
        });
    }
    extremes
        .into_iter()
        .map(|rounds| {
            rounds
                .into_iter()
                .map(|e| e.map(|(lo, hi)| hi - lo))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_sim::node::NodeId;
    use ftgcs_sim::time::SimTime;
    use ftgcs_sim::trace::{ClockSample, Row};
    use ftgcs_topology::generators::line;

    fn trace_with(samples: Vec<(f64, Vec<f64>)>) -> Trace {
        Trace {
            samples: samples
                .into_iter()
                .map(|(t, logical)| ClockSample {
                    t: SimTime::from_secs(t),
                    logical,
                })
                .collect(),
            rows: Vec::new(),
        }
    }

    #[test]
    fn fault_mask_basics() {
        let m = FaultMask::none(3);
        assert_eq!(m.correct_count(), 3);
        assert!(!m.is_empty());
        assert!(m.faulty_nodes().is_empty());
        let m = FaultMask::from_nodes(4, &[2]);
        assert_eq!(m.faulty_nodes(), vec![2]);
        assert!(!m.is_faulty(99));
    }

    #[test]
    fn local_skew_over_line() {
        let g = line(3);
        let trace = trace_with(vec![(0.0, vec![0.0, 0.0, 0.0]), (1.0, vec![1.0, 1.2, 1.1])]);
        let s = local_skew_series(&trace, &g, &FaultMask::none(3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0].1, 0.0);
        assert!((s.points()[1].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn local_skew_skips_faulty_endpoints() {
        let g = line(3);
        let trace = trace_with(vec![(0.0, vec![0.0, 100.0, 0.1])]);
        let faulty = FaultMask::from_nodes(3, &[1]);
        // Both edges touch node 1 → no eligible edges → empty series.
        let s = local_skew_series(&trace, &g, &faulty);
        assert!(s.is_empty());
    }

    #[test]
    fn global_skew_excludes_faulty() {
        let trace = trace_with(vec![(0.0, vec![1.0, 50.0, 1.5])]);
        let all = global_skew_series(&trace, &FaultMask::none(3));
        assert_eq!(all.last(), Some(49.0));
        let masked = global_skew_series(&trace, &FaultMask::from_nodes(3, &[1]));
        assert!((masked.last().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_clocks_are_midpoints() {
        let cg = ClusterGraph::new(line(2), 4, 1);
        // Cluster 0: values 0,1,2,3 → midpoint 1.5; cluster 1: all 10 → 10.
        let trace = trace_with(vec![(
            0.0,
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 10.0, 10.0, 10.0],
        )]);
        let clocks = cluster_clock_samples(&trace, &cg, &FaultMask::none(8));
        assert_eq!(clocks.len(), 1);
        assert!((clocks[0].1[0] - 1.5).abs() < 1e-12);
        assert!((clocks[0].1[1] - 10.0).abs() < 1e-12);
        // Excluding the extreme member changes the midpoint.
        let masked = cluster_clock_samples(&trace, &cg, &FaultMask::from_nodes(8, &[3]));
        assert!((masked[0].1[0] - 1.0).abs() < 1e-12);
        let skew = cluster_local_skew_series(&trace, &cg, &FaultMask::none(8));
        assert!((skew.last().unwrap() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn intra_cluster_skew_takes_worst_cluster() {
        let cg = ClusterGraph::new(line(2), 4, 1);
        let trace = trace_with(vec![(0.0, vec![0.0, 0.1, 0.2, 0.3, 5.0, 5.0, 5.0, 6.0])]);
        let s = intra_cluster_skew_series(&trace, &cg, &FaultMask::none(8));
        assert!((s.last().unwrap() - 1.0).abs() < 1e-12);
        let masked = intra_cluster_skew_series(&trace, &cg, &FaultMask::from_nodes(8, &[7]));
        assert!((masked.last().unwrap() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn pulse_diameter_extraction() {
        let cg = ClusterGraph::new(line(1), 4, 1);
        let mut trace = trace_with(vec![]);
        let pulses = [
            (0, 1.00, 1usize),
            (1, 1.01, 1),
            (2, 1.02, 1),
            (3, 1.50, 1), // faulty outlier
            (0, 2.00, 2),
            (1, 2.02, 2),
            (2, 2.01, 2),
        ];
        for (node, t, round) in pulses {
            trace.rows.push(Row {
                t: SimTime::from_secs(t),
                node: NodeId(node),
                kind: "pulse",
                values: vec![0.0, round as f64],
            });
        }
        let faulty = FaultMask::from_nodes(4, &[3]);
        let d = pulse_diameters(&trace, &cg, &faulty, "pulse");
        assert_eq!(d.len(), 1);
        assert!((d[0][0].unwrap() - 0.02).abs() < 1e-12);
        assert!((d[0][1].unwrap() - 0.02).abs() < 1e-12);
        // Including the faulty node inflates round 1.
        let d_all = pulse_diameters(&trace, &cg, &FaultMask::none(4), "pulse");
        assert!((d_all[0][0].unwrap() - 0.5).abs() < 1e-12);
    }
}
