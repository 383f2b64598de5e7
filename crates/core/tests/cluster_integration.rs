//! Integration tests of the ClusterSync layer (paper Section 3):
//! intra-cluster skew bounds (Corollary 3.2), pulse-diameter convergence
//! (Proposition B.14), estimate accuracy (Corollary 3.5), and logical
//! clock rate bounds (Lemma B.4).

use ftgcs::cluster::{ROW_PULSE, ROW_ROUND};
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::{intra_cluster_skew_series, pulse_diameters, FaultMask};
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::node::{NodeId, TrackId};
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::Trace;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

fn single_cluster(seed: u64) -> Scenario {
    let p = params();
    let cg = ClusterGraph::new(line(1), 4, 1);
    let mut s = Scenario::new(cg, p);
    s.seed(seed).rate_model(RateModel::RandomConstant);
    s
}

#[test]
fn fault_free_cluster_stays_within_skew_bound() {
    let s = single_cluster(1);
    let bound = s.params().intra_cluster_skew_bound();
    let run = s.run_for(30.0);
    let mask = FaultMask::none(4);
    let skew = intra_cluster_skew_series(&run.trace, s.cluster_graph(), &mask);
    assert!(!skew.is_empty());
    let max = skew.max().unwrap();
    assert!(max <= bound, "intra-cluster skew {max} > bound {bound}");
}

#[test]
fn cluster_converges_from_initial_spread() {
    let mut s = single_cluster(2);
    let e = s.params().e;
    s.initial_offset_spread(e * 0.9);
    let bound = s.params().intra_cluster_skew_bound();
    let run = s.run_for(40.0);
    let mask = FaultMask::none(4);
    let skew = intra_cluster_skew_series(&run.trace, s.cluster_graph(), &mask);
    // The spread starts near 0.9E and must contract, ending within the
    // steady-state bound.
    let early = skew.value_at_or_before(0.01).unwrap();
    let late = skew.after(20.0).max().unwrap();
    assert!(early > 0.2 * e, "expected initial spread, got {early}");
    assert!(late <= bound, "late skew {late} > bound {bound}");
    assert!(late < early, "no contraction: early={early}, late={late}");
}

#[test]
fn pulse_diameters_contract_below_e() {
    let mut s = single_cluster(3);
    let e = s.params().e;
    s.initial_offset_spread(e * 0.9);
    let run = s.run_for(40.0);
    let mask = FaultMask::none(4);
    let diam = pulse_diameters(&run.trace, s.cluster_graph(), &mask, ROW_PULSE);
    let rounds = &diam[0];
    assert!(
        rounds.len() > 50,
        "expected many rounds, got {}",
        rounds.len()
    );
    // Proposition B.14: ||p(r)|| <= E for all rounds (offsets were kept
    // below e(1) = E).
    for (r, d) in rounds.iter().enumerate() {
        let d = d.expect("every round should have pulses");
        assert!(d <= e * 1.05, "round {} diameter {d} > E {e}", r + 1);
    }
    // Steady state is far below E for benign delays.
    let tail = rounds[rounds.len() - 10..]
        .iter()
        .map(|d| d.unwrap())
        .fold(0.0_f64, f64::max);
    assert!(tail < e, "steady-state diameter {tail} not below E {e}");
}

#[test]
fn silent_fault_is_tolerated() {
    let mut s = single_cluster(4);
    s.with_fault(0, ftgcs::FaultKind::Silent);
    let bound = s.params().intra_cluster_skew_bound();
    let run = s.run_for(30.0);
    let mask = FaultMask::from_nodes(4, &run.faulty);
    let skew = intra_cluster_skew_series(&run.trace, s.cluster_graph(), &mask);
    let max = skew.max().unwrap();
    assert!(max <= bound, "skew with silent fault {max} > bound {bound}");
    // Round rows must report exactly one missing pulse per round.
    for row in run.trace.rows_of_kind(ROW_ROUND) {
        assert_eq!(row.values[4], 1.0, "missing count should be 1");
    }
}

#[test]
fn proper_execution_has_no_missing_or_oversized_corrections() {
    let s = single_cluster(5);
    let p = params();
    let run = s.run_for(30.0);
    let limit = p.phi * p.tau3;
    for row in run.trace.rows_of_kind(ROW_ROUND) {
        let (delta, missing) = (row.values[2], row.values[4]);
        assert_eq!(missing, 0.0, "missing pulse in fault-free run");
        assert!(
            delta.abs() <= limit,
            "correction {delta} exceeds phi*tau3 = {limit}"
        );
    }
}

#[test]
fn logical_rates_stay_within_lemma_b4_bounds() {
    let s = single_cluster(6);
    let p = params();
    let run = s.run_for(20.0);
    let samples = &run.trace.samples;
    assert!(samples.len() > 20);
    for pair in samples.windows(2) {
        let dt = (pair[1].t - pair[0].t).as_secs();
        if dt <= 0.0 {
            continue;
        }
        for v in 0..4 {
            let rate = (pair[1].logical[v] - pair[0].logical[v]) / dt;
            // Lemma B.4: 1 <= rate <= theta_max. Sampling averages over
            // phase boundaries, so allow a hair of numerical slack.
            assert!(rate >= 1.0 - 1e-9, "node {v} rate {rate} < 1");
            assert!(
                rate <= p.theta_max + 1e-9,
                "node {v} rate {rate} > theta_max {}",
                p.theta_max
            );
        }
    }
}

#[test]
fn estimators_track_neighbor_cluster_clocks() {
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(7).rate_model(RateModel::RandomConstant);
    let mut sim = s.build();
    sim.run_until_with(SimTime::from_secs(30.0), &mut Trace::new());
    // Cluster 1's clock = midpoint of its members' extremes.
    let clocks: Vec<f64> = (4..8).map(|v| sim.logical_value(NodeId(v))).collect();
    let lmax = clocks.iter().cloned().fold(f64::MIN, f64::max);
    let lmin = clocks.iter().cloned().fold(f64::MAX, f64::min);
    let cluster_clock = (lmax + lmin) / 2.0;
    // Every node of cluster 0 runs its estimator of cluster 1 on track 1.
    for v in 0..4 {
        let est = sim.track_value_of(NodeId(v), TrackId(1));
        let err = (est - cluster_clock).abs();
        assert!(
            err <= p.estimate_error_bound(),
            "node {v} estimate error {err} > E {}",
            p.estimate_error_bound()
        );
    }
}

#[test]
fn two_fault_clusters_work_with_k7() {
    let p = Params::builder(1e-4, 1e-3, 1e-4, 2).build().unwrap();
    let cg = ClusterGraph::new(line(1), 7, 2);
    let mut s = Scenario::new(cg, p.clone());
    s.seed(8)
        .rate_model(RateModel::RandomConstant)
        .with_fault(0, ftgcs::FaultKind::Silent)
        .with_fault(
            1,
            ftgcs::FaultKind::RandomPulser {
                mean_interval: 0.05,
            },
        );
    let run = s.run_for(30.0);
    let mask = FaultMask::from_nodes(7, &run.faulty);
    let skew = intra_cluster_skew_series(&run.trace, s.cluster_graph(), &mask);
    let max = skew.max().unwrap();
    let bound = p.intra_cluster_skew_bound();
    assert!(max <= bound, "k=7/f=2 skew {max} > bound {bound}");
}
