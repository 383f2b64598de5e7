//! Integration tests of the inter-cluster GCS layer (paper Section 4):
//! local skew bounds (Theorems 1.1/4.10), trigger exclusivity (Lemma 4.5),
//! gradient smoothing of an initial skew ramp, and the GCS axioms
//! (Proposition 4.11 / Definition 4.9).

use ftgcs::audit;
use ftgcs::node::{ModeRow, ROW_MODE};
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::{
    cluster_local_skew_series, global_skew_series, intra_cluster_skew_series, local_skew_series,
    FaultMask,
};
use ftgcs_sim::clock::RateModel;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

/// A line of `n` clusters with a front-fast/back-slow adversarial rate
/// split, which continuously generates skew pressure along the line.
fn rate_split_line(n: usize, seed: u64) -> Scenario {
    let p = params();
    let cg = ClusterGraph::new(line(n), 4, 1);
    let mut s = Scenario::new(cg.clone(), p);
    s.seed(seed);
    for c in 0..n {
        let frac = if c < n / 2 { 1.0 } else { 0.0 };
        for v in cg.members(c) {
            s.rate_override(v, RateModel::Constant { frac });
        }
    }
    s
}

#[test]
fn local_skew_stays_within_bound_under_rate_split() {
    let s = rate_split_line(4, 1);
    let p = s.params().clone();
    let cg = s.cluster_graph().clone();
    let run = s.run_for(60.0);
    let mask = FaultMask::none(cg.physical().node_count());
    let cluster_skew = cluster_local_skew_series(&run.trace, &cg, &mask);
    let node_skew = local_skew_series(&run.trace, cg.physical(), &mask);
    let cb = p.local_skew_bound(3);
    let nb = p.node_local_skew_bound(3);
    assert!(
        cluster_skew.max().unwrap() <= cb,
        "cluster local skew {} > bound {cb}",
        cluster_skew.max().unwrap()
    );
    assert!(
        node_skew.max().unwrap() <= nb,
        "node local skew {} > bound {nb}",
        node_skew.max().unwrap()
    );
}

#[test]
fn gradient_smooths_an_initial_ramp() {
    let p = params();
    let n = 4;
    let cg = ClusterGraph::new(line(n), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    // Clusters start on a ramp of 1.5 kappa per hop: global skew 4.5 kappa.
    s.seed(2)
        .rate_model(RateModel::RandomConstant)
        .cluster_offset_ramp(1.5 * p.kappa);
    let run = s.run_for(200.0);
    let mask = FaultMask::none(cg.physical().node_count());
    let global = global_skew_series(&run.trace, &mask);
    let early = global.value_at_or_before(1.0).unwrap();
    let late = global.after(150.0).max().unwrap();
    // The catch-up rule + gradient layer must shrink the ramp — but only
    // down to the catch-up engagement floor: nodes switch fast while
    // L_v ≤ M_v − c·δ (Theorem C.3), so the residual global skew settles
    // at ≈ c·δ plus estimator lag. (Per-hop gaps of 1.5κ = 4.5δ sit just
    // below the FT threshold 2κ−δ = 5δ, so only catch-up compresses.)
    assert!(early > 3.0 * p.kappa, "ramp not injected: {early}");
    let floor = (p.catch_up_c + 1.5) * p.delta;
    assert!(
        late < early * 0.75 && late <= floor,
        "ramp not smoothed to the catch-up floor: early={early}, late={late}, floor={floor}"
    );
    // Local skew respects the bound throughout the smoothing, after the
    // two-round re-lock transient from offset initialization.
    let cluster_skew = cluster_local_skew_series(&run.trace, &cg, &mask);
    let warmup = 3.0 * p.t_round;
    let max_local = cluster_skew.after(warmup).max().unwrap();
    let bound = p.local_skew_bound(n - 1);
    assert!(max_local <= bound, "local skew {max_local} > bound {bound}");
}

#[test]
fn triggers_are_mutually_exclusive_at_runtime() {
    let s = rate_split_line(4, 3);
    let cg = s.cluster_graph().clone();
    let run = s.run_for(60.0);
    let mask = FaultMask::none(cg.physical().node_count());
    let mut both = audit::BothTriggers::new(&mask);
    run.replay(&mut both);
    assert_eq!(both.count(), 0, "Lemma 4.5 violated");
    let rows = run.trace.rows_of_kind(ROW_MODE).count();
    assert!(rows > 100, "expected many mode rows, saw {rows}");
}

#[test]
fn gcs_axiom_a1_rates_bounded() {
    let s = rate_split_line(3, 4);
    let p = s.params().clone();
    let cg = s.cluster_graph().clone();
    let run = s.run_for(40.0);
    let mask = FaultMask::none(cg.physical().node_count());
    // Cluster clocks must advance at rates within [1, theta_max] (axiom
    // A1 after the Prop. 4.11 reparameterization; theta_max is the
    // absolute ceiling).
    let clocks = ftgcs_metrics::skew::cluster_clock_samples(&run.trace, &cg, &mask);
    for pair in clocks.windows(2) {
        let dt = pair[1].0 - pair[0].0;
        if dt <= 0.0 {
            continue;
        }
        for c in 0..cg.cluster_count() {
            let rate = (pair[1].1[c] - pair[0].1[c]) / dt;
            assert!(rate >= 1.0 - 1e-9, "cluster {c} rate {rate} < 1");
            assert!(
                rate <= p.theta_max + 1e-9,
                "cluster {c} rate {rate} > {}",
                p.theta_max
            );
        }
    }
}

#[test]
fn intra_cluster_bound_holds_alongside_gradient_activity() {
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(5)
        .rate_model(RateModel::RandomConstant)
        .cluster_offset_ramp(p.kappa);
    let run = s.run_for(100.0);
    let mask = FaultMask::none(cg.physical().node_count());
    let skew = intra_cluster_skew_series(&run.trace, &cg, &mask);
    // Skip the offset-injection transient (instances re-lock within two
    // rounds), then require Corollary 3.2.
    let bound = p.intra_cluster_skew_bound();
    let steady = skew.after(3.0 * p.t_round).max().unwrap();
    assert!(steady <= bound, "intra skew {steady} > bound {bound}");
}

#[test]
fn fast_mode_engages_when_behind() {
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    // Cluster 1 starts 2.5 kappa ahead: cluster 0 must see FT fire.
    s.seed(6)
        .rate_model(RateModel::RandomConstant)
        .cluster_offset(1, 2.5 * p.kappa);
    let run = s.run_for(60.0);
    let fast_rows = run
        .trace
        .rows_of_kind(ROW_MODE)
        .map(ModeRow::of)
        .filter(|mode| mode.cluster == 0 && mode.fast_mode)
        .count();
    assert!(
        fast_rows > 5,
        "cluster 0 never went fast ({fast_rows} rows)"
    );
    // And the gap must shrink.
    let mask = FaultMask::none(8);
    let global = global_skew_series(&run.trace, &mask);
    let early = global.value_at_or_before(1.0).unwrap();
    let late = global.last().unwrap();
    assert!(late < early, "gap did not shrink: {early} -> {late}");
}
