//! Integration tests of Byzantine resilience (Theorem 1.1's premise: at
//! most `f` faults per cluster): every implemented attack strategy must
//! leave both the intra-cluster bound (Corollary 3.2) and the gradient
//! bound (Theorem 4.10) intact.

use ftgcs::audit;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_metrics::skew::{cluster_local_skew_series, intra_cluster_skew_series, FaultMask};
use ftgcs_sim::clock::RateModel;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

fn attack_scenario(kind: &FaultKind, seed: u64) -> Scenario {
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg, p);
    s.seed(seed)
        .rate_model(RateModel::RandomConstant)
        .with_fault_per_cluster(kind, 1);
    s
}

fn assert_bounds_hold(kind: &FaultKind, seed: u64) {
    let s = attack_scenario(kind, seed);
    let p = s.params().clone();
    let cg = s.cluster_graph().clone();
    let run = s.run_for(60.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let intra = intra_cluster_skew_series(&run.trace, &cg, &mask)
        .max()
        .unwrap();
    let intra_bound = p.intra_cluster_skew_bound();
    assert!(
        intra <= intra_bound,
        "{kind:?}: intra-cluster skew {intra} > bound {intra_bound}"
    );
    let local = cluster_local_skew_series(&run.trace, &cg, &mask)
        .max()
        .unwrap();
    let local_bound = p.local_skew_bound(2);
    assert!(
        local <= local_bound,
        "{kind:?}: cluster local skew {local} > bound {local_bound}"
    );
}

#[test]
fn silent_attack_bounded() {
    assert_bounds_hold(&FaultKind::Silent, 11);
}

#[test]
fn crash_attack_bounded() {
    assert_bounds_hold(&FaultKind::Crash { at: 20.0 }, 12);
}

#[test]
fn random_pulser_attack_bounded() {
    assert_bounds_hold(
        &FaultKind::RandomPulser {
            mean_interval: 0.05,
        },
        13,
    );
}

#[test]
fn two_faced_attack_bounded() {
    // Amplitude at the plausibility edge: phi * tau3 ~= theta_g (E + U).
    let p = params();
    let amp = p.phi * p.tau3 * 0.9;
    assert_bounds_hold(&FaultKind::TwoFaced { amplitude: amp }, 14);
}

#[test]
fn skew_puller_attacks_bounded_both_directions() {
    let p = params();
    let off = p.phi * p.tau3 * 0.9;
    assert_bounds_hold(&FaultKind::SkewPuller { offset: -off }, 15);
    assert_bounds_hold(&FaultKind::SkewPuller { offset: off }, 16);
}

#[test]
fn stealthy_rusher_attack_bounded() {
    assert_bounds_hold(&FaultKind::StealthyRusher { extra_rate: 0.02 }, 17);
}

#[test]
fn level_flooder_cannot_inflate_max_estimates() {
    let s = attack_scenario(&FaultKind::LevelFlooder { level_step: 1000 }, 18);
    let cg = s.cluster_graph().clone();
    let run = s.run_for(40.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    // Safety (Lemma C.2): every correct node's M_v must stay at or below
    // the max correct clock at the same instant: compare M_v against the
    // clock sample taken at or after the row.
    let mut checked = 0;
    run.replay(&mut audit::MaxBrackets::new(&mask, |bracket| {
        let (m, lmax) = (
            bracket.estimate,
            bracket.after.expect("sample after row").value,
        );
        assert!(
            m <= lmax + 1e-9,
            "M_v = {m} exceeds L_max = {lmax} at t={} despite flooding",
            bracket.t
        );
        checked += 1;
    }));
    assert!(checked > 100, "too few mode rows audited: {checked}");
}

#[test]
fn mixed_attacks_across_clusters_bounded() {
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    let amp = p.phi * p.tau3 * 0.5;
    s.seed(19)
        .rate_model(RateModel::RandomConstant)
        .with_fault(0, FaultKind::TwoFaced { amplitude: amp })
        .with_fault(cg.node_id(1, 2), FaultKind::SkewPuller { offset: -amp })
        .with_fault(
            cg.node_id(2, 1),
            FaultKind::RandomPulser { mean_interval: 0.1 },
        );
    assert!(!s.faults_exceed_budget());
    let run = s.run_for(60.0);
    let mask = FaultMask::from_nodes(12, &run.faulty);
    let intra = intra_cluster_skew_series(&run.trace, &cg, &mask)
        .max()
        .unwrap();
    assert!(intra <= p.intra_cluster_skew_bound());
}

#[test]
fn exceeding_the_fault_budget_is_flagged_and_survivable() {
    // Two Byzantine nodes in a 4-cluster violate f=1: no bound is promised
    // (and the adversary can now control the trimmed midpoint), but the
    // implementation must not panic or deadlock.
    let p = params();
    let amp = p.phi * p.tau3 * 0.9;
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut s = Scenario::new(cg, p);
    s.seed(20)
        .rate_model(RateModel::RandomConstant)
        .with_fault(0, FaultKind::SkewPuller { offset: -amp })
        .with_fault(1, FaultKind::SkewPuller { offset: -amp });
    assert!(s.faults_exceed_budget());
    let run = s.run_for(20.0);
    assert!(run.stats.events > 0);
    assert_eq!(run.faulty, vec![0, 1]);
}
