//! Integration tests of the cluster-clock estimators (Corollary 3.5): a
//! node adjacent to cluster `C` runs ClusterSync silently on `C`'s
//! pulses and obtains `|L̃_wC − L_C| ≤ E`.

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_sim::node::{NodeId, TrackId};
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::Trace;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

/// Cluster clock `(L⁺+L⁻)/2` of `cluster`, read directly from the live
/// simulation's main tracks, excluding `faulty` node ids.
fn cluster_clock(
    sim: &mut ftgcs_sim::engine::Simulation<ftgcs::Msg>,
    cg: &ClusterGraph,
    cluster: usize,
    faulty: &[usize],
) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in cg.members(cluster) {
        if faulty.contains(&v) {
            continue;
        }
        let l = sim.logical_value(NodeId(v));
        lo = lo.min(l);
        hi = hi.max(l);
    }
    (lo + hi) / 2.0
}

#[test]
fn estimates_track_neighbor_cluster_clocks() {
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut scenario = Scenario::new(cg.clone(), p.clone());
    scenario.seed(71);
    let mut sim = scenario.build();
    sim.run_until_with(SimTime::from_secs(20.0 * p.t_round), &mut Trace::new());

    // Track layout: track 1+i estimates neighbor_clusters()[i]. On a
    // 2-cluster line each node has exactly one neighbor cluster.
    for v in 0..cg.physical().node_count() {
        let own_cluster = cg.cluster_of(v);
        let neighbor = cg.neighbor_clusters(own_cluster)[0];
        let estimate = sim.track_value_of(NodeId(v), TrackId(1));
        let truth = cluster_clock(&mut sim, &cg, neighbor, &[]);
        let err = (estimate - truth).abs();
        assert!(
            err <= p.estimate_error_bound(),
            "node {v}: estimate of cluster {neighbor} off by {err:.3e} > E = {:.3e}",
            p.estimate_error_bound()
        );
    }
}

#[test]
fn estimates_stay_locked_under_byzantine_members() {
    // The observed cluster contains a two-faced Byzantine member; the
    // estimator's trimmed midpoint must reject its influence just like a
    // real member would.
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut scenario = Scenario::new(cg.clone(), p.clone());
    scenario.seed(72).with_fault(
        cg.node_id(1, 0),
        FaultKind::TwoFaced {
            amplitude: 0.9 * p.phi * p.tau3,
        },
    );
    let faulty = scenario.faulty_nodes();
    let mut sim = scenario.build();
    sim.run_until_with(SimTime::from_secs(20.0 * p.t_round), &mut Trace::new());

    for v in cg.members(0) {
        let estimate = sim.track_value_of(NodeId(v), TrackId(1));
        let truth = cluster_clock(&mut sim, &cg, 1, &faulty);
        let err = (estimate - truth).abs();
        assert!(
            err <= p.estimate_error_bound(),
            "node {v}: estimate off by {err:.3e} despite f-budget attack"
        );
    }
}

#[test]
fn estimate_error_grows_gracefully_with_initial_offset() {
    // Estimator tracks are initialized at the neighbor's offset (the
    // perfect-initialization generalization): the estimate must lock and
    // stay locked when the observed cluster starts ahead.
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut scenario = Scenario::new(cg.clone(), p.clone());
    scenario.seed(73).cluster_offset(1, 0.5 * p.kappa);
    let mut sim = scenario.build();
    sim.run_until_with(SimTime::from_secs(30.0 * p.t_round), &mut Trace::new());

    for v in cg.members(0) {
        let estimate = sim.track_value_of(NodeId(v), TrackId(1));
        let truth = cluster_clock(&mut sim, &cg, 1, &[]);
        // The offset also stretches the first round; allow 2E after the
        // transient instead of E.
        let err = (estimate - truth).abs();
        assert!(
            err <= 2.0 * p.estimate_error_bound(),
            "node {v}: estimate off by {err:.3e} after offset start"
        );
    }
}

#[test]
fn every_node_creates_the_documented_track_layout() {
    // 1 main + (#neighbor clusters) estimators + 1 max track.
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut scenario = Scenario::new(cg.clone(), p.clone());
    scenario.seed(74);
    let mut sim = scenario.build();
    sim.run_until_with(SimTime::from_secs(p.t_round), &mut Trace::new());
    // Middle-cluster nodes estimate two clusters: tracks 0..=3 exist.
    for v in cg.members(1) {
        // Estimator tracks progress like clocks (≥ 1 rate): nonzero after
        // a round.
        let est_a = sim.track_value_of(NodeId(v), TrackId(1));
        let est_b = sim.track_value_of(NodeId(v), TrackId(2));
        let max_track = sim.track_value_of(NodeId(v), TrackId(3));
        assert!(est_a > 0.0 && est_b > 0.0);
        assert!(max_track >= 0.0);
    }
}
