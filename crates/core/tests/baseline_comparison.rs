//! Baseline comparisons from the paper's introduction:
//!
//! * master/slave tree sync "compresses the full global skew onto a
//!   single edge" — its local skew is no better than its global skew;
//! * plain (non-fault-tolerant) GCS collapses under a single Byzantine
//!   node, while FTGCS with a Byzantine node *per cluster* stays bounded.

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_baselines::{build_gcs_sim, build_tree_sim, Correction, GcsConfig};
use ftgcs_metrics::skew::{
    cluster_local_skew_series, global_skew_series, local_skew_series, FaultMask,
};
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::SimConfig;
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;
use ftgcs_topology::generators::{line, ring};

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomConstant,
        seed,
        sample_interval: Some(SimDuration::from_millis(20.0)),
        ..SimConfig::default()
    }
}

#[test]
fn tree_sync_compresses_global_skew_onto_one_edge() {
    // Long beacon interval => large per-wave correction; jump mode makes
    // the wavefront visible as local skew.
    let g = line(8);
    let mut sim = build_tree_sim(&g, 0, sim_config(1), 5.0, Correction::Jump);
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(60.0), &mut trace);
    let mask = FaultMask::none(8);
    let local = local_skew_series(&trace, &g, &mask);
    let global = global_skew_series(&trace, &mask);
    let max_local = local.after(10.0).max().unwrap();
    let max_global = global.after(10.0).max().unwrap();
    // The compression phenomenon: worst local skew within a constant
    // factor of worst global skew (here at least 60%).
    assert!(
        max_local >= 0.6 * max_global,
        "expected compression: local {max_local} vs global {max_global}"
    );
    assert!(max_global > 0.0);
}

#[test]
fn plain_gcs_diverges_under_one_byzantine_node() {
    let g = ring(8);
    let gcs_cfg = GcsConfig::for_network(1e-4, 1e-3, 1e-4);
    let kappa = gcs_cfg.kappa;
    let mut sim = build_gcs_sim(&g, gcs_cfg, sim_config(2), &[0]);
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(150.0), &mut trace);
    let faulty = FaultMask::from_nodes(8, &[0]);
    let local = local_skew_series(&trace, &g, &faulty);
    // Divergence between *correct* neighbors: the late skew dwarfs both
    // kappa and the early skew.
    let early = local.value_at_or_before(20.0).unwrap();
    let late = local.last().unwrap();
    assert!(
        late > 2.0 * early.max(kappa),
        "no divergence: early={early}, late={late}, kappa={kappa}"
    );
}

#[test]
fn ftgcs_stays_bounded_where_plain_gcs_diverges() {
    // Same abstract topology (ring of 8), but augmented: every cluster
    // even contains its own two-faced Byzantine node.
    let p = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
    let cg = ftgcs_topology::ClusterGraph::new(ring(8), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    let amp = p.phi * p.tau3 * 0.9;
    s.seed(3)
        .rate_model(RateModel::RandomConstant)
        .with_fault_per_cluster(&FaultKind::TwoFaced { amplitude: amp }, 1);
    let run = s.run_for(150.0);
    let mask = FaultMask::from_nodes(32, &run.faulty);
    let local = cluster_local_skew_series(&run.trace, &cg, &mask);
    let bound = p.local_skew_bound(4);
    let max = local.max().unwrap();
    assert!(
        max <= bound,
        "FTGCS local skew {max} > bound {bound} under per-cluster attack"
    );
    // No divergence over time: the second half is no worse than the
    // bound, and comparable to the first half.
    let early = local.after(10.0).value_at_or_before(75.0).unwrap();
    let late = local.last().unwrap();
    assert!(late <= bound && early <= bound);
}

#[test]
fn free_running_clocks_drift_apart_linearly() {
    let g = line(2);
    let mut config = sim_config(4);
    config.rho = 1e-3;
    let mut sim = ftgcs_baselines::build_free_run_sim(&g, config);
    // Pin extreme rates on the two nodes.
    sim.run_until_with(SimTime::from_secs(0.0), &mut Trace::new());
    drop(sim);
    // Build again with explicit per-node overrides via the raw builder.
    let mut builder = ftgcs_sim::engine::SimBuilder::<ftgcs_baselines::BaseMsg>::new(SimConfig {
        rho: 1e-3,
        sample_interval: Some(SimDuration::from_millis(100.0)),
        ..sim_config(4)
    });
    let a = builder.add_node(Box::new(ftgcs_baselines::FreeRunNode));
    let b = builder.add_node(Box::new(ftgcs_baselines::FreeRunNode));
    builder.add_edge(a, b);
    builder.set_rate_model(a, RateModel::Constant { frac: 1.0 });
    builder.set_rate_model(b, RateModel::Constant { frac: 0.0 });
    let mut sim = builder.build();
    sim.run_until_with(SimTime::from_secs(100.0), &mut Trace::new());
    let skew = (sim.logical_value(a) - sim.logical_value(b)).abs();
    assert!((skew - 100.0 * 1e-3).abs() < 1e-9, "skew {skew}");
}
