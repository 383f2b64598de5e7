//! **F5 — Plain GCS collapses under one Byzantine node; FTGCS does not**
//! (§1: "The GCS algorithm utterly fails in face of non-benign faults").
//!
//! Side A: the non-fault-tolerant GCS algorithm of [LLW'10] on a ring of
//! 8 nodes, with a single Byzantine "liar". Its local skew between
//! *correct* neighbors grows without bound.
//!
//! Side B: FTGCS on the same abstract ring, each cluster containing one
//! two-faced Byzantine node (8 attackers total, vs 1 for side A). Local
//! skew stays below the Theorem 1.1 bound for the whole run.

use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_baselines::{build_gcs_sim, GcsConfig};
use ftgcs_metrics::skew::{cluster_local_skew_series, local_skew_series, FaultMask};
use ftgcs_metrics::table::Table;
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::SimConfig;
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;
use ftgcs_topology::{generators, ClusterGraph};

use crate::emit_table;
use crate::spec::SpecFile;

const POINTS: usize = 20;

/// Runs the analysis (spec: environment, horizon, seed base — plain GCS
/// at `seed`, FTGCS at `seed + 1`).
pub fn run(spec: &SpecFile) {
    println!("F5: plain GCS vs FTGCS under Byzantine faults (ring of 8)\n");
    let (rho, d, u) = spec.env();
    let params = spec.params_with_f(1);
    let horizon = spec.scenario.duration.resolve(&params);
    let ring = generators::ring(8);

    // --- Side A: plain GCS, one liar at node 0. ---
    let gcs_cfg = GcsConfig::for_network(rho, d, u);
    let kappa = gcs_cfg.kappa;
    let config = SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_secs(d),
            SimDuration::from_secs(u),
            DelayDistribution::Uniform,
        ),
        rho,
        rate_model: RateModel::RandomConstant,
        seed: spec.seed(),
        sample_interval: Some(SimDuration::from_millis(50.0)),
        ..SimConfig::default()
    };
    let mut gcs = build_gcs_sim(&ring, gcs_cfg, config, &[0]);
    let mut trace = Trace::new();
    gcs.run_until_with(SimTime::from_secs(horizon), &mut trace);
    let gcs_mask = FaultMask::from_nodes(8, &[0]);
    let gcs_local = local_skew_series(&trace, &ring, &gcs_mask);

    // --- Side B: FTGCS, one two-faced node in EVERY cluster. ---
    let cg = ClusterGraph::new(ring.clone(), params.cluster_size, params.f);
    let mut scenario = Scenario::new(cg.clone(), params.clone());
    scenario
        .seed(spec.seed() + 1)
        .rate_model(RateModel::RandomConstant)
        .with_fault_per_cluster(
            &FaultKind::TwoFaced {
                amplitude: 0.9 * params.phi * params.tau3,
            },
            1,
        );
    let run = scenario.run_for(horizon);
    let ft_mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let ft_local = cluster_local_skew_series(&run.trace, &cg, &ft_mask);

    let ft_bound = params.local_skew_bound(4);
    let mut table = Table::new(&[
        "t (s)",
        "plain GCS local (s)",
        "ftgcs local (s)",
        "ftgcs bound (s)",
    ]);
    for i in 0..POINTS {
        let t = horizon * (i as f64 + 1.0) / POINTS as f64;
        table.row(&[
            format!("{t:.0}"),
            format!("{:.3e}", gcs_local.value_at_or_before(t).unwrap_or(0.0)),
            format!("{:.3e}", ft_local.value_at_or_before(t).unwrap_or(0.0)),
            format!("{ft_bound:.3e}"),
        ]);
    }
    emit_table("f5_gcs_vs_ftgcs", &table);

    let gcs_early = gcs_local.value_at_or_before(horizon / 10.0).unwrap_or(0.0);
    let gcs_late = gcs_local.last().unwrap_or(0.0);
    let ft_max = ft_local.after(5.0 * params.t_round).max().unwrap_or(0.0);
    println!(
        "\nplain GCS (1 attacker):  local skew {gcs_early:.3e} s -> {gcs_late:.3e} s (kappa = {kappa:.3e} s): divergence"
    );
    println!(
        "FTGCS (8 attackers):     local skew max {ft_max:.3e} s <= bound {ft_bound:.3e} s: bounded"
    );
    assert!(
        gcs_late > 2.0 * gcs_early.max(kappa),
        "expected plain-GCS divergence"
    );
    assert!(ft_max <= ft_bound, "FTGCS bound violated");
    println!("shape: monotone divergence vs flat bounded curve — the paper's motivating contrast.");
}
