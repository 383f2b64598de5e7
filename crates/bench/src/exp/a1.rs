//! **A1 — Ablation: mode policy** (`ftgcs::triggers::ModePolicy`).
//!
//! Algorithm 2 only specifies when a node *must* go fast or slow; when
//! neither trigger fires the implementation chooses. We compare the
//! three policies on two stress scenarios:
//!
//! * a steep initial ramp (steeper than the catch-up threshold), where
//!   only `CatchUp` can compress the global skew (Theorem C.3);
//! * the adversarial rate split, where the triggers do all the work and
//!   the policies should tie.

use ftgcs::runner::Scenario;
use ftgcs::ModePolicy;
use ftgcs_metrics::skew::{global_skew_series, FaultMask};
use ftgcs_metrics::table::Table;
use ftgcs_sim::clock::RateModel;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table, measure_skews, warmup};

const POLICIES: [(&str, ModePolicy); 3] = [
    ("sticky", ModePolicy::Sticky),
    ("default-slow", ModePolicy::DefaultSlow),
    ("catch-up", ModePolicy::CatchUp),
];

/// Runs the analysis (spec: environment, seed base — ramp scenario at
/// `seed`, rate-split scenario at `seed + 1`).
pub fn run(spec: &SpecFile) {
    println!("A1: mode-policy ablation (same seeds, only the policy differs)\n");
    let params = spec.params_with_f(1);
    let mut table = Table::new(&[
        "scenario",
        "policy",
        "local max (s)",
        "local bound (s)",
        "global end (s)",
    ]);

    // Scenario 1: steep ramp, no drift pressure.
    for (name, policy) in POLICIES {
        let cg = ClusterGraph::new(generators::line(5), params.cluster_size, params.f);
        let mut s = Scenario::new(cg.clone(), params.clone());
        s.seed(spec.seed())
            .rate_model(RateModel::RandomConstant)
            .mode_policy(policy)
            .cluster_offset_ramp(1.4 * params.kappa);
        let run = s.run_for(200.0);
        let skews = measure_skews(&run, &cg, warmup(&params));
        let mask = FaultMask::none(cg.physical().node_count());
        let g_end = global_skew_series(&run.trace, &mask).last().unwrap_or(0.0);
        table.row(&[
            "steep ramp".into(),
            name.into(),
            format!("{:.3e}", skews.local),
            format!("{:.3e}", params.local_skew_bound(4)),
            format!("{g_end:.3e}"),
        ]);
        assert!(skews.local <= params.local_skew_bound(4), "{name} local");
    }

    // Scenario 2: adversarial rate split (trigger-driven).
    for (name, policy) in POLICIES {
        let cg = ClusterGraph::new(generators::line(5), params.cluster_size, params.f);
        let mut s = Scenario::new(cg.clone(), params.clone());
        s.seed(spec.seed() + 1).mode_policy(policy);
        adversarial_rate_split(&mut s, &cg);
        let run = s.run_for(params.suggested_horizon(4));
        let skews = measure_skews(&run, &cg, warmup(&params));
        let mask = FaultMask::none(cg.physical().node_count());
        let g_end = global_skew_series(&run.trace, &mask).last().unwrap_or(0.0);
        table.row(&[
            "rate split".into(),
            name.into(),
            format!("{:.3e}", skews.local),
            format!("{:.3e}", params.local_skew_bound(4)),
            format!("{g_end:.3e}"),
        ]);
        assert!(skews.local <= params.local_skew_bound(4), "{name} local");
    }

    emit_table("a1_mode_policy_ablation", &table);
    println!("\nshape: all policies satisfy the local bound; only catch-up compresses the");
    println!(
        "steep ramp (its global end sits near c*delta = {:.3e} s).",
        params.catch_up_c * params.delta
    );
}
