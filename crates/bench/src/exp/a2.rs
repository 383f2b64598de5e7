//! **A2 — Ablation: trigger slack δ and step κ = 3δ** (Lemma 4.8).
//!
//! The paper sets `δ = (k+5)E` — just enough slack to absorb estimate
//! error plus `k+1` rounds of drift — and `κ = 3δ` so the triggers stay
//! mutually exclusive. This ablation scales `(δ, κ)` together by
//! `{0.25, 0.5, 1, 2, 4}` and measures:
//!
//! * faithfulness violations (FC holding without FT — Lemma 4.8's
//!   guarantee evaporates below `(k+5)E`);
//! * the local skew (which scales like `O(κ log D)`, so oversized slack
//!   directly costs precision).
//!
//! Each scale runs twice from the same seed. The local skew comes from
//! a start on a `0.8κ` ramp, which never makes FC hold after the
//! warm-up, so it cannot feed the faithfulness audit. The audit reads a
//! second run on `t6`'s `2.5κ` ramp, which engages the triggers but
//! would make the ramp itself the local maximum.

use ftgcs::audit;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::{cluster_local_skew_series, FaultMask};
use ftgcs_metrics::table::Table;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table};

fn run_with_scale(base: &Params, scale: f64, seed: u64) -> (f64, audit::Faithfulness) {
    let mut params = base.clone();
    params.delta *= scale;
    params.kappa *= scale;
    let diameter = 4;
    let cg = ClusterGraph::new(
        generators::line(diameter + 1),
        params.cluster_size,
        params.f,
    );
    let n = cg.physical().node_count();
    let run_on_ramp = |step: f64| {
        let mut s = Scenario::new(cg.clone(), params.clone());
        s.seed(seed).cluster_offset_ramp(step * params.kappa);
        adversarial_rate_split(&mut s, &cg);
        s.run_for(base.suggested_horizon(diameter))
    };
    let mask = FaultMask::none(n);
    let warm = 5.0 * params.t_round;

    let local = cluster_local_skew_series(&run_on_ramp(0.8).trace, &cg, &mask)
        .after(warm)
        .max()
        .unwrap_or(0.0);

    // Faithfulness audit (the same as t6's): FC at a sample without the
    // responsible nodes' latest FT.
    let mut faithful = audit::FaithfulnessAudit::new(&cg, &mask, params.kappa, warm);
    run_on_ramp(2.5).replay(&mut faithful);
    (local, faithful.counts())
}

/// Runs the analysis (spec: environment, seed base of the scale sweep).
pub fn run(spec: &SpecFile) {
    println!("A2: trigger slack ablation (delta, kappa scaled together)\n");
    let base = spec.params_with_f(1);
    let mut table = Table::new(&[
        "scale",
        "delta (s)",
        "kappa (s)",
        "local max (s)",
        "FC samples",
        "FC-without-FT",
    ]);
    let mut last_local = 0.0;
    for (i, scale) in [0.25f64, 0.5, 1.0, 2.0, 4.0].iter().enumerate() {
        let (local, faithful) = run_with_scale(&base, *scale, spec.seed() + i as u64);
        table.row(&[
            format!("{scale}x"),
            format!("{:.3e}", base.delta * scale),
            format!("{:.3e}", base.kappa * scale),
            format!("{local:.3e}"),
            faithful.fc_checks.to_string(),
            faithful.fc_violations.to_string(),
        ]);
        assert!(
            faithful.fc_checks > 0,
            "the faithfulness audit checked nothing at scale {scale}x"
        );
        if (*scale - 1.0).abs() < f64::EPSILON {
            assert_eq!(
                faithful.fc_violations, 0,
                "paper-prescribed slack must yield faithful executions"
            );
        }
        last_local = local;
    }
    emit_table("a2_slack_ablation", &table);
    let _ = last_local;
    println!("\nshape: at delta = (k+5)E (scale 1x) executions are faithful with the smallest");
    println!("kappa; undersized slack risks FC-without-FT; oversized slack inflates the");
    println!("local skew roughly linearly in kappa.");
}
