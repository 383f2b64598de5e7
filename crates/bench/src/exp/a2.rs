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

use ftgcs::node::ROW_MODE;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::triggers::conditions;
use ftgcs_metrics::skew::{cluster_clock_samples, cluster_local_skew_series, FaultMask};
use ftgcs_metrics::table::Table;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table};

fn run_with_scale(base: &Params, scale: f64, seed: u64) -> (f64, usize, usize) {
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
    let mut s = Scenario::new(cg.clone(), params.clone());
    s.seed(seed).cluster_offset_ramp(0.8 * params.kappa);
    adversarial_rate_split(&mut s, &cg);
    let run = s.run_for(base.suggested_horizon(diameter));
    let mask = FaultMask::none(n);
    let warm = 5.0 * params.t_round;

    let local = cluster_local_skew_series(&run.trace, &cg, &mask)
        .after(warm)
        .max()
        .unwrap_or(0.0);

    // Faithfulness audit (same proxy as t6): FC at a sample without the
    // responsible nodes' latest FT.
    let mut mode_rows: Vec<(f64, usize, bool)> = run
        .trace
        .rows_of_kind(ROW_MODE)
        .map(|r| (r.t.as_secs(), r.node.index(), r.values[3] > 0.5))
        .collect();
    mode_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut latest: Vec<Option<bool>> = vec![None; n];
    let mut idx = 0usize;
    let mut checks = 0usize;
    let mut violations = 0usize;
    let mut neighbor_clocks = Vec::new();
    for (t, clocks) in cluster_clock_samples(&run.trace, &cg, &mask) {
        while idx < mode_rows.len() && mode_rows[idx].0 <= t {
            latest[mode_rows[idx].1] = Some(mode_rows[idx].2);
            idx += 1;
        }
        if t < warm {
            continue;
        }
        for c in 0..cg.cluster_count() {
            neighbor_clocks.clear();
            neighbor_clocks.extend(cg.neighbor_clusters(c).iter().map(|&a| clocks[a]));
            if conditions(clocks[c], &neighbor_clocks, params.kappa).fast {
                checks += 1;
                for v in cg.members(c) {
                    if latest[v] == Some(false) {
                        violations += 1;
                    }
                }
            }
        }
    }
    (local, checks, violations)
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
        let (local, checks, violations) = run_with_scale(&base, *scale, spec.seed() + i as u64);
        table.row(&[
            format!("{scale}x"),
            format!("{:.3e}", base.delta * scale),
            format!("{:.3e}", base.kappa * scale),
            format!("{local:.3e}"),
            checks.to_string(),
            violations.to_string(),
        ]);
        if (*scale - 1.0).abs() < f64::EPSILON {
            assert_eq!(
                violations, 0,
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
