//! **T6 — Trigger and axiom audit** (Lemma 4.5, Lemma 4.8, Definition
//! 4.9's axioms A1–A4).
//!
//! Instruments a gradient run and counts violations (all must be zero):
//!
//! 1. **Mutual exclusion** (Lemma 4.5): no mode row may report both the
//!    fast and the slow trigger satisfied.
//! 2. **Rate envelope** (axiom A1 / Lemma B.4): every node's logical
//!    clock rate between consecutive samples lies in `[1, ϑ_max]`.
//! 3. **Faithfulness proxy** (Lemma 4.8 / Definition 4.6): whenever the
//!    *fast condition* FC holds for a cluster at a sample time, every
//!    correct member's latest mode decision must have `FT` satisfied
//!    (and symmetrically for SC/ST).
//! 4. **Axiom A4**: the effective parameters `µ̄/ρ̄ > 1`.

use ftgcs::node::ROW_MODE;
use ftgcs::runner::Scenario;
use ftgcs::triggers::conditions;
use ftgcs_metrics::skew::{cluster_clock_samples, FaultMask};
use ftgcs_metrics::table::Table;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table};

/// Runs the analysis (spec: environment, seed).
pub fn run(spec: &SpecFile) {
    println!("T6: trigger mutual exclusion, rate envelope, faithfulness, axioms\n");
    let params = spec.params_with_f(1);
    let diameter = 4;
    let cg = ClusterGraph::new(
        generators::line(diameter + 1),
        params.cluster_size,
        params.f,
    );
    let n = cg.physical().node_count();
    let mut scenario = Scenario::new(cg.clone(), params.clone());
    scenario
        .seed(spec.seed())
        .cluster_offset_ramp(0.8 * params.kappa);
    adversarial_rate_split(&mut scenario, &cg);
    let run = scenario.run_for(params.suggested_horizon(diameter));
    let mask = FaultMask::none(n);

    // --- 1. Mutual exclusion. ---
    let mut both_triggers = 0usize;
    for row in run.trace.rows_of_kind(ROW_MODE) {
        if row.values[3] > 0.5 && row.values[4] > 0.5 {
            both_triggers += 1;
        }
    }

    // --- 2. Rate envelope between samples. ---
    let mut rate_violations = 0usize;
    let mut min_rate = f64::INFINITY;
    let mut max_rate = f64::NEG_INFINITY;
    for pair in run.trace.samples.windows(2) {
        let dt = pair[1].t.as_secs() - pair[0].t.as_secs();
        if dt <= 0.0 {
            continue;
        }
        for v in 0..n {
            let rate = (pair[1].logical[v] - pair[0].logical[v]) / dt;
            min_rate = min_rate.min(rate);
            max_rate = max_rate.max(rate);
            if rate < 1.0 - 1e-9 || rate > params.theta_max + 1e-9 {
                rate_violations += 1;
            }
        }
    }

    // --- 3. Faithfulness proxy. ---
    // Latest mode row per node before each sample, by merge over time.
    let mut mode_rows: Vec<(f64, usize, bool, bool)> = run
        .trace
        .rows_of_kind(ROW_MODE)
        .map(|r| {
            (
                r.t.as_secs(),
                r.node.index(),
                r.values[3] > 0.5,
                r.values[4] > 0.5,
            )
        })
        .collect();
    mode_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut latest: Vec<Option<(bool, bool)>> = vec![None; n];
    let mut row_idx = 0usize;
    let mut fc_checks = 0usize;
    let mut fc_violations = 0usize;
    let mut sc_checks = 0usize;
    let mut sc_violations = 0usize;
    let warm = 5.0 * params.t_round;
    let mut neighbor_clocks = Vec::new();
    for (t, clocks) in cluster_clock_samples(&run.trace, &cg, &mask) {
        while row_idx < mode_rows.len() && mode_rows[row_idx].0 <= t {
            let (_, node, ft, st) = mode_rows[row_idx];
            latest[node] = Some((ft, st));
            row_idx += 1;
        }
        if t < warm {
            continue;
        }
        for c in 0..cg.cluster_count() {
            neighbor_clocks.clear();
            neighbor_clocks.extend(cg.neighbor_clusters(c).iter().map(|&a| clocks[a]));
            let holds = conditions(clocks[c], &neighbor_clocks, params.kappa);
            if holds.fast {
                fc_checks += 1;
                for v in cg.members(c) {
                    if let Some((ft, _)) = latest[v] {
                        if !ft {
                            fc_violations += 1;
                        }
                    }
                }
            }
            if holds.slow {
                sc_checks += 1;
                for v in cg.members(c) {
                    if let Some((_, st)) = latest[v] {
                        if !st {
                            sc_violations += 1;
                        }
                    }
                }
            }
        }
    }

    // --- 4. Axiom A4. ---
    let (rho_bar, mu_bar) = params.gcs_axiom_rates();

    let mut table = Table::new(&["check", "observed", "requirement", "ok"]);
    table.row(&[
        "FT & ST simultaneous (Lemma 4.5)".into(),
        both_triggers.to_string(),
        "0".into(),
        (both_triggers == 0).to_string(),
    ]);
    table.row(&[
        "logical rates outside [1, theta_max]".into(),
        format!("{rate_violations} (range [{min_rate:.6}, {max_rate:.6}])"),
        format!("0 (theta_max = {:.6})", params.theta_max),
        (rate_violations == 0).to_string(),
    ]);
    table.row(&[
        "FC without FT (Lemma 4.8)".into(),
        format!("{fc_violations} of {fc_checks} cluster-samples"),
        "0".into(),
        (fc_violations == 0).to_string(),
    ]);
    table.row(&[
        "SC without ST (Lemma 4.8)".into(),
        format!("{sc_violations} of {sc_checks} cluster-samples"),
        "0".into(),
        (sc_violations == 0).to_string(),
    ]);
    table.row(&[
        "axiom A4: mu_bar/rho_bar > 1".into(),
        format!("{:.4}", mu_bar / rho_bar),
        "> 1".into(),
        (mu_bar / rho_bar > 1.0).to_string(),
    ]);
    emit_table("t6_trigger_audit", &table);

    assert_eq!(both_triggers, 0);
    assert_eq!(rate_violations, 0);
    assert_eq!(fc_violations, 0);
    assert_eq!(sc_violations, 0);
    assert!(mu_bar / rho_bar > 1.0);
    println!("\nall audits clean: the execution is faithful and satisfies the GCS axioms.");
}
