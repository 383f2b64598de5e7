//! **T6 — Trigger and axiom audit** (Lemma 4.5, Lemma 4.8, Definition
//! 4.9's axioms A1–A4).
//!
//! Streams a gradient run, with no trace kept, into the audits of
//! `ftgcs::audit` and counts violations (all must be zero):
//!
//! 1. **Mutual exclusion** (Lemma 4.5): no mode row may report both the
//!    fast and the slow trigger satisfied.
//! 2. **Rate envelope** (axiom A1 / Lemma B.4): every node's logical
//!    clock rate between consecutive samples lies in `[1, ϑ_max]`.
//! 3. **Faithfulness proxy** (Lemma 4.8 / Definition 4.6): whenever the
//!    *fast condition* FC holds for a cluster at a sample time, every
//!    correct member's latest mode decision must have `FT` satisfied
//!    (and symmetrically for SC/ST). The run starts on a ramp of `2.5κ`
//!    per hop, so FC and SC still hold after the warm-up; an audit that
//!    finds no such cluster-sample fails rather than passing vacuously.
//! 4. **Axiom A4**: the effective parameters `µ̄/ρ̄ > 1`. It needs no
//!    audit of the run: deriving [`Params`](ftgcs::params::Params)
//!    already refuses `µ̄ ≤ ρ̄`, so every run has it; the row restates
//!    it.

use ftgcs::audit::{BothTriggers, FaithfulnessAudit, RateEnvelope};
use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::table::Table;
use ftgcs_sim::observe::Fanout;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table, warmup};

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
        .cluster_offset_ramp(2.5 * params.kappa);
    adversarial_rate_split(&mut scenario, &cg);
    let mask = FaultMask::none(n);

    // 1. Mutual exclusion, 2. rate envelope, 3. faithfulness proxy.
    let mut both = BothTriggers::new(&mask);
    let mut rates = RateEnvelope::new(&mask, params.theta_max);
    let mut faithful = FaithfulnessAudit::new(&cg, &mask, params.kappa, warmup(&params));
    scenario.run_streaming(
        params.suggested_horizon(diameter),
        &mut Fanout::new(vec![&mut both, &mut rates, &mut faithful]),
    );
    let both_triggers = both.count();
    let rate_violations = rates.violations();
    let (min_rate, max_rate) = rates.range();
    let faithful = faithful.counts();

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
        format!(
            "{} of {} cluster-samples",
            faithful.fc_violations, faithful.fc_checks
        ),
        "0, of > 0".into(),
        (faithful.fc_violations == 0 && faithful.fc_checks > 0).to_string(),
    ]);
    table.row(&[
        "SC without ST (Lemma 4.8)".into(),
        format!(
            "{} of {} cluster-samples",
            faithful.sc_violations, faithful.sc_checks
        ),
        "0, of > 0".into(),
        (faithful.sc_violations == 0 && faithful.sc_checks > 0).to_string(),
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
    assert_eq!(faithful.fc_violations, 0);
    assert_eq!(faithful.sc_violations, 0);
    assert!(
        faithful.fc_checks > 0 && faithful.sc_checks > 0,
        "the faithfulness audit checked nothing: FC held at {} and SC at {} cluster-samples",
        faithful.fc_checks,
        faithful.sc_checks
    );
    assert!(mu_bar / rho_bar > 1.0);
    println!("\nall audits clean: the execution is faithful and satisfies the GCS axioms.");
}
