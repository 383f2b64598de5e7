//! **T4 — Global skew and max-estimator safety** (Lemma C.2,
//! Theorem C.3).
//!
//! Sweeps the diameter of a line topology under the adversarial rate
//! split and reports the measured global skew against the `O(δD)` guide
//! curve. Also audits the safety invariant of the max estimator: every
//! reported `M_v(t)` must lie below the true maximum correct logical
//! clock `L_max(t)` (never overestimate), while tracking it to within
//! `O(δD)`.

use ftgcs::audit;
use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::table::Table;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{adversarial_rate_split, emit_table, measure_skews, warmup};

/// Runs the analysis (spec: environment, seed base of the sweep).
pub fn run(spec: &SpecFile) {
    println!("T4: global skew vs O(delta*D) and max-estimator safety\n");
    let params = spec.params_with_f(1);
    let mut table = Table::new(&[
        "D",
        "global max (s)",
        "bound (s)",
        "M_v overestimates",
        "worst M lag (s)",
        "lag bound (s)",
    ]);

    for diameter in [2usize, 4, 8, 16] {
        let cg = ClusterGraph::new(
            generators::line(diameter + 1),
            params.cluster_size,
            params.f,
        );
        let n = cg.physical().node_count();
        let mut scenario = Scenario::new(cg.clone(), params.clone());
        scenario.seed(spec.seed() + diameter as u64);
        adversarial_rate_split(&mut scenario, &cg);
        let run = scenario.run_for(params.suggested_horizon(diameter));
        let skews = measure_skews(&run, &cg, warmup(&params));

        // Safety audit: for each mode row carrying a max estimate, the
        // estimate must not exceed L_max at the *next* clock sample
        // (L_max is nondecreasing, so this is a sound upper reference).
        let mask = FaultMask::none(n);
        let mut overestimates = 0usize;
        let mut worst_lag = 0.0f64;
        run.replay(&mut audit::MaxBrackets::new(&mask, |bracket| {
            let (Some(before), Some(after)) = (bracket.before, bracket.after) else {
                return;
            };
            if bracket.estimate > after.value + 1e-9 {
                overestimates += 1;
            }
            worst_lag = worst_lag.max(before.value - bracket.estimate);
        }));
        let lag_bound = params.global_skew_bound(diameter);

        table.row(&[
            diameter.to_string(),
            format!("{:.3e}", skews.global),
            format!("{:.3e}", params.global_skew_bound(diameter)),
            overestimates.to_string(),
            format!("{worst_lag:.3e}"),
            format!("{lag_bound:.3e}"),
        ]);
        assert!(
            skews.global <= params.global_skew_bound(diameter),
            "global skew bound violated at D = {diameter}"
        );
        assert_eq!(overestimates, 0, "M_v overestimated L_max (unsafe)");
        assert!(
            worst_lag <= lag_bound,
            "M_v lag {worst_lag} exceeds the Lemma C.2 bound {lag_bound}"
        );
    }
    emit_table("t4_global_skew", &table);
    println!("\nshape: global skew grows ~linearly in D; the estimator is safe (0 overestimates)");
    println!("and its lag stays within the O(delta*D) envelope.");
}
