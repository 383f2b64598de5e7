//! The figure, table, and ablation analyses of the reproduction.
//!
//! Each submodule holds the body of one paper artifact regeneration.
//! The `xp` driver dispatches here when a spec file names an
//! `analysis`; `xp run experiments/<name>.spec` is the one way in.
//!
//! Every analysis takes the parsed [`SpecFile`] and reads its
//! environment `(ρ, d, U)`, base seed, and (where the analysis runs a
//! single scenario) the full scenario description from it; grid axes
//! the paper sweeps (fault budgets, diameters, slack scales, …) stay
//! analysis-internal and are documented in the spec files' comments.

use crate::spec::SpecFile;

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;

/// An analysis entry point.
pub type Analysis = fn(&SpecFile);

/// Name → analysis registry (the names match the spec files and the
/// output CSVs).
pub const ANALYSES: &[(&str, Analysis)] = &[
    ("a1_mode_policy_ablation", a1::run),
    ("a2_slack_ablation", a2::run),
    ("a3_amortization_ablation", a3::run),
    ("a4_level_unit_ablation", a4::run),
    ("f1_cluster_convergence", f1::run),
    ("f2_local_skew_vs_diameter", f2::run),
    ("f3_skew_traces", f3::run),
    ("f4_attack_matrix", f4::run),
    ("f5_gcs_vs_ftgcs", f5::run),
    ("f6_churn", f6::run),
    ("f7_mobile_adversary", f7::run),
    ("t1_parameter_table", t1::run),
    ("t2_reliability", t2::run),
    ("t3_unanimous_rates", t3::run),
    ("t4_global_skew", t4::run),
    ("t5_overhead", t5::run),
    ("t6_trigger_audit", t6::run),
];

/// Looks an analysis up by name.
#[must_use]
pub fn find(name: &str) -> Option<Analysis> {
    ANALYSES.iter().find(|&&(n, _)| n == name).map(|&(_, f)| f)
}
