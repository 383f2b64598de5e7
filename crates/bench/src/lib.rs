//! Shared experiment harness for the FTGCS reproduction.
//!
//! Experiments are **spec files** under `experiments/` at the repo root
//! ([`spec::SpecFile`]): the unified `xp` binary executes them
//! (`xp run`, `xp sweep`, `xp list` — see [`driver`]), dispatching
//! either into one of the figure/table/ablation analyses in [`exp`] or
//! into the default streaming runner. `xp` is the crate's only binary:
//! `xp run experiments/<name>.spec` is how every figure, table and
//! ablation is regenerated. `EXPERIMENTS.md` at the repository root
//! indexes everything. This module itself holds the pieces the analyses
//! share:
//! the adversarial clock-rate schedule, the standard post-warmup skew
//! measurement, and CSV output.

#![warn(missing_docs)]
// No `unsafe` in this library: `forbid` admits no exemption further
// down, and `crates/bench/tests/workflow.rs` keeps every library root
// saying so.
#![forbid(unsafe_code)]

pub mod driver;
pub mod exp;
pub mod spec;

use std::fs;
use std::path::{Path, PathBuf};

use ftgcs::params::Params;
use ftgcs::runner::{Scenario, ScenarioRun};
use ftgcs_metrics::skew::{
    cluster_local_skew_series, global_skew_series, intra_cluster_skew_series, FaultMask,
};
use ftgcs_metrics::table::Table;
use ftgcs_sim::clock::RateModel;
use ftgcs_topology::ClusterGraph;

/// Pins the hardware clocks of the left half of the clusters to the
/// fastest legal rate and the right half to the slowest — the adversarial
/// schedule that maximizes skew across a line (cf. the lower-bound
/// executions of [FL'04]).
pub fn adversarial_rate_split(scenario: &mut Scenario, cg: &ClusterGraph) {
    let clusters = cg.cluster_count();
    for c in 0..clusters {
        let frac = if c < clusters / 2 { 1.0 } else { 0.0 };
        for slot in 0..cg.cluster_size() {
            scenario.rate_override(cg.node_id(c, slot), RateModel::Constant { frac });
        }
    }
}

/// Post-warmup skew maxima of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewReport {
    /// Worst intra-cluster skew (Corollary 3.2's quantity).
    pub intra: f64,
    /// Worst adjacent-cluster-clock skew (Theorem 4.10's quantity).
    pub local: f64,
    /// Worst global skew over correct nodes (Theorem C.3's quantity).
    pub global: f64,
}

/// Measures the three skew maxima of `run` after `warmup` seconds.
#[must_use]
pub fn measure_skews(run: &ScenarioRun, cg: &ClusterGraph, warmup: f64) -> SkewReport {
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    SkewReport {
        intra: intra_cluster_skew_series(&run.trace, cg, &mask)
            .after(warmup)
            .max()
            .unwrap_or(0.0),
        local: cluster_local_skew_series(&run.trace, cg, &mask)
            .after(warmup)
            .max()
            .unwrap_or(0.0),
        global: global_skew_series(&run.trace, &mask)
            .after(warmup)
            .max()
            .unwrap_or(0.0),
    }
}

/// The standard warm-up window: five rounds, enough for the cluster
/// algorithm to pass its transient (Proposition B.14 converges
/// geometrically with ratio `α ≈ 1/2`).
#[must_use]
pub fn warmup(params: &Params) -> f64 {
    5.0 * params.t_round
}

/// Returns the `results/` output directory, creating it if necessary.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a rendered table to stdout and its CSV twin to
/// `results/<name>.csv`. A file that already holds exactly these bytes
/// is left alone: re-creating it is the largest single cost of a
/// cached sweep.
///
/// # Panics
///
/// Panics on I/O errors (an analysis has no error channel more useful
/// than aborting).
pub fn emit_table(name: &str, table: &Table) {
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.csv"));
    write_if_changed(&path, table.to_csv().as_bytes()).expect("write csv");
    println!("[csv written to {}]", path.display());
}

/// Writes `bytes` to `path` unless the file already holds exactly them.
fn write_if_changed(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs::spec::{ScenarioSpec, TopologySpec};
    use ftgcs_topology::generators::line;

    /// The parameters of the workspace-default environment at `f = 1`.
    fn default_params() -> Params {
        ScenarioSpec::new("default", TopologySpec::Line(2), 1)
            .params()
            .expect("the default environment is feasible")
    }

    #[test]
    fn default_params_are_feasible() {
        let p = default_params();
        assert!(p.alpha < 1.0);
        assert_eq!(p.cluster_size, 4);
    }

    #[test]
    fn adversarial_split_overrides_all_nodes() {
        let p = default_params();
        let cg = ClusterGraph::new(line(4), 4, 1);
        let mut s = Scenario::new(cg.clone(), p);
        adversarial_rate_split(&mut s, &cg);
        // The scenario builds fine with all overrides in place.
        let sim = s.build();
        assert_eq!(sim.node_count(), 16);
    }

    #[test]
    fn an_unchanged_csv_is_not_rewritten() {
        let dir = std::env::temp_dir().join(format!("ftgcs_emit_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        fs::write(&path, b"a,b\n1,2\n").unwrap();
        let modified = || fs::metadata(&path).unwrap().modified().unwrap();
        let past = modified() - std::time::Duration::from_secs(86_400);
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(past)
            .unwrap();
        write_if_changed(&path, b"a,b\n1,2\n").unwrap();
        assert_eq!(modified(), past, "identical bytes touched the file");
        write_if_changed(&path, b"a,b\n1,3\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a,b\n1,3\n");
        assert_ne!(modified(), past, "new bytes left the file alone");
        // Shorter bytes that the old file starts with still replace it.
        write_if_changed(&path, b"a,b\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a,b\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn measure_skews_produces_finite_values() {
        let p = default_params();
        let cg = ClusterGraph::new(line(2), 4, 1);
        let mut s = Scenario::new(cg.clone(), p.clone());
        s.seed(1);
        let run = s.run_for(20.0 * p.t_round);
        let report = measure_skews(&run, &cg, warmup(&p));
        assert!(report.intra.is_finite() && report.intra >= 0.0);
        assert!(report.local.is_finite());
        assert!(report.global >= 0.0);
    }
}
