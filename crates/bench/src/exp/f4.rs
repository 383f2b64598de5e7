//! **F4 — Attack matrix: every fault strategy × fault budget**
//! (Theorem 1.1's premise: ≤ `f` Byzantine nodes per cluster).
//!
//! Runs every implemented Byzantine strategy against a 3-cluster line,
//! for `f ∈ {1, 2}` (clusters of `3f+1`), with `f` attackers in *every*
//! cluster, and reports intra-cluster and local skew against the paper's
//! bounds. All in-budget cells must hold; the final row deliberately
//! exceeds the budget to show the bounds are not vacuous.

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_metrics::table::Table;
use ftgcs_topology::{generators, ClusterGraph};

use crate::spec::SpecFile;
use crate::{emit_table, measure_skews, warmup};

const DIAMETER: usize = 2;

fn attacks(p: &Params) -> Vec<(&'static str, FaultKind)> {
    vec![
        ("silent", FaultKind::Silent),
        (
            "crash@mid",
            FaultKind::Crash {
                at: 0.5 * p.suggested_horizon(DIAMETER),
            },
        ),
        (
            "random-pulser",
            FaultKind::RandomPulser {
                mean_interval: p.t_round / 3.0,
            },
        ),
        (
            "two-faced",
            FaultKind::TwoFaced {
                amplitude: 0.9 * p.phi * p.tau3,
            },
        ),
        ("skew-puller", FaultKind::SkewPuller { offset: -2.0 * p.e }),
        (
            "stealthy-rusher",
            FaultKind::StealthyRusher { extra_rate: 0.01 },
        ),
        (
            "level-flooder",
            FaultKind::LevelFlooder { level_step: 1000 },
        ),
    ]
}

fn run_cell(params: &Params, kind: &FaultKind, per_cluster: usize, seed: u64) -> (f64, f64) {
    let cg = ClusterGraph::new(
        generators::line(DIAMETER + 1),
        params.cluster_size,
        params.f,
    );
    let mut scenario = Scenario::new(cg.clone(), params.clone());
    scenario
        .seed(seed)
        .with_fault_per_cluster(kind, per_cluster);
    let run = scenario.run_for(params.suggested_horizon(DIAMETER));
    let s = measure_skews(&run, &cg, warmup(params));
    (s.intra, s.local)
}

/// Lifecycle attack rows: time-windowed faults that keep the paper's
/// *instantaneous* budget — `f` attackers per cluster at every moment —
/// while strictly more distinct nodes are Byzantine over the whole run.
/// Recovered nodes re-initialize and rejoin mid-run (see
/// `ftgcs::faults::LifecycleNode`); skews are measured over the
/// never-faulty nodes.
/// One windowed fault assignment: `(node, kind, from, to)`, the same
/// shape `Scenario::with_fault_window` takes.
type FaultWindow = (usize, FaultKind, f64, f64);

fn lifecycle_attacks(p: &Params) -> Vec<(&'static str, Vec<FaultWindow>)> {
    let h = p.suggested_horizon(DIAMETER);
    let k = p.cluster_size;
    let two_faced = FaultKind::TwoFaced {
        amplitude: 0.9 * p.phi * p.tau3,
    };
    // Slots 0..f of every cluster attack only over the middle third of
    // the run, then recover.
    let mut windowed = Vec::new();
    // Slots 0..f of every cluster flap: silent for a quarter of each
    // 8-round period (f simultaneous outages per cluster = exactly the
    // budget).
    let mut churn = Vec::new();
    let period = 8.0 * p.t_round;
    for c in 0..=DIAMETER {
        for s in 0..p.f {
            let node = c * k + s;
            windowed.push((node, two_faced.clone(), 0.35 * h, 0.65 * h));
            let mut start = 0.5 * period;
            while start < h {
                churn.push((node, FaultKind::Silent, start, start + 0.25 * period));
                start += period;
            }
        }
    }
    vec![("two-faced-windowed", windowed), ("silent-churn", churn)]
}

fn run_lifecycle_cell(params: &Params, seed: u64, windows: &[FaultWindow]) -> (f64, f64) {
    let cg = ClusterGraph::new(
        generators::line(DIAMETER + 1),
        params.cluster_size,
        params.f,
    );
    let mut scenario = Scenario::new(cg.clone(), params.clone());
    scenario.seed(seed);
    for &(node, ref kind, from, to) in windows {
        scenario.with_fault_window(node, kind.clone(), from, to);
    }
    assert!(
        !scenario.faults_exceed_budget(),
        "lifecycle rows must keep the instantaneous budget"
    );
    let run = scenario.run_for(params.suggested_horizon(DIAMETER));
    let s = measure_skews(&run, &cg, warmup(params));
    (s.intra, s.local)
}

/// Runs the analysis (spec: environment, seed base — cell `i` at
/// `seed + i`, lifecycle rows at `seed + 50 + 10f + j`, the over-budget
/// row at `seed + 899`: `100 + i` / `999` at the checked-in spec's
/// base 100).
pub fn run(spec: &SpecFile) {
    println!("F4: attack strategy x fault budget matrix\n");
    let mut table = Table::new(&[
        "f",
        "k",
        "attack",
        "attackers/cluster",
        "intra (s)",
        "intra bound (s)",
        "local (s)",
        "local bound (s)",
        "ok",
    ]);

    let mut violations = 0;
    for f in [1usize, 2] {
        let params = spec.params_with_f(f);
        let intra_bound = params.intra_cluster_skew_bound();
        let local_bound = params.local_skew_bound(DIAMETER);
        for (i, (name, kind)) in attacks(&params).iter().enumerate() {
            let (intra, local) = run_cell(&params, kind, f, spec.seed() + i as u64);
            let ok = intra <= intra_bound && local <= local_bound;
            if !ok {
                violations += 1;
            }
            table.row(&[
                f.to_string(),
                params.cluster_size.to_string(),
                (*name).to_string(),
                format!("{f} (= f)"),
                format!("{intra:.3e}"),
                format!("{intra_bound:.3e}"),
                format!("{local:.3e}"),
                format!("{local_bound:.3e}"),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
        for (j, (name, windows)) in lifecycle_attacks(&params).iter().enumerate() {
            let seed = spec.seed() + 50 + 10 * f as u64 + j as u64;
            let (intra, local) = run_lifecycle_cell(&params, seed, windows);
            let ok = intra <= intra_bound && local <= local_bound;
            if !ok {
                violations += 1;
            }
            table.row(&[
                f.to_string(),
                params.cluster_size.to_string(),
                (*name).to_string(),
                format!("{f} (= f, windowed)"),
                format!("{intra:.3e}"),
                format!("{intra_bound:.3e}"),
                format!("{local:.3e}"),
                format!("{local_bound:.3e}"),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
    }

    // Premise violation: f+1 coordinated skew-pullers with f = 1.
    let params = spec.params_with_f(1);
    let (intra, local) = run_cell(
        &params,
        &FaultKind::SkewPuller {
            offset: -2.0 * params.e,
        },
        2,
        spec.seed() + 899,
    );
    table.row(&[
        "1".into(),
        params.cluster_size.to_string(),
        "skew-puller".into(),
        "2 (> f)".into(),
        format!("{intra:.3e}"),
        format!("{:.3e}", params.intra_cluster_skew_bound()),
        format!("{local:.3e}"),
        format!("{:.3e}", params.local_skew_bound(DIAMETER)),
        "over budget".into(),
    ]);

    emit_table("f4_attack_matrix", &table);
    assert_eq!(
        violations, 0,
        "{violations} in-budget attacks broke a bound"
    );
    println!("\nall in-budget cells hold; the over-budget row shows why k >= 3f+1 matters.");
}
