//! Integration tests of the global-skew machinery (paper Appendix C):
//! max-estimate safety (`M_v ≤ L_max`, Lemma C.2), catch-up effectiveness
//! (Theorem C.3), and the `O(δD)` global skew bound.

use ftgcs::audit;
use ftgcs::node::{ModeRow, ROW_MODE};
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::ModePolicy;
use ftgcs_metrics::skew::{global_skew_series, FaultMask};
use ftgcs_sim::clock::RateModel;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

/// Extreme drift split: the first cluster's hardware runs at `1+ρ`, the
/// last at `1` — the adversarial configuration that maximizes global
/// divergence.
fn extreme_line(n: usize, seed: u64) -> Scenario {
    let p = params();
    let cg = ClusterGraph::new(line(n), 4, 1);
    let mut s = Scenario::new(cg.clone(), p);
    s.seed(seed);
    for c in 0..n {
        let frac = if c == 0 { 1.0 } else { 0.0 };
        for v in cg.members(c) {
            s.rate_override(v, RateModel::Constant { frac });
        }
    }
    s
}

#[test]
fn max_estimate_never_exceeds_l_max() {
    let s = extreme_line(3, 1);
    let run = s.run_for(60.0);
    let mask = FaultMask::none(12);
    let mut checked = 0;
    run.replay(&mut audit::MaxBrackets::new(&mask, |bracket| {
        let (m, lmax) = (
            bracket.estimate,
            bracket.after.expect("sample after row").value,
        );
        assert!(m <= lmax + 1e-9, "M_v={m} > L_max={lmax} at {}", bracket.t);
        checked += 1;
    }));
    assert!(checked > 200, "audited only {checked} rows");
}

#[test]
fn max_estimate_stays_reasonably_fresh() {
    let s = extreme_line(3, 2);
    let p = s.params().clone();
    let run = s.run_for(120.0);
    // After the flood warms up, M_v should lag L_max by at most the level
    // unit + propagation term (our engineering bound: X + 2dD + slack).
    let lag_bound = p.level_unit + 2.0 * p.d * 3.0 + 3.0 * p.e + p.t_round;
    let mut worst: f64 = 0.0;
    let mask = FaultMask::none(12);
    run.replay(&mut audit::MaxBrackets::new(&mask, |bracket| {
        if bracket.t.as_secs() >= 20.0 {
            let lmax = bracket.after.expect("sample after row").value;
            worst = worst.max(lmax - bracket.estimate);
        }
    }));
    assert!(
        worst <= lag_bound,
        "M_v lag {worst} exceeds engineering bound {lag_bound}"
    );
}

#[test]
fn global_skew_bounded_under_extreme_drift() {
    let n = 4;
    let s = extreme_line(n, 3);
    let p = s.params().clone();
    let run = s.run_for(120.0);
    let mask = FaultMask::none(4 * n);
    let global = global_skew_series(&run.trace, &mask);
    let bound = p.global_skew_bound(n - 1);
    let max = global.max().unwrap();
    assert!(max <= bound, "global skew {max} > bound {bound}");
}

#[test]
fn catch_up_beats_default_slow_on_a_ramp() {
    // Theorem C.3's scenario: a *multi-hop* ramp where every adjacent gap
    // (3δ) is below the fast-trigger engagement threshold (2κ−δ = 5δ), so
    // FT never fires, but the cumulative gap of the tail cluster
    // (12δ ≥ c·δ = 8δ) exceeds the catch-up threshold. Only the catch-up
    // rule can compress such a ramp; a 2-hop gap of the same total size
    // would be closed by FT alone.
    let p = params();
    let step = 3.0 * p.delta;
    let make = |policy: ModePolicy, seed: u64| {
        let cg = ClusterGraph::new(line(5), 4, 1);
        let mut s = Scenario::new(cg, p.clone());
        s.seed(seed)
            .rate_model(RateModel::RandomConstant)
            .mode_policy(policy);
        for c in 0..5 {
            s.cluster_offset(c, step * (4 - c) as f64);
        }
        let run = s.run_for(150.0);
        let mask = FaultMask::none(20);
        global_skew_series(&run.trace, &mask).last().unwrap()
    };
    let with_catch_up = make(ModePolicy::CatchUp, 4);
    let without = make(ModePolicy::DefaultSlow, 4);
    assert!(
        with_catch_up < without * 0.8,
        "catch-up ({with_catch_up}) should beat default-slow ({without})"
    );
}

#[test]
fn disabled_estimator_reports_sentinel() {
    let p = params();
    let cg = ClusterGraph::new(line(2), 4, 1);
    let mut s = Scenario::new(cg, p);
    s.seed(5)
        .max_estimator(false)
        .mode_policy(ModePolicy::DefaultSlow);
    let run = s.run_for(5.0);
    for row in run.trace.rows_of_kind(ROW_MODE) {
        assert_eq!(
            ModeRow::of(row).max_estimate,
            None,
            "no estimate expected when disabled"
        );
    }
}
