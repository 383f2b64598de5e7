//! Failure-injection tests: adversarial delay distributions, crash
//! timing, combined attacks, and deliberate premise violations. The
//! bounds of Theorem 1.1 must survive everything the model admits; what
//! the model excludes (over-budget clusters) may break, and we check the
//! implementation *degrades* rather than panics.

use ftgcs::audit;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_metrics::skew::{
    cluster_local_skew_series, global_skew_series, intra_cluster_skew_series, FaultMask,
};
use ftgcs_sim::network::DelayDistribution;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;

fn params() -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible parameters")
}

fn skews_under(
    dist: DelayDistribution,
    fault: Option<(FaultKind, usize)>,
    seed: u64,
) -> (Params, f64, f64) {
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(seed).delay_distribution(dist);
    if let Some((kind, count)) = fault {
        s.with_fault_per_cluster(&kind, count);
    }
    let run = s.run_for(40.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let intra = intra_cluster_skew_series(&run.trace, &cg, &mask)
        .after(3.0 * p.t_round)
        .max()
        .unwrap();
    let local = cluster_local_skew_series(&run.trace, &cg, &mask)
        .after(3.0 * p.t_round)
        .max()
        .unwrap();
    (p, intra, local)
}

#[test]
fn bounds_hold_under_maximal_delays() {
    let (p, intra, local) = skews_under(DelayDistribution::Maximal, None, 21);
    assert!(intra <= p.intra_cluster_skew_bound(), "intra {intra}");
    assert!(local <= p.local_skew_bound(2), "local {local}");
}

#[test]
fn bounds_hold_under_minimal_delays() {
    let (p, intra, local) = skews_under(DelayDistribution::Minimal, None, 22);
    assert!(intra <= p.intra_cluster_skew_bound(), "intra {intra}");
    assert!(local <= p.local_skew_bound(2), "local {local}");
}

#[test]
fn bounds_hold_under_asymmetric_delays() {
    // The classic worst case: one direction always d, the other d-U.
    let (p, intra, local) = skews_under(DelayDistribution::AsymmetricById, None, 23);
    assert!(intra <= p.intra_cluster_skew_bound(), "intra {intra}");
    assert!(local <= p.local_skew_bound(2), "local {local}");
}

#[test]
fn bounds_hold_under_alternating_delays_with_faults() {
    // Systematic intra-cluster disagreement + a Byzantine member each.
    let (p, intra, local) = skews_under(
        DelayDistribution::AlternatingByDst,
        Some((FaultKind::SkewPuller { offset: -1e-3 }, 1)),
        24,
    );
    assert!(intra <= p.intra_cluster_skew_bound(), "intra {intra}");
    assert!(local <= p.local_skew_bound(2), "local {local}");
}

#[test]
fn crash_at_various_times_never_breaks_bounds() {
    let p = params();
    for (i, frac) in [0.1, 0.5, 0.9].iter().enumerate() {
        let cg = ClusterGraph::new(line(3), 4, 1);
        let horizon = 40.0;
        let mut s = Scenario::new(cg.clone(), p.clone());
        s.seed(30 + i as u64)
            .with_fault_per_cluster(&FaultKind::Crash { at: frac * horizon }, 1);
        let run = s.run_for(horizon);
        let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
        let intra = intra_cluster_skew_series(&run.trace, &cg, &mask)
            .after(3.0 * p.t_round)
            .max()
            .unwrap();
        assert!(
            intra <= p.intra_cluster_skew_bound(),
            "crash at {frac}: intra {intra}"
        );
    }
}

#[test]
fn mixed_attack_cocktail_within_budget() {
    // Different strategy in every cluster simultaneously.
    let p = params();
    let cg = ClusterGraph::new(line(4), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(40)
        .with_fault(cg.node_id(0, 0), FaultKind::Silent)
        .with_fault(
            cg.node_id(1, 1),
            FaultKind::TwoFaced {
                amplitude: 0.9 * p.phi * p.tau3,
            },
        )
        .with_fault(
            cg.node_id(2, 2),
            FaultKind::StealthyRusher { extra_rate: 0.02 },
        )
        .with_fault(
            cg.node_id(3, 3),
            FaultKind::LevelFlooder { level_step: 10_000 },
        );
    let run = s.run_for(60.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let intra = intra_cluster_skew_series(&run.trace, &cg, &mask)
        .after(3.0 * p.t_round)
        .max()
        .unwrap();
    let local = cluster_local_skew_series(&run.trace, &cg, &mask)
        .after(3.0 * p.t_round)
        .max()
        .unwrap();
    assert!(intra <= p.intra_cluster_skew_bound(), "intra {intra}");
    assert!(local <= p.local_skew_bound(3), "local {local}");
}

#[test]
fn level_flooders_cannot_poison_the_max_estimate() {
    // f level flooders per cluster announce absurd levels; the f+1
    // confirmation rule must hold M_v <= L_max regardless.
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(41).with_fault_per_cluster(
        &FaultKind::LevelFlooder {
            level_step: 1_000_000,
        },
        1,
    );
    let run = s.run_for(30.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    run.replay(&mut audit::MaxBrackets::new(&mask, |bracket| {
        let (m, lmax) = (
            bracket.estimate,
            bracket.after.expect("sample after row").value,
        );
        assert!(
            m <= lmax + 1e-9,
            "flooders poisoned M_v: {m} > L_max {lmax} at t={}",
            bracket.t
        );
    }));
}

#[test]
fn over_budget_cluster_degrades_without_panicking() {
    // 2 > f = 1 coordinated skew-pullers: bounds may break (that is the
    // point of k >= 3f+1), but the run must complete and the *other*
    // clusters' intra-cluster synchronization must survive.
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(42)
        .with_fault(
            cg.node_id(1, 0),
            FaultKind::SkewPuller { offset: -3.0 * p.e },
        )
        .with_fault(
            cg.node_id(1, 1),
            FaultKind::SkewPuller { offset: -3.0 * p.e },
        );
    assert!(s.faults_exceed_budget());
    let run = s.run_for(30.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    // Healthy clusters 0 and 2 still satisfy Corollary 3.2 individually.
    for healthy in [0usize, 2] {
        let mut worst: f64 = 0.0;
        for sample in &run.trace.samples {
            if sample.t.as_secs() < 3.0 * p.t_round {
                continue;
            }
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for v in cg.members(healthy) {
                if !mask.is_faulty(v) {
                    lo = lo.min(sample.logical[v]);
                    hi = hi.max(sample.logical[v]);
                }
            }
            worst = worst.max(hi - lo);
        }
        assert!(
            worst <= p.intra_cluster_skew_bound(),
            "healthy cluster {healthy} skew {worst}"
        );
    }
}

#[test]
fn global_skew_survives_the_cocktail() {
    let p = params();
    let cg = ClusterGraph::new(line(4), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(43)
        .delay_distribution(DelayDistribution::AsymmetricById)
        .with_fault_per_cluster(
            &FaultKind::RandomPulser {
                mean_interval: 0.02,
            },
            1,
        );
    let run = s.run_for(60.0);
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let global = global_skew_series(&run.trace, &mask)
        .after(3.0 * p.t_round)
        .max()
        .unwrap();
    assert!(
        global <= p.global_skew_bound(3),
        "global {global} > bound {}",
        p.global_skew_bound(3)
    );
}

#[test]
fn delay_regime_switch_mid_run_keeps_bounds() {
    // The adversary re-picks the delay schedule mid-run (stretch with
    // maximal delays, then compress with minimal ones) — the schedule
    // that breaks master/slave sync in experiment F2. FTGCS's trigger
    // slack must absorb it.
    use ftgcs_sim::time::SimTime;
    use ftgcs_sim::trace::Trace;
    let p = params();
    let cg = ClusterGraph::new(line(3), 4, 1);
    let mut s = Scenario::new(cg.clone(), p.clone());
    s.seed(44).delay_distribution(DelayDistribution::Maximal);
    let mut sim = s.build();
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(20.0), &mut trace);
    sim.set_delay_distribution(DelayDistribution::Minimal);
    sim.run_until_with(SimTime::from_secs(40.0), &mut trace);
    let mask = FaultMask::none(cg.physical().node_count());
    let mut worst_local: f64 = 0.0;
    let mut worst_intra: f64 = 0.0;
    for sample in &trace.samples {
        if sample.t.as_secs() < 3.0 * p.t_round {
            continue;
        }
        let mut clocks = Vec::with_capacity(cg.cluster_count());
        for c in 0..cg.cluster_count() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for v in cg.members(c) {
                lo = lo.min(sample.logical[v]);
                hi = hi.max(sample.logical[v]);
            }
            worst_intra = worst_intra.max(hi - lo);
            clocks.push((lo + hi) / 2.0);
        }
        for (a, b) in cg.base().edges() {
            worst_local = worst_local.max((clocks[a] - clocks[b]).abs());
        }
    }
    let _ = mask;
    assert!(
        worst_intra <= p.intra_cluster_skew_bound(),
        "intra {worst_intra} after regime switch"
    );
    assert!(
        worst_local <= p.local_skew_bound(2),
        "local {worst_local} after regime switch"
    );
}
