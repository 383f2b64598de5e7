//! Property-based tests (proptest) of the core invariants: trimmed
//! midpoints (Dolev et al. [6] validity), trigger exclusivity (Lemma 4.5),
//! parameter-derivation monotonicity, clock-track algebra, and graph
//! augmentation arithmetic.

use ftgcs::agreement::trimmed_midpoint;
use ftgcs::cluster::worker_partition;
use ftgcs::params::Params;
use ftgcs::triggers::{conditions, evaluate};
use ftgcs_sim::clock::{HardwareClock, RateModel};
use ftgcs_sim::node::NodeId;
use ftgcs_sim::rng::SimRng;
use ftgcs_sim::time::SimTime;
use ftgcs_topology::generators::line;
use ftgcs_topology::ClusterGraph;
use proptest::prelude::*;

proptest! {
    /// Validity: with at most `f` arbitrary entries among `3f+1`, the
    /// trimmed midpoint stays inside the correct entries' range.
    #[test]
    fn trimmed_midpoint_validity(
        f in 1usize..4,
        correct_seed in 0u64..1000,
        byz in prop::collection::vec(-1e6f64..1e6, 0..3),
    ) {
        prop_assume!(byz.len() <= f);
        let k = 3 * f + 1;
        let mut rng = SimRng::seed_from(correct_seed);
        let n_correct = k - byz.len();
        let correct: Vec<f64> = (0..n_correct).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let lo = correct.iter().cloned().fold(f64::MAX, f64::min);
        let hi = correct.iter().cloned().fold(f64::MIN, f64::max);
        let mut all = correct.clone();
        all.extend_from_slice(&byz);
        let m = trimmed_midpoint(&all, f).unwrap();
        prop_assert!(m.delta >= lo - 1e-12 && m.delta <= hi + 1e-12,
            "delta {} outside correct range [{lo}, {hi}]", m.delta);
    }

    /// Agreement-ish contraction: two nodes observing the same correct
    /// values but different Byzantine lies compute midpoints within the
    /// correct spread of each other.
    #[test]
    fn trimmed_midpoint_outputs_close_across_receivers(
        seed in 0u64..500,
        lie_a in -1e3f64..1e3,
        lie_b in -1e3f64..1e3,
    ) {
        let f = 1;
        let mut rng = SimRng::seed_from(seed);
        let correct: Vec<f64> = (0..3).map(|_| rng.uniform(0.0, 0.5)).collect();
        let spread = correct.iter().cloned().fold(f64::MIN, f64::max)
            - correct.iter().cloned().fold(f64::MAX, f64::min);
        let mut obs_a = correct.clone();
        obs_a.push(lie_a);
        let mut obs_b = correct;
        obs_b.push(lie_b);
        let da = trimmed_midpoint(&obs_a, f).unwrap().delta;
        let db = trimmed_midpoint(&obs_b, f).unwrap().delta;
        prop_assert!((da - db).abs() <= spread + 1e-12);
    }

    /// Lemma 4.5: fast and slow triggers never fire together when
    /// slack < kappa/2 (the paper uses slack = kappa/3).
    #[test]
    fn triggers_mutually_exclusive(
        own in -100.0f64..100.0,
        ests in prop::collection::vec(-100.0f64..100.0, 1..6),
        kappa in 0.1f64..10.0,
    ) {
        let slack = kappa / 3.0;
        let o = evaluate(own, &ests, kappa, slack);
        prop_assert!(!(o.fast && o.slow));
    }

    /// Conditions (zero slack) imply triggers (positive slack): the
    /// containment faithfulness (Definition 4.6) builds on.
    #[test]
    fn conditions_imply_triggers(
        own in -50.0f64..50.0,
        ests in prop::collection::vec(-50.0f64..50.0, 1..5),
        kappa in 0.5f64..5.0,
    ) {
        let c = conditions(own, &ests, kappa);
        let t = evaluate(own, &ests, kappa, kappa / 3.0);
        if c.fast { prop_assert!(t.fast); }
        if c.slow { prop_assert!(t.slow); }
    }

    /// Triggers are invariant under a common clock shift (they only read
    /// differences).
    #[test]
    fn triggers_shift_invariant(
        own in -10.0f64..10.0,
        ests in prop::collection::vec(-10.0f64..10.0, 1..5),
        shift in -1e3f64..1e3,
        kappa in 0.5f64..5.0,
    ) {
        let a = evaluate(own, &ests, kappa, kappa / 3.0);
        let shifted: Vec<f64> = ests.iter().map(|e| e + shift).collect();
        let b = evaluate(own + shift, &shifted, kappa, kappa / 3.0);
        prop_assert_eq!(a, b);
    }

    /// Hardware clocks respect the drift envelope and invert exactly, for
    /// every rate model.
    #[test]
    fn hardware_clock_envelope_and_inverse(
        seed in 0u64..200,
        rho in 1e-6f64..1e-2,
        t in 0.0f64..500.0,
        model_pick in 0usize..4,
    ) {
        let model = match model_pick {
            0 => RateModel::Constant { frac: 0.5 },
            1 => RateModel::RandomConstant,
            2 => RateModel::RandomWalk { dwell: 0.5, step: 0.5 },
            _ => RateModel::Sinusoid { period: 7.0, phase: 0.3 },
        };
        let mut clock = HardwareClock::new(rho, model, SimRng::seed_from(seed));
        let h = clock.hardware_time(SimTime::from_secs(t));
        prop_assert!(h >= t - 1e-9);
        prop_assert!(h <= t * (1.0 + rho) + 1e-9);
        let back = clock.when_hardware_reaches(h).as_secs();
        prop_assert!((back - t).abs() < 1e-6, "inverse error {}", (back - t).abs());
    }

    /// Parameter derivation: E, tau_i, delta, kappa are positive and
    /// ordered; kappa = 3 delta = 3 (k+5) E exactly.
    #[test]
    fn derived_parameters_well_formed(
        rho_exp in -6.0f64..-3.3,
        d_exp in -4.0f64..-2.0,
        u_frac in 0.01f64..1.0,
        f in 0usize..3,
    ) {
        let rho = 10f64.powf(rho_exp);
        let d = 10f64.powf(d_exp);
        let u = u_frac * d;
        if let Ok(p) = Params::practical(rho, d, u, f) {
            prop_assert!(p.e > 0.0 && p.tau1 > 0.0 && p.tau2 > p.tau1);
            prop_assert!(p.tau3 > p.tau2, "amortization dominates");
            prop_assert!((p.kappa - 3.0 * p.delta).abs() < 1e-12);
            prop_assert!((p.delta - (p.k_rounds as f64 + 5.0) * p.e).abs() < 1e-12);
            prop_assert!(p.theta_max > p.theta_g);
            // Skew bounds are monotone in diameter.
            prop_assert!(p.local_skew_bound(16) >= p.local_skew_bound(2) - 1e-12);
        }
    }

    /// The error recursion from any e(1) <= E stays <= E and is monotone
    /// toward E (Proposition B.14's fixed point).
    #[test]
    fn error_recursion_fixed_point(start_frac in 0.0f64..3.0) {
        let p = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
        let seq = p.error_recursion(start_frac * p.e, 300);
        let last = *seq.last().unwrap();
        prop_assert!((last - p.e).abs() <= 1e-6 * p.e,
            "recursion settled at {last}, expected {}", p.e);
        if start_frac <= 1.0 {
            for &e in &seq {
                prop_assert!(e <= p.e * (1.0 + 1e-12));
            }
        }
    }

    /// Augmentation arithmetic: node/edge counts and round-trip indexing
    /// hold for arbitrary line lengths and fault budgets.
    #[test]
    fn augmentation_counts(n in 1usize..12, f in 0usize..3, extra in 0usize..3) {
        let k = 3 * f + 1 + extra;
        let cg = ClusterGraph::new(line(n), k, f);
        prop_assert_eq!(cg.physical().node_count(), n * k);
        let expected_edges = n * k * (k - 1) / 2 + (n - 1) * k * k;
        prop_assert_eq!(cg.physical().edge_count(), expected_edges);
        for v in 0..n * k {
            prop_assert_eq!(cg.node_id(cg.cluster_of(v), cg.slot_of(v)), v);
        }
        prop_assert!(cg.physical().is_consistent());
    }

    /// The parallel scheduler's partition: `min(4 · workers, clusters)`
    /// shards, each a contiguous run of whole clusters, the runs'
    /// lengths within one cluster of each other.
    #[test]
    fn worker_partition_is_balanced_contiguous_cluster_runs(
        clusters in 1usize..41,
        f in 0usize..3,
        workers in 1usize..10,
    ) {
        let k = 3 * f + 1; // 1, 4, 7
        let cg = ClusterGraph::new(line(clusters), k, f);
        let p = worker_partition(&cg, workers);
        prop_assert_eq!(p.node_count(), clusters * k);
        prop_assert_eq!(p.shard_count(), (4 * workers).min(clusters));
        let mut run_lengths = vec![0usize; p.shard_count()];
        let mut previous = 0;
        for c in 0..clusters {
            let shard = p.shard_of(NodeId(cg.node_id(c, 0)));
            for slot in 1..k {
                let same = p.shard_of(NodeId(cg.node_id(c, slot))) == shard;
                prop_assert!(same, "cluster {} split", c);
            }
            // Non-decreasing by steps of at most one: with the count
            // above, every id in `0..shard_count` is used.
            prop_assert!(shard == previous || shard == previous + 1, "cluster {}: {} after {}", c, shard, previous);
            previous = shard;
            run_lengths[shard] += 1;
        }
        prop_assert_eq!(previous + 1, p.shard_count());
        let (min, max) = (run_lengths.iter().min().unwrap(), run_lengths.iter().max().unwrap());
        prop_assert!(max - min <= 1, "run lengths {:?}", run_lengths);
    }
}

proptest! {
    /// Lemma 3.1 algebra: for any correction Δ within the clamp range,
    /// line 13's rate factor keeps δ_v ∈ [0, 2/(1−ϕ)], and integrating
    /// the phase-3 rate over the stretched phase recovers exactly τ₃
    /// logical seconds in T + Δ nominal seconds.
    #[test]
    fn amortization_algebra_of_lemma_3_1(delta_frac in -0.999f64..1.0) {
        let p = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
        let delta = delta_frac * p.phi * p.tau3;
        let delta_v = 1.0 - (1.0 + 1.0 / p.phi) * delta / (p.tau3 + delta);
        prop_assert!(delta_v >= -1e-12, "delta_v {delta_v} negative");
        prop_assert!(delta_v <= 2.0 / (1.0 - p.phi) + 1e-12);
        // Phase 3 runs at (1 + ϕ·δ_v)/(1 + ϕ) of the nominal rate and
        // must cover τ₃ of logical time in τ₃ + Δ of nominal time.
        let rate_ratio = (1.0 + p.phi * delta_v) / (1.0 + p.phi);
        let nominal_needed = p.tau3 / rate_ratio;
        prop_assert!(
            (nominal_needed - (p.tau3 + delta)).abs() < 1e-9 * p.tau3,
            "nominal phase-3 length {nominal_needed} != tau3 + delta {}",
            p.tau3 + delta
        );
    }

    /// Every delay distribution respects the model window [d−U, d].
    #[test]
    fn all_delay_distributions_stay_in_window(
        seed in 0u64..200,
        src in 0usize..16,
        dst in 0usize..16,
        pick in 0usize..5,
    ) {
        use ftgcs_sim::network::{DelayConfig, DelayDistribution};
        use ftgcs_sim::node::NodeId;
        use ftgcs_sim::time::SimDuration;
        let dist = match pick {
            0 => DelayDistribution::Uniform,
            1 => DelayDistribution::Maximal,
            2 => DelayDistribution::Minimal,
            3 => DelayDistribution::AsymmetricById,
            _ => DelayDistribution::AlternatingByDst,
        };
        let cfg = DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            dist,
        );
        let mut rng = SimRng::seed_from(seed);
        let s = cfg.sample(NodeId(src), NodeId(dst), &mut rng);
        prop_assert!(s >= cfg.min_delay() && s <= cfg.max_delay());
    }

    /// Same seed ⇒ identical stream; different derive labels ⇒ streams
    /// that diverge quickly (the determinism the whole harness rests on).
    #[test]
    fn rng_determinism_and_label_independence(seed in 0u64..10_000) {
        let mut a = SimRng::seed_from(seed).derive("x", 3);
        let mut b = SimRng::seed_from(seed).derive("x", 3);
        let mut c = SimRng::seed_from(seed).derive("y", 3);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        prop_assert_eq!(&va, &vb);
        prop_assert_ne!(&va, &vc);
    }

    /// Structural invariants of the topology generators.
    #[test]
    fn generator_structural_invariants(n in 3usize..20, dim in 1u32..6) {
        use ftgcs_topology::{analysis, generators};
        let ring = generators::ring(n);
        prop_assert!(ring.nodes().all(|v| ring.degree(v) == 2));
        prop_assert_eq!(analysis::diameter(&generators::line(n)), n - 1);
        let hc = generators::hypercube(dim);
        prop_assert_eq!(hc.node_count(), 1usize << dim);
        prop_assert!(hc.nodes().all(|v| hc.degree(v) == dim as usize));
        prop_assert_eq!(analysis::diameter(&hc), dim as usize);
        let star = generators::star(n);
        prop_assert_eq!(star.edge_count(), n - 1);
        prop_assert_eq!(star.max_degree(), n - 1);
        for g in [&ring, &hc, &star] {
            prop_assert!(analysis::is_connected(g));
            prop_assert!(g.is_consistent());
        }
    }

    /// Least-squares fits recover exact linear/logarithmic relationships.
    #[test]
    fn fits_recover_exact_relationships(
        slope in -10.0f64..10.0,
        intercept in -10.0f64..10.0,
    ) {
        use ftgcs_metrics::stats::{fit_line, fit_log2};
        let linear: Vec<(f64, f64)> =
            (1..8).map(|i| (i as f64, slope * i as f64 + intercept)).collect();
        let f = fit_line(&linear);
        prop_assert!((f.slope - slope).abs() < 1e-9);
        prop_assert!((f.intercept - intercept).abs() < 1e-9);
        let logp: Vec<(f64, f64)> = (1..8)
            .map(|i| {
                let x = (1usize << i) as f64;
                (x, slope * x.log2() + intercept)
            })
            .collect();
        let g = fit_log2(&logp);
        prop_assert!((g.slope - slope).abs() < 1e-9, "log slope {}", g.slope);
    }

    /// Time-series queries are consistent: `value_at_or_before` returns
    /// the latest sample not after t, and `after` drops exactly the
    /// prefix.
    #[test]
    fn time_series_query_consistency(
        values in prop::collection::vec(0.0f64..100.0, 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        use ftgcs_metrics::series::TimeSeries;
        let points: Vec<(f64, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        let ts = TimeSeries::from_points(points.clone());
        let cut = cut_frac * values.len() as f64;
        let tail = ts.after(cut);
        prop_assert_eq!(
            tail.len(),
            points.iter().filter(|(t, _)| *t > cut).count()
        );
        if let Some(v) = ts.value_at_or_before(cut) {
            let expect = points
                .iter()
                .rev()
                .find(|(t, _)| *t <= cut)
                .map(|&(_, v)| v)
                .unwrap();
            prop_assert_eq!(v, expect);
        } else {
            prop_assert!(points.iter().all(|(t, _)| *t > cut));
        }
    }

    /// The trimmed midpoint is translation-equivariant and
    /// scale-equivariant — it measures *relative* offsets only, which is
    /// why ClusterSync needs no absolute time.
    #[test]
    fn trimmed_midpoint_equivariance(
        obs in prop::collection::vec(-100.0f64..100.0, 4..13),
        shift in -1e3f64..1e3,
        scale in 0.1f64..10.0,
    ) {
        let f = (obs.len() - 1) / 3;
        prop_assume!(f >= 1);
        let base = trimmed_midpoint(&obs, f).unwrap().delta;
        let shifted: Vec<f64> = obs.iter().map(|x| x + shift).collect();
        let scaled: Vec<f64> = obs.iter().map(|x| x * scale).collect();
        let s1 = trimmed_midpoint(&shifted, f).unwrap().delta;
        let s2 = trimmed_midpoint(&scaled, f).unwrap().delta;
        prop_assert!((s1 - (base + shift)).abs() < 1e-9);
        prop_assert!((s2 - base * scale).abs() < 1e-6 * scale.max(1.0));
    }
}
