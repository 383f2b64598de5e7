//! Property tests for the [`ScenarioSpec`] text format.
//!
//! The format is the unit of experiment exchange (everything the `xp`
//! driver runs is a spec file), so its parser and printer must be exact
//! inverses: for every spec, `parse(print(s)) == s`, and printing is a
//! fixed point (`print(parse(print(s))) == print(s)`). Specs are
//! generated over every topology kind, fault strategy, rate model,
//! delay distribution, scheduler, and sugar combination.

use ftgcs::faults::FaultKind;
use ftgcs::runner::Scenario;
use ftgcs::spec::{DurationSpec, SampleSpec, ScenarioSpec, SchedulerSpec, TopologySpec};
use ftgcs::triggers::ModePolicy;
use ftgcs_sim::clock::RateModel;
use ftgcs_sim::network::DelayDistribution;
use proptest::prelude::*;

/// Deterministic f64 grid that exercises awkward printing cases
/// (shortest-round-trip decimals, exponents, zero).
fn pick_f64(idx: u64) -> f64 {
    const GRID: [f64; 8] = [0.1, 1e-4, 2.5, 0.333_333_333_333, 7e-9, 12.0, 0.007, 1e3];
    GRID[(idx % 8) as usize]
}

fn pick_topology(kind: u64, a: usize, b: usize) -> TopologySpec {
    let a = a.max(1);
    let b = b.max(1);
    match kind % 8 {
        0 => TopologySpec::Line(a),
        1 => TopologySpec::Ring(a + 2),
        2 => TopologySpec::Star(a + 1),
        3 => TopologySpec::Complete(a),
        4 => TopologySpec::Grid(a, b),
        5 => TopologySpec::Torus(a + 2, b + 2),
        6 => TopologySpec::Hypercube((1 + a % 5) as u32),
        _ => TopologySpec::Tree(a.clamp(2, 3), b % 4),
    }
}

fn pick_fault(kind: u64, arg: u64) -> FaultKind {
    match kind % 7 {
        0 => FaultKind::Silent,
        1 => FaultKind::Crash { at: pick_f64(arg) },
        2 => FaultKind::RandomPulser {
            mean_interval: pick_f64(arg),
        },
        3 => FaultKind::TwoFaced {
            amplitude: pick_f64(arg),
        },
        4 => FaultKind::SkewPuller {
            offset: pick_f64(arg),
        },
        5 => FaultKind::StealthyRusher {
            extra_rate: pick_f64(arg),
        },
        _ => FaultKind::LevelFlooder { level_step: arg },
    }
}

fn pick_rate_model(kind: u64, a: u64, b: u64) -> RateModel {
    match kind % 5 {
        0 => RateModel::Constant { frac: pick_f64(a) },
        1 => RateModel::RandomConstant,
        2 => RateModel::RandomWalk {
            dwell: pick_f64(a),
            step: pick_f64(b),
        },
        3 => RateModel::Sinusoid {
            period: pick_f64(a),
            phase: pick_f64(b),
        },
        _ => RateModel::Schedule(vec![
            (0.0, pick_f64(a)),
            (pick_f64(b) + 1.0, pick_f64(a ^ 1)),
        ]),
    }
}

fn pick_delay(kind: u64) -> DelayDistribution {
    match kind % 5 {
        0 => DelayDistribution::Uniform,
        1 => DelayDistribution::Maximal,
        2 => DelayDistribution::Minimal,
        3 => DelayDistribution::AsymmetricById,
        _ => DelayDistribution::AlternatingByDst,
    }
}

/// Builds a spec from raw generated integers — every field exercised.
#[allow(clippy::too_many_arguments)] // proptest feeds every spec field through one flat strategy tuple
fn assemble(
    topo: (u64, usize, usize),
    f: usize,
    extra_k: usize,
    seed: u64,
    duration: (u64, u64),
    knobs: (u64, u64, u64, u64, u64),
    sugar: (u64, u64, u64),
    lists: &[(u64, u64, u64)],
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("generated", pick_topology(topo.0, topo.1, topo.2), f);
    spec.cluster_size = 3 * f + 1 + extra_k;
    spec.seed = seed;
    spec.duration = if duration.0.is_multiple_of(2) {
        DurationSpec::Secs(pick_f64(duration.1))
    } else {
        DurationSpec::Rounds(pick_f64(duration.1))
    };
    let (delay, rate_kind, rate_a, rate_b, policy) = knobs;
    spec.delay = pick_delay(delay);
    spec.rate_model = pick_rate_model(rate_kind, rate_a, rate_b);
    spec.mode_policy = match policy % 3 {
        0 => ModePolicy::Sticky,
        1 => ModePolicy::DefaultSlow,
        _ => ModePolicy::CatchUp,
    };
    let (sample, spread, sched) = sugar;
    spec.sample_interval = match sample % 3 {
        0 => SampleSpec::HalfRound,
        1 => SampleSpec::Off,
        _ => SampleSpec::Secs(pick_f64(sample)),
    };
    spec.max_estimator = spread % 2 == 0;
    spec.offset_spread = pick_f64(spread) * 1e-4;
    spec.offset_ramp = pick_f64(spread ^ 3) * 1e-4;
    spec.scheduler = match sched % 2 {
        0 => SchedulerSpec::Global,
        _ => SchedulerSpec::Parallel((sched % 7) as usize),
    };
    for (i, &(a, b, c)) in lists.iter().enumerate() {
        match a % 8 {
            0 => spec.cluster_offsets.push((i, pick_f64(b) * 1e-4)),
            1 => {
                // Explicit faults must be unique per node; index by i.
                spec.faults.push((i, pick_fault(b, c)));
            }
            2 => spec
                .faults_per_cluster
                .push((1 + (b % 2) as usize, pick_fault(c, b))),
            3 => spec
                .random_faults
                .push(((b % 3) as usize, c, pick_fault(b, c))),
            4 => {
                // Windows are per-node like explicit faults; index by i
                // keeps them collision-free, and the grid is positive so
                // `to > from` always holds.
                let from = pick_f64(b);
                spec.fault_windows
                    .push((i, pick_fault(b, c), from, from + pick_f64(c)));
            }
            5 => {
                let period = pick_f64(b);
                spec.churn
                    .push((1 + (b % 3) as usize, pick_fault(c, b), period, period / 2.0));
            }
            6 => spec
                .mobile
                .push((1 + (c % 2) as usize, pick_fault(b, c), pick_f64(c))),
            _ => spec.rate_overrides.push((i, pick_rate_model(b, c, b ^ c))),
        }
    }
    spec
}

proptest! {
    #[test]
    fn parse_print_parse_is_identity(
        topo in (0u64..8, 1usize..5, 1usize..4),
        f in 0usize..3,
        extra_k in 0usize..3,
        seed in 0u64..1_000_000,
        duration in (0u64..4, 0u64..8),
        knobs in (0u64..5, 0u64..5, 0u64..8, 0u64..8, 0u64..3),
        sugar in (0u64..6, 0u64..8, 0u64..9),
        lists in prop::collection::vec((0u64..8, 0u64..9, 0u64..9), 0..6),
    ) {
        let spec = assemble(topo, f, extra_k, seed, duration, knobs, sugar, &lists);
        let text = spec.print();
        let parsed = ScenarioSpec::parse(&text)
            .map_err(|e| TestCaseError::Fail(format!("parse failed: {e}\n{text}")))?;
        prop_assert_eq!(&parsed, &spec);
        // Printing is a fixed point.
        prop_assert_eq!(parsed.print(), text);
    }
}

#[test]
fn from_spec_to_spec_round_trips_for_feasible_specs() {
    // A richly loaded but feasible spec: from_spec must build, and
    // to_spec must reconstruct the canonical form (sugar expanded).
    let mut spec = ScenarioSpec::new("rt", TopologySpec::Line(3), 1);
    spec.seed = 17;
    spec.duration = DurationSpec::Rounds(12.0);
    spec.delay = DelayDistribution::Maximal;
    spec.rate_model = RateModel::Constant { frac: 1.0 };
    spec.sample_interval = SampleSpec::Secs(0.05);
    spec.mode_policy = ModePolicy::DefaultSlow;
    spec.max_estimator = false;
    spec.offset_spread = 1e-5;
    spec.cluster_offsets = vec![(2, 3e-4)];
    spec.faults = vec![(1, FaultKind::Silent)];
    spec.fault_windows = vec![(2, FaultKind::TwoFaced { amplitude: 1e-3 }, 0.02, 0.05)];
    spec.rate_overrides = vec![(0, RateModel::Constant { frac: 0.0 })];
    spec.scheduler = SchedulerSpec::Parallel(2);
    let scenario = Scenario::from_spec(&spec).expect("feasible spec builds");
    let back = scenario.to_spec().expect("spec-built scenario round-trips");
    assert_eq!(back, spec);
    // And the canonical text round-trips too.
    assert_eq!(ScenarioSpec::parse(&back.print()).unwrap(), back);
}

#[test]
fn to_spec_canonicalizes_sugar_into_explicit_placements() {
    let mut spec = ScenarioSpec::new("sugar", TopologySpec::Line(2), 1);
    spec.faults_per_cluster = vec![(1, FaultKind::Silent)];
    spec.offset_ramp = 2e-4;
    let scenario = Scenario::from_spec(&spec).expect("builds");
    let back = scenario.to_spec().expect("round-trips");
    // Sugar expanded: slot 0 of both clusters faulty, ramp explicit.
    assert_eq!(
        back.faults,
        vec![(0, FaultKind::Silent), (4, FaultKind::Silent)]
    );
    assert!(back.faults_per_cluster.is_empty());
    assert_eq!(back.offset_ramp, 0.0);
    assert_eq!(back.cluster_offsets, vec![(1, 2e-4)]);
    // The canonical spec rebuilds the identical scenario.
    let again = Scenario::from_spec(&back).expect("canonical spec builds");
    assert_eq!(again.faulty_nodes(), scenario.faulty_nodes());
    assert_eq!(again.to_spec().unwrap(), back);
}

#[test]
fn from_spec_rejects_out_of_range_placements() {
    let mut spec = ScenarioSpec::new("bad", TopologySpec::Line(2), 1);
    spec.faults = vec![(99, FaultKind::Silent)];
    assert!(Scenario::from_spec(&spec).is_err());

    let mut spec = ScenarioSpec::new("bad", TopologySpec::Line(2), 1);
    spec.faults = vec![(0, FaultKind::Silent), (0, FaultKind::Silent)];
    assert!(Scenario::from_spec(&spec).is_err());

    let mut spec = ScenarioSpec::new("bad", TopologySpec::Line(2), 1);
    spec.cluster_offsets = vec![(7, 1e-4)];
    assert!(Scenario::from_spec(&spec).is_err());
}

#[test]
fn from_spec_rejects_sugar_explicit_fault_collisions_without_panicking() {
    // `fault 0 silent` + `fault_per_cluster 1 silent` both claim node 0:
    // this must surface as a SpecError (the xp CLI reports it cleanly),
    // not as the builder methods' panic.
    let mut spec = ScenarioSpec::new("clash", TopologySpec::Line(2), 1);
    spec.faults = vec![(0, FaultKind::Silent)];
    spec.faults_per_cluster = vec![(1, FaultKind::Silent)];
    let err = Scenario::from_spec(&spec).unwrap_err();
    assert!(err.msg.contains("two faults"), "{err}");

    // Same for two sugar lines that overlap each other.
    let mut spec = ScenarioSpec::new("clash2", TopologySpec::Line(2), 1);
    spec.faults_per_cluster = vec![(1, FaultKind::Silent), (1, FaultKind::Silent)];
    assert!(Scenario::from_spec(&spec).is_err());

    // Sugar counts beyond the cluster size are typos, not experiments
    // (with_fault_per_cluster would panic; with_random_faults would
    // silently clamp).
    let mut spec = ScenarioSpec::new("big", TopologySpec::Line(2), 1);
    spec.faults_per_cluster = vec![(5, FaultKind::Silent)];
    assert!(Scenario::from_spec(&spec).is_err());
    let mut spec = ScenarioSpec::new("big2", TopologySpec::Line(2), 1);
    spec.random_faults = vec![(5, 9, FaultKind::Silent)];
    assert!(Scenario::from_spec(&spec).is_err());
}

#[test]
fn from_spec_rejects_degenerate_sampling_durations_and_names() {
    // A zero sample interval would livelock the engine (the sample
    // event re-arms at the same instant forever).
    let mut spec = ScenarioSpec::new("zero", TopologySpec::Line(2), 1);
    spec.sample_interval = SampleSpec::Secs(0.0);
    assert!(Scenario::from_spec(&spec).is_err());
    // The text format rejects it at parse time too.
    assert!(ScenarioSpec::parse("name x\ntopology line 2\nsample_interval 0\n").is_err());
    assert!(ScenarioSpec::parse("name x\ntopology line 2\nduration -1\n").is_err());
    // An infinite horizon would never terminate.
    assert!(ScenarioSpec::parse("name x\ntopology line 2\nduration inf\n").is_err());
    let mut spec = ScenarioSpec::new("inf", TopologySpec::Line(2), 1);
    spec.duration = DurationSpec::Secs(f64::INFINITY);
    assert!(Scenario::from_spec(&spec).is_err());

    // Names that cannot survive the line-oriented text format are
    // rejected up front, keeping `to_spec().print()` re-parseable.
    let spec = ScenarioSpec::new("two words", TopologySpec::Line(2), 1);
    assert!(Scenario::from_spec(&spec).is_err());
    let spec = ScenarioSpec::new("has#hash", TopologySpec::Line(2), 1);
    assert!(Scenario::from_spec(&spec).is_err());
}

#[test]
fn degenerate_topologies_are_line_numbered_errors_not_generator_panics() {
    // Every spelling a generator's `assert!` turns away: the parser
    // says the same sentence, with the line; the assert stays for the
    // library caller.
    use TopologySpec::{Complete, Grid, Hypercube, Line, Ring, Star, Torus, Tree};
    for (spelling, topology) in [
        ("line 0", Line(0)),
        ("ring 0", Ring(0)),
        ("ring 1", Ring(1)),
        ("ring 2", Ring(2)),
        ("star 0", Star(0)),
        ("star 1", Star(1)),
        ("complete 0", Complete(0)),
        ("grid 0 3", Grid(0, 3)),
        ("grid 3 0", Grid(3, 0)),
        ("torus 2 3", Torus(2, 3)),
        ("torus 3 2", Torus(3, 2)),
        ("torus 0 0", Torus(0, 0)),
        ("hypercube 0", Hypercube(0)),
        ("tree 0 2", Tree(0, 2)),
    ] {
        let err = ScenarioSpec::parse(&format!("name x\ntopology {spelling}\nf 1\n")).unwrap_err();
        assert_eq!(err.line, 2, "{spelling}: {err}");
        // A spec built in code gets the sentence too (no line to name)…
        let built = Scenario::from_spec(&ScenarioSpec::new("x", topology, 1)).unwrap_err();
        assert_eq!((built.line, &built.msg), (0, &err.msg), "{spelling}");
        // …and it is the generator's own.
        let panic = std::panic::catch_unwind(move || topology.build()).unwrap_err();
        let said = panic
            .downcast_ref::<&str>()
            .expect("a literal assert message");
        assert_eq!(*said, err.msg, "{spelling}");
    }
    // The smallest graphs each family does have still run.
    for spelling in [
        "line 1",
        "ring 3",
        "star 2",
        "complete 1",
        "grid 1 1",
        "torus 3 3",
    ] {
        let text = format!("name x\ntopology {spelling}\nf 1\nduration 2 rounds\n");
        let spec = ScenarioSpec::parse(&text).unwrap();
        let scenario = Scenario::from_spec(&spec).unwrap();
        let run = scenario.run_for(spec.duration.resolve(scenario.params()));
        assert!(run.stats.messages > 0, "{spelling}");
    }
}

#[test]
fn a_sample_interval_below_the_f64_spacing_is_an_error_not_a_hang() {
    // `1e-300` is positive and finite; from t = 0 the sample chain would
    // need 10^297 steps to reach the first message.
    let text = |interval: &str| {
        format!("name x\ntopology line 2\nf 1\nsample_interval {interval}\nduration 2 rounds\n")
    };
    let err = ScenarioSpec::parse(&text("1e-300")).unwrap_err();
    assert_eq!(err.line, 4, "{err}");
    assert!(err.msg.contains("below the f64 spacing"), "{err}");
    // Set in code, `from_spec` turns it away.
    let mut spec = ScenarioSpec::parse(&text("1e-6")).unwrap();
    spec.sample_interval = SampleSpec::Secs(1e-300);
    let err = Scenario::from_spec(&spec).unwrap_err();
    assert!(err.msg.contains("below the f64 spacing"), "{err}");
    // A microsecond is a lot of samples and a valid request.
    let spec = ScenarioSpec::parse(&text("1e-6")).unwrap();
    let scenario = Scenario::from_spec(&spec).unwrap();
    let run = scenario.run_for(spec.duration.resolve(scenario.params()));
    assert!(run.trace.samples.len() > 100_000);
}

#[test]
fn parallel_scheduler_at_zero_lookahead_is_an_error_not_a_panic() {
    // `U = d` leaves the conservative windows no width: the engine's
    // builder asserts, so a spec has to be turned away before it.
    let text = |scheduler: &str| {
        format!(
            "name z\ntopology line 2\nf 1\nenv 1e-4 1e-3 1e-3\nseed 7\n\
             duration 8 rounds\nscheduler {scheduler}\n"
        )
    };
    let spec = ScenarioSpec::parse(&text("parallel 2")).expect("the text itself is well-formed");
    let err = Scenario::from_spec(&spec).unwrap_err();
    assert!(err.msg.contains("lookahead"), "{err}");

    // The global scheduler is the one that runs there.
    let spec = ScenarioSpec::parse(&text("global")).unwrap();
    let scenario = Scenario::from_spec(&spec).expect("U = d is a valid environment");
    assert_eq!(scenario.params().lookahead(), 0.0);
    let run = scenario.run_for(spec.duration.resolve(scenario.params()));
    assert!(run.stats.messages > 0 && !run.trace.samples.is_empty());
}

#[test]
fn the_removed_sharded_scheduler_is_rejected_with_its_line_number() {
    let err = ScenarioSpec::parse("name x\ntopology line 2\nscheduler sharded\n").unwrap_err();
    assert_eq!(err.line, 3, "{err}");
    assert!(
        err.msg.contains("`global` or `parallel <workers>`"),
        "{err}"
    );
}

#[test]
fn hand_assembled_scenarios_refuse_to_spec() {
    use ftgcs::params::Params;
    use ftgcs_topology::{generators, ClusterGraph};
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
    let scenario = Scenario::new(ClusterGraph::new(generators::line(2), 4, 1), params);
    assert!(scenario.to_spec().is_err());
}

#[test]
fn parallel_worker_counts_round_trip_through_to_spec() {
    // The partition is sized by the *resolved* worker count; `to_spec`
    // has to resolve the requested one the same way to recognise it —
    // for auto (0) and for counts above this machine's cores alike.
    for workers in [0usize, 1, 2, 4] {
        let mut spec = ScenarioSpec::new("par", TopologySpec::Line(9), 1);
        spec.scheduler = SchedulerSpec::Parallel(workers);
        let scenario = Scenario::from_spec(&spec).expect("builds");
        assert_eq!(scenario.to_spec().expect("round-trips"), spec);
    }
}

#[test]
fn spec_duration_resolves_rounds_against_derived_params() {
    let spec = ScenarioSpec::new("dur", TopologySpec::Line(2), 1);
    let params = spec.params().unwrap();
    assert_eq!(
        DurationSpec::Rounds(10.0).resolve(&params),
        10.0 * params.t_round
    );
    assert_eq!(DurationSpec::Secs(2.5).resolve(&params), 2.5);
}
