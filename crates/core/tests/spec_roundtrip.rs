//! Property tests for the [`ScenarioSpec`] text format.
//!
//! The format is the unit of experiment exchange (everything the `xp`
//! driver runs is a spec file), so its parser and printer must be exact
//! inverses: for every spec, `parse(print(s)) == s`, and printing is a
//! fixed point (`print(parse(print(s))) == print(s)`). Specs are
//! generated over every topology kind, fault strategy, rate model,
//! delay distribution, scheduler, and sugar combination.
//!
//! The other half is the validity gate (`ftgcs::spec`, "Validity"):
//! what it turns away it turns away at both doors in the same sentence
//! — `parse` with the line, `from_spec` at line 0 — and nothing it lets
//! through panics on the way to a run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ftgcs::faults::{FaultKind, RandomPulser};
use ftgcs::global_max::MaxEstimator;
use ftgcs::runner::Scenario;
use ftgcs::spec::{DurationSpec, SampleSpec, ScenarioSpec, SchedulerSpec, SpecError, TopologySpec};
use ftgcs::triggers::ModePolicy;
use ftgcs_sim::clock::{HardwareClock, RateModel};
use ftgcs_sim::network::DelayDistribution;
use ftgcs_sim::node::TrackId;
use ftgcs_sim::rng::SimRng;
use ftgcs_sim::time::SimTime;
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

/// A band fraction: the grid folded into `[0, 1)`.
fn pick_frac(idx: u64) -> f64 {
    pick_f64(idx).fract()
}

fn pick_rate_model(kind: u64, a: u64, b: u64) -> RateModel {
    match kind % 5 {
        0 => RateModel::Constant { frac: pick_frac(a) },
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
            (0.0, pick_frac(a)),
            (pick_f64(b) + 1.0, pick_frac(a ^ 1)),
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

/// Builds a spec from raw generated integers — every field exercised,
/// every entry inside the gate's rules: indices within the graph, one
/// explicit placement per node, counts within `k` and `f·C`, moving
/// faults only where the budget has room for one.
#[allow(
    clippy::too_many_arguments,
    reason = "proptest feeds every spec field through one flat strategy tuple"
)]
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
    let clusters = spec.topology.build().node_count();
    let nodes = clusters * spec.cluster_size;
    spec.seed = seed;
    spec.duration = if duration.0.is_multiple_of(2) {
        DurationSpec::Secs(pick_f64(duration.1))
    } else {
        DurationSpec::Rounds(pick_f64(duration.1))
    };
    // A period or hop far below the horizon is a valid request for
    // billions of windows; keep the expansion small.
    let horizon = spec.duration.resolve(&spec.params().expect("default env"));
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
    let mut placed = Vec::new();
    for (i, &(a, b, c)) in lists.iter().enumerate() {
        let node = i % nodes;
        match a % 8 {
            0 => spec
                .cluster_offsets
                .push((i % clusters, pick_f64(b) * 1e-4)),
            // Explicit faults and windows: one placement per node.
            1 | 4 if placed.contains(&node) => {}
            1 => {
                placed.push(node);
                spec.faults.push((node, pick_fault(b, c)));
            }
            2 => spec.faults_per_cluster.push((
                (1 + (b % 2) as usize).min(spec.cluster_size),
                pick_fault(c, b),
            )),
            3 => spec.random_faults.push((
                ((b % 3) as usize).min(spec.cluster_size),
                c,
                pick_fault(b, c),
            )),
            4 => {
                // The grid is positive, so `to > from` always holds.
                placed.push(node);
                let from = pick_f64(b);
                spec.fault_windows
                    .push((node, pick_fault(b, c), from, from + pick_f64(c)));
            }
            5 | 6 if f == 0 => {}
            5 => {
                let period = pick_f64(b).max(horizon / 8.0);
                let count = (1 + (b % 3) as usize).min(f * clusters);
                spec.churn
                    .push((count, pick_fault(c, b), period, period / 2.0));
            }
            6 => {
                let count = (1 + (c % 2) as usize).min(f * clusters);
                let hop = pick_f64(c).max(horizon / 8.0);
                spec.mobile.push((count, pick_fault(b, c), hop));
            }
            _ => spec
                .rate_overrides
                .push((node, pick_rate_model(b, c, b ^ c))),
        }
    }
    spec
}

/// The two things only the expansion can tell (`ftgcs::spec`,
/// "Validity"): a sugar placement colliding with another one, in the
/// placement primitives' sentences, and a mobile adversary with nowhere
/// to hop.
fn is_expansion_error(err: &SpecError) -> bool {
    err.line == 0
        && [
            "already has a fault assigned",
            "has both a permanent fault and a fault window",
            "overlapping or abutting fault windows",
            "no unassigned node left for churner",
            "cannot hop anywhere",
        ]
        .iter()
        .any(|sentence| err.msg.contains(sentence))
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
        // What the gate lets through assembles, or fails in one of the
        // two ways that need the expansion — it never panics.
        let built = catch_unwind(|| Scenario::from_spec(&parsed).map(|_| ()))
            .map_err(|_| TestCaseError::Fail(format!("from_spec panicked on\n{text}")))?;
        if let Err(e) = built {
            prop_assert!(is_expansion_error(&e), "{e}\n{text}");
        }
    }
}

/// One valid text with a numeric token of every kind the format has, on
/// two clusters for one round. The default rate model is constant: a
/// timer far beyond the horizon is legal (`random_pulser 1e300` never
/// pulses), and only a constant-rate clock reaches it without laying
/// down every segment on the way.
const FUZZ_BASE: &str = "\
name fuzz
topology line 2
cluster_size 10
f 3
env 1e-4 1e-3 1e-4
seed 7
duration 1 rounds
rate_model constant 0.5
sample_interval 0.01
offset_spread 1e-5
offset_ramp 1e-5
cluster_offset 1 2e-5
fault_per_cluster 1 level_flooder 3
random_faults 0 9 silent
fault 1 two_faced 0.001
fault 2 random_pulser 0.05 from 0.01 to 0.02
fault 3 stealthy_rusher 0.01 from 0.03 to 0.05
fault 4 skew_puller -0.001 from 0.04 to 0.06
fault 12 crash 0.02 from 0.01 to 0.03
churn 1 silent period 0.05 downtime 0.02
mobile 1 silent hop 0.05
rate_override 6 random_walk 1 0.5
rate_override 7 sinusoid 3.5 0.25
rate_override 15 schedule 0:0.5 0.05:1
scheduler parallel 2
";

/// Every text that differs from [`FUZZ_BASE`] in one numeric token
/// (either half of a `t:frac` pair counts), that token replaced by each
/// of the hostile values.
fn corruptions() -> Vec<String> {
    const HOSTILE: [&str; 8] = [
        "nan",
        "inf",
        "-inf",
        "-1",
        "0",
        "1e-300",
        "1e300",
        "18446744073709551615",
    ];
    let lines: Vec<Vec<&str>> = FUZZ_BASE
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let mut out = Vec::new();
    for (l, tokens) in lines.iter().enumerate() {
        for (t, token) in tokens.iter().enumerate() {
            let halves: Vec<&str> = token.split(':').collect();
            for (h, half) in halves.iter().enumerate() {
                if half.parse::<f64>().is_err() {
                    continue;
                }
                for hostile in HOSTILE {
                    let mut halves = halves.clone();
                    halves[h] = hostile;
                    let mut text = String::new();
                    for (l2, tokens2) in lines.iter().enumerate() {
                        for (t2, token2) in tokens2.iter().enumerate() {
                            if (l2, t2) == (l, t) {
                                text.push_str(&halves.join(":"));
                            } else {
                                text.push_str(token2);
                            }
                            text.push(' ');
                        }
                        text.push('\n');
                    }
                    out.push(text);
                }
            }
        }
    }
    out
}

#[test]
fn one_hostile_token_never_unwinds_and_what_parses_runs() {
    let base = ScenarioSpec::parse(FUZZ_BASE).expect("the base is valid");
    let scenario = Scenario::from_spec(&base).expect("the base assembles");
    let horizon = base.duration.resolve(scenario.params());
    assert!(scenario.run_for(horizon).stats.messages > 0);

    let texts = corruptions();
    assert!(texts.len() > 400, "{} corruptions", texts.len());
    let (mut refused, mut ran) = (0, 0);
    for text in texts {
        let Ok(parsed) = catch_unwind(|| ScenarioSpec::parse(&text)) else {
            panic!("parse unwound on\n{text}");
        };
        let Ok(spec) = parsed else {
            refused += 1;
            continue;
        };
        // A large but honest request (`duration 1e300 rounds`, `f 0` on
        // `cluster_size 1000…`) is valid and not this test's to run.
        let params = spec.params().expect("parse built them");
        if spec.duration.resolve(&params) > horizon || spec.cluster_size > base.cluster_size {
            continue;
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            Scenario::from_spec(&spec).map(|s| s.run_for(spec.duration.resolve(&params)))
        }));
        match run.unwrap_or_else(|_| panic!("accepted, then panicked:\n{text}")) {
            Ok(_) => ran += 1,
            Err(e) => assert!(is_expansion_error(&e), "{e}\n{text}"),
        }
    }
    // Both outcomes are exercised, not one of them vacuously.
    assert!(refused > 200 && ran > 50, "refused {refused}, ran {ran}");
}

/// A `random_walk` rate model.
fn walk(dwell: f64, step: f64) -> RateModel {
    RateModel::RandomWalk { dwell, step }
}

/// A clock on `model` (the library door behind `rate_model` lines).
fn clock(model: RateModel) -> HardwareClock {
    HardwareClock::new(1e-4, model, SimRng::seed_from(0))
}

/// A two-cluster scenario assembled in code (the builders' door).
fn built() -> Scenario {
    Scenario::from_spec(&ScenarioSpec::new("b", TopologySpec::Line(2), 1)).expect("valid")
}

/// One hostile spelling: the text, where its error goes (line 2
/// replaces the topology, anything else is appended from line 5 on), the
/// same value set on the public field, and — where a library assert
/// stands behind the rule — a direct call that must still trip it.
type Hostile = (&'static str, usize, fn(&mut ScenarioSpec), Option<fn()>);

/// Every spelling that, before the gate, made a 4-round 8-node run
/// panic, hang, or quietly become a different run — plus the rules that
/// used to be `from_spec`'s alone and had no line.
fn hostile_corpus() -> Vec<Hostile> {
    use FaultKind::{RandomPulser as Pulser, Silent, SkewPuller, StealthyRusher, TwoFaced};
    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;
    vec![
        // ---- panicked ----
        (
            "rate_model random_walk -1 0.5",
            5,
            |s| s.rate_model = walk(-1.0, 0.5),
            Some(|| drop(clock(walk(-1.0, 0.5)))),
        ),
        (
            "rate_model schedule 5:0.5 1:0.2",
            5,
            |s| s.rate_model = RateModel::Schedule(vec![(5.0, 0.5), (1.0, 0.2)]),
            Some(|| drop(clock(RateModel::Schedule(vec![(5.0, 0.5), (1.0, 0.2)])))),
        ),
        (
            "rate_model schedule 0:0.5 0:0.2",
            5,
            |s| s.rate_model = RateModel::Schedule(vec![(0.0, 0.5), (0.0, 0.2)]),
            Some(|| drop(clock(RateModel::Schedule(vec![(0.0, 0.5), (0.0, 0.2)])))),
        ),
        (
            "rate_model constant nan",
            5,
            |s| s.rate_model = RateModel::Constant { frac: NAN },
            Some(|| {
                let mut c = clock(RateModel::Constant { frac: NAN });
                let reading = c.hardware_time(SimTime::from_secs(1.0));
                let _ = c.when_hardware_reaches(reading);
            }),
        ),
        (
            "rate_model schedule 0:nan",
            5,
            |s| s.rate_model = RateModel::Schedule(vec![(0.0, NAN)]),
            None,
        ),
        (
            "fault 0 two_faced nan",
            5,
            |s| s.faults.push((0, TwoFaced { amplitude: NAN })),
            Some(|| {
                built().with_fault(0, TwoFaced { amplitude: NAN });
            }),
        ),
        (
            "cluster_offset 0 nan",
            5,
            |s| s.cluster_offsets.push((0, NAN)),
            Some(|| {
                built().cluster_offset(0, NAN);
            }),
        ),
        (
            "offset_ramp inf",
            5,
            |s| s.offset_ramp = INF,
            Some(|| {
                built().cluster_offset_ramp(INF);
            }),
        ),
        (
            "fault 0 random_pulser 0",
            5,
            |s| s.faults.push((0, Pulser { mean_interval: 0.0 })),
            Some(|| drop(RandomPulser::new(0.0))),
        ),
        (
            "fault 0 random_pulser 0 from 0.01 to 0.02",
            5,
            |s| {
                s.fault_windows
                    .push((0, Pulser { mean_interval: 0.0 }, 0.01, 0.02))
            },
            Some(|| {
                built().with_fault_window(0, Pulser { mean_interval: 0.0 }, 0.01, 0.02);
            }),
        ),
        (
            "churn 1 random_pulser -1 period 0.02 downtime 0.01",
            5,
            |s| {
                s.churn.push((
                    1,
                    Pulser {
                        mean_interval: -1.0,
                    },
                    0.02,
                    0.01,
                ))
            },
            None,
        ),
        (
            "fault 0 stealthy_rusher -1.1",
            5,
            |s| s.faults.push((0, StealthyRusher { extra_rate: -1.1 })),
            Some(|| {
                built().with_fault(0, StealthyRusher { extra_rate: -1.1 });
            }),
        ),
        (
            "topology hypercube 64",
            2,
            |s| s.topology = TopologySpec::Hypercube(64),
            Some(|| drop(TopologySpec::Hypercube(64).build())),
        ),
        (
            "topology tree 2 70",
            2,
            |s| s.topology = TopologySpec::Tree(2, 70),
            Some(|| drop(TopologySpec::Tree(2, 70).build())),
        ),
        (
            "env 1e-4 1e-3 0",
            5,
            |s| s.u = 0.0,
            Some(|| drop(MaxEstimator::new(TrackId::MAIN, 1e-4, 1e-3, 1))),
        ),
        ("env 0.3 1e-3 1e-4", 5, |s| s.rho = 0.3, None),
        (
            // `U` one ulp under `d`: a positive lookahead no window can
            // add to a time past 1 ms. The engine's own stop is
            // `RunError::LookaheadVanished` (pinned in `sim/src/par.rs`).
            "env 1e-4 1e-3 0.0009999999999999998\nscheduler parallel 2",
            6,
            |s| {
                s.u = 0.000_999_999_999_999_999_8;
                s.scheduler = SchedulerSpec::Parallel(2);
            },
            None,
        ),
        // ---- hung ----
        (
            "rate_model random_walk 0 0.5",
            5,
            |s| s.rate_model = walk(0.0, 0.5),
            None,
        ),
        (
            "rate_model random_walk 1e-300 0.5",
            5,
            |s| s.rate_model = walk(1e-300, 0.5),
            None,
        ),
        (
            "rate_model sinusoid 0 0",
            5,
            |s| {
                s.rate_model = RateModel::Sinusoid {
                    period: 0.0,
                    phase: 0.0,
                }
            },
            None,
        ),
        (
            "rate_model sinusoid -1 0",
            5,
            |s| {
                s.rate_model = RateModel::Sinusoid {
                    period: -1.0,
                    phase: 0.0,
                }
            },
            None,
        ),
        (
            "cluster_offset 0 inf",
            5,
            |s| s.cluster_offsets.push((0, INF)),
            Some(|| {
                built().cluster_offset(0, INF);
            }),
        ),
        (
            "offset_spread inf",
            5,
            |s| s.offset_spread = INF,
            Some(|| {
                built().initial_offset_spread(INF);
            }),
        ),
        (
            "fault 0 skew_puller inf",
            5,
            |s| s.faults.push((0, SkewPuller { offset: INF })),
            Some(|| {
                built().with_fault(0, SkewPuller { offset: INF });
            }),
        ),
        (
            "fault 0 stealthy_rusher 1e300",
            5,
            |s| s.faults.push((0, StealthyRusher { extra_rate: 1e300 })),
            None,
        ),
        (
            "fault 0 random_pulser 1e-300",
            5,
            |s| {
                s.faults.push((
                    0,
                    Pulser {
                        mean_interval: 1e-300,
                    },
                ))
            },
            None,
        ),
        (
            "fault 0 random_pulser inf",
            5,
            |s| s.faults.push((0, Pulser { mean_interval: INF })),
            Some(|| {
                built().with_fault(0, Pulser { mean_interval: INF });
            }),
        ),
        (
            "mobile 1 silent hop 1e-300",
            5,
            |s| s.mobile.push((1, Silent, 1e-300)),
            None,
        ),
        (
            "churn 1 silent period 1e-300 downtime 1e-301",
            5,
            |s| s.churn.push((1, Silent, 1e-300, 1e-301)),
            None,
        ),
        // ---- exited 0, having skipped or altered the line ----
        (
            "offset_spread -1",
            5,
            |s| s.offset_spread = -1.0,
            Some(|| {
                built().initial_offset_spread(-1.0);
            }),
        ),
        ("offset_ramp -1", 5, |s| s.offset_ramp = -1.0, None),
        ("offset_spread nan", 5, |s| s.offset_spread = NAN, None),
        ("offset_ramp nan", 5, |s| s.offset_ramp = NAN, None),
        (
            "rate_override 0 constant 2",
            5,
            |s| {
                s.rate_overrides
                    .push((0, RateModel::Constant { frac: 2.0 }))
            },
            None,
        ),
        (
            "rate_model random_walk 1 nan",
            5,
            |s| s.rate_model = walk(1.0, NAN),
            None,
        ),
        // ---- had no line: `from_spec` alone knew the rule ----
        (
            "fault 99 silent",
            5,
            |s| s.faults.push((99, Silent)),
            Some(|| {
                built().with_fault(99, Silent);
            }),
        ),
        (
            "fault_per_cluster 5 silent",
            5,
            |s| s.faults_per_cluster.push((5, Silent)),
            None,
        ),
    ]
}

#[test]
fn hostile_spellings_are_one_sentence_at_both_doors_and_the_asserts_stay() {
    for (spelling, line, set, direct) in hostile_corpus() {
        let topology = if line == 2 {
            spelling
        } else {
            "topology line 2"
        };
        let tail = if line == 2 { "" } else { spelling };
        let text = format!("name h\n{topology}\nf 1\nduration 4 rounds\n{tail}\n");
        let err = ScenarioSpec::parse(&text).expect_err(spelling);
        assert_eq!(err.line, line, "{spelling}: {err}");
        // Set in code, `from_spec` says the same sentence (no line).
        let mut spec = ScenarioSpec::parse("name h\ntopology line 2\nf 1\nduration 4 rounds\n")
            .expect("the base is valid");
        set(&mut spec);
        let built = Scenario::from_spec(&spec).expect_err(spelling);
        assert_eq!((built.line, &built.msg), (0, &err.msg), "{spelling}");
        // The library's own guard is still there for a direct caller.
        if let Some(direct) = direct {
            assert!(catch_unwind(direct).is_err(), "{spelling}: no guard fired");
        }
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
fn an_infeasible_environment_is_one_short_line_that_names_both_numbers() {
    // At `d = 1e300` the level unit and `d − U` are both near 1e300,
    // which plain `{}` prints as 300-digit integers.
    let err = ScenarioSpec::parse("name h\ntopology line 2\nf 1\nenv 1e-4 1e300 1e-4\n")
        .expect_err("a level unit below d - U");
    let text = err.to_string();
    assert!(text.starts_with("spec line 4: "), "{text}");
    assert!(
        !text.contains('\n') && text.len() < 160,
        "{} bytes: {text}",
        text.len()
    );
    assert!(
        text.contains("level unit 4.18") && text.contains("d-U = 1e300"),
        "{text}"
    );
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
    let err = ScenarioSpec::parse(&text("parallel 2")).unwrap_err();
    assert_eq!(err.line, 7, "{err}");
    let mut spec = ScenarioSpec::parse(&text("global")).unwrap();
    spec.scheduler = SchedulerSpec::Parallel(2);
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
