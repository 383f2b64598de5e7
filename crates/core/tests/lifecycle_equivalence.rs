//! Scheduler differential for the fault-lifecycle engine: scenarios
//! with time-windowed faults, crash–recover churn, and mobile Byzantine
//! adversaries produce **byte-identical** traces on the global queue
//! and the parallel executor on every worker count.
//!
//! Lifecycle transitions are ordinary Newtonian timer events with the
//! standard `(time, source, counter)` dispatch key, so nothing here
//! should depend on scheduling — this suite pins that, on real 2- and
//! 4-thread runs whatever the host's core count.

use ftgcs::runner::{Scenario, ScenarioRun};
use ftgcs::spec::{DurationSpec, ScenarioSpec, TopologySpec};
use ftgcs::FaultKind;
use ftgcs_sim::shard::SchedulerKind;

/// The three lifecycle regimes, as specs so the test also covers the
/// spec-expansion path (churn placement, mobile itineraries).
fn lifecycle_specs() -> Vec<ScenarioSpec> {
    let mut windowed = ScenarioSpec::new("windowed", TopologySpec::Line(3), 1);
    windowed.seed = 7;
    windowed.duration = DurationSpec::Rounds(20.0);
    windowed
        .fault_windows
        .push((1, FaultKind::TwoFaced { amplitude: 1e-3 }, 0.05, 0.12));
    windowed
        .fault_windows
        .push((5, FaultKind::Crash { at: 0.08 }, 0.02, 0.15));

    let mut churn = ScenarioSpec::new("churn", TopologySpec::Line(3), 1);
    churn.seed = 23;
    churn.duration = DurationSpec::Rounds(20.0);
    churn.churn.push((3, FaultKind::Silent, 0.08, 0.03));

    let mut mobile = ScenarioSpec::new("mobile", TopologySpec::Line(3), 1);
    mobile.seed = 41;
    mobile.duration = DurationSpec::Rounds(20.0);
    mobile
        .mobile
        .push((2, FaultKind::SkewPuller { offset: -1e-3 }, 0.06));

    vec![windowed, churn, mobile]
}

fn run(spec: &ScenarioSpec, configure: impl FnOnce(&mut Scenario)) -> ScenarioRun {
    let mut s = Scenario::from_spec(spec).expect("spec must assemble");
    configure(&mut s);
    let horizon = spec.duration.resolve(s.params());
    s.run_for(horizon)
}

#[test]
fn lifecycle_runs_match_across_all_schedulers() {
    for spec in lifecycle_specs() {
        let global = run(&spec, |s| {
            s.scheduler(SchedulerKind::Global);
        });
        assert!(
            !global.trace.samples.is_empty() && !global.trace.rows.is_empty(),
            "{}: trace must be non-trivial",
            spec.name
        );
        assert!(
            !global.faulty.is_empty(),
            "{}: lifecycle faults must register as ever-faulty",
            spec.name
        );

        for workers in [1usize, 2, 4, 0] {
            let parallel = run(&spec, |s| {
                s.parallel(workers);
            });
            assert_eq!(
                parallel.stats, global.stats,
                "{}: workers {workers}: work counters diverged",
                spec.name
            );
            assert!(
                parallel.trace.byte_identical(&global.trace),
                "{}: parallel lifecycle run diverged at {workers} workers",
                spec.name
            );
        }
    }
}

#[test]
fn random_fault_placement_is_scheduler_independent() {
    // Satellite: `random_faults (count, seed)` must pick the identical
    // node set however the run is scheduled (the placement draws from a
    // dedicated RNG stream seeded by the directive alone), and must
    // never exceed the per-cluster budget `f`.
    let mut spec = ScenarioSpec::new("randfaults", TopologySpec::Line(3), 1);
    spec.seed = 13;
    spec.duration = DurationSpec::Rounds(5.0);
    spec.random_faults.push((1, 99, FaultKind::Silent));

    let reference = Scenario::from_spec(&spec).expect("spec must assemble");
    let placement = reference.faulty_nodes();
    assert_eq!(placement.len(), 3, "one random fault per cluster");
    assert!(!reference.faults_exceed_budget());

    type Configure = Box<dyn Fn(&mut Scenario)>;
    let schedulers: Vec<Configure> = vec![
        Box::new(|s| {
            s.scheduler(SchedulerKind::Global);
        }),
        Box::new(|s| {
            s.parallel(2);
        }),
        Box::new(|s| {
            s.parallel(4);
        }),
    ];
    for (i, configure) in schedulers.into_iter().enumerate() {
        let r = run(&spec, configure);
        assert_eq!(
            r.faulty, placement,
            "scheduler variant {i} moved the faults"
        );
    }

    // A different directive seed draws a different (but still
    // deterministic) placement.
    let mut reseeded = spec.clone();
    reseeded.random_faults[0].1 = 100;
    let other = Scenario::from_spec(&reseeded).expect("spec must assemble");
    assert_eq!(other.faulty_nodes().len(), 3);
    assert!(!other.faults_exceed_budget());
}
