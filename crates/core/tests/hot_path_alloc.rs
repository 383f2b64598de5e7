//! Regression test: the algorithm's message path — level reports into
//! the max estimator above all, three quarters of a line's events —
//! must not allocate at all once warmed up.
//!
//! The sibling of `crates/sim/tests/hot_path_alloc.rs` one layer up:
//! that one pins the engine at (essentially) zero allocations per event,
//! this one a small FT-GCS line with the max estimator on at zero over
//! some 80 000 events. The three rows a node emits each round (`pulse`,
//! `round`, `mode`) used to own a `Vec` each, about 20 allocations per
//! 1 000 events; a row is now a `Copy` value with its payload inline,
//! and the serial loop keeps its row buffer between calls. ClusterSync's
//! per-round vectors used to be allocated per instance per round (about
//! 74 with them): the offset multiset is now built and sorted where the
//! round's receive times were, and the estimates handed to the triggers
//! sit in a buffer the node keeps. `MaxEstimator::on_level` used to
//! clone and sort its cluster's reports on every level message, which
//! alone read about 820.
//!
//! Set-up is held to a count too: parsing a spec, expanding it and
//! building its simulation allocates per node and per edge only where
//! the result has to own memory, never to regrow a list or to copy a
//! configuration that a whole cluster shares.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter ([`counting_alloc`]).

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::spec::ScenarioSpec;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_topology::{generators, ClusterGraph};

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;

/// Drops every row and sample: what is counted is the simulation's own.
struct Discard;
impl Observer for Discard {}

#[test]
fn level_flooding_does_not_allocate_per_message() {
    // Sanity: the counter must actually observe allocations, or the
    // assertion below would pass vacuously.
    assert!(
        count(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(32)))) >= 1,
        "counting allocator is not wired up"
    );

    // The headline setting in small: a line of 8 clusters, f = 1.
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible environment");
    let cg = ClusterGraph::new(generators::line(8), 4, 1);
    let mut scenario = Scenario::new(cg, params);
    scenario.seed(11).max_estimator(true).sample_interval(None);
    let mut sim = scenario.build();

    // Warm-up to the high-water mark of every queue and buffer.
    sim.run_until_with(SimTime::from_secs(2.0), &mut Discard);
    let events_before = sim.stats().events;
    let messages_before = sim.stats().messages;

    let allocs = count(|| sim.run_until_with(SimTime::from_secs(8.0), &mut Discard));
    let events = sim.stats().events - events_before;
    let messages = sim.stats().messages - messages_before;
    assert!(
        events > 50_000 && 2 * messages > events,
        "window too small or not message-bound: {events} events, {messages} messages"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {events} events: an allocation per \
         message, row or round is back on the algorithm's path"
    );

    setup_stays_within_its_allocation_bound();
}

/// Allocations of parse → `from_spec` → `build` for `spec`.
fn setup_allocations(spec: &str) -> u64 {
    count(|| {
        let parsed = ScenarioSpec::parse(spec).expect("valid spec");
        let scenario = Scenario::from_spec(&parsed).expect("buildable spec");
        drop(scenario.build());
    })
}

/// Parse → `from_spec` → `build` stays within a fixed count of
/// allocations. With a node configuration copied per node and
/// neighbour lists regrown per edge it read 734 and 4 702.
fn setup_stays_within_its_allocation_bound() {
    const ENV: &str = "env 1e-4 1e-3 1e-4\nseed 3\nduration 20 rounds\n";
    // 36 nodes, 9 clusters of degree 2 to 4.
    let grid = setup_allocations(&format!(
        "name grid\ntopology grid 3 3\nf 1\n{ENV}sample_interval 0.0005\n"
    ));
    // 256 nodes, 64 clusters in a line.
    let line = setup_allocations(&format!(
        "name line\ntopology line 64\nf 1\n{ENV}sample_interval half_round\n"
    ));
    assert!(
        grid <= 400,
        "grid 3 3 set-up allocated {grid} times (bound 400)"
    );
    assert!(
        line <= 3_000,
        "line 64 set-up allocated {line} times (bound 3 000)"
    );
}
