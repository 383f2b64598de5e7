//! Full-stack scheduler differential: a complete FTGCS scenario —
//! cluster sync, estimators, triggers, Byzantine faults — produces
//! **byte-identical** traces whether the engine runs one global queue
//! or the parallel executor on any worker count.
//!
//! The substrate-level matrix lives in
//! `crates/sim/tests/shard_equivalence.rs`; this test adds the layers
//! above the engine: every message class of the algorithm, fault
//! behaviors, and the max estimator.

use ftgcs::cluster::worker_partition;
use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_sim::shard::{resolve_workers, SchedulerKind};
use ftgcs_sim::trace::Trace;
use ftgcs_topology::{generators, ClusterGraph};

fn scenario(seed: u64, faulty: bool) -> Scenario {
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible environment");
    let cg = ClusterGraph::new(generators::line(3), 4, 1);
    let mut s = Scenario::new(cg, params);
    s.seed(seed).initial_offset_spread(1e-4);
    if faulty {
        s.with_fault_per_cluster(&FaultKind::TwoFaced { amplitude: 1e-3 }, 1);
    }
    s
}

#[test]
fn parallel_executor_matches_global_heap_byte_for_byte() {
    // The Byzantine axis matters: fault behaviors read Newtonian time
    // and drive the per-node RNG differently from correct nodes, so
    // they exercise every determinism ingredient of the parallel
    // executor at full stack depth.
    for faulty in [false, true] {
        let mut g = scenario(23, faulty);
        g.scheduler(SchedulerKind::Global);
        let global = g.run_for(10.0);
        assert!(
            !global.trace.samples.is_empty() && !global.trace.rows.is_empty(),
            "trace must be non-trivial"
        );
        for workers in [1usize, 2, 4, 0] {
            let mut s = scenario(23, faulty);
            s.parallel(workers);
            let parallel = s.run_for(10.0);
            assert_eq!(
                parallel.stats, global.stats,
                "faulty {faulty}, workers {workers}: work counters diverged"
            );
            assert!(
                parallel.trace.byte_identical(&global.trace),
                "parallel run diverged from the global heap \
                 (faulty {faulty}, workers {workers})"
            );
        }
    }
}

#[test]
fn the_partition_of_parallel_4_depends_on_the_spec_alone() {
    // `parallel(4)` on `line 64` cuts 16 shards for 4 threads on every
    // host, whatever its core count.
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible environment");
    let line = || {
        let mut s = Scenario::new(
            ClusterGraph::new(generators::line(64), 4, 1),
            params.clone(),
        );
        s.seed(7).telemetry(true);
        s
    };
    let horizon = 0.02;
    let global = line().run_for(horizon);
    let mut sim = line().parallel(4).build();
    let mut trace = Trace::new();
    sim.run_until_with(ftgcs_sim::time::SimTime::from_secs(horizon), &mut trace);
    let report = sim.telemetry();
    assert_eq!(report.shards, 16);
    assert_eq!(report.workers, Some(4));
    assert!(
        trace.byte_identical(&global.trace),
        "four workers on line 64 diverged from the global heap"
    );
}

#[test]
fn explicit_cluster_partition_matches_the_parallel_convenience() {
    // `scheduler(Parallel { worker_partition(.., resolved), .. })` is
    // exactly what `parallel(workers)` selects; handing the partition
    // down explicitly must be a no-op.
    let mut base = scenario(5, false);
    base.parallel(2);
    let base = base.run_for(10.0);
    let mut explicit = scenario(5, false);
    let cg = explicit.cluster_graph();
    let partition = worker_partition(cg, resolve_workers(2, cg.cluster_count()));
    explicit.scheduler(SchedulerKind::Parallel {
        partition,
        workers: 2,
    });
    let run = explicit.run_for(10.0);
    assert_eq!(base.trace.to_bytes(), run.trace.to_bytes());
}
