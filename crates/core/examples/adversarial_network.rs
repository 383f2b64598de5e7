//! Adversarial network control: drive the delay schedule mid-run.
//!
//! The model lets the adversary choose every message delay within
//! `[d−U, d]` — including switching regimes over time. The classic
//! schedule against master/slave synchronization is stretch (all delays
//! maximal) followed by compress (all minimal); experiment F2 shows it
//! breaking the tree baseline. This example drives the same adversary
//! against FTGCS through the public simulation handle
//! ([`Simulation::set_delay_distribution`]) and shows the trigger slack
//! absorbing it, then tightens the sampling grid mid-run
//! ([`Simulation::set_sample_interval`]) to zoom into the switch moment.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example adversarial_network
//! ```
//!
//! [`Simulation::set_delay_distribution`]: ftgcs_sim::engine::Simulation::set_delay_distribution
//! [`Simulation::set_sample_interval`]: ftgcs_sim::engine::Simulation::set_sample_interval

use ftgcs::params::Params;
use ftgcs::runner::{Scenario, ScenarioRun};
use ftgcs::FaultKind;
use ftgcs_metrics::skew::{cluster_local_skew_series, intra_cluster_skew_series, FaultMask};
use ftgcs_sim::network::DelayDistribution;
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;
use ftgcs_topology::{generators, ClusterGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (rho, d, u, f) = (1e-4, 1e-3, 1e-4, 1);
    let params = Params::practical(rho, d, u, f)?;
    let diameter = 4;
    let cg = ClusterGraph::new(generators::line(diameter + 1), params.cluster_size, f);

    let mut scenario = Scenario::new(cg.clone(), params.clone());
    scenario
        .seed(77)
        .delay_distribution(DelayDistribution::Maximal)
        .with_fault_per_cluster(&FaultKind::Silent, 1);
    let faulty = scenario.faulty_nodes();

    // Phase 1 — stretch: every message takes exactly d.
    let switch_at = 20.0;
    let horizon = 40.0;
    let mut sim = scenario.build();
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(switch_at), &mut trace);

    // Phase 2 — compress: every message takes d − U, and we sample the
    // clocks 10x more densely to watch the switch land.
    sim.set_delay_distribution(DelayDistribution::Minimal);
    sim.set_sample_interval(Some(SimDuration::from_secs(params.t_round / 20.0)));
    sim.run_until_with(SimTime::from_secs(horizon), &mut trace);

    let run = ScenarioRun {
        faulty,
        stats: sim.stats(),
        trace,
    };
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &run.faulty);
    let warm = 3.0 * params.t_round;
    let intra = intra_cluster_skew_series(&run.trace, &cg, &mask);
    let local = cluster_local_skew_series(&run.trace, &cg, &mask);

    let before = |s: &ftgcs_metrics::series::TimeSeries| {
        s.points()
            .iter()
            .filter(|(t, _)| *t >= warm && *t < switch_at)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max)
    };
    let intra_before = before(&intra);
    let local_before = before(&local);
    let intra_after = intra.after(switch_at).max().unwrap_or(0.0);
    let local_after = local.after(switch_at).max().unwrap_or(0.0);

    println!("stretch phase (all delays = d):      intra {intra_before:.3e} s, local {local_before:.3e} s");
    println!(
        "compress phase (all delays = d - U): intra {intra_after:.3e} s, local {local_after:.3e} s"
    );
    println!(
        "bounds:                              intra {:.3e} s, local {:.3e} s",
        params.intra_cluster_skew_bound(),
        params.local_skew_bound(diameter)
    );

    assert!(intra_before.max(intra_after) <= params.intra_cluster_skew_bound());
    assert!(local_before.max(local_after) <= params.local_skew_bound(diameter));
    println!("\nthe regime switch that breaks master/slave sync (see the F2 experiment) is");
    println!("absorbed by FTGCS's trigger slack: both phases stay within the paper's bounds.");
    Ok(())
}
