//! # ftgcs-baselines — comparison algorithms
//!
//! The synchronization baselines the paper positions itself against:
//!
//! * [`tree_sync`] — master/slave beacon propagation down a BFS tree:
//!   optimal *global* skew, but the full accumulated correction lands on a
//!   single edge during each wave (no local-skew guarantee; §1, cf. Locher–Wattenhofer).
//! * [`gcs`] — the non-fault-tolerant gradient clock synchronization
//!   algorithm \[13\]: optimal `Θ(log D)` local skew fault-free, broken by
//!   a single Byzantine liar ([`gcs::GcsLiar`]).
//! * [`FreeRunNode`] — no synchronization at all (logical = hardware),
//!   the control group.
//!
//! Convenience builders ([`build_tree_sim`], [`build_gcs_sim`],
//! [`build_free_run_sim`]) wire a whole topology in one call.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// No `unsafe` in this library: `forbid` admits no exemption further
// down, and `crates/bench/tests/workflow.rs` keeps every library root
// saying so.
#![forbid(unsafe_code)]
// Library output goes through return values and the `Observer` sink,
// never the process streams.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod gcs;
pub mod messages;
pub mod tree_sync;

use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, Simulation};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag};
use ftgcs_topology::analysis::bfs_tree;
use ftgcs_topology::Graph;

pub use gcs::{GcsConfig, GcsLiar, GcsNode};
pub use messages::BaseMsg;
pub use tree_sync::{Correction, TreeConfig, TreeSyncNode, ROW_TREE_JUMP};

/// A node that never synchronizes: its logical clock *is* its hardware
/// clock. The control group for every skew comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeRunNode;

impl<M> Behavior<M> for FreeRunNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, M>, _from: NodeId, _msg: &M) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: TimerTag) {}
}

/// Builds a tree-sync simulation over `graph` rooted at `root`.
///
/// # Panics
///
/// Panics if the graph is disconnected or `root` is out of range.
#[must_use]
pub fn build_tree_sim(
    graph: &Graph,
    root: usize,
    config: SimConfig,
    beacon_interval: f64,
    correction: Correction,
) -> Simulation<BaseMsg> {
    let parents = bfs_tree(graph, root);
    let d = config.delay.max_delay().as_secs();
    let u = config.delay.uncertainty().as_secs();
    let mut builder = SimBuilder::new(config);
    for v in graph.nodes() {
        let parent = if v == root {
            None
        } else {
            Some(NodeId(parents[v]))
        };
        builder.add_node(Box::new(TreeSyncNode::new(TreeConfig {
            parent,
            beacon_interval,
            delay_compensation: d - u / 2.0,
            correction,
        })));
    }
    for (a, b) in graph.edges() {
        builder.add_edge(NodeId(a), NodeId(b));
    }
    builder.build()
}

/// Builds a plain-GCS simulation over `graph`; nodes listed in `liars`
/// run the [`GcsLiar`] attack instead of the protocol.
#[must_use]
pub fn build_gcs_sim(
    graph: &Graph,
    gcs_config: GcsConfig,
    config: SimConfig,
    liars: &[usize],
) -> Simulation<BaseMsg> {
    let mut builder = SimBuilder::new(config);
    for v in graph.nodes() {
        if liars.contains(&v) {
            builder.add_node(Box::new(GcsLiar::new(gcs_config.clone())));
        } else {
            builder.add_node(Box::new(GcsNode::new(gcs_config.clone())));
        }
    }
    for (a, b) in graph.edges() {
        builder.add_edge(NodeId(a), NodeId(b));
    }
    builder.build()
}

/// Builds a free-running simulation (no synchronization) over `graph`.
#[must_use]
pub fn build_free_run_sim(graph: &Graph, config: SimConfig) -> Simulation<BaseMsg> {
    let mut builder = SimBuilder::new(config);
    for _ in graph.nodes() {
        builder.add_node(Box::new(FreeRunNode));
    }
    for (a, b) in graph.edges() {
        builder.add_edge(NodeId(a), NodeId(b));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::time::{SimDuration, SimTime};
    use ftgcs_sim::trace::Trace;
    use ftgcs_topology::generators::line;

    #[test]
    fn free_run_tracks_hardware_exactly() {
        let config = SimConfig {
            rho: 1e-3,
            rate_model: RateModel::Constant { frac: 1.0 },
            sample_interval: Some(SimDuration::from_millis(100.0)),
            ..SimConfig::default()
        };
        let g = line(2);
        let mut sim = build_free_run_sim(&g, config);
        assert_eq!(sim.logical_value(NodeId(0)), 0.0);
        sim.run_until_with(SimTime::from_secs(100.0), &mut Trace::new());
        let l1 = sim.logical_value(NodeId(1));
        // Both run at the extreme rate 1+rho: equal clocks, rho*t ahead of
        // real time.
        assert!((l1 - sim.logical_value(NodeId(0))).abs() < 1e-9);
        assert!((l1 - 100.0 * (1.0 + 1e-3)).abs() < 1e-6);
        assert!((sim.hardware_value(NodeId(0)) - l1).abs() < 1e-9);
    }
}
