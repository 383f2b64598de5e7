//! # ftgcs — Fault Tolerant Gradient Clock Synchronization
//!
//! A from-scratch reproduction of Bund, Lenzen & Rosenbaum, *Fault
//! Tolerant Gradient Clock Synchronization* (PODC 2019,
//! arXiv:1902.08042): the first gradient clock synchronization (GCS)
//! algorithm resilient to Byzantine faults.
//!
//! ## The construction
//!
//! Replace every node of a network `G` by a clique of `k ≥ 3f+1` nodes
//! (a *cluster*) and every edge by a complete bipartite graph
//! ([`ftgcs_topology::ClusterGraph`]). Then:
//!
//! 1. **Within clusters** ([`cluster`]) run a variant of the Lynch–Welch
//!    algorithm with *amortized* corrections: each round, pulse; collect
//!    pulses; trim `f` extremes; and spread the midpoint correction
//!    `Δ_v(r)` over phase 3 via the rate parameter `δ_v` (Lemma 3.1),
//!    keeping clocks continuous with rates in `[1, ϑ_max]`.
//! 2. **Between clusters** ([`triggers`], [`node`]) simulate the GCS
//!    algorithm of Lenzen–Locher–Wattenhofer on *cluster clocks*
//!    `L_C = (L⁺_C+L⁻_C)/2`: nodes estimate adjacent cluster clocks by
//!    passively running the cluster algorithm on overheard pulses
//!    ([`cluster::ClusterInstance`] in silent mode), and set their rate
//!    flag `γ_v` by the fast/slow triggers with slack `δ` and step
//!    `κ = 3δ`.
//! 3. **Globally** ([`global_max`]) bound the global skew by `O(δD)` with
//!    a fault-tolerant maximum-estimate flood and a catch-up rule
//!    (Theorem C.3).
//!
//! Result (Theorem 1.1): local skew `O((ρd + U)·log D)` between adjacent
//! correct nodes, despite up to `f` Byzantine nodes per cluster.
//!
//! ## Quickstart
//!
//! ```
//! use ftgcs::params::Params;
//! use ftgcs::runner::Scenario;
//! use ftgcs_metrics::skew::{intra_cluster_skew_series, FaultMask};
//! use ftgcs_topology::{generators, ClusterGraph};
//!
//! // Derive parameters for rho = 1e-4, d = 1 ms, U = 100 us, f = 1.
//! let params = Params::practical(1e-4, 1e-3, 1e-4, 1)?;
//! let cg = ClusterGraph::new(generators::line(2), 4, 1);
//! let mut scenario = Scenario::new(cg.clone(), params.clone());
//! scenario.seed(42);
//! let run = scenario.run_for(3.0);
//!
//! let mask = FaultMask::none(cg.physical().node_count());
//! let skew = intra_cluster_skew_series(&run.trace, &cg, &mask);
//! assert!(skew.max().unwrap() <= params.intra_cluster_skew_bound());
//! # Ok::<(), ftgcs::params::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// No `unsafe` in this library: `forbid` admits no exemption further
// down, and `crates/bench/tests/workflow.rs` keeps every library root
// saying so.
#![forbid(unsafe_code)]
// Library output goes through return values and the `Observer` sink,
// never the process streams.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod agreement;
pub mod cluster;
pub mod faults;
pub mod global_max;
pub mod messages;
pub mod node;
pub mod params;
pub mod runner;
pub mod spec;
pub mod triggers;

pub use faults::{FaultKind, LifecycleNode, LifecyclePhase};
pub use messages::Msg;
pub use node::{FtGcsNode, NodeConfig};
pub use params::{ParamError, Params, ParamsBuilder};
pub use runner::{Scenario, ScenarioRun};
pub use triggers::{Mode, ModePolicy};
