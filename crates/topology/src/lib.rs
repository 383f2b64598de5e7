//! # ftgcs-topology — graphs for gradient clock synchronization
//!
//! Network topologies for the FTGCS reproduction: an undirected [`Graph`]
//! type, generators for the families used in experiments
//! ([`generators`]), BFS/diameter analysis ([`analysis`]), and the paper's
//! **cluster augmentation** `G → G(k)` ([`ClusterGraph`]), which replaces
//! every vertex by a `k ≥ 3f+1` clique and every edge by a complete
//! bipartite graph.
//!
//! ## Quickstart
//!
//! ```
//! use ftgcs_topology::{generators, analysis, ClusterGraph};
//!
//! let base = generators::grid(3, 3);
//! assert_eq!(analysis::diameter(&base), 4);
//!
//! let cg = ClusterGraph::new(base, 4, 1); // tolerate 1 Byzantine node/cluster
//! assert_eq!(cg.physical().node_count(), 9 * 4);
//! assert_eq!(cg.neighbor_clusters(4), &[1, 3, 5, 7]);
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

pub mod analysis;
pub mod augment;
pub mod generators;
pub mod graph;

pub use augment::ClusterGraph;
pub use graph::Graph;
