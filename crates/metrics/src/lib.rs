//! # ftgcs-metrics — skew analysis for clock-synchronization traces
//!
//! Turns the raw [`ftgcs_sim::trace::Trace`] of a simulation run into the
//! quantities the paper bounds:
//!
//! * [`skew::local_skew_series`] / [`skew::global_skew_series`] — skew over
//!   physical edges and over all correct nodes;
//! * [`skew::cluster_clock_samples`] / [`skew::cluster_local_skew_series`] —
//!   the paper's cluster clocks `(L⁺+L⁻)/2` and their gradient skew;
//! * [`skew::intra_cluster_skew_series`] — Corollary 3.2's quantity;
//! * [`skew::pulse_diameters`] — `‖p_C(r)‖` per round (Definition B.7);
//! * [`stats`] — summaries and line/log fits for scaling experiments;
//! * [`table`] — ASCII/CSV rendering of experiment results.
//!
//! ```
//! use ftgcs_metrics::series::TimeSeries;
//! use ftgcs_metrics::stats::fit_log2;
//!
//! // A local-skew-vs-diameter curve that scales like 3·log2(D):
//! let curve: Vec<(f64, f64)> = [2.0f64, 4.0, 8.0, 16.0]
//!     .iter().map(|&d| (d, 3.0 * d.log2())).collect();
//! assert!((fit_log2(&curve).slope - 3.0).abs() < 1e-9);
//! # let _ = TimeSeries::new();
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

pub mod series;
pub mod skew;
pub mod stats;
pub mod stream;
pub mod table;

pub use series::TimeSeries;
pub use skew::FaultMask;
pub use stats::{LineFit, Summary};
pub use table::Table;
