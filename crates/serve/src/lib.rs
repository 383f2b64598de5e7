//! Distributed sweep infrastructure for the `xp` driver.
//!
//! This crate is **infrastructure, not simulation**: it never touches
//! simulated time, the event order, or any per-run state. Everything a
//! cell computes happens inside an `xp run-cell` child process driven
//! entirely by a spec text on stdin — the spec format's exact
//! parser/printer inverses make a spec a complete serialization
//! boundary, so a cell is a pure function of its canonical spec text
//! and re-running it is byte-identical. That purity is what the three
//! layers here exploit:
//!
//! * [`hash`] — a hand-rolled FNV-1a content hash over the canonical
//!   spec printing, keying every cell;
//! * [`cache`] — a content-addressed result store under
//!   `results/cache/<key>/` with atomic rename-publish, so an
//!   unchanged spec is a cache hit and any field change is a miss;
//! * [`exec`] — a bounded multi-process job pool (std-only
//!   `Command` + pipes) with retry-on-crash: a re-run is
//!   byte-identical by determinism, so retries are always safe;
//! * [`http`] + [`service`] — a long-running results service
//!   (`xp serve`): a hand-rolled HTTP/1.1 server over `TcpListener`
//!   with a bounded submission queue feeding the same executor, and
//!   endpoints to submit specs, poll job status (surfacing the
//!   child's `--progress` telemetry heartbeat), and fetch finished
//!   CSVs / telemetry reports.
//!
//! The crate is dependency-free (std only) and knows nothing about the
//! spec format itself: the caller (the `xp` binary in `ftgcs-bench`)
//! supplies canonical spec text and cache keys, keeping the dependency
//! graph acyclic. Unlike the simulation crates, this one prints and
//! starts threads — each `std::thread::scope` call carries its own
//! `allow(clippy::disallowed_methods, reason = …)`, because its threads
//! manage OS processes and sockets, never simulated events.

#![warn(missing_docs)]
// No `unsafe` in this library: `forbid` admits no exemption further
// down, and `crates/bench/tests/workflow.rs` keeps every library root
// saying so.
#![forbid(unsafe_code)]

pub mod cache;
pub mod exec;
pub mod hash;
pub mod http;
pub mod service;

pub use cache::ResultStore;
pub use exec::{run_indexed, CellOutcome, CellRunner};
pub use hash::CellKey;
pub use service::{serve, CellRequest, ServeConfig};
