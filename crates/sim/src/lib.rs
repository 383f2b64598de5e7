//! # ftgcs-sim — discrete-event substrate for clock-synchronization research
//!
//! This crate implements the semi-synchronous message-passing model of
//! Bund, Lenzen & Rosenbaum, *Fault Tolerant Gradient Clock
//! Synchronization* (PODC 2019), as an exact discrete-event simulator:
//!
//! * **Hardware clocks** ([`clock`]) with piecewise-constant drift
//!   `h_v(t) ∈ [1, 1+ρ]` — constant, random-walk, sinusoidal, or scheduled.
//! * **Clock tracks** ([`engine`]) — algorithm-controlled logical clocks
//!   `L(t) = L₀ + m·(H(t) − H₀)` with exact timer inversion, so round
//!   phases fire at the precise instants of the continuous-time model.
//! * **Bounded-delay messaging** ([`network`]) — every message takes a
//!   delay in `[d−U, d]`, chosen by a benign or adversarial distribution.
//! * **Deterministic randomness** ([`rng`]) — a run is a pure function of
//!   `(seed, configuration)`.
//! * **Trace recording** ([`trace`]) — periodic clock samples plus
//!   algorithm-emitted rows for offline skew analysis, printed by the
//!   one samples-CSV formatter in [`numfmt`].
//!
//! ## Quickstart
//!
//! ```
//! use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig};
//! use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
//! use ftgcs_sim::time::{SimDuration, SimTime};
//!
//! // A node that speeds its logical clock up by 1% at logical time 5.
//! struct SpeedUp;
//! impl Behavior<()> for SpeedUp {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         ctx.set_timer_at(TrackId::MAIN, 5.0, TimerTag::new(0));
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerTag) {
//!         ctx.set_multiplier(TrackId::MAIN, 1.01);
//!     }
//!     fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
//! }
//!
//! let mut builder = SimBuilder::new(SimConfig {
//!     rho: 0.0, // perfect hardware for this example
//!     ..SimConfig::default()
//! });
//! let v = builder.add_node(Box::new(SpeedUp));
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_secs(10.0));
//! assert!((sim.logical_value(v) - (5.0 + 5.0 * 1.01)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// No `unsafe` in this library, the parallel executor included (a
// shard's task owns its node cells; see `par`): `forbid` admits no
// exemption further down, and `crates/bench/tests/workflow.rs` keeps
// every library root saying so.
#![forbid(unsafe_code)]
// Library output goes through the `Observer` sink, never the process
// streams — a stray println inside the engine would interleave
// nondeterministically with worker threads.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod clock;
pub mod engine;
pub mod network;
pub mod node;
pub mod numfmt;
pub mod observe;
pub mod par;
pub mod rng;
pub mod shard;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use clock::{HardwareClock, RateModel};
pub use engine::{Ctx, SimBuilder, SimConfig, SimStats, Simulation};
pub use network::{DelayConfig, DelayDistribution};
pub use node::{Behavior, NodeId, TimerId, TimerTag, TrackId};
pub use rng::SimRng;
pub use shard::{EventQueue, Partition, SchedulerKind};
pub use telemetry::{Stopwatch, TelemetryReport};
pub use time::{SimDuration, SimTime};
pub use trace::{ClockSample, Row, Trace};
