//! Streaming observation of a running simulation.
//!
//! An [`Observer`] is called the instant each [`ClockSample`] or [`Row`]
//! is produced, **in the exact global dispatch order** — on every
//! scheduler, including the parallel one, whose per-shard buffers are
//! merged back into the strict serial order before the observer sees
//! them. Each has one callback; a row, a `Copy` value, is lent to
//! [`Observer::on_row`]. Bounded-memory observers (`ftgcs_metrics`'s
//! skew accumulators and CSV writers, `ftgcs::audit`'s lemma audits)
//! keep state that does not grow with run length.
//!
//! [`Trace`] is the collect-everything observer: a caller that wants
//! the whole record creates one and passes it to
//! `Simulation::run_until_with`, the one way to run a simulation. The
//! observer-equivalence suite (`tests/observer_equivalence.rs`) pins the
//! collected trace byte-identical across schedulers, worker counts
//! and stepping.
//!
//! # Examples
//!
//! Keep the latest pulse row; a row is `Copy`:
//!
//! ```
//! use ftgcs_sim::observe::Observer;
//! use ftgcs_sim::trace::Row;
//!
//! struct LastPulse(Option<Row>);
//!
//! impl Observer for LastPulse {
//!     fn on_row(&mut self, row: &Row) {
//!         if row.kind == "pulse" {
//!             self.0 = Some(*row);
//!         }
//!     }
//! }
//!
//! let mut last = LastPulse(None);
//! // sim.run_until_with(until, &mut last) would stream into it.
//! assert!(last.0.is_none());
//! ```

use crate::engine::SimStats;
use crate::trace::{ClockSample, Row, Trace};

/// A streaming sink for simulation output.
///
/// The engine invokes the callbacks in the global dispatch order — the
/// same order the rows and samples would occupy in a materialized
/// [`Trace`] — regardless of scheduler kind or worker count. All
/// callbacks default to no-ops so observers implement only what they
/// consume.
///
/// Drivers call [`Observer::on_finish`] exactly once after a run's last
/// `run_until_with` (`ftgcs`'s `Scenario::run_streaming` does); observers
/// that buffer output flush there.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::engine::{SimBuilder, SimConfig, Ctx};
/// use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
/// use ftgcs_sim::observe::Observer;
/// use ftgcs_sim::time::{SimDuration, SimTime};
/// use ftgcs_sim::trace::ClockSample;
///
/// /// O(1)-memory running maximum of the clock spread.
/// #[derive(Default)]
/// struct MaxSpread(f64);
///
/// impl Observer for MaxSpread {
///     fn on_sample(&mut self, s: &ClockSample) {
///         let max = s.logical.iter().cloned().fold(f64::MIN, f64::max);
///         let min = s.logical.iter().cloned().fold(f64::MAX, f64::min);
///         self.0 = self.0.max(max - min);
///     }
/// }
///
/// struct Quiet;
/// impl Behavior<()> for Quiet {
///     fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
///     fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
///     fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {}
/// }
///
/// let mut b = SimBuilder::new(SimConfig {
///     sample_interval: Some(SimDuration::from_millis(100.0)),
///     ..SimConfig::default()
/// });
/// b.add_node(Box::new(Quiet));
/// let mut sim = b.build();
/// let mut spread = MaxSpread::default();
/// sim.run_until_with(SimTime::from_secs(1.0), &mut spread);
/// spread.on_finish(&sim.stats());
/// assert!(spread.0 >= 0.0);
/// ```
pub trait Observer {
    /// Called for every periodic engine-global clock sample, in time
    /// order.
    fn on_sample(&mut self, _sample: &ClockSample) {}

    /// Called for every behavior-emitted row, in global dispatch order.
    fn on_row(&mut self, _row: &Row) {}

    /// Called once by the driver when the run is complete.
    fn on_finish(&mut self, _stats: &SimStats) {}
}

/// [`Trace`] collects everything. Rows are copied in; a sample is
/// cloned, since the engine refills one sample in place.
impl Observer for Trace {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.samples.push(sample.clone());
    }

    fn on_row(&mut self, row: &Row) {
        self.rows.push(*row);
    }
}

/// Fans every callback out to several observers, in order.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::observe::{Fanout, Observer};
/// use ftgcs_sim::trace::Trace;
///
/// let mut a = Trace::new();
/// let mut b = Trace::new();
/// {
///     let mut fan = Fanout::new(vec![&mut a, &mut b]);
///     fan.on_row(&ftgcs_sim::trace::Row {
///         t: ftgcs_sim::time::SimTime::ZERO,
///         node: ftgcs_sim::node::NodeId(0),
///         kind: "pulse",
///         values: Default::default(),
///     });
/// }
/// assert_eq!(a.rows.len(), 1);
/// assert_eq!(b.rows.len(), 1);
/// ```
pub struct Fanout<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl std::fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fanout(sinks={})", self.sinks.len())
    }
}

impl<'a> Fanout<'a> {
    /// Creates a fan-out over the given sinks.
    #[must_use]
    pub fn new(sinks: Vec<&'a mut dyn Observer>) -> Self {
        Fanout { sinks }
    }
}

impl Observer for Fanout<'_> {
    fn on_sample(&mut self, sample: &ClockSample) {
        for s in &mut self.sinks {
            s.on_sample(sample);
        }
    }

    fn on_row(&mut self, row: &Row) {
        for s in &mut self.sinks {
            s.on_row(row);
        }
    }

    fn on_finish(&mut self, stats: &SimStats) {
        for s in &mut self.sinks {
            s.on_finish(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::time::SimTime;

    #[test]
    fn trace_observer_collects_everything() {
        let mut t = Trace::new();
        let sample = ClockSample {
            t: SimTime::from_secs(1.0),
            logical: vec![1.0, 2.0],
        };
        let row = Row {
            t: SimTime::from_secs(0.5),
            node: NodeId(1),
            kind: "pulse",
            values: crate::trace::RowValues::new(&[3.0]).unwrap(),
        };
        t.on_sample(&sample);
        t.on_row(&row);
        t.on_finish(&SimStats::default());
        assert_eq!(t.samples, vec![sample]);
        assert_eq!(t.rows, vec![row]);
    }

    #[test]
    fn fanout_delivers_to_all_sinks_in_order() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        let sample = ClockSample {
            t: SimTime::ZERO,
            logical: vec![0.0],
        };
        {
            let mut fan = Fanout::new(vec![&mut a, &mut b]);
            fan.on_sample(&sample);
            fan.on_finish(&SimStats::default());
        }
        assert_eq!(a.samples.len(), 1);
        assert_eq!(b.samples.len(), 1);
    }
}
