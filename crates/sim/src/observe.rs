//! Streaming observation of a running simulation.
//!
//! Historically the engine materialized everything it recorded into a
//! [`Trace`] — every periodic [`ClockSample`] and every behavior-emitted
//! [`Row`] appended to `Vec`s. That caps run length and node count by
//! memory: an hour-long million-event run holds *all* of its history
//! before any analysis sees a single byte.
//!
//! An [`Observer`] inverts the flow: the engine calls the observer the
//! instant each sample or row is produced, **in the exact global
//! dispatch order** — on every scheduler, including the parallel one,
//! whose per-shard buffers are merged back into the strict serial order
//! before the observer sees them. Bounded-memory observers (streaming
//! skew accumulators, windowed CSV writers — see `ftgcs_metrics`) then
//! keep O(nodes) state regardless of run length.
//!
//! [`Trace`] itself is reimplemented as the collect-everything observer:
//! `Simulation::run_until` is literally `run_until_with` pointed at the
//! simulation's internal `Trace`. The observer/trace equivalence suite
//! (`tests/observer_equivalence.rs`) pins the two paths byte-identical
//! on every scheduler.
//!
//! # Examples
//!
//! Count rows by kind without materializing them:
//!
//! ```
//! use ftgcs_sim::observe::Observer;
//! use ftgcs_sim::trace::{ClockSample, Row};
//!
//! #[derive(Default)]
//! struct PulseCounter {
//!     pulses: u64,
//! }
//!
//! impl Observer for PulseCounter {
//!     fn on_row(&mut self, row: &Row) {
//!         if row.kind == "pulse" {
//!             self.pulses += 1;
//!         }
//!     }
//! }
//!
//! let mut counter = PulseCounter::default();
//! // sim.run_until_with(until, &mut counter) would stream into it.
//! assert_eq!(counter.pulses, 0);
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
/// Drivers call [`Observer::on_finish`] exactly once after the last
/// `run_until_with` call of a run (e.g. `Scenario::run_streaming` in the
/// `ftgcs` crate does this); observers that buffer output should flush
/// there.
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
/// // The internal trace stays empty: nothing was materialized.
/// assert!(sim.trace().samples.is_empty());
/// ```
pub trait Observer {
    /// Called for every periodic engine-global clock sample, in time
    /// order.
    fn on_sample(&mut self, _sample: &ClockSample) {}

    /// Called for every behavior-emitted row, in global dispatch order.
    fn on_row(&mut self, _row: &Row) {}

    /// Ownership-passing variant of [`Observer::on_row`]. The engine
    /// calls this where it holds the freshly emitted row, so collecting
    /// observers ([`Trace`]) can move it instead of cloning; the
    /// default delegates to `on_row`, so streaming observers implement
    /// only the borrowed form. Overrides must stay behaviorally
    /// identical to `on_row` — the engine picks whichever form fits the
    /// call site.
    fn on_row_owned(&mut self, row: Row) {
        self.on_row(&row);
    }

    /// Called once by the driver when the run is complete.
    fn on_finish(&mut self, _stats: &SimStats) {}
}

/// [`Trace`] is the collect-everything observer: it collects every
/// sample and row into its `Vec`s, reproducing the classic materialized
/// trace. Rows move in through the owned callback; samples are cloned,
/// since the engine refills one sample in place — the two vectors a
/// stored sample needs are allocated here and only here.
impl Observer for Trace {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.samples.push(sample.clone());
    }

    fn on_row(&mut self, row: &Row) {
        self.rows.push(row.clone());
    }

    fn on_row_owned(&mut self, row: Row) {
        self.rows.push(row);
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
///         values: vec![],
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
            values: vec![3.0],
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
