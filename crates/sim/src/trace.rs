//! Trace recording.
//!
//! The engine records two kinds of data for offline analysis:
//!
//! * **Clock samples** — the main logical clock `L_v(t)` of every node on a
//!   periodic Newtonian grid, which metrics code turns into skew curves.
//!   Their CSV form is printed by [`numfmt`](crate::numfmt), the one
//!   sample-line formatter.
//! * **Rows** — untyped, behavior-emitted records `(t, node, kind, values)`
//!   used for algorithm-internal quantities (round corrections `Δ_v(r)`,
//!   pulse times, trigger decisions, ...). Keeping rows untyped lets the
//!   substrate stay independent of any particular algorithm.

use crate::node::NodeId;
use crate::numfmt;
use crate::time::SimTime;

/// One periodic snapshot of every node's logical clock.
///
/// It records what the skews are computed from, `L_v(t)`, and no
/// hardware readings:
/// [`Simulation::hardware_value`](crate::engine::Simulation::hardware_value)
/// reads one on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSample {
    /// Newtonian sample time.
    pub t: SimTime,
    /// Main logical clock `L_v(t)` per node, indexed by node id.
    pub logical: Vec<f64>,
}

/// One behavior-emitted record.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Newtonian emission time.
    pub t: SimTime,
    /// Emitting node.
    pub node: NodeId,
    /// Record kind, e.g. `"pulse"` or `"round"`. Kinds are defined by the
    /// emitting algorithm crate.
    pub kind: &'static str,
    /// Numeric payload; meaning is kind-specific.
    pub values: Vec<f64>,
}

/// Collected output of a simulation run.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::trace::Trace;
///
/// let trace = Trace::default();
/// assert!(trace.samples.is_empty());
/// assert!(trace.rows_of_kind("pulse").next().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Periodic clock samples, in time order.
    pub samples: Vec<ClockSample>,
    /// Behavior-emitted rows, in emission order.
    pub rows: Vec<Row>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Iterates over rows of one kind.
    pub fn rows_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows.iter().filter(move |r| r.kind == kind)
    }

    /// Iterates over rows of one kind emitted by one node.
    pub fn rows_of_node<'a>(
        &'a self,
        kind: &'a str,
        node: NodeId,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows_of_kind(kind).filter(move |r| r.node == node)
    }

    /// Returns the last sampled logical clock values, if any samples exist.
    #[must_use]
    pub fn final_logical(&self) -> Option<&[f64]> {
        self.samples.last().map(|s| s.logical.as_slice())
    }

    /// Canonical byte serialization of the whole trace: the samples CSV
    /// followed by one `Debug`-formatted line per row.
    ///
    /// This is the format the determinism and scheduler-equivalence
    /// suites compare — two runs are "byte-identical" exactly when
    /// their `to_bytes()` outputs are equal — so it lives here rather
    /// than being redefined per test crate.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_samples_csv(&mut buf)
            .expect("writing to a Vec cannot fail");
        for row in &self.rows {
            buf.extend_from_slice(format!("{row:?}\n").as_bytes());
        }
        buf
    }

    /// Whether two traces serialize to identical bytes
    /// ([`Trace::to_bytes`]).
    ///
    /// This is *the* equivalence the determinism and scheduler
    /// differential suites assert. Relaxed-ordering runs (the parallel
    /// scheduler) merge their per-shard row buffers back into global
    /// `(time, key)` order before the trace is observable, so the same
    /// comparison covers strict and relaxed traces without separate
    /// assertions.
    #[must_use]
    pub fn byte_identical(&self, other: &Trace) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Writes the clock samples as CSV (`t,n0,n1,...`) to `out`, one
    /// `write_all` per line, every line formatted by
    /// [`numfmt`](crate::numfmt) — the same function the streaming
    /// `CsvSampleWriter` calls, so the two agree by construction.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    pub fn write_samples_csv<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let mut line = Vec::new();
        if let Some(first) = self.samples.first() {
            numfmt::push_sample_header(&mut line, first.logical.len());
            out.write_all(&line)?;
        }
        for s in &self.samples {
            line.clear();
            numfmt::push_sample_line(&mut line, s);
            out.write_all(&line)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            samples: vec![
                ClockSample {
                    t: SimTime::from_secs(0.0),
                    logical: vec![0.0, 0.0],
                },
                ClockSample {
                    t: SimTime::from_secs(1.0),
                    logical: vec![1.0, 1.1],
                },
            ],
            rows: vec![
                Row {
                    t: SimTime::from_secs(0.5),
                    node: NodeId(0),
                    kind: "pulse",
                    values: vec![1.0],
                },
                Row {
                    t: SimTime::from_secs(0.6),
                    node: NodeId(1),
                    kind: "round",
                    values: vec![2.0, 3.0],
                },
            ],
        }
    }

    #[test]
    fn filters_by_kind_and_node() {
        let t = sample_trace();
        assert_eq!(t.rows_of_kind("pulse").count(), 1);
        assert_eq!(t.rows_of_kind("round").count(), 1);
        assert_eq!(t.rows_of_kind("nope").count(), 0);
        assert_eq!(t.rows_of_node("pulse", NodeId(0)).count(), 1);
        assert_eq!(t.rows_of_node("pulse", NodeId(1)).count(), 0);
    }

    #[test]
    fn final_logical_is_last_sample() {
        let t = sample_trace();
        assert_eq!(t.final_logical(), Some(&[1.0, 1.1][..]));
        assert_eq!(Trace::new().final_logical(), None);
    }

    #[test]
    fn csv_output_has_header_and_rows() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_samples_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t,n0,n1");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with('1'));
    }
}
