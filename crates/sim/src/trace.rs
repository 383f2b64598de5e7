//! Trace recording.
//!
//! The engine records two kinds of data for offline analysis:
//!
//! * **Clock samples** — the main logical clock `L_v(t)` of every node on a
//!   periodic Newtonian grid, which metrics code turns into skew curves.
//!   Their CSV form is printed by [`numfmt`](crate::numfmt), the one
//!   sample-line formatter.
//! * **Rows** — behavior-emitted values `(t, node, kind, values)` for
//!   algorithm-internal quantities (round corrections `Δ_v(r)`, pulse
//!   times, trigger decisions, ...), `Copy`, with at most seven `f64`
//!   held inline ([`RowValues`]): emitting one allocates nothing. The
//!   emitting crate defines each kind's layout; the substrate knows none.

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

/// A row's payload: at most [`RowValues::CAPACITY`] values, held inline
/// (the slots past its length are zero, so derived equality is the
/// slice's). It reads as a `&[f64]` and prints as a `Vec<f64>` does.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct RowValues {
    len: u8,
    buf: [f64; RowValues::CAPACITY],
}

impl RowValues {
    /// The most values a row holds: `ftgcs`'s mode row, the longest.
    pub const CAPACITY: usize = 7;

    /// `values` as a payload; `None` if more than [`RowValues::CAPACITY`].
    #[must_use]
    pub fn new(values: &[f64]) -> Option<Self> {
        let mut buf = [0.0; Self::CAPACITY];
        buf.get_mut(..values.len())?.copy_from_slice(values);
        let len = values.len() as u8;
        Some(RowValues { len, buf })
    }
}

impl std::ops::Deref for RowValues {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for RowValues {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One behavior-emitted record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Newtonian emission time.
    pub t: SimTime,
    /// Emitting node.
    pub node: NodeId,
    /// Record kind, e.g. `"pulse"` or `"round"`. Kinds are defined by the
    /// emitting algorithm crate.
    pub kind: &'static str,
    /// Numeric payload; meaning is kind-specific.
    pub values: RowValues,
}

/// Collected output of a simulation run.
///
/// ```
/// let trace = ftgcs_sim::trace::Trace::default();
/// assert!(trace.samples.is_empty() && trace.rows_of_kind("pulse").next().is_none());
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

    /// Returns the last sampled logical clock values, if any samples exist.
    #[must_use]
    pub fn final_logical(&self) -> Option<&[f64]> {
        self.samples.last().map(|s| s.logical.as_slice())
    }

    /// Canonical byte serialization of the whole trace: the samples CSV
    /// followed by one `Debug`-formatted line per row, the format the
    /// determinism and scheduler-equivalence suites compare.
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
    /// ([`Trace::to_bytes`]): *the* equivalence the determinism and
    /// scheduler differential suites assert, on every scheduler alike.
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
                    values: RowValues::new(&[1.0]).unwrap(),
                },
                Row {
                    t: SimTime::from_secs(0.6),
                    node: NodeId(1),
                    kind: "round",
                    values: RowValues::new(&[2.0, 3.0]).unwrap(),
                },
            ],
        }
    }

    #[test]
    fn row_values_print_as_a_vec_does() {
        for len in [0, 1, 7] {
            let vec: Vec<f64> = (0..len).map(|i| f64::from(i) * 1.5 - 2.0).collect();
            let values = RowValues::new(&vec).unwrap();
            assert_eq!(format!("{values:?}"), format!("{vec:?}"));
            assert_eq!(format!("{values:#?}"), format!("{vec:#?}"));
            assert_eq!(&*values, &vec[..]);
        }
        assert_eq!(RowValues::new(&[0.0; RowValues::CAPACITY + 1]), None);
    }

    #[test]
    fn filters_by_kind_and_node() {
        let t = sample_trace();
        assert_eq!(t.rows_of_kind("pulse").count(), 1);
        assert_eq!(t.rows_of_kind("round").count(), 1);
        assert_eq!(t.rows_of_kind("nope").count(), 0);
        let of_node = |node| t.rows_of_kind("pulse").filter(|r| r.node == node).count();
        assert_eq!(of_node(NodeId(0)), 1);
        assert_eq!(of_node(NodeId(1)), 0);
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
