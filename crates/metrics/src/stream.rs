//! Bounded-memory streaming observers.
//!
//! The classic analysis path materializes a full
//! [`Trace`](ftgcs_sim::trace::Trace) — every clock sample and row in
//! `Vec`s — and post-processes it with the [`crate::skew`] functions.
//! That caps run length by memory. The observers here implement
//! [`Observer`] and keep **O(nodes) state** regardless of run length,
//! so hour-long million-event runs stream through them:
//!
//! * [`SkewStream`] — running max/mean global skew plus approximate
//!   quantiles from a fixed-size log-bucketed histogram;
//! * [`CsvSampleWriter`] — incremental samples CSV (optionally
//!   decimated), each line printed by the same [`ftgcs_sim::numfmt`]
//!   function as
//!   [`Trace::write_samples_csv`](ftgcs_sim::trace::Trace::write_samples_csv);
//! * [`RowCounter`] — row counts per kind.
//!
//! Combine several with [`ftgcs_sim::observe::Fanout`].

use std::collections::BTreeMap;
use std::io::{self, Write};

use ftgcs_sim::engine::SimStats;
use ftgcs_sim::numfmt;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::trace::{ClockSample, Row};

use crate::skew::FaultMask;

/// Histogram floor: values at or below this land in bucket 0.
const HIST_MIN: f64 = 1e-12;
/// Buckets per decade of the log-scaled histogram.
const BUCKETS_PER_DECADE: usize = 64;
/// Decades covered: `[1e-12, 1e3)`.
const DECADES: usize = 15;
/// Total bucket count (fixed — the memory bound of the accumulator).
const BUCKETS: usize = BUCKETS_PER_DECADE * DECADES;

/// A fixed-size, log-bucketed histogram over positive values.
///
/// Memory is a constant `BUCKETS` counters; quantiles are approximate
/// (resolution ≈ 3.7% relative, one bucket of 1/64 decade), which is
/// ample for skew summaries spanning many orders of magnitude.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    /// Values above the covered range (counted; quantiles landing in
    /// this tail report the largest such value).
    overflow: u64,
    /// Largest overflowed value seen (meaningful when `overflow > 0`).
    overflow_max: f64,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            overflow: 0,
            overflow_max: f64::NEG_INFINITY,
            total: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket(value: f64) -> Option<usize> {
        if value <= HIST_MIN {
            return Some(0);
        }
        let pos = (value.log10() + 12.0) * BUCKETS_PER_DECADE as f64;
        if pos < 0.0 {
            Some(0)
        } else if pos as usize >= BUCKETS {
            None
        } else {
            Some(pos as usize)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        match Self::bucket(value) {
            Some(b) => self.counts[b] += 1,
            None => {
                self.overflow += 1;
                self.overflow_max = self.overflow_max.max(value);
            }
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`) as the geometric midpoint
    /// of the bucket containing the rank, or `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = -12.0 + b as f64 / BUCKETS_PER_DECADE as f64;
                let hi = lo + 1.0 / BUCKETS_PER_DECADE as f64;
                return Some(10f64.powf((lo + hi) / 2.0));
            }
        }
        // Rank falls into the overflow tail: report the largest value
        // seen there (a finite answer for summaries, unlike the bucket
        // midpoints only an upper bound by at most itself).
        Some(self.overflow_max)
    }
}

/// Streaming global-skew accumulator: O(1) state per statistic, fed one
/// [`ClockSample`] at a time.
///
/// Computes, over correct nodes ([`FaultMask`]) and after an optional
/// warm-up, the running max / mean / sample count of the global skew
/// (max − min logical clock) plus approximate quantiles. Equivalent to
/// materializing the trace and running
/// [`crate::skew::global_skew_series`] + max/mean — pinned by this
/// module's tests — but in constant memory.
///
/// # Examples
///
/// ```
/// use ftgcs_metrics::skew::FaultMask;
/// use ftgcs_metrics::stream::SkewStream;
/// use ftgcs_sim::observe::Observer;
/// use ftgcs_sim::time::SimTime;
/// use ftgcs_sim::trace::ClockSample;
///
/// let mut acc = SkewStream::new(FaultMask::none(2));
/// acc.on_sample(&ClockSample {
///     t: SimTime::from_secs(1.0),
///     logical: vec![1.0, 1.25],
///     hardware: vec![1.0, 1.0],
/// });
/// assert_eq!(acc.max(), Some(0.25));
/// ```
#[derive(Debug, Clone)]
pub struct SkewStream {
    mask: FaultMask,
    /// Samples before this Newtonian time are ignored (transient).
    warmup: f64,
    count: u64,
    sum: f64,
    max: f64,
    /// Time of the maximal sample (diagnostics).
    max_at: f64,
    last: f64,
    hist: LogHistogram,
}

impl SkewStream {
    /// A fresh accumulator over the correct nodes of `mask`.
    #[must_use]
    pub fn new(mask: FaultMask) -> Self {
        SkewStream {
            mask,
            warmup: 0.0,
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            max_at: 0.0,
            last: f64::NAN,
            hist: LogHistogram::new(),
        }
    }

    /// Ignores samples before `secs` (the standard post-warmup
    /// measurement window).
    #[must_use]
    pub fn with_warmup(mut self, secs: f64) -> Self {
        self.warmup = secs;
        self
    }

    /// Number of samples accumulated (post-warmup).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running maximum skew, if any sample arrived.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Newtonian time of the maximal sample.
    #[must_use]
    pub fn max_at(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max_at)
    }

    /// Running mean skew.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Skew of the most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        (self.count > 0).then_some(self.last)
    }

    /// Approximate `q`-quantile of the skew distribution.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }
}

impl Observer for SkewStream {
    fn on_sample(&mut self, sample: &ClockSample) {
        if sample.t.as_secs() < self.warmup {
            return;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (v, &l) in sample.logical.iter().enumerate() {
            if !self.mask.is_faulty(v) {
                min = min.min(l);
                max = max.max(l);
            }
        }
        if !min.is_finite() {
            return; // no correct nodes
        }
        let skew = max - min;
        self.count += 1;
        self.sum += skew;
        self.last = skew;
        if skew > self.max {
            self.max = skew;
            self.max_at = sample.t.as_secs();
        }
        self.hist.record(skew);
    }
}

/// Streaming CSV writer for clock samples.
///
/// Emits the format of
/// [`Trace::write_samples_csv`](ftgcs_sim::trace::Trace::write_samples_csv)
/// (`t,n0,n1,…` header then one line per sample, both through
/// [`ftgcs_sim::numfmt`]) but incrementally, so no sample is ever held
/// in memory: each line is built in one reused buffer and handed to
/// the `BufWriter` whole. A `stride > 1` decimates: every
/// stride-th sample is written (the windowed form used by long-horizon
/// runs, where full-rate CSV would dwarf the simulation itself).
///
/// I/O errors are deferred: the writer records the first error and
/// [`CsvSampleWriter::finish`] (or [`Observer::on_finish`]) surfaces
/// it; the observer callbacks themselves stay infallible.
pub struct CsvSampleWriter<W: Write> {
    out: io::BufWriter<W>,
    /// The current line; reused, so streaming allocates nothing per
    /// sample once it has grown to the line length.
    line: Vec<u8>,
    stride: usize,
    seen: usize,
    written: usize,
    header_done: bool,
    error: Option<io::Error>,
}

impl<W: Write> std::fmt::Debug for CsvSampleWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsvSampleWriter(stride={}, written={})",
            self.stride, self.written
        )
    }
}

impl CsvSampleWriter<std::fs::File> {
    /// Creates (truncating) `path` and streams samples into it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path, stride: usize) -> io::Result<Self> {
        Ok(CsvSampleWriter::new(std::fs::File::create(path)?, stride))
    }
}

impl<W: Write> CsvSampleWriter<W> {
    /// Wraps a writer; `stride` of 1 writes every sample.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn new(out: W, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        CsvSampleWriter {
            out: io::BufWriter::new(out),
            line: Vec::new(),
            stride,
            seen: 0,
            written: 0,
            header_done: false,
            error: None,
        }
    }

    /// Samples written (after decimation).
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes and surfaces any deferred I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit during streaming or the flush.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    fn try_write(&mut self, sample: &ClockSample) -> io::Result<()> {
        self.line.clear();
        if !self.header_done {
            self.header_done = true;
            // 17 digits, a point and a comma per clock, plus slack:
            // sized once, ordinary clock values never regrow the line.
            self.line.reserve(24 * (sample.logical.len() + 1));
            numfmt::push_sample_header(&mut self.line, sample.logical.len());
        }
        numfmt::push_sample_line(&mut self.line, sample);
        self.out.write_all(&self.line)?;
        self.written += 1;
        Ok(())
    }
}

impl<W: Write> Observer for CsvSampleWriter<W> {
    fn on_sample(&mut self, sample: &ClockSample) {
        let due = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !due || self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_write(sample) {
            self.error = Some(e);
        }
    }

    fn on_finish(&mut self, _stats: &SimStats) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Streaming row-count accumulator: one counter per row kind. Row
/// kinds are `&'static str` labels, so counting allocates nothing on
/// the per-row hot path (beyond the map's one node per *distinct*
/// kind).
#[derive(Debug, Clone, Default)]
pub struct RowCounter {
    counts: BTreeMap<&'static str, u64>,
}

impl RowCounter {
    /// An empty counter.
    #[must_use]
    pub fn new() -> Self {
        RowCounter::default()
    }

    /// Count of rows of one kind seen so far.
    #[must_use]
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All `(kind, count)` pairs, sorted by kind.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }
}

impl Observer for RowCounter {
    fn on_row(&mut self, row: &Row) {
        *self.counts.entry(row.kind).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::global_skew_series;
    use ftgcs_sim::node::NodeId;
    use ftgcs_sim::time::SimTime;
    use ftgcs_sim::trace::Trace;

    fn sample(t: f64, logical: Vec<f64>) -> ClockSample {
        let hardware = logical.clone();
        ClockSample {
            t: SimTime::from_secs(t),
            logical,
            hardware,
        }
    }

    #[test]
    fn skew_stream_matches_materialized_series() {
        let samples = vec![
            sample(0.0, vec![0.0, 0.1, 0.05]),
            sample(1.0, vec![1.0, 1.3, 1.1]),
            sample(2.0, vec![2.0, 2.05, 2.2]),
        ];
        let trace = Trace {
            samples: samples.clone(),
            rows: Vec::new(),
        };
        let mask = FaultMask::none(3);
        let series = global_skew_series(&trace, &mask);

        let mut acc = SkewStream::new(mask);
        for s in &samples {
            acc.on_sample(s);
        }
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.max(), series.max());
        let mean = series.values().sum::<f64>() / series.len() as f64;
        assert!((acc.mean().unwrap() - mean).abs() < 1e-15);
        assert_eq!(acc.max_at(), Some(1.0));
        assert!((acc.last().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn skew_stream_respects_mask_and_warmup() {
        let mask = FaultMask::from_nodes(3, &[1]); // node 1 faulty
        let mut acc = SkewStream::new(mask).with_warmup(0.5);
        acc.on_sample(&sample(0.0, vec![0.0, 100.0, 0.2])); // pre-warmup
        acc.on_sample(&sample(1.0, vec![1.0, 100.0, 1.1]));
        assert_eq!(acc.count(), 1);
        // Faulty node 1 excluded: skew is |1.1 - 1.0|.
        assert!((acc.max().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_accurate() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i) * 1e-6);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((4e-4..6e-4).contains(&p50), "p50 {p50} should be near 5e-4");
        let p99 = h.quantile(0.99).unwrap();
        assert!(
            (9e-4..1.1e-3).contains(&p99),
            "p99 {p99} should be near 1e-3"
        );
        assert_eq!(h.count(), 1000);
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_overflow_tail_reports_the_finite_max() {
        // Values above the covered decades (>= 1e3) land in the
        // overflow tail; quantiles falling there must report the
        // largest such value, not infinity (summary CSVs print them).
        let mut h = LogHistogram::new();
        h.record(5e3);
        h.record(2e4);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.99), Some(2e4));
        assert!(h.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn csv_writer_matches_trace_csv_at_stride_one() {
        let samples = vec![
            sample(0.0, vec![0.0, 0.0]),
            sample(0.5, vec![0.5, 0.51]),
            sample(1.0, vec![1.0, 1.1]),
        ];
        let trace = Trace {
            samples: samples.clone(),
            rows: Vec::new(),
        };
        let mut reference = Vec::new();
        trace.write_samples_csv(&mut reference).unwrap();

        let mut streamed = CsvSampleWriter::new(Vec::new(), 1);
        for s in &samples {
            streamed.on_sample(s);
        }
        streamed.finish().unwrap();
        assert_eq!(streamed.written(), 3);
        assert_eq!(streamed.out.into_inner().unwrap(), reference);
    }

    #[test]
    fn csv_writer_decimates_by_stride() {
        let mut w = CsvSampleWriter::new(Vec::new(), 2);
        for i in 0..5 {
            w.on_sample(&sample(f64::from(i), vec![0.0]));
        }
        w.finish().unwrap();
        assert_eq!(w.written(), 3); // samples 0, 2, 4
        let text = String::from_utf8(w.out.into_inner().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 4); // header + 3
    }

    #[test]
    fn row_counter_counts_by_kind() {
        let mut c = RowCounter::new();
        for kind in ["pulse", "round", "pulse"] {
            c.on_row(&Row {
                t: SimTime::ZERO,
                node: NodeId(0),
                kind,
                values: vec![],
            });
        }
        assert_eq!(c.count("pulse"), 2);
        assert_eq!(c.count("round"), 1);
        assert_eq!(c.count("nope"), 0);
        assert_eq!(c.iter().count(), 2);
    }
}
