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
//!   [`Trace::write_samples_csv`](ftgcs_sim::trace::Trace::write_samples_csv),
//!   on a formatter thread of its own while the calling thread keeps
//!   the writer;
//! * [`RowCounter`] — row counts per kind.
//!
//! Combine several with [`ftgcs_sim::observe::Fanout`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

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

/// Lines per batch handed to a writer's formatter thread, at most.
const BATCH_LINES: usize = 32;
/// Numbers per batch, at most — unless one line holds more: wide lines
/// travel in shorter batches, so a writer holds about 3 × 128 KB, or
/// three lines where one line is wider than that.
const BATCH_NUMBERS: usize = 4096;
/// Batches one writer owns: the one it fills, the rest at its formatter
/// thread or back and waiting to be written.
const BATCHES: usize = 3;
/// How long a writer waiting for a batch sleeps before it looks again:
/// the formatter wakes the thread that started it, so only a formatter
/// that stopped, or a writer since moved to another thread, is waited
/// for this long.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// Streaming CSV writer for clock samples.
///
/// Emits the format of
/// [`Trace::write_samples_csv`](ftgcs_sim::trace::Trace::write_samples_csv)
/// (`t,n0,n1,…` header then one line per sample, both through
/// [`ftgcs_sim::numfmt`]) but incrementally, so no sample is ever held
/// in memory beyond the batch it rides in. A `stride > 1` decimates:
/// every stride-th sample is written (the windowed form used by
/// long-horizon runs, where full-rate CSV would dwarf the simulation
/// itself).
///
/// Printing the numbers is most of a line's cost, so it runs on one
/// formatter thread per writer, started by the first written sample.
/// The calling thread copies each written sample's time and logical
/// clocks into a batch of up to 32 lines (fewer when lines are very
/// wide); a full batch goes to the formatter over a bounded channel and
/// comes back as bytes, which the calling thread writes to its
/// `BufWriter` in sample order. So `W` never leaves the calling thread
/// (it needs neither `Send` nor `'static`), the bytes are exactly the
/// single-threaded ones, and three batches, sized once, circulate:
/// streaming allocates nothing on either thread once the first line is
/// out.
///
/// I/O errors are deferred: the writer records the first error — a
/// formatter thread that stopped is one — and
/// [`CsvSampleWriter::finish`] (or [`Observer::on_finish`]) surfaces
/// it; the observer callbacks themselves stay infallible. Dropping the
/// writer without `finish` still writes every line, as a `BufWriter`
/// does.
pub struct CsvSampleWriter<W: Write> {
    out: io::BufWriter<W>,
    /// The formatter thread, from the first written sample on.
    formatter: Option<Formatter>,
    stride: usize,
    seen: usize,
    written: usize,
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
            formatter: None,
            stride,
            seen: 0,
            written: 0,
            error: None,
        }
    }

    /// Samples written (after decimation).
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// Writes every line so far, flushes and surfaces any deferred I/O
    /// error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit during streaming or the flush.
    pub fn finish(&mut self) -> io::Result<()> {
        self.flush();
        self.error.take().map_or(Ok(()), Err)
    }

    /// Writes every line so far and flushes, unless an error is
    /// already recorded; records the error this hits.
    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        let out = &mut self.out;
        let drained = self.formatter.as_mut().map_or(Ok(()), |f| f.drain(out));
        if let Err(e) = drained.and_then(|()| out.flush()) {
            self.error = Some(e);
        }
    }

    fn try_write(&mut self, sample: &ClockSample) -> io::Result<()> {
        let (t, logical) = (sample.t.as_secs(), &sample.logical[..]);
        if let Some(formatter) = &mut self.formatter {
            formatter.push(t, logical, &mut self.out)?;
        } else {
            let mut header = Vec::new();
            numfmt::push_sample_header(&mut header, logical.len());
            self.out.write_all(&header)?;
            let formatter = self.formatter.insert(Formatter::start(1 + logical.len())?);
            // The first line makes the round trip before this returns:
            // the thread is up, and what starting it allocates is done.
            formatter.push(t, logical, &mut self.out)?;
            formatter.drain(&mut self.out)?;
        }
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
        self.flush();
    }
}

impl<W: Write> Drop for CsvSampleWriter<W> {
    fn drop(&mut self) {
        if let Some(mut formatter) = self.formatter.take() {
            if self.error.is_none() {
                // Best effort, as `BufWriter`'s own drop (which follows
                // and flushes these bytes) is.
                let _ = formatter.drain(&mut self.out);
            }
            formatter.stop();
        }
    }
}

/// A few sample lines (see [`Batch::lines`]): their numbers on the way
/// to the formatter thread, their bytes on the way back.
#[derive(Default)]
struct Batch {
    /// Numbers per line: the time, then each logical clock.
    width: usize,
    /// The lines' numbers, `width` per line.
    values: Vec<f64>,
    /// The lines as the samples CSV prints them.
    bytes: Vec<u8>,
}

impl Batch {
    /// An empty batch sized for lines of `width` numbers.
    fn new(width: usize) -> Self {
        let numbers = Batch::lines(width) * width;
        Batch {
            width,
            values: Vec::with_capacity(numbers),
            // 17 digits, a point and a comma per number, plus slack:
            // ordinary clock values never regrow the bytes.
            bytes: Vec::with_capacity(24 * numbers),
        }
    }

    /// The lines a full batch of `width`-number lines holds.
    fn lines(width: usize) -> usize {
        (BATCH_NUMBERS / width).clamp(1, BATCH_LINES)
    }

    /// Prints the lines into `bytes`.
    fn format(&mut self) {
        self.bytes.clear();
        for line in self.values.chunks_exact(self.width) {
            numfmt::push_sample_values(&mut self.bytes, line[0], &line[1..]);
        }
    }
}

/// One writer's formatter thread and the batches circulating between
/// the two: the one being filled, those at the thread (`in_flight`, in
/// the order sent) and the spare ones.
struct Formatter {
    to_thread: SyncSender<Batch>,
    from_thread: Receiver<Batch>,
    thread: JoinHandle<()>,
    filling: Batch,
    spare: Vec<Batch>,
    in_flight: usize,
}

impl Formatter {
    /// Starts the thread, with every batch sized for lines of `width`
    /// numbers.
    fn start(width: usize) -> io::Result<Self> {
        let (to_thread, batches) = mpsc::sync_channel(BATCHES);
        let (done, from_thread) = mpsc::sync_channel(BATCHES);
        let writer = thread::current();
        #[allow(
            clippy::disallowed_methods,
            reason = "the sample formatter: it prints the numbers it is handed and hands the \
                      bytes back, which the calling thread writes in sample order"
        )]
        let thread = thread::Builder::new()
            .name("ftgcs-csv".into())
            .spawn(move || format_batches(&batches, &done, &writer))?;
        let mut spare = Vec::with_capacity(BATCHES);
        spare.extend((1..BATCHES).map(|_| Batch::new(width)));
        Ok(Formatter {
            to_thread,
            from_thread,
            thread,
            filling: Batch::new(width),
            spare,
            in_flight: 0,
        })
    }

    /// Adds the line of time `t` and clocks `logical`.
    fn push(&mut self, t: f64, logical: &[f64], out: &mut impl Write) -> io::Result<()> {
        let width = 1 + logical.len();
        if width != self.filling.width && !self.filling.values.is_empty() {
            self.dispatch(out)?;
        }
        self.filling.width = width;
        self.filling.values.push(t);
        self.filling.values.extend_from_slice(logical);
        if self.filling.values.len() == Batch::lines(width) * width {
            self.dispatch(out)?;
        }
        Ok(())
    }

    /// Sends the batch being filled to the thread and takes the next one
    /// to fill: a spare, or else the oldest at the thread once it is
    /// back and written.
    fn dispatch(&mut self, out: &mut impl Write) -> io::Result<()> {
        let full = std::mem::take(&mut self.filling);
        self.to_thread.try_send(full).map_err(|_| stopped())?;
        self.in_flight += 1;
        self.thread.thread().unpark();
        while let Ok(batch) = self.from_thread.try_recv() {
            let batch = self.write_back(batch, out)?;
            self.spare.push(batch);
        }
        self.filling = match self.spare.pop() {
            Some(batch) => batch,
            None => self.wait(out)?,
        };
        Ok(())
    }

    /// Sends the partial batch and writes every batch at the thread, in
    /// order.
    fn drain(&mut self, out: &mut impl Write) -> io::Result<()> {
        if !self.filling.values.is_empty() {
            self.dispatch(out)?;
        }
        while self.in_flight > 0 {
            let batch = self.wait(out)?;
            self.spare.push(batch);
        }
        Ok(())
    }

    /// Waits for the oldest batch at the thread; returns it written and
    /// emptied.
    fn wait(&mut self, out: &mut impl Write) -> io::Result<Batch> {
        loop {
            match self.from_thread.try_recv() {
                Ok(batch) => return self.write_back(batch, out),
                Err(TryRecvError::Empty) => thread::park_timeout(WAIT_SLICE),
                Err(TryRecvError::Disconnected) => return Err(stopped()),
            }
        }
    }

    /// Writes a batch back from the thread and empties it.
    fn write_back(&mut self, mut batch: Batch, out: &mut impl Write) -> io::Result<Batch> {
        self.in_flight -= 1;
        out.write_all(&batch.bytes)?;
        batch.values.clear();
        Ok(batch)
    }

    /// Hangs up and waits for the thread to end.
    fn stop(self) {
        let Formatter {
            to_thread, thread, ..
        } = self;
        drop(to_thread);
        thread.thread().unpark();
        // A thread that panicked has already cost its writer an error.
        let _ = thread.join();
    }
}

/// The formatter thread: prints each batch it is sent and sends it back,
/// until its writer hangs up. It waits by parking, not in the channel's
/// blocking receive, which allocates the first time a thread blocks in
/// it; the writer unparks it after every send and after hanging up.
fn format_batches(batches: &Receiver<Batch>, done: &SyncSender<Batch>, writer: &Thread) {
    loop {
        match batches.try_recv() {
            Ok(mut batch) => {
                batch.format();
                if done.try_send(batch).is_err() {
                    return;
                }
                writer.unpark();
            }
            Err(TryRecvError::Empty) => thread::park(),
            Err(TryRecvError::Disconnected) => return,
        }
    }
}

/// The error a writer records when its formatter thread is gone.
fn stopped() -> io::Error {
    io::Error::other("the sample formatter thread stopped")
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
        ClockSample {
            t: SimTime::from_secs(t),
            logical,
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

        let mut bytes = Vec::new();
        let mut streamed = CsvSampleWriter::new(&mut bytes, 1);
        for s in &samples {
            streamed.on_sample(s);
        }
        streamed.finish().unwrap();
        assert_eq!(streamed.written(), 3);
        drop(streamed);
        assert_eq!(bytes, reference);
    }

    #[test]
    fn csv_writer_decimates_by_stride() {
        let mut bytes = Vec::new();
        let mut w = CsvSampleWriter::new(&mut bytes, 2);
        for i in 0..5 {
            w.on_sample(&sample(f64::from(i), vec![0.0]));
        }
        w.finish().unwrap();
        assert_eq!(w.written(), 3); // samples 0, 2, 4
        drop(w);
        let text = String::from_utf8(bytes).unwrap();
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
                values: Default::default(),
            });
        }
        assert_eq!(c.count("pulse"), 2);
        assert_eq!(c.count("round"), 1);
        assert_eq!(c.count("nope"), 0);
        assert_eq!(c.iter().count(), 2);
    }
}
