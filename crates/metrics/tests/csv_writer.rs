//! The threaded [`CsvSampleWriter`] against the one-thread reference,
//! [`Trace::write_samples_csv`]: the same bytes in the same order for
//! counts of lines around the batch size, at three line widths and two
//! strides; every line written when the writer is dropped without
//! `finish`; and a failing sink surfacing its error from `finish`
//! instead of hanging or panicking.

use std::io::{self, Write};

use ftgcs_metrics::stream::CsvSampleWriter;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::{ClockSample, Trace};

/// Sample `i` of a run with `nodes` nodes: full 17-digit values, some
/// very small and some very large, so lines differ in length.
fn sample(i: usize, nodes: usize) -> ClockSample {
    let t = i as f64 * 0.0005;
    let logical = (0..nodes)
        .map(|v| match v % 4 {
            0 => t * (1.0 + 1e-4 * v as f64) + 1e-7 * v as f64,
            1 => -t / 3.0,
            2 => 1e-9 * (i + v) as f64,
            _ => 1e21 + (i * v) as f64,
        })
        .collect();
    ClockSample {
        t: SimTime::from_secs(t),
        logical,
    }
}

/// What the one-thread path prints for the samples a `stride` keeps.
fn reference(samples: &[ClockSample], stride: usize) -> Vec<u8> {
    let trace = Trace {
        samples: samples.iter().step_by(stride).cloned().collect(),
        rows: Vec::new(),
    };
    let mut bytes = Vec::new();
    trace
        .write_samples_csv(&mut bytes)
        .expect("a Vec cannot fail");
    bytes
}

/// `samples` through a writer with `stride`, finished.
fn streamed(samples: &[ClockSample], stride: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = CsvSampleWriter::new(&mut bytes, stride);
    for s in samples {
        writer.on_sample(s);
    }
    writer.finish().expect("a Vec cannot fail");
    assert_eq!(writer.written(), samples.len().div_ceil(stride));
    drop(writer);
    bytes
}

#[test]
fn bytes_equal_the_trace_csv_around_the_batch_size() {
    // 7 nodes: batches of 32 lines; 300: of 13; 5 000: of one line.
    let cases = [
        (7, &[0, 1, 31, 32, 33, 65][..]),
        (300, &[12, 13, 14, 40][..]),
        (5_000, &[1, 2, 4][..]),
    ];
    for (nodes, counts) in cases {
        for &lines in counts {
            for stride in [1, 3] {
                let samples: Vec<ClockSample> =
                    (0..lines * stride).map(|i| sample(i, nodes)).collect();
                let want = reference(&samples, stride);
                let got = streamed(&samples, stride);
                assert!(
                    got == want,
                    "{nodes} nodes, {lines} lines at stride {stride}: the bytes differ"
                );
            }
        }
    }
}

#[test]
fn a_change_of_width_keeps_the_lines_in_order() {
    let samples: Vec<ClockSample> = (0..80)
        .map(|i| sample(i, if (20..50).contains(&i) { 3 } else { 5 }))
        .collect();
    assert_eq!(streamed(&samples, 1), reference(&samples, 1));
}

#[test]
fn a_writer_dropped_without_finish_writes_every_line() {
    let samples: Vec<ClockSample> = (0..100).map(|i| sample(i, 4)).collect();
    let mut bytes = Vec::new();
    {
        let mut writer = CsvSampleWriter::new(&mut bytes, 1);
        for s in &samples {
            writer.on_sample(s);
        }
    }
    assert_eq!(bytes, reference(&samples, 1));
}

/// A sink that accepts `budget` bytes, then fails every write; or, with
/// `fail_flush`, fails only its flush.
struct Failing {
    budget: usize,
    fail_flush: bool,
}

impl Write for Failing {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() > self.budget {
            return Err(io::Error::other("disk full"));
        }
        self.budget -= buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.fail_flush {
            Err(io::Error::other("flush refused"))
        } else {
            Ok(())
        }
    }
}

#[test]
fn a_failing_sink_surfaces_its_error_from_finish() {
    let samples: Vec<ClockSample> = (0..200).map(|i| sample(i, 36)).collect();
    // Fails on a write: the header and first line fit, a batch does not.
    let mut writer = CsvSampleWriter::new(
        Failing {
            budget: 4096,
            fail_flush: false,
        },
        1,
    );
    for s in &samples {
        writer.on_sample(s);
    }
    let err = writer.finish().expect_err("the sink ran out");
    assert_eq!(err.to_string(), "disk full");
    assert!(writer.written() < samples.len());
    drop(writer);

    // Fails only on the flush: every line was handed over.
    let mut writer = CsvSampleWriter::new(
        Failing {
            budget: usize::MAX,
            fail_flush: true,
        },
        1,
    );
    for s in &samples {
        writer.on_sample(s);
    }
    writer.on_finish(&ftgcs_sim::engine::SimStats::default());
    let err = writer.finish().expect_err("the flush failed");
    assert_eq!(err.to_string(), "flush refused");
    assert_eq!(writer.written(), samples.len());
}
