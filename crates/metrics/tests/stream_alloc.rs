//! Regression test: streaming samples through [`CsvSampleWriter`]
//! must not allocate per sample.
//!
//! The writer builds each line in one reused buffer with
//! `ftgcs_sim::numfmt` (no `String` per number, no `core::fmt`
//! machinery) and hands it to its `BufWriter` whole; the first sample
//! sizes the buffer, after which an arbitrarily long run performs zero
//! allocations.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter ([`counting_alloc`]).

use std::io;

use ftgcs_metrics::stream::CsvSampleWriter;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::time::SimTime;
use ftgcs_sim::trace::ClockSample;

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;

#[test]
fn streaming_samples_after_the_first_line_does_not_allocate() {
    // Sanity: the counter must actually observe allocations, or the
    // assertion below would pass vacuously.
    assert!(
        count(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(32)))) >= 1,
        "counting allocator is not wired up"
    );

    // A run as `xp run` sees it: 36 nodes, all clocks zero on the
    // first line (the shortest line there is), then full 17-digit
    // values a little apart from the sample time.
    const NODES: usize = 36;
    const SAMPLES: usize = 20_000;
    let mut sample = ClockSample {
        t: SimTime::ZERO,
        logical: vec![0.0; NODES],
    };
    let mut writer = CsvSampleWriter::new(io::sink(), 1);
    writer.on_sample(&sample);

    let allocs = count(|| {
        for i in 1..SAMPLES {
            let t = i as f64 * 0.0005;
            sample.t = SimTime::from_secs(t);
            for (v, l) in sample.logical.iter_mut().enumerate() {
                *l = t * (1.0 + 1e-4 * v as f64) + 1e-7 * v as f64;
            }
            writer.on_sample(&sample);
        }
    });

    writer.finish().expect("a sink cannot fail");
    assert_eq!(writer.written(), SAMPLES);
    assert_eq!(
        allocs, 0,
        "CsvSampleWriter allocated while streaming {SAMPLES} samples — \
         the line buffer must be reused and push_f64 must not allocate"
    );
}
