//! In-memory spans recorded by the benchmark around every call into a
//! layer of the program under test.
//!
//! The spans live here, in the benchmark's own files: the program is
//! measured from outside (spans inside it are a later change). A span
//! is `{name, start, end, parent, count}` with timestamps in seconds
//! from one process-wide origin; a layer's self time is its span's
//! duration minus the part its child spans cover. Spans are kept in
//! memory and written to `benchmark/out/trace.json` when the run ends.
//!
//! End-to-end numbers are taken with the tracer disabled: `open` and
//! `close` then read the clock (the caller needs the duration either
//! way) and record nothing.

use std::fmt::Write as _;
use std::sync::OnceLock;

use ftgcs_sim::Stopwatch;

/// Seconds since the process-wide timing origin (first call).
pub fn now() -> f64 {
    static ORIGIN: OnceLock<Stopwatch> = OnceLock::new();
    ORIGIN.get_or_init(Stopwatch::start).elapsed_secs()
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Work done inside the span (events, cells, requests, bytes — the
    /// unit follows from the name); 0 when nothing was counted.
    pub count: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of a span that is still open.
#[derive(Debug)]
pub struct Open {
    start: f64,
    index: Option<usize>,
}

/// Span recorder for one workload process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// How long the plain measurement of a run given `seconds` lasts: a
    /// traced run keeps the larger part for its extra repetitions and
    /// probes.
    pub fn measure_window(&self, seconds: f64) -> f64 {
        if self.enabled {
            seconds * 0.4
        } else {
            seconds
        }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.stack.last().copied(),
                count: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        self.close_counted(open, 0)
    }

    /// Closes `open`, attaching the amount of work done inside it.
    pub fn close_counted(&mut self, open: Open, count: u64) -> f64 {
        let end = now();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost-first");
            self.spans[index].end = end;
            self.spans[index].count = count;
        }
        end - open.start
    }

    /// Records an already-measured span (a request timed on a client
    /// thread) under the innermost open span; returns its index so
    /// children can be attached with [`Tracer::record_under`].
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) -> Option<usize> {
        let parent = self.stack.last().copied();
        self.push_closed(name, start, end, parent)
    }

    /// Records an already-measured span under span `parent`.
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: f64,
        end: f64,
    ) {
        if parent.is_some() {
            self.push_closed(name, start, end, parent);
        }
    }

    fn push_closed(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                count: 0,
            });
            self.spans.len() - 1
        })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share (in percent) of the first root span's duration that its
    /// direct children cover — how much of the workload's wall the
    /// trace attributes to a named span.
    pub fn attributed_pct(&self) -> f64 {
        let Some(root) = self.spans.iter().position(|s| s.parent.is_none()) else {
            return 0.0;
        };
        let total = self.spans[root].duration();
        if total <= 0.0 {
            return 0.0;
        }
        100.0 * (total - self_times(&self.spans)[root]) / total
    }

    /// Serialises the spans, with their self times, as JSON.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, (span, self_s)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \
                 \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"self_s\": {:.9}, \
                 \"count\": {}}}",
                span.name, span.start, span.end, self_s, span.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap on the thread
/// that opened them; spans recorded from concurrent client threads can,
/// and may drive a parent's self time negative — it is clamped to 0).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            selfs[p] -= span.duration();
        }
    }
    for s in &mut selfs {
        *s = s.max(0.0);
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("workload", 0.0, 10.0, None),
            span("setup", 0.0, 3.0, Some(0)),
            span("parse", 0.5, 1.5, Some(1)),
            span("build", 1.5, 2.75, Some(1)),
            span("run", 3.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 0.75, 1.0, 1.25, 6.0]);
    }

    #[test]
    fn overlapping_client_spans_clamp_the_parent_at_zero() {
        let spans = vec![
            span("phase", 0.0, 1.0, None),
            span("cycle", 0.0, 0.9, Some(0)),
            span("cycle", 0.0, 0.9, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_nests_counts_and_attributes() {
        let mut tr = Tracer::new(true);
        let root = tr.open("workload");
        let a = tr.open("setup");
        let inner = tr.open("parse");
        tr.close_counted(inner, 42);
        tr.close(a);
        let cycle = tr.record("cycle", 1.0, 2.0);
        tr.record_under(cycle, "submit", 1.0, 1.5);
        tr.close(root);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("workload", None),
                ("setup", Some(0)),
                ("parse", Some(1)),
                ("cycle", Some(0)),
                ("submit", Some(3)),
            ]
        );
        assert_eq!(tr.spans()[2].count, 42);
        assert!(tr.spans().iter().all(|s| s.end >= s.start));
        let json = tr.to_json("w");
        assert!(json.contains("\"name\": \"parse\"") && json.contains("\"parent\": 1"));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.open("run");
        assert!(tr.close(o) >= 0.0);
        assert_eq!(tr.record("cycle", 0.0, 1.0), None);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.attributed_pct(), 0.0);
    }
}
