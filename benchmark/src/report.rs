//! What one workload process reports: operations attempted and failed,
//! the metrics by name, and the human-readable lines printed above the
//! machine-readable result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::names::{self, Metric};
use crate::stats::Summary;

/// Accumulates one run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: a simulation repetition, one `xp sweep`
    /// process, one HTTP cycle.
    pub attempted: u64,
    /// Operations whose output was wrong (digest mismatch, non-200,
    /// bound violated, bytes differ). The first few reasons are kept.
    pub failed: u64,
    reasons: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation and keeps its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Counts an attempted operation, failed if `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempt();
        if let Err(reason) = check {
            self.fail(reason);
        }
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    /// Sets metric `name`, which must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            names::find(name).is_some(),
            "metric {name} is not in the benchmark's name table"
        );
        self.values.insert(name, value);
    }

    /// Sets a timing metric to its samples' lower quartile and prints
    /// the minimum, the median, the upper quartile and the sample count
    /// beside it.
    ///
    /// The lower quartile, not the median: the host is shared, and what
    /// its other tenants do only ever adds time — in bursts of 5 to 15 s
    /// that slow every repetition inside them by about 40 % (README.md,
    /// "Interference"). A median moves as soon as half the run is inside
    /// a burst; the lower quartile holds while a quarter of it is quiet.
    pub fn set_quiet(&mut self, name: &'static str, s: &Summary) {
        self.set(name, s.q1);
        self.note(format!(
            "  {name}: min {:.6} q1 {:.6} median {:.6} q3 {:.6} n {}",
            s.min, s.q1, s.median, s.q3, s.n
        ));
    }

    /// Adds a free-form line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The human-readable block: notes, then every metric of `list` by
    /// name with its unit.
    pub fn render(&self, list: &[Metric]) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for m in list {
            let _ = writeln!(out, "{:<36} {:>18.6} {}", m.name, self.value_of(m), m.unit);
        }
        out
    }

    /// A layer the workload never enters reports 0: no time was spent
    /// and no work was done there.
    fn value_of(&self, m: &Metric) -> f64 {
        self.values.get(m.name).copied().unwrap_or(0.0)
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics
    /// being every name of `list`.
    pub fn result_line(&self, list: &[Metric]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in list.iter().enumerate() {
            let value = self.value_of(m);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, read from
/// `/proc/<pid>/status`; `None` once the process is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("digest differs".into()));
        r.set("run_wall_s", 1.25);
        let line = r.result_line(names::END_TO_END);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"run_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for m in names::END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", m.name)));
        }
        assert_eq!(r.reasons(), ["digest differs".to_string()]);
    }

    #[test]
    fn a_run_with_nothing_attempted_is_not_correct() {
        let r = Report::default();
        assert!(r
            .result_line(names::END_TO_END)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(std::process::id()).expect("own /proc status") > 0.0);
    }
}
