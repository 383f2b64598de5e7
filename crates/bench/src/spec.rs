//! Experiment spec files: a [`ScenarioSpec`] plus driver-level keys.
//!
//! The files checked in under `experiments/` are the unit of experiment
//! exchange. Each one is a [`ftgcs::spec::ScenarioSpec`] text document
//! extended with driver-only keys the core format does not know about:
//!
//! * `analysis <name>` — run the named figure/table analysis from
//!   [`crate::exp`] instead of the default streaming run (a name not in
//!   [`exp::ANALYSES`] is an error at its line);
//! * `csv_stride <n>` — decimation factor of the streaming samples CSV
//!   (default 1 = every sample).
//!
//! Driver keys are stripped before the remainder is handed to
//! [`ScenarioSpec::parse`], so a spec file is always a superset of the
//! core format.

use ftgcs::params::Params;
use ftgcs::spec::{ScenarioSpec, SpecError};

use crate::exp;

/// A parsed experiment file: the scenario plus driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFile {
    /// The declarative scenario.
    pub scenario: ScenarioSpec,
    /// Named analysis to run (`None` = the default streaming run).
    pub analysis: Option<String>,
    /// Samples-CSV decimation for streaming runs.
    pub csv_stride: usize,
}

impl SpecFile {
    /// Parses an experiment file: driver keys here, the rest via
    /// [`ScenarioSpec::parse`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut analysis = None;
        let mut csv_stride = 1usize;
        let mut rest = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("analysis") => {
                    let name = tokens.next().ok_or_else(|| SpecError {
                        line: lineno,
                        msg: "analysis takes a name".into(),
                    })?;
                    if tokens.next().is_some() {
                        return Err(SpecError {
                            line: lineno,
                            msg: "analysis takes exactly one name".into(),
                        });
                    }
                    if exp::find(name).is_none() {
                        let known: Vec<&str> = exp::ANALYSES.iter().map(|&(n, _)| n).collect();
                        return Err(SpecError {
                            line: lineno,
                            msg: format!("unknown analysis {name:?} (known: {})", known.join(", ")),
                        });
                    }
                    analysis = Some(name.to_string());
                    rest.push('\n'); // keep line numbers aligned
                }
                Some("csv_stride") => {
                    let n = tokens
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| SpecError {
                            line: lineno,
                            msg: "csv_stride takes a positive integer".into(),
                        })?;
                    csv_stride = n;
                    rest.push('\n');
                }
                _ => {
                    rest.push_str(raw);
                    rest.push('\n');
                }
            }
        }
        Ok(SpecFile {
            scenario: ScenarioSpec::parse(&rest)?,
            analysis,
            csv_stride,
        })
    }

    /// Canonical text rendering: the scenario's own canonical
    /// [`ScenarioSpec::print`] followed by the driver keys (only when
    /// they differ from their defaults).
    ///
    /// Like the core printer, this is an exact inverse of [`parse`]
    /// (`SpecFile::parse(&f.print()) == Ok(f)`), which makes the
    /// printing a complete serialization of the experiment:
    /// `ftgcs_serve` keys its result cache by this text, so two spec
    /// files that differ only in comments, whitespace, or (for scalar
    /// last-wins keys) line order share one cache entry, while any
    /// semantic change produces a different key.
    ///
    /// [`parse`]: SpecFile::parse
    #[must_use]
    pub fn print(&self) -> String {
        let mut out = self.scenario.print();
        if let Some(name) = &self.analysis {
            out.push_str(&format!("analysis {name}\n"));
        }
        if self.csv_stride != 1 {
            out.push_str(&format!("csv_stride {}\n", self.csv_stride));
        }
        out
    }

    /// Parameter set implied by the spec's environment, with a
    /// **different** fault budget `f` (and the default `k = 3f + 1`) —
    /// the grid axis most analyses sweep while keeping the spec's
    /// `(ρ, d, U)`.
    ///
    /// # Panics
    ///
    /// Panics if the environment is infeasible — which no parsed file
    /// is: [`SpecFile::parse`] has built the spec's own parameters, and
    /// whether `(ρ, d, U)` is feasible does not depend on `f`.
    #[must_use]
    pub fn params_with_f(&self, f: usize) -> Params {
        Params::practical(self.scenario.rho, self.scenario.d, self.scenario.u, f)
            .expect("parse checked the environment, and feasibility does not depend on f")
    }

    /// The spec's own parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the environment is infeasible — which no parsed file
    /// is.
    #[must_use]
    pub fn params(&self) -> Params {
        self.scenario
            .params()
            .expect("parse checked the environment")
    }

    /// The spec's `(ρ, d, U)` environment triple.
    #[must_use]
    pub fn env(&self) -> (f64, f64, f64) {
        (self.scenario.rho, self.scenario.d, self.scenario.u)
    }

    /// The spec's master seed (analyses derive their per-cell seeds
    /// from it).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.scenario.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_keys_are_stripped_and_parsed() {
        let f = SpecFile::parse(
            "name x\ntopology line 2\nanalysis f1_cluster_convergence\ncsv_stride 4\nseed 9\n",
        )
        .unwrap();
        assert_eq!(f.analysis.as_deref(), Some("f1_cluster_convergence"));
        assert_eq!(f.csv_stride, 4);
        assert_eq!(f.scenario.seed, 9);
    }

    #[test]
    fn line_numbers_survive_driver_key_stripping() {
        let err =
            SpecFile::parse("name x\nanalysis t1_parameter_table\ntopology line 2\nbogus 1\n")
                .unwrap_err();
        assert_eq!(err.line, 4);
        // The gate's lines too: an analysis never sees an infeasible `env`.
        let err = SpecFile::parse(
            "name x\nanalysis t1_parameter_table\ntopology line 2\nenv 0.3 1e-3 1e-4\n",
        );
        assert_eq!(err.unwrap_err().line, 4);
    }

    #[test]
    fn unknown_analysis_is_an_error_at_its_line() {
        let err = SpecFile::parse("name bogus\ntopology line 2\nanalysis no_such_analysis\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with("spec line 3: unknown analysis \"no_such_analysis\" (known: a1_"),
            "{msg}"
        );
        assert!(msg.contains("t6_trigger_audit)"), "{msg}");
    }

    #[test]
    fn print_is_an_exact_inverse_of_parse() {
        let f = SpecFile::parse(
            "name x  # comment\n\ntopology ring 3\nanalysis f1_cluster_convergence\n\
             csv_stride 4\nseed 9\n",
        )
        .unwrap();
        let printed = f.print();
        assert_eq!(SpecFile::parse(&printed).unwrap(), f);
        assert!(printed.contains("analysis f1_cluster_convergence\n"));
        assert!(printed.contains("csv_stride 4\n"));
        // Default driver keys are omitted from the canonical form.
        let plain = SpecFile::parse("name y\ntopology line 2\n").unwrap();
        let printed = plain.print();
        assert!(!printed.contains("analysis"));
        assert!(!printed.contains("csv_stride"));
        assert_eq!(SpecFile::parse(&printed).unwrap(), plain);
    }

    #[test]
    fn bad_driver_keys_error() {
        assert!(SpecFile::parse("name x\ntopology line 2\nanalysis\n").is_err());
        assert!(SpecFile::parse("name x\ntopology line 2\ncsv_stride 0\n").is_err());
    }
}
