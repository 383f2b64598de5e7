//! # ftgcs-lint — determinism-audit static analysis for the FTGCS workspace
//!
//! The repo's load-bearing guarantee is that a simulation run is a pure
//! function of `(seed, configuration)`: the global and parallel
//! schedulers produce **byte-identical traces at any worker count**
//! (see `crates/sim/tests/shard_equivalence.rs`). That property
//! survives only as long as nobody writes an ambient source of
//! nondeterminism into an order-sensitive path. This crate is the
//! machine check: a comment- and string-literal-aware source scanner
//! ([`scan`]) feeding a rule engine ([`rules`]) with per-line
//! suppression pragmas, run over the workspace by CI and by
//! `tests/workspace.rs` on every `cargo test`.
//!
//! ## Running it
//!
//! ```text
//! cargo run -p ftgcs-lint -- check .        # whole workspace + CI workflow (CI gate)
//! cargo run -p ftgcs-lint -- check crates/sim
//! cargo run -p ftgcs-lint -- rules          # list rules + rationale
//! ```
//!
//! ## Suppressing a finding
//!
//! ```text
//! let t0 = Instant::now(); // ftgcs-lint: allow(no-wall-clock) -- host-side profiling, never in the trace
//! ```
//!
//! The reason after `--` is mandatory; a reason-less pragma suppresses
//! nothing and is itself a finding. See [`rules`] for the rule list and
//! the rationale tying each rule to the byte-identical-trace guarantee.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ci;
pub mod rules;
pub mod scan;
pub mod walk;

use std::path::{Path, PathBuf};

use rules::Diagnostic;

/// One file's findings, with the path they belong to.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Path as discovered by the walker (relative to the check root if
    /// the root was relative).
    pub path: PathBuf,
    /// Findings in line order.
    pub diagnostics: Vec<Diagnostic>,
}

/// A whole check run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Files that had findings (clean files are omitted).
    pub files: Vec<FileReport>,
    /// Total number of files scanned, clean or not.
    pub files_scanned: usize,
}

impl Report {
    /// Total finding count across all files.
    pub fn count(&self) -> usize {
        self.files.iter().map(|f| f.diagnostics.len()).sum()
    }

    /// True if the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.files.is_empty()
    }

    /// Renders the report in `file:line: [rule] message` form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for file in &self.files {
            for d in &file.diagnostics {
                out.push_str(&format!(
                    "{}:{}: [{}] {}\n",
                    file.path.display(),
                    d.line,
                    d.rule,
                    d.message
                ));
            }
        }
        out.push_str(&format!(
            "{} finding(s) in {} of {} file(s)\n",
            self.count(),
            self.files.len(),
            self.files_scanned
        ));
        out
    }
}

/// Checks every `.rs` file under `root` (a directory or a single file)
/// and, where `root` holds one, the CI workflows under
/// `.github/workflows` (see [`ci`]).
///
/// Classification is positional (see [`walk::classify`]), so pointing
/// the root at the repository top-level audits the real tree, while
/// pointing it inside the fixture corpus audits fixtures under their
/// mirrored crate paths.
pub fn check_path(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in walk::workflow_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let diagnostics = ci::audit_workflow(&text, root).diagnostics;
        if !diagnostics.is_empty() {
            report.files.push(FileReport { path, diagnostics });
        }
    }
    for path in walk::rust_files(root)? {
        let source = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let ctx = walk::classify(&path);
        let diagnostics = rules::check_source(&source, &ctx);
        if !diagnostics.is_empty() {
            report.files.push(FileReport { path, diagnostics });
        }
    }
    Ok(report)
}
