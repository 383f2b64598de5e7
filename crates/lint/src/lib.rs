//! # ftgcs-lint — the CI-workflow audit
//!
//! The determinism discipline behind the byte-identical-trace guarantee
//! is clippy's (the root `clippy.toml` and `[workspace.lints]`;
//! `tests/canary.rs` proves every `clippy.toml` entry still fires).
//! What clippy cannot read is the CI workflow: [`ci`] audits it, run
//! over the real `.github/workflows` by `tests/workspace.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ci;

use std::path::{Path, PathBuf};

/// The CI workflows under `root/.github/workflows`, sorted (none when
/// `root` holds no such directory).
pub fn workflow_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let dir = root.join(".github").join("workflows");
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .is_some_and(|ext| ext == "yml" || ext == "yaml")
        })
        .collect();
    out.sort();
    Ok(out)
}
