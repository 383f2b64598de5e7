//! The lint gate, locally: `cargo test` runs `ftgcs-lint` over the
//! real workspace, so a determinism-discipline violation fails the
//! ordinary test suite — not just the CI step that runs the binary.

use std::path::Path;

use ftgcs_lint::check_path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "workspace root not found");

    let report = check_path(&root).expect("workspace readable");

    // Guard against a silently broken walker: the workspace has well
    // over 100 first-party Rust files, and the walker must be looking
    // at the real tree (not an empty or wrong directory) for the
    // cleanliness assertion below to mean anything.
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );

    assert!(
        report.is_clean(),
        "determinism-discipline violations in the workspace:\n{}",
        report.render()
    );
}

/// ROADMAP item 0: the workflow must load, and what it names must
/// exist. `workspace_is_clean` already fails on a finding; this pins
/// that the reader saw the real file (a reader that finds no `run:`
/// key finds no defect either) and that the defect that stood from
/// PR 6 to PR 20 is one.
#[test]
fn ci_workflow_is_read_and_its_old_defect_is_a_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root");
    let path = root.join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).expect("ci.yml readable");
    let audit = ftgcs_lint::ci::audit_workflow(&text, root);
    assert!(
        audit.diagnostics.is_empty(),
        "{}: {:#?}",
        path.display(),
        audit.diagnostics
    );
    assert!(audit.runs >= 15, "only {} `run:` keys read", audit.runs);
    assert!(audit.paths >= 8, "only {} paths checked", audit.paths);

    // Unquote the Miri step again: line and column of the YAML error.
    let broken = text.replace(
        "run: \"cargo +nightly miri test -p ftgcs-sim --lib -- time:: clock:: rng:: shard:: par::\"",
        "run: cargo +nightly miri test -p ftgcs-sim --lib -- time:: clock:: rng:: shard:: par::",
    );
    assert_ne!(broken, text, "the Miri step is spelled differently now");
    let audit = ftgcs_lint::ci::audit_workflow(&broken, root);
    assert_eq!(audit.diagnostics.len(), 1, "{:#?}", audit.diagnostics);
    assert_eq!(audit.diagnostics[0].rule, "ci-paths-exist");
    assert!(
        audit.diagnostics[0].message.starts_with("column 66:"),
        "{}",
        audit.diagnostics[0].message
    );
}
