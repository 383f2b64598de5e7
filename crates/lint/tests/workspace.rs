//! The audits of the real tree that clippy cannot run: the CI workflows
//! (`ci-paths-exist`) and the `forbid(unsafe_code)` line of every
//! library root.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
}

/// ROADMAP item 0: every workflow must load, and what it names must
/// exist. (The Rust half of this test, the scanner's audit of every
/// source file, is `cargo clippy --all-targets` since PR 25.)
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let workflows = ftgcs_lint::workflow_files(root).expect("workflows readable");
    assert!(
        workflows.iter().any(|p| p.ends_with("ci.yml")),
        "{workflows:?}"
    );
    for path in &workflows {
        let text = std::fs::read_to_string(path).expect("workflow readable");
        let audit = ftgcs_lint::ci::audit_workflow(&text, root);
        assert!(
            audit.diagnostics.is_empty(),
            "{}: {:#?}",
            path.display(),
            audit.diagnostics
        );
    }
}

/// `workspace_is_clean` fails on a finding; this pins that the reader
/// saw the real file (a reader that finds no `run:` key finds no defect
/// either) and that the defect that stood from PR 6 to PR 20 is one.
#[test]
fn ci_workflow_is_read_and_its_old_defect_is_a_finding() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let audit = ftgcs_lint::ci::audit_workflow(&text, root);
    assert!(audit.runs >= 12, "only {} `run:` keys read", audit.runs);
    assert!(audit.paths >= 8, "only {} paths checked", audit.paths);

    // The step that was (a Miri run, deleted with its job in PR 24),
    // unquoted again: line and column of the YAML error.
    let broken = format!(
        "{text}      - name: Miri\n        \
         run: cargo +nightly miri test -p ftgcs-sim --lib -- time:: clock:: rng:: shard:: par::\n"
    );
    let audit = ftgcs_lint::ci::audit_workflow(&broken, root);
    assert_eq!(audit.diagnostics.len(), 1, "{:#?}", audit.diagnostics);
    assert!(
        audit.diagnostics[0].message.starts_with("column 66:"),
        "{}",
        audit.diagnostics[0].message
    );
}

/// No `unsafe` in any library: every `crates/*/src/lib.rs` says
/// `#![forbid(unsafe_code)]`, which no inner `allow` can lift. That no
/// `unsafe` is written anywhere else is the compiler's job:
/// `[workspace.lints]` sets `unsafe_code = "deny"`, and exactly four
/// sites say `allow(unsafe_code, …)` — the `GlobalAlloc` counting shims
/// of the `xp` binary and of three allocation tests, each `System` call
/// in its own `unsafe {}` under a `// SAFETY:` that
/// `clippy::undocumented_unsafe_blocks` requires.
#[test]
fn every_library_forbids_unsafe_and_none_is_written() {
    let mut roots = 0;
    for krate in std::fs::read_dir(workspace_root().join("crates")).expect("crates/ readable") {
        let lib = krate.expect("crates/ entry").path().join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).expect("every crate has a lib.rs");
        assert!(
            text.lines().any(|line| line == "#![forbid(unsafe_code)]"),
            "{}: no #![forbid(unsafe_code)]",
            lib.display()
        );
        roots += 1;
    }
    assert!(roots >= 8, "only {roots} library roots read");
}
