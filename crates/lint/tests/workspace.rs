//! The lint gate, locally: `cargo test` runs `ftgcs-lint` over the
//! real workspace, so a determinism-discipline violation fails the
//! ordinary test suite — not just the CI step that runs the binary.

use std::path::Path;

use ftgcs_lint::check_path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").exists(), "workspace root not found");

    let report = check_path(root).expect("workspace readable");

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
    let root = workspace_root();
    let path = root.join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).expect("ci.yml readable");
    let audit = ftgcs_lint::ci::audit_workflow(&text, root);
    assert!(
        audit.diagnostics.is_empty(),
        "{}: {:#?}",
        path.display(),
        audit.diagnostics
    );
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
    assert_eq!(audit.diagnostics[0].rule, "ci-paths-exist");
    assert!(
        audit.diagnostics[0].message.starts_with("column 66:"),
        "{}",
        audit.diagnostics[0].message
    );
}

/// No `unsafe` in any library: every `crates/*/src/lib.rs` forbids it
/// (which no inner `allow` can lift), and no file under a `crates/*/src`
/// spells the keyword in code. The one exception is the `xp` binary
/// root, whose `GlobalAlloc` counting shim — like the ones in three
/// test roots — is a measuring instrument and stays under
/// `unsafe-needs-safety`.
#[test]
fn every_library_forbids_unsafe_and_none_is_written() {
    let root = workspace_root();
    let mut roots = 0;
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let src = krate.expect("crates/ entry").path().join("src");
        let lib = std::fs::read_to_string(src.join("lib.rs")).expect("every crate has a lib.rs");
        assert!(
            ftgcs_lint::scan::scan(&lib)
                .iter()
                .any(|line| line.code.trim() == "#![forbid(unsafe_code)]"),
            "{}: no #![forbid(unsafe_code)]",
            src.join("lib.rs").display()
        );
        roots += 1;
        for path in ftgcs_lint::walk::rust_files(&src).expect("src/ readable") {
            if path.ends_with("bench/src/bin/xp.rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("source readable");
            for (i, line) in ftgcs_lint::scan::scan(&source).iter().enumerate() {
                let mut words = line.code.split(|c: char| !c.is_alphanumeric() && c != '_');
                assert!(
                    !words.any(|word| word == "unsafe"),
                    "{}:{}: `unsafe` in library source",
                    path.display(),
                    i + 1
                );
            }
        }
    }
    assert!(roots >= 8, "only {roots} library roots read");
}
