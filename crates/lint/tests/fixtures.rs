//! Fixture corpus: one minimal bad file per rule (flagged at exactly
//! the right line) and one good file per rule (clean), including the
//! pragma-suppression and missing-reason cases. The fixtures mirror
//! `crates/<name>/src/…` paths so the walker's positional classifier
//! applies the same per-crate scoping it applies to the real tree.

use std::path::{Path, PathBuf};
use std::process::Command;

use ftgcs_lint::check_path;

fn fixtures(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

/// Every bad fixture with its exact expected `(line, rule)` findings.
const EXPECTED_BAD: &[(&str, &[(usize, &str)])] = &[
    ("crates/sim/src/wall_clock.rs", &[(4, "no-wall-clock")]),
    (
        "crates/sim/src/telemetry_in_dispatch.rs",
        &[(6, "no-wall-clock")],
    ),
    ("crates/sim/src/os_rng.rs", &[(4, "no-os-rng")]),
    (
        "crates/core/src/hash_order.rs",
        &[
            (3, "no-hash-order"),
            (5, "no-hash-order"),
            (6, "no-hash-order"),
        ],
    ),
    (
        "crates/metrics/src/thread_spawn.rs",
        &[(4, "no-thread-spawn")],
    ),
    (
        "crates/bench/src/spawn_in_driver.rs",
        &[(6, "no-thread-spawn")],
    ),
    ("crates/core/src/scoped_spawn.rs", &[(6, "no-thread-spawn")]),
    ("crates/sim/src/print_in_lib.rs", &[(4, "no-print-in-lib")]),
    (
        "crates/sim/src/unsafe_no_safety.rs",
        &[(5, "unsafe-needs-safety")],
    ),
    (
        "crates/core/src/allow_no_reason.rs",
        &[(3, "allow-needs-reason")],
    ),
    (
        "crates/core/src/lifecycle_wall_clock.rs",
        &[(5, "no-wall-clock")],
    ),
    ("crates/core/src/lifecycle_os_rng.rs", &[(5, "no-os-rng")]),
    (
        "crates/sim/src/pragma_missing_reason.rs",
        &[(6, "bad-pragma"), (6, "no-wall-clock")],
    ),
    (
        "crates/sim/src/pragma_unknown_rule.rs",
        &[(3, "bad-pragma")],
    ),
];

#[test]
fn every_bad_fixture_is_flagged_at_the_right_line() {
    for (rel, expected) in EXPECTED_BAD {
        let path = fixtures("bad").join(rel);
        let report = check_path(&path).expect("fixture readable");
        let got: Vec<(usize, String)> = report
            .files
            .iter()
            .flat_map(|f| f.diagnostics.iter())
            .map(|d| (d.line, d.rule.to_string()))
            .collect();
        let want: Vec<(usize, String)> =
            expected.iter().map(|&(l, r)| (l, r.to_string())).collect();
        assert_eq!(got, want, "findings mismatch for {rel}");
    }
}

#[test]
fn bad_corpus_has_no_stray_files() {
    // Walking the whole bad tree must find exactly the cataloged
    // fixtures — a new bad fixture must register its expectations.
    let report = check_path(&fixtures("bad")).expect("bad corpus readable");
    assert_eq!(report.files_scanned, EXPECTED_BAD.len());
    assert_eq!(
        report.files.len(),
        EXPECTED_BAD.len(),
        "every bad fixture must be dirty"
    );
}

#[test]
fn every_good_fixture_passes() {
    let report = check_path(&fixtures("good")).expect("good corpus readable");
    assert!(
        report.is_clean(),
        "good fixtures must be clean, got:\n{}",
        report.render()
    );
    // All twelve good fixtures were actually visited (one per rule,
    // the bench-scoped hash/print counterexamples, the clean
    // fault-lifecycle file, the pragma'd telemetry side channel, and
    // the serve-crate spawn/print site).
    assert_eq!(report.files_scanned, 12);
}

/// The CLI contract CI relies on: exit 0 on clean trees, exit 1 with
/// `file:line:` diagnostics on violations.
#[test]
fn cli_exit_codes_and_diagnostic_format() {
    let bin = env!("CARGO_BIN_EXE_ftgcs-lint");

    let bad = Command::new(bin)
        .args(["check"])
        .arg(fixtures("bad"))
        .output()
        .expect("run ftgcs-lint");
    assert_eq!(bad.status.code(), Some(1), "bad corpus must fail the gate");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("wall_clock.rs:4: [no-wall-clock]"),
        "diagnostic must carry file:line and rule, got:\n{stdout}"
    );

    let good = Command::new(bin)
        .args(["check"])
        .arg(fixtures("good"))
        .output()
        .expect("run ftgcs-lint");
    assert!(good.status.success(), "good corpus must pass the gate");

    let usage = Command::new(bin).output().expect("run ftgcs-lint");
    assert_eq!(usage.status.code(), Some(2), "no-args is a usage error");
}
