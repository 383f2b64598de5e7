//! The audits of the real tree that clippy cannot run: the CI workflows
//! (`ci-paths-exist`) and the `forbid(unsafe_code)` line of every
//! library root. (The determinism discipline itself is clippy's: the
//! root `clippy.toml` and `[workspace.lints]`, with `tests/canary.rs`
//! proving every `clippy.toml` entry still fires.)
//!
//! A workflow that does not load runs no job, and one that names a
//! deleted script fails only where nobody develops. Both have happened
//! here: `run: cargo … -- time:: clock:: …` held `": "` inside a plain
//! scalar from PR 6 to PR 20 (not YAML: "mapping values are not allowed
//! here"), so every "blocking CI step" of that window ran by hand only.
//! [`audit_workflow`] reads the one construct that matters — the `run:`
//! keys — line by line, without a YAML parser or a runner:
//!
//! * a `run:` value is a block scalar (`|`, `>`), a quoted scalar closed
//!   on its line, or a plain scalar free of `": "`, `" #"`, a trailing
//!   `:` and a leading indicator character;
//! * every relative `*.sh`, `*.spec` and `*.toml` path a command names
//!   exists under the repository root (absolute paths such as
//!   `/tmp/hostile.spec` are the step's own scratch).

use std::path::{Path, PathBuf};

/// File suffixes of the scripts, specs and manifests a step may name.
const CHECKED_SUFFIXES: &[&str] = &[".sh", ".spec", ".toml"];

/// Characters that cannot start a plain scalar.
const INDICATORS: &[char] = &[
    '[', ']', '{', '}', ',', '#', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`',
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Diagnostic {
    /// 1-based line in the workflow file.
    line: usize,
    /// Human-readable message.
    message: String,
}

/// What one workflow file held.
#[derive(Debug, Clone, Default)]
struct WorkflowAudit {
    /// `run:` keys read (a guard against a reader that silently sees
    /// nothing).
    runs: usize,
    /// Repository paths checked for existence.
    paths: usize,
    /// Findings in line order.
    diagnostics: Vec<Diagnostic>,
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// If `line` holds a `run:` key, the column (0-based) the key starts at
/// and the text after the colon.
fn run_key(line: &str) -> Option<(usize, &str)> {
    let mut at = indent_of(line);
    let mut rest = &line[at..];
    if let Some(item) = rest.strip_prefix("- ") {
        at += 2 + indent_of(item);
        rest = item.trim_start();
    }
    let value = rest.strip_prefix("run:")?;
    (value.is_empty() || value.starts_with(' ')).then_some((at, value))
}

/// Why `text` (one line of a plain scalar, starting at 0-based column
/// `col`) is not one, with the 1-based column to blame.
fn plain_scalar_error(text: &str, col: usize) -> Option<(usize, &'static str)> {
    if let Some(at) = text.find(": ") {
        return Some((
            col + at + 1,
            "`: ` inside a plain scalar (\"mapping values are not allowed here\")",
        ));
    }
    if text.trim_end().ends_with(':') {
        return Some((
            col + text.trim_end().len(),
            "a plain scalar cannot end with `:`",
        ));
    }
    text.find(" #").map(|at| {
        (
            col + at + 2,
            "` #` starts a comment: the command is cut here",
        )
    })
}

/// Audits the `run:` keys of one workflow; `root` is the directory the
/// commands run in (the repository root).
fn audit_workflow(text: &str, root: &Path) -> WorkflowAudit {
    let lines: Vec<&str> = text.lines().collect();
    let mut audit = WorkflowAudit::default();
    let mut finding = |line: usize, message: String| {
        audit.diagnostics.push(Diagnostic {
            line: line + 1,
            message,
        });
    };
    // (0-based line, command text) pairs whose paths are checked below.
    let mut commands: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let Some((key_col, value)) = run_key(lines[i]) else {
            i += 1;
            continue;
        };
        audit.runs += 1;
        let key_line = i;
        // The lines that belong to this value: blank, or indented past
        // the key.
        let mut end = i + 1;
        while end < lines.len() && (lines[end].trim().is_empty() || indent_of(lines[end]) > key_col)
        {
            end += 1;
        }
        let body = (i + 1..end).filter(|&l| !lines[l].trim().is_empty());
        i = end;
        let value_col = key_col + "run:".len() + indent_of(value);
        let value = value.trim();
        match value.chars().next() {
            None => finding(key_line, "`run:` without a command".into()),
            Some('|' | '>') => {
                let header = value[1..].split(" #").next().unwrap_or("").trim();
                // Chomping and indentation indicators, one of each at most.
                let indicator = |c| matches!(c, '+' | '-' | '1'..='9');
                if header.len() > 2 || !header.chars().all(indicator) {
                    finding(key_line, format!("malformed block scalar header `{value}`"));
                }
                commands.extend(body.map(|l| (l, lines[l].to_owned())));
            }
            Some(quote @ ('"' | '\'')) => {
                let inner = &value[1..];
                let closed = match quote {
                    '"' => inner.ends_with('"') && !inner.ends_with("\\\""),
                    _ => inner.ends_with('\''),
                };
                if closed && inner.len() > 1 {
                    commands.push((key_line, inner[..inner.len() - 1].to_owned()));
                } else {
                    finding(
                        key_line,
                        format!(
                            "quoted `run:` scalar is not closed on its line (column {})",
                            value_col + 1
                        ),
                    );
                }
            }
            Some(first) => {
                if INDICATORS.contains(&first) {
                    finding(
                        key_line,
                        format!(
                            "column {}: `{first}` cannot start a plain scalar",
                            value_col + 1
                        ),
                    );
                }
                let pieces = std::iter::once((key_line, value, value_col))
                    .chain(body.map(|l| (l, lines[l].trim(), indent_of(lines[l]))));
                for (l, piece, col) in pieces {
                    if let Some((column, why)) = plain_scalar_error(piece, col) {
                        finding(l, format!("column {column}: {why}; quote the scalar"));
                    }
                    commands.push((l, piece.to_owned()));
                }
            }
        }
    }
    for (line, command) in commands {
        for token in command.split(|c: char| c.is_whitespace() || ";&|(){}<>".contains(c)) {
            let token = token.trim_matches(['"', '\'']);
            let token = token.strip_prefix("./").unwrap_or(token);
            if token.starts_with(['/', '-', '$', '~'])
                || !CHECKED_SUFFIXES.iter().any(|s| token.ends_with(s))
            {
                continue;
            }
            audit.paths += 1;
            if !root.join(token).exists() {
                finding(line, format!("`{token}` does not exist in the repository"));
            }
        }
    }
    audit.diagnostics.sort_by_key(|d| d.line);
    audit
}

/// The CI workflows under `root/.github/workflows`, sorted (none when
/// `root` holds no such directory).
fn workflow_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the workspace root")
}

/// This crate's own directory, the root of the audit's unit cases:
/// `Cargo.toml` exists here, `scripts/` and `experiments/` do not.
fn crate_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn findings(text: &str) -> Vec<(usize, String)> {
    audit_workflow(text, crate_root())
        .diagnostics
        .into_iter()
        .map(|d| (d.line, d.message))
        .collect()
}

#[test]
fn the_line_that_broke_ci_is_flagged_at_its_column() {
    let text = "steps:\n      - name: Miri\n        run: cargo +nightly miri test -p ftgcs-sim --lib -- time:: clock:: rng:: shard:: par::\n";
    let got = findings(text);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].0, 3);
    assert!(
        got[0]
            .1
            .starts_with("column 66: `: ` inside a plain scalar"),
        "{}",
        got[0].1
    );
    // Quoted, it is a scalar.
    let quoted = text
        .replace("run: cargo", "run: \"cargo")
        .replace("par::", "par::\"");
    assert!(findings(&quoted).is_empty());
}

#[test]
fn block_scalars_and_list_item_keys_are_read() {
    let text = "steps:\n  - run: |\n      echo a: b # fine in a block\n      cargo test --manifest-path Cargo.toml\n  - name: x\n    run: >\n      cargo build\n      && cargo test\n";
    let audit = audit_workflow(text, crate_root());
    assert_eq!(audit.runs, 2);
    assert_eq!(audit.paths, 1);
    assert!(audit.diagnostics.is_empty(), "{:?}", audit.diagnostics);
}

#[test]
fn plain_scalar_defects_are_findings() {
    for (value, needle) in [
        ("echo a #b", "starts a comment"),
        ("echo done:", "cannot end with `:`"),
        ("*glob", "cannot start a plain scalar"),
        ("\"unclosed", "not closed"),
        ("", "without a command"),
        (">x", "malformed block scalar header"),
    ] {
        let got = findings(&format!("    run: {value}\n"));
        assert!(
            got.iter().any(|(line, m)| *line == 1 && m.contains(needle)),
            "`{value}`: {got:?}"
        );
    }
    // A continuation line of a plain scalar is held to the same rule.
    let got = findings("    run: cargo test\n      -- time:: clock::\n    name: next\n");
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].0, 2);
}

#[test]
fn named_paths_must_exist_and_scratch_paths_are_not_checked() {
    let text = "    run: |\n      ./scripts/nope.sh && xp run experiments/gone.spec\n      xp run /tmp/hostile.spec --manifest-path Cargo.toml\n";
    let audit = audit_workflow(text, crate_root());
    assert_eq!(audit.paths, 3);
    let got: Vec<_> = audit
        .diagnostics
        .iter()
        .map(|d| (d.line, d.message.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (2, "`scripts/nope.sh` does not exist in the repository"),
            (
                2,
                "`experiments/gone.spec` does not exist in the repository"
            ),
        ]
    );
}

/// ROADMAP item 0: every workflow must load, and what it names must
/// exist. (The Rust half of this test, the scanner's audit of every
/// source file, is `cargo clippy --all-targets` since PR 25.)
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let workflows = workflow_files(root).expect("workflows readable");
    assert!(
        workflows.iter().any(|p| p.ends_with("ci.yml")),
        "{workflows:?}"
    );
    for path in &workflows {
        let text = std::fs::read_to_string(path).expect("workflow readable");
        let audit = audit_workflow(&text, root);
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
    let audit = audit_workflow(&text, root);
    assert!(audit.runs >= 11, "only {} `run:` keys read", audit.runs);
    assert!(audit.paths >= 8, "only {} paths checked", audit.paths);

    // The step that was (a Miri run, deleted with its job in PR 24),
    // unquoted again: line and column of the YAML error.
    let broken = format!(
        "{text}      - name: Miri\n        \
         run: cargo +nightly miri test -p ftgcs-sim --lib -- time:: clock:: rng:: shard:: par::\n"
    );
    let audit = audit_workflow(&broken, root);
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
/// `[workspace.lints]` sets `unsafe_code = "deny"`, and exactly two
/// sites say `allow(unsafe_code, …)` — the `GlobalAlloc` counting shims
/// of the `xp` binary and of the allocation tests (one file,
/// `crates/sim/tests/support/counting_alloc.rs`, which all three
/// include), each `System` call in its own `unsafe {}` under a
/// `// SAFETY:` that `clippy::undocumented_unsafe_blocks` requires.
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
    assert!(roots >= 7, "only {roots} library roots read");
}
