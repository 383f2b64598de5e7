//! The `ci-paths-exist` audit: what can be checked of a CI workflow
//! offline, without a YAML parser or a runner.
//!
//! A workflow that does not load runs no job, and one that names a
//! deleted script fails only where nobody develops. Both have happened
//! here: `run: cargo … -- time:: clock:: …` held `": "` inside a plain
//! scalar from PR 6 to PR 20 (not YAML: "mapping values are not allowed
//! here"), so every "blocking CI step" of that window ran by hand only.
//! This module reads the one construct that matters — the `run:` keys —
//! line by line:
//!
//! * a `run:` value is a block scalar (`|`, `>`), a quoted scalar closed
//!   on its line, or a plain scalar free of `": "`, `" #"`, a trailing
//!   `:` and a leading indicator character;
//! * every relative `*.sh`, `*.spec` and `*.toml` path a command names
//!   exists under the repository root (absolute paths such as
//!   `/tmp/hostile.spec` are the step's own scratch).

use std::path::Path;

/// File suffixes of the scripts, specs and manifests a step may name.
const CHECKED_SUFFIXES: &[&str] = &[".sh", ".spec", ".toml"];

/// Characters that cannot start a plain scalar.
const INDICATORS: &[char] = &[
    '[', ']', '{', '}', ',', '#', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`',
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based line in the workflow file.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

/// What one workflow file held.
#[derive(Debug, Clone, Default)]
pub struct WorkflowAudit {
    /// `run:` keys read (a guard against a reader that silently sees
    /// nothing).
    pub runs: usize,
    /// Repository paths checked for existence.
    pub paths: usize,
    /// Findings in line order.
    pub diagnostics: Vec<Diagnostic>,
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
#[must_use]
pub fn audit_workflow(text: &str, root: &Path) -> WorkflowAudit {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint crate's own directory: `src/main.rs`-style paths are
    /// not checked, `Cargo.toml` exists here.
    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }

    fn findings(text: &str) -> Vec<(usize, String)> {
        audit_workflow(text, root())
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
        let audit = audit_workflow(text, root());
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
        let audit = audit_workflow(text, root());
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
}
