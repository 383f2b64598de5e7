//! The rule engine: what the determinism discipline actually checks.
//!
//! Every rule exists to defend one property: **a simulation run is a
//! pure function of `(seed, configuration)`, byte-identical across the
//! global and parallel schedulers at any worker count.** The
//! rules ban the ambient sources of nondeterminism Rust makes easy to
//! reach for — wall clocks, OS-seeded randomness, hash-order iteration,
//! stray threads — and enforce the workspace's unsafety discipline
//! (SAFETY comments, justified `#[allow]`s) so what `unsafe` remains —
//! the allocation-counting shims of the `xp` binary and three test
//! roots; every library forbids it — stays auditable.
//!
//! ## Suppression pragmas
//!
//! A finding can be silenced per line, with a mandatory reason:
//!
//! ```text
//! // ftgcs-lint: allow(no-wall-clock) -- progress meter only, never in the trace
//! ```
//!
//! On a line with code, the pragma applies to that line; on a line of
//! its own, it applies to the next line carrying code (intervening
//! comments and attributes are skipped; a blank line cancels it). A
//! pragma without a `-- reason` tail suppresses nothing and is itself
//! reported (`bad-pragma`), as is a pragma naming an unknown rule.

use crate::scan::{scan, Line};

/// Identifier and rationale for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The name used in diagnostics and pragmas.
    pub name: &'static str,
    /// One-line rationale, tied to the byte-identical-trace guarantee.
    pub summary: &'static str,
}

/// The rule set, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant/SystemTime read the host clock; simulated time must come from SimTime so runs are reproducible",
    },
    RuleInfo {
        name: "no-os-rng",
        summary: "thread_rng/RandomState/from_entropy seed from the OS; all randomness must flow from the run's seed (SimRng)",
    },
    RuleInfo {
        name: "no-hash-order",
        summary: "std HashMap/HashSet iteration order is randomized per process; order-sensitive crates must use BTreeMap or sorted Vecs",
    },
    RuleInfo {
        name: "no-thread-spawn",
        summary: "only the parallel executor (sim/src/par.rs) and the serve infrastructure crate may spawn threads; ad-hoc threads bypass the lookahead-barrier protocol",
    },
    RuleInfo {
        name: "no-print-in-lib",
        summary: "library crates must route output through the Observer sink, not stdout/stderr",
    },
    RuleInfo {
        name: "unsafe-needs-safety",
        summary: "every unsafe block/fn/impl must carry a SAFETY: comment stating the proof obligation it discharges",
    },
    RuleInfo {
        name: "allow-needs-reason",
        summary: "every #[allow(...)] must carry a trailing // justification, so suppressions stay auditable",
    },
    RuleInfo {
        name: crate::ci::RULE,
        summary: "every `run:` of a CI workflow must be a well-formed YAML scalar and name only scripts, specs and manifests that exist; a workflow that does not load gates nothing",
    },
];

/// The pseudo-rule used for pragma machinery errors. Not suppressible.
pub const BAD_PRAGMA: &str = "bad-pragma";

/// Looks up a rule by name.
pub fn rule_named(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Where a file sits in the workspace — decides which scoped rules
/// apply. Derived from the path by [`crate::walk::classify`]; tests
/// construct it directly to pin rule behavior per context.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// `crates/<name>/…` → `Some(name)`.
    pub crate_name: Option<String>,
    /// `no-hash-order` applies (crates `core`, `sim`, `baselines`,
    /// `topology` — the ones whose iteration order reaches the trace).
    pub order_sensitive: bool,
    /// `no-print-in-lib` applies: library-target source (`src/`, not
    /// `src/bin/`) of a library crate. The `bench` CLI crate and the
    /// example/test/bench targets of every crate print legitimately.
    pub lib_source: bool,
    /// `no-thread-spawn` is waived: exactly `crates/sim/src/par.rs`
    /// (simulation fan-out behind the lookahead barrier), all of
    /// `crates/serve` (infrastructure threads over OS processes and
    /// sockets, which never touch simulated state) and the `benchmark/`
    /// package's load clients, which are of the same kind.
    pub spawn_exempt: bool,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based source line.
    pub line: usize,
    /// Rule name (or [`BAD_PRAGMA`]).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// A parsed suppression pragma (the `allow(...) -- reason` form).
struct Pragma {
    /// Known rules it suppresses (empty if malformed or reason-less).
    rules: Vec<&'static str>,
    /// Machinery errors to report at the pragma's line.
    errors: Vec<String>,
}

/// Parses the pragma out of a line's comment text, if any.
fn parse_pragma(comment: &str) -> Option<Pragma> {
    let marker = "ftgcs-lint:";
    let at = comment.find(marker)?;
    let rest = comment[at + marker.len()..].trim_start();
    let mut pragma = Pragma {
        rules: Vec::new(),
        errors: Vec::new(),
    };
    let Some(args) = rest.strip_prefix("allow").map(str::trim_start) else {
        pragma
            .errors
            .push("malformed pragma: expected `ftgcs-lint: allow(<rule>) -- <reason>`".into());
        return Some(pragma);
    };
    let Some(open) = args.strip_prefix('(') else {
        pragma
            .errors
            .push("malformed pragma: expected `(` after `allow`".into());
        return Some(pragma);
    };
    let Some(close) = open.find(')') else {
        pragma
            .errors
            .push("malformed pragma: unclosed rule list".into());
        return Some(pragma);
    };
    let (list, tail) = open.split_at(close);
    let tail = &tail[1..]; // drop `)`

    let mut named = Vec::new();
    for raw in list.split(',') {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        match rule_named(name) {
            Some(info) => named.push(info.name),
            None => pragma
                .errors
                .push(format!("pragma names unknown rule `{name}`")),
        }
    }
    if named.is_empty() && pragma.errors.is_empty() {
        pragma.errors.push("pragma suppresses no rules".into());
    }

    // The reason is mandatory: `-- <non-empty text>`. A reason-less
    // pragma reports and suppresses nothing — silent suppressions are
    // exactly what this tool exists to prevent.
    let reason_ok = tail
        .trim_start()
        .strip_prefix("--")
        .is_some_and(|r| !r.trim().is_empty());
    if reason_ok {
        pragma.rules = named;
    } else {
        pragma
            .errors
            .push("suppression needs a reason: `-- <why this line is exempt>`".into());
    }
    Some(pragma)
}

/// A word-boundary substring hit: `needle` occurs in `hay` with no
/// identifier character on either side.
fn word_hit(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = hay[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = hay[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// A macro invocation hit: word-boundary `name` immediately followed
/// by `!` (allowing whitespace before the bang is unnecessary — rustfmt
/// never inserts any).
fn macro_hit(hay: &str, name: &str) -> bool {
    let bang = format!("{name}!");
    word_hit(hay, &bang[..bang.len() - 1]) && hay.contains(&bang)
}

/// Patterns for the three "ambient nondeterminism" rules.
const WALL_CLOCK: &[&str] = &["Instant", "SystemTime"];
const OS_RNG: &[&str] = &[
    "thread_rng",
    "RandomState",
    "from_entropy",
    "OsRng",
    "getrandom",
];
const HASH_ORDER: &[&str] = &["HashMap", "HashSet"];
/// Every way std starts a thread: detached, through a builder (whose
/// `spawn_scoped` included), and scoped (`scope(|s| s.spawn(..))` never
/// spells the first).
const THREAD_SPAWN: &[&str] = &["thread::spawn", "thread::Builder", "thread::scope"];
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Runs every applicable rule over one file's source.
pub fn check_source(source: &str, ctx: &FileCtx) -> Vec<Diagnostic> {
    let lines = scan(source);
    let mut diags = Vec::new();

    // Pass 1: pragmas. `suppressed[i]` is the set of rule names waived
    // on line i; `pending` carries an own-line pragma forward to the
    // next code-bearing line.
    let mut suppressed: Vec<Vec<&'static str>> = vec![Vec::new(); lines.len()];
    let mut pending: Vec<&'static str> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(pragma) = parse_pragma(&line.comment) {
            for err in &pragma.errors {
                diags.push(Diagnostic {
                    line: i + 1,
                    rule: BAD_PRAGMA,
                    message: err.clone(),
                });
            }
            if line.is_code_free() {
                pending.extend(pragma.rules.iter().copied());
                continue; // comment-only pragma line: nothing to match on
            }
            suppressed[i].extend(pragma.rules.iter().copied());
        }
        if line.is_blank() {
            pending.clear(); // a blank line detaches an own-line pragma
        } else if !line.is_code_free() && !pending.is_empty() {
            // The pragma lands on the next code line; attributes both
            // receive it (so `allow-needs-reason` can be waived) and
            // pass it through to the item they decorate.
            suppressed[i].extend(pending.iter().copied());
            if !line.is_attribute_only() {
                pending.clear();
            }
        }
    }

    // Pass 2: the rules themselves.
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let mut hits: Vec<(&'static str, String)> = Vec::new();

        for pat in WALL_CLOCK {
            if word_hit(code, pat) {
                hits.push((
                    "no-wall-clock",
                    format!("`{pat}` reads the host clock; use SimTime/SimDuration"),
                ));
                break;
            }
        }
        for pat in OS_RNG {
            if word_hit(code, pat) {
                hits.push((
                    "no-os-rng",
                    format!("`{pat}` draws OS entropy; all randomness must derive from the run seed (SimRng)"),
                ));
                break;
            }
        }
        if ctx.order_sensitive {
            for pat in HASH_ORDER {
                if word_hit(code, pat) {
                    hits.push((
                        "no-hash-order",
                        format!(
                            "std `{pat}` has randomized iteration order; use BTreeMap/BTreeSet or a sorted Vec in order-sensitive crates"
                        ),
                    ));
                    break;
                }
            }
        }
        if !ctx.spawn_exempt && THREAD_SPAWN.iter().any(|pat| code.contains(pat)) {
            hits.push((
                "no-thread-spawn",
                "threads may only be spawned by the parallel executor (crates/sim/src/par.rs) or the serve infrastructure crate (crates/serve)"
                    .into(),
            ));
        }
        if ctx.lib_source {
            for pat in PRINT_MACROS {
                if macro_hit(code, pat) {
                    hits.push((
                        "no-print-in-lib",
                        format!("`{pat}!` writes to the process streams; library code must emit through the Observer sink"),
                    ));
                    break;
                }
            }
        }
        if word_hit(code, "unsafe") && !safety_covered(&lines, i) {
            hits.push((
                "unsafe-needs-safety",
                "unsafe site without a `// SAFETY:` comment stating the discharged proof obligation"
                    .into(),
            ));
        }
        if (code.contains("#[allow(") || code.contains("#![allow("))
            && line.comment.trim().is_empty()
        {
            hits.push((
                "allow-needs-reason",
                "#[allow(...)] without a trailing `// <why>` justification".into(),
            ));
        }

        for (rule, message) in hits {
            if !suppressed[i].contains(&rule) {
                diags.push(Diagnostic {
                    line: i + 1,
                    rule,
                    message,
                });
            }
        }
    }
    diags.sort_by_key(|d| d.line);
    diags
}

/// True if the `unsafe` on line `i` is covered by a SAFETY comment: on
/// the same line, or in the contiguous block of comment-only /
/// attribute lines immediately above it. Doc-comment `# Safety`
/// sections count for `unsafe fn` declarations.
fn safety_covered(lines: &[Line], i: usize) -> bool {
    let marks = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if marks(&lines[i].comment) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let above = &lines[j];
        if above.is_code_free() && !above.is_blank() {
            // Comment-only line: readable, keep walking.
        } else if above.is_attribute_only() {
            // Attributes sit between a comment and its item; transparent.
        } else {
            return false;
        }
        if marks(&above.comment) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileCtx {
        FileCtx {
            crate_name: Some("sim".into()),
            order_sensitive: true,
            lib_source: true,
            spawn_exempt: false,
        }
    }

    fn names(diags: &[Diagnostic]) -> Vec<(usize, &'static str)> {
        diags.iter().map(|d| (d.line, d.rule)).collect()
    }

    #[test]
    fn wall_clock_flagged_in_code_not_comments_or_strings() {
        let src = "// Instant::now is banned\nlet s = \"Instant\";\nlet t = Instant::now();\n";
        let d = check_source(src, &lib_ctx());
        assert_eq!(names(&d), vec![(3, "no-wall-clock")]);
    }

    #[test]
    fn hash_order_only_in_order_sensitive_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_source(src, &lib_ctx()).len(), 1);
        let bench = FileCtx {
            crate_name: Some("bench".into()),
            ..FileCtx::default()
        };
        assert!(check_source(src, &bench).is_empty());
    }

    #[test]
    fn sim_hash_map_wrapper_names_do_not_trip_word_boundary() {
        let src = "struct NodeHashMapx;\nlet m = FxHashMap::default();\n";
        assert!(check_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn thread_spawn_waived_only_in_par() {
        let par = FileCtx {
            spawn_exempt: true,
            ..lib_ctx()
        };
        for src in [
            "std::thread::spawn(|| {});\n",
            "std::thread::scope(|s| { s.spawn(|| {}); });\n",
            "let b = std::thread::Builder::new();\n",
        ] {
            assert_eq!(check_source(src, &lib_ctx()).len(), 1, "{src}");
            assert!(check_source(src, &par).is_empty(), "{src}");
        }
    }

    #[test]
    fn print_only_flagged_in_lib_source() {
        let src = "println!(\"hi\");\n";
        assert_eq!(check_source(src, &lib_ctx()).len(), 1);
        let example = FileCtx {
            lib_source: false,
            ..lib_ctx()
        };
        assert!(check_source(src, &example).is_empty());
    }

    #[test]
    fn unsafe_covered_by_same_line_or_block_above() {
        let ok = "// SAFETY: ptr is valid for the window\nunsafe { *p }\n";
        assert!(check_source(ok, &lib_ctx()).is_empty());
        let ok_attr = "// SAFETY: disjoint\n#[allow(clippy::mut_from_ref)] // lint artifact\nunsafe fn f() {}\n";
        assert!(check_source(ok_attr, &lib_ctx()).is_empty());
        let ok_doc =
            "/// Reads a cell.\n///\n/// # Safety\n/// Caller owns idx.\nunsafe fn g() {}\n";
        assert!(check_source(ok_doc, &lib_ctx()).is_empty());
        let bad = "let x = 1;\nunsafe { *p }\n";
        assert_eq!(
            names(&check_source(bad, &lib_ctx())),
            vec![(2, "unsafe-needs-safety")]
        );
        // A second unsafe line is NOT covered by the first line's comment.
        let two = "// SAFETY: a\nunsafe impl Send for X {}\nunsafe impl Sync for X {}\n";
        assert_eq!(
            names(&check_source(two, &lib_ctx())),
            vec![(3, "unsafe-needs-safety")]
        );
    }

    #[test]
    fn allow_needs_trailing_reason() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(
            names(&check_source(bad, &lib_ctx())),
            vec![(1, "allow-needs-reason")]
        );
        let ok = "#[allow(dead_code)] // proof artifact, never called\nfn f() {}\n";
        assert!(check_source(ok, &lib_ctx()).is_empty());
    }

    #[test]
    fn same_line_pragma_suppresses_with_reason() {
        let src =
            "let t = Instant::now(); // ftgcs-lint: allow(no-wall-clock) -- host-side profiling\n";
        assert!(check_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn own_line_pragma_covers_next_code_line() {
        let src = "// ftgcs-lint: allow(no-os-rng) -- seeding doc example\n// more prose\nlet r = thread_rng();\n";
        assert!(check_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn blank_line_detaches_own_line_pragma() {
        let src = "// ftgcs-lint: allow(no-os-rng) -- stale\n\nlet r = thread_rng();\n";
        assert_eq!(
            names(&check_source(src, &lib_ctx())),
            vec![(3, "no-os-rng")]
        );
    }

    #[test]
    fn reasonless_pragma_reports_and_suppresses_nothing() {
        let src = "let t = Instant::now(); // ftgcs-lint: allow(no-wall-clock)\n";
        let d = check_source(src, &lib_ctx());
        assert_eq!(names(&d), vec![(1, BAD_PRAGMA), (1, "no-wall-clock")]);
    }

    #[test]
    fn unknown_rule_in_pragma_reports() {
        let src = "// ftgcs-lint: allow(no-such-rule) -- because\nlet x = 1;\n";
        let d = check_source(src, &lib_ctx());
        assert_eq!(names(&d), vec![(1, BAD_PRAGMA)]);
    }

    #[test]
    fn pragma_does_not_suppress_other_rules() {
        let src =
            "let t = Instant::now(); // ftgcs-lint: allow(no-os-rng) -- wrong rule named here\n";
        let d = check_source(src, &lib_ctx());
        assert_eq!(names(&d), vec![(1, "no-wall-clock")]);
    }
}
