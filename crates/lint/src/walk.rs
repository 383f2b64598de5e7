//! File discovery and path → [`FileCtx`] classification.
//!
//! The walker visits every `.rs` file under the check root in sorted
//! order (deterministic output, of course), skipping directories that
//! are not first-party workspace source:
//!
//! * `target` — build products;
//! * `vendor` — vendored third-party stand-ins (not simulation code);
//! * `fixtures` — the lint's own test corpus of deliberate violations;
//! * dot-directories (`.git`, `.github`).
//!
//! Classification is purely positional: the component after the last
//! `crates` component names the crate, and the path inside the crate
//! decides library-target-ness. The fixture corpus exploits this by
//! mirroring `crates/<name>/src/…` under `tests/fixtures/`, so fixture
//! files are classified exactly like the real tree when the walker is
//! pointed at them directly.

use std::path::{Component, Path, PathBuf};

use crate::rules::FileCtx;

/// Crates whose event/iteration order reaches the trace — std hash
/// collections are banned outright here (`no-hash-order`).
const ORDER_SENSITIVE: &[&str] = &["core", "sim", "baselines", "topology"];

/// Crates whose library target must stay silent (`no-print-in-lib`).
/// `bench` is the CLI/driver crate and prints by design; `lint` is this
/// tool, which reports on stderr/stdout by design.
const SILENT_LIBS: &[&str] = &["core", "sim", "metrics", "topology", "baselines"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Derives the rule context for one file from its path.
pub fn classify(path: &Path) -> FileCtx {
    let comps: Vec<&str> = path
        .components()
        .filter_map(|c| match c {
            Component::Normal(os) => os.to_str(),
            _ => None,
        })
        .collect();

    // The crate name is the component after the last `crates` marker,
    // so mirrored fixture paths classify like the real tree.
    let crate_at = comps.iter().rposition(|c| *c == "crates");
    let crate_name = crate_at.and_then(|at| comps.get(at + 1)).copied();
    let inside: &[&str] = crate_at.map_or(&[], |at| comps.get(at + 2..).unwrap_or(&[]));

    let in_lib_target = inside.first() == Some(&"src") && inside.get(1) != Some(&"bin");
    let order_sensitive = crate_name.is_some_and(|c| ORDER_SENSITIVE.contains(&c));
    let lib_source = in_lib_target && crate_name.is_some_and(|c| SILENT_LIBS.contains(&c));
    // Two sanctioned spawn sites in the workspace: the parallel shard
    // executor (the one place simulation work may fan out, behind the
    // lookahead barrier) and the whole of `crates/serve` —
    // infrastructure threads that manage OS processes and sockets,
    // never simulated events. The `benchmark/` package beside the
    // workspace is of the second kind (its load clients drive `xp
    // serve` over HTTP from two threads) and is measured as committed,
    // so it cannot carry a line pragma instead.
    let spawn_exempt = (crate_name == Some("sim") && inside == ["src", "par.rs"])
        || crate_name == Some("serve")
        || (crate_name.is_none() && comps.contains(&"benchmark"));

    FileCtx {
        crate_name: crate_name.map(str::to_owned),
        order_sensitive,
        lib_source,
        spawn_exempt,
    }
}

/// Collects every `.rs` file under `root` (which may itself be a file),
/// sorted, honoring the skip list for subdirectories.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The CI workflows under `root/.github/workflows`, sorted (none when
/// `root` is a file or holds no such directory — the source walk above
/// skips dot-directories, so this is the one door to them).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_real_tree_paths() {
        let par = classify(Path::new("crates/sim/src/par.rs"));
        assert!(par.spawn_exempt && par.lib_source && par.order_sensitive);
        assert_eq!(par.crate_name.as_deref(), Some("sim"));

        let engine = classify(Path::new("/root/repo/crates/sim/src/engine.rs"));
        assert!(!engine.spawn_exempt && engine.lib_source && engine.order_sensitive);

        let metrics = classify(Path::new("crates/metrics/src/table.rs"));
        assert!(metrics.lib_source && !metrics.order_sensitive);

        let bench = classify(Path::new("crates/bench/src/driver.rs"));
        assert!(!bench.lib_source && !bench.order_sensitive && !bench.spawn_exempt);

        // All of crates/serve may spawn (process-pool and service
        // threads), but it stays print-allowed and order-insensitive
        // like any other non-simulation crate.
        let serve = classify(Path::new("crates/serve/src/exec.rs"));
        assert!(serve.spawn_exempt && !serve.lib_source && !serve.order_sensitive);
        let serve_svc = classify(Path::new("/root/repo/crates/serve/src/service.rs"));
        assert!(serve_svc.spawn_exempt);

        let bin = classify(Path::new("crates/bench/src/bin/xp.rs"));
        assert!(!bin.lib_source);

        let example = classify(Path::new("crates/core/examples/quickstart.rs"));
        assert!(!example.lib_source && example.order_sensitive);

        let test = classify(Path::new("crates/sim/tests/hot_path_alloc.rs"));
        assert!(!test.lib_source && test.order_sensitive);
    }

    #[test]
    fn classify_mirrored_fixture_paths() {
        let fx = classify(Path::new(
            "crates/lint/tests/fixtures/bad/crates/sim/src/hash_order.rs",
        ));
        assert_eq!(fx.crate_name.as_deref(), Some("sim"));
        assert!(fx.order_sensitive && fx.lib_source);

        let fx_par = classify(Path::new(
            "crates/lint/tests/fixtures/good/crates/sim/src/par.rs",
        ));
        assert!(fx_par.spawn_exempt);
    }

    #[test]
    fn classify_outside_crates() {
        let loose = classify(Path::new("scripts/tool.rs"));
        assert_eq!(loose.crate_name, None);
        assert!(!loose.order_sensitive && !loose.lib_source && !loose.spawn_exempt);

        let harness = classify(Path::new("/root/repo/benchmark/src/shell.rs"));
        assert!(harness.spawn_exempt && !harness.order_sensitive && !harness.lib_source);
        let not_harness = classify(Path::new("crates/bench/src/benchmark/x.rs"));
        assert!(!not_harness.spawn_exempt);
    }
}
