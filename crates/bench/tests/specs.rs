//! Gate on the checked-in experiment files: every `experiments/*.spec`
//! must parse, name a known analysis (or be a streaming run), build a
//! runnable scenario, and round-trip through the canonical printer.
//! A streaming spec is also executed end-to-end at the spec level,
//! pinning the observer path byte-identical to the materialized trace,
//! and through the real `xp run`, pinning the samples CSV's bytes.

use std::path::{Path, PathBuf};

use ftgcs::runner::Scenario;
use ftgcs::spec::ScenarioSpec;
use ftgcs_bench::driver::{cell_key, CellKind};
use ftgcs_bench::exp;
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::skew::{global_skew_series, FaultMask};
use ftgcs_metrics::stream::SkewStream;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::trace::Trace;

fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn checked_in_specs() -> Vec<(PathBuf, SpecFile)> {
    let mut specs: Vec<(PathBuf, SpecFile)> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ must exist at the repo root")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable spec");
            let file = SpecFile::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, file)
        })
        .collect();
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

#[test]
fn every_checked_in_spec_parses_builds_and_round_trips() {
    let specs = checked_in_specs();
    // All fifteen analyses plus the streaming smoke + long-demo specs.
    assert!(
        specs.len() >= 17,
        "expected >= 17 checked-in specs, found {}",
        specs.len()
    );
    // `SpecFile::parse` has refused any unknown `analysis` name.
    for (path, file) in &specs {
        // Canonical print → parse is the identity.
        let printed = file.scenario.print();
        assert_eq!(
            ScenarioSpec::parse(&printed).expect("canonical print parses"),
            file.scenario,
            "{}: print/parse round trip",
            path.display()
        );
        // The scenario actually assembles, and its to_spec re-canonicalizes
        // into something that parses and rebuilds.
        let scenario = Scenario::from_spec(&file.scenario)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let back = scenario
            .to_spec()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        Scenario::from_spec(&back).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

/// Reformats a spec text without changing its meaning: indentation,
/// trailing whitespace, blank lines, and comments.
fn reformat(text: &str) -> String {
    let mut out = String::from("# reformatted copy — must hash identically\n\n");
    for line in text.lines() {
        out.push_str("   ");
        out.push_str(line);
        out.push_str("   # trailing comment\n\n");
    }
    out
}

#[test]
fn cache_keys_are_canonical_and_sensitive() {
    // Invariance: the cache key is a function of the spec's *meaning*.
    // Reformatting (whitespace, comments, blank lines) and canonical
    // re-printing must not move any checked-in spec's key.
    for (path, file) in checked_in_specs() {
        let key = cell_key(&file, CellKind::Run);
        let reprinted = SpecFile::parse(&file.print())
            .unwrap_or_else(|e| panic!("{}: canonical print must parse: {e}", path.display()));
        assert_eq!(
            cell_key(&reprinted, CellKind::Run),
            key,
            "{}: canonical reprint moved the cache key",
            path.display()
        );
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let mangled = SpecFile::parse(&reformat(&text))
            .unwrap_or_else(|e| panic!("{}: reformatted copy must parse: {e}", path.display()));
        assert_eq!(
            cell_key(&mangled, CellKind::Run),
            key,
            "{}: whitespace/comment reformatting moved the cache key",
            path.display()
        );
        // A sweep row and a full run of the same spec never share an
        // entry (they cache different artifacts).
        assert_ne!(
            cell_key(&file, CellKind::SweepRow),
            key,
            "{}",
            path.display()
        );
    }

    // The smoke spec uses only scalar (last-wins) keys, each once, so
    // even reordering its lines is meaning-preserving.
    let smoke = std::fs::read_to_string(experiments_dir().join("smoke.spec")).expect("smoke.spec");
    let reversed: String = smoke.lines().rev().fold(String::new(), |mut acc, l| {
        acc.push_str(l);
        acc.push('\n');
        acc
    });
    let base = SpecFile::parse(&smoke).expect("smoke parses");
    let reordered = SpecFile::parse(&reversed).expect("reversed smoke parses");
    assert_eq!(
        cell_key(&reordered, CellKind::Run),
        cell_key(&base, CellKind::Run),
        "scalar-key line order moved the cache key"
    );

    // Sensitivity: any semantic change must move the key.
    let key = cell_key(&base, CellKind::Run);
    let variants = [
        format!("{smoke}\nseed {}\n", base.scenario.seed + 1),
        format!("{smoke}\ncluster_size {}\n", base.scenario.cluster_size + 3),
        format!("{smoke}\nduration 9 rounds\n"),
        format!("{smoke}\ncsv_stride 7\n"),
        format!("{smoke}\nanalysis t2_reliability\n"),
    ];
    for variant in &variants {
        let changed = SpecFile::parse(variant).expect("variant parses");
        assert_ne!(
            cell_key(&changed, CellKind::Run),
            key,
            "semantic change did not move the cache key:\n{variant}"
        );
    }
}

/// The one-token-corruption property for the driver keys: in every
/// checked-in analysis spec, a one-character slip in the `analysis`
/// name, or a `csv_stride` that is not a positive `usize`, is refused
/// with the line to blame — by `xp run`, `sweep`, `list` and `/submit`
/// alike, which all parse through `SpecFile::parse`.
#[test]
fn corrupted_driver_keys_are_errors_at_their_line() {
    let expect_error_at = |text: &str, line: usize, what: &str| {
        let err = SpecFile::parse(text).expect_err(what);
        assert_eq!(err.line, line, "{what}: {err}");
        assert!(
            err.to_string().starts_with(&format!("spec line {line}: ")),
            "{what}: {err}"
        );
    };
    let mut analyses = 0;
    for (path, file) in checked_in_specs() {
        let Some(name) = &file.analysis else { continue };
        analyses += 1;
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.split_whitespace().next() == Some("analysis"))
            .expect("an analysis spec has an `analysis` line");
        // Each character dropped, each replaced, one appended (names are
        // ASCII and hold no `-`).
        let slips = (0..name.len()).flat_map(|i| {
            let (head, tail) = (&name[..i], &name[i + 1..]);
            [format!("{head}{tail}"), format!("{head}-{tail}")]
        });
        for slip in slips.chain([format!("{name}-")]) {
            assert!(exp::find(&slip).is_none(), "{slip} is registered");
            let line = format!("analysis {slip}");
            let mut corrupted = lines.clone();
            corrupted[at] = &line;
            let what = format!("{}: {line}", path.display());
            expect_error_at(&corrupted.join("\n"), at + 1, &what);
        }
        for stride in ["0", "-1", "1.5", "18446744073709551616"] {
            let text = format!("{}\ncsv_stride {stride}\n", lines.join("\n"));
            let what = format!("{}: csv_stride {stride}", path.display());
            expect_error_at(&text, lines.len() + 1, &what);
        }
    }
    assert!(analyses >= 17, "only {analyses} analysis specs read");
}

#[test]
fn every_registered_analysis_has_a_spec_checked_in() {
    // A spec is the only way to reach an analysis (`xp run`), so one
    // without a checked-in spec is unreachable code.
    let specs = checked_in_specs();
    for &(name, _) in exp::ANALYSES {
        assert!(
            specs
                .iter()
                .any(|(_, f)| f.analysis.as_deref() == Some(name)),
            "analysis {name} has no checked-in spec under experiments/"
        );
    }
}

#[test]
fn smoke_spec_streams_byte_identically_to_the_materialized_run() {
    let (path, file) = checked_in_specs()
        .into_iter()
        .find(|(_, f)| f.scenario.name == "smoke")
        .expect("smoke.spec must stay checked in (CI smoke-runs it)");
    assert!(
        file.analysis.is_none(),
        "{}: the smoke spec must be a streaming run",
        path.display()
    );
    let spec = &file.scenario;
    let params = spec.params().expect("feasible");
    let scenario = Scenario::from_spec(spec).expect("buildable");
    let horizon = spec.duration.resolve(&params);

    // Materialized reference.
    let reference = scenario.run_for(horizon);

    // Streaming twin: a collect-everything Trace plus the O(nodes)
    // skew accumulator, both fed by one run.
    let nodes = scenario.cluster_graph().physical().node_count();
    let mask = FaultMask::from_nodes(nodes, &reference.faulty);
    let mut collected = Trace::new();
    let mut skew = SkewStream::new(mask.clone());
    {
        let mut fan = ftgcs_sim::observe::Fanout::new(vec![&mut collected, &mut skew]);
        scenario.run_streaming(horizon, &mut fan);
    }
    assert_eq!(
        collected.to_bytes(),
        reference.trace.to_bytes(),
        "streamed bytes diverged from the materialized trace"
    );
    assert_eq!(
        skew.max(),
        global_skew_series(&reference.trace, &mask).max(),
        "streaming skew accumulator disagrees with the materialized series"
    );
    assert!(skew.count() > 0, "smoke horizon too short to sample");
    // on_finish is idempotent bookkeeping for these observers.
    skew.on_finish(&reference.stats);
}

/// The samples CSV is an output contract (checked-in `results/*.csv`,
/// the content-addressed cache, the benchmark digest): the bytes
/// `xp run experiments/smoke.spec` streams to disk are pinned to what
/// `std`'s float formatter produced before `ftgcs_sim::numfmt` took
/// over, so a drift in the hand-rolled number writer fails here and
/// not only in the benchmark.
#[test]
fn smoke_spec_samples_csv_bytes_are_pinned() {
    const LEN: usize = 2746;
    const FNV1A: u64 = 0xd048_4347_690b_536a;

    let dir = std::env::temp_dir().join(format!("ftgcs_specs_pin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_xp"))
        .current_dir(&dir)
        .arg("run")
        .arg(experiments_dir().join("smoke.spec"))
        .output()
        .expect("xp run");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let csv = std::fs::read(dir.join("results/smoke_samples.csv")).expect("samples CSV");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (csv.len(), ftgcs_serve::hash::fnv1a_64(&csv)),
        (LEN, FNV1A),
        "smoke_samples.csv drifted:\n{}",
        String::from_utf8_lossy(&csv)
    );
}

/// A mobile adversary that hops often enough makes every node faulty at
/// some point, and the skew summary covers never-faulty nodes only: the
/// summary says over how many, so an empty skew (no node left) and a
/// zero skew (one node left) read as what they are.
#[test]
fn the_skew_summary_says_how_many_nodes_it_covers() {
    let dir = std::env::temp_dir().join(format!("ftgcs_specs_nobody_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let summary = |seed: u64| {
        let path = dir.join(format!("hop{seed}.spec"));
        let text = format!(
            "name hop{seed}\ntopology line 3\nf 1\nseed {seed}\nduration 25 rounds\nmobile 1 silent hop 0.3\n"
        );
        std::fs::write(&path, text).expect("spec written");
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_xp"))
            .current_dir(&dir)
            .arg("run")
            .arg(&path)
            .output()
            .expect("xp run");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
        let value = |quantity: &str| {
            stdout
                .lines()
                .find_map(|l| l.trim_start().strip_prefix(quantity))
                .map(|rest| rest.trim().to_string())
                .unwrap_or_else(|| panic!("no `{quantity}` row:\n{stdout}"))
        };
        [
            value("never-faulty nodes"),
            value("samples (post-warmup)"),
            value("global skew max (s)"),
        ]
    };
    let (nobody, one) = (summary(1), summary(2));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(nobody, ["0", "0", "-"]);
    assert_eq!(one, ["1", "41", "0.000e0"]);
}
