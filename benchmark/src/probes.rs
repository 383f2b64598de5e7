//! Per-layer probes: timed calls into single public functions of a
//! layer, on inputs taken from the workload being traced. They run in
//! traced runs only and never touch an end-to-end number.

use std::hint::black_box;
use std::path::Path;

use ftgcs::agreement::trimmed_midpoint;
use ftgcs::runner::Scenario;
use ftgcs::triggers::evaluate;
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::stream::{CsvSampleWriter, RowCounter, SkewStream};
use ftgcs_serve::{CellKey, CellRunner, ResultStore};
use ftgcs_sim::observe::Observer;
use ftgcs_sim::rng::SimRng;
use ftgcs_topology::{analysis, generators, ClusterGraph};

use crate::gen::Scale;
use crate::report::Report;
use crate::sim::{FnvSink, SimWorkload};
use crate::stats::median;
use crate::trace::now;

/// Seconds per call of `f`: the median of five batches, each sized to
/// last about ten milliseconds.
pub fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let start = now();
    f();
    let once = (now() - start).max(1e-9);
    let iters = ((0.01 / once) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = now();
            for _ in 0..iters {
                f();
            }
            (now() - start) / iters as f64
        })
        .collect();
    median(&batches)
}

/// `topology`: augmenting the workload's base graph into `G(k)` and
/// computing its diameter.
pub fn topology(workload: SimWorkload, report: &mut Report) {
    let (base, k, f) = match workload.spec_text(0, Scale::Full) {
        Some(text) => {
            let spec = SpecFile::parse(&text)
                .expect("generated spec parses")
                .scenario;
            (spec.topology.build(), spec.cluster_size, spec.f)
        }
        None => (generators::line(64), 4, 1),
    };
    let cg = ClusterGraph::new(base.clone(), k, f);
    report.set("topology.nodes", cg.physical().node_count() as f64);
    report.set("topology.edges", cg.physical().edge_count() as f64);
    report.set(
        "topology.augment_us",
        1e6 * secs_per_call(|| {
            black_box(ClusterGraph::new(black_box(base.clone()), k, f));
        }),
    );
    report.set(
        "topology.diameter_us",
        1e6 * secs_per_call(|| {
            black_box(analysis::diameter(black_box(&base)));
        }),
    );
}

/// `bench::spec` / `core::spec` and `core::runner` on spec `text`.
pub fn spec_text_layers(text: &str, report: &mut Report) -> Result<(), String> {
    let file = SpecFile::parse(text).map_err(|e| e.to_string())?;
    report.set("spec.bytes", text.len() as f64);
    report.set(
        "spec.parse_us",
        1e6 * secs_per_call(|| {
            black_box(SpecFile::parse(black_box(text)).is_ok());
        }),
    );
    report.set(
        "spec.print_us",
        1e6 * secs_per_call(|| {
            black_box(black_box(&file).print());
        }),
    );
    let scenario = Scenario::from_spec(&file.scenario).map_err(|e| e.to_string())?;
    report.set(
        "runner.from_spec_us",
        1e6 * secs_per_call(|| {
            black_box(Scenario::from_spec(black_box(&file.scenario)).is_ok());
        }),
    );
    report.set(
        "runner.build_us",
        1e6 * secs_per_call(|| {
            black_box(black_box(&scenario).build());
        }),
    );
    Ok(())
}

/// `core::agreement` and `core::triggers`, on the input shapes of the
/// criterion benches `agreement` and `triggers`.
pub fn agreement_and_triggers(report: &mut Report) {
    for (name, f) in [
        ("agreement.trimmed_midpoint_ns.k4", 1usize),
        ("agreement.trimmed_midpoint_ns.k13", 4),
        ("agreement.trimmed_midpoint_ns.k25", 8),
    ] {
        let mut rng = SimRng::seed_from(1);
        let obs: Vec<f64> = (0..3 * f + 1).map(|_| rng.uniform(-1e-3, 1e-3)).collect();
        report.set(
            name,
            1e9 * secs_per_call(|| {
                black_box(trimmed_midpoint(black_box(&obs), black_box(f)).is_ok());
            }),
        );
    }
    for (name, neighbors) in [
        ("triggers.evaluate_ns.n2", 2usize),
        ("triggers.evaluate_ns.n8", 8),
    ] {
        let mut rng = SimRng::seed_from(2);
        let estimates: Vec<f64> = (0..neighbors).map(|_| rng.uniform(-0.05, 0.05)).collect();
        report.set(
            name,
            1e9 * secs_per_call(|| {
                black_box(evaluate(black_box(0.0), black_box(&estimates), 9e-3, 3e-3));
            }),
        );
    }
}

/// `metrics` / `sim::observe`: a collected `Trace` of a tenth of spec
/// `text`'s horizon, replayed sample by sample and row by row into each
/// streaming observer.
pub fn observers(text: &str, report: &mut Report) -> Result<(), String> {
    let file = SpecFile::parse(text).map_err(|e| e.to_string())?;
    let params = file.scenario.params().map_err(|e| e.to_string())?;
    let scenario = Scenario::from_spec(&file.scenario).map_err(|e| e.to_string())?;
    let run = scenario.run_for(0.1 * file.scenario.duration.resolve(&params));
    let (samples, rows) = (&run.trace.samples, &run.trace.rows);
    if samples.is_empty() || rows.is_empty() {
        return Err("observer probe collected an empty trace".into());
    }
    let nodes = samples[0].logical.len();

    let per_sample = |secs: f64| 1e9 * secs / samples.len() as f64;
    report.set(
        "metrics.skewstream_ns_per_sample",
        per_sample(secs_per_call(|| {
            let mut skew = SkewStream::new(FaultMask::from_nodes(nodes, &run.faulty));
            for s in samples {
                skew.on_sample(s);
            }
            black_box(skew.max());
        })),
    );
    report.set(
        "metrics.csv_ns_per_sample",
        per_sample(secs_per_call(|| {
            let mut sink = FnvSink::new();
            let mut csv = CsvSampleWriter::new(&mut sink, 1);
            for s in samples {
                csv.on_sample(s);
            }
            black_box(csv.finish().is_ok());
        })),
    );
    report.set(
        "metrics.rowcounter_ns_per_row",
        1e9 * secs_per_call(|| {
            let mut counter = RowCounter::new();
            for r in rows {
                counter.on_row(r);
            }
            black_box(counter.count("round"));
        }) / rows.len() as f64,
    );
    Ok(())
}

/// `serve::hash`, `serve::cache` and `serve::exec`, in a scratch store
/// under `dir`, spawning the real `xp` for the cell probe.
pub fn serve_layers(
    xp: &Path,
    dir: &Path,
    spec_text: &str,
    report: &mut Report,
) -> Result<(), String> {
    let file = SpecFile::parse(spec_text).map_err(|e| e.to_string())?;
    let canonical = file.print();
    report.set(
        "hash.key_us",
        1e6 * secs_per_call(|| {
            black_box(CellKey::from_parts(&[
                "ftgcs-cell-v1",
                "row",
                black_box(&canonical),
            ]));
        }),
    );

    let store = ResultStore::new(dir.join("probe_cache"));
    let mut serial = 0u64;
    let mut fresh_key = || {
        serial += 1;
        CellKey::from_parts(&["benchmark-probe", &serial.to_string()])
    };
    let publish = |key: &CellKey| -> std::io::Result<()> {
        let staging = store.begin(key)?;
        std::fs::write(staging.dir().join("row.tsv"), b"0.5\t1\tn\te\tm\ta\tb\tc\n")?;
        staging.publish().map(|_| ())
    };
    let mut publish_error = None;
    report.set(
        "cache.publish_us",
        1e6 * secs_per_call(|| {
            if let Err(e) = publish(&fresh_key()) {
                publish_error = Some(e);
            }
        }),
    );
    if let Some(e) = publish_error {
        return Err(format!("cache probe: {e}"));
    }
    let present = fresh_key();
    publish(&present).map_err(|e| format!("cache probe: {e}"))?;
    let absent = fresh_key();
    report.set(
        "cache.hit_us",
        1e6 * secs_per_call(|| {
            black_box(store.is_done(&present) && store.read(&present, "row.tsv").is_ok());
        }),
    );
    report.set(
        "cache.miss_us",
        1e6 * secs_per_call(|| {
            black_box(store.is_done(black_box(&absent)));
        }),
    );

    // One `xp run-cell --row` child on a one-round cell: process start,
    // pipes and exit, with next to no simulation inside.
    let mut one_round = file.clone();
    one_round.scenario.duration = ftgcs::spec::DurationSpec::Rounds(1.0);
    let cell_text = one_round.print();
    let runner = CellRunner {
        binary: xp.to_path_buf(),
        retries: 0,
    };
    let mut spawns = Vec::new();
    let mut retries = 0u32;
    for _ in 0..10 {
        let start = now();
        let outcome = runner.run_cell(&["--row"], &cell_text, None)?;
        spawns.push(now() - start);
        retries += outcome.attempts - 1;
    }
    report.set("exec.spawn_ms", 1e3 * median(&spawns));
    report.set("exec.retries", f64::from(retries));
    Ok(())
}
