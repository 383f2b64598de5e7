//! The `xp` experiment driver: one code path for every experiment.
//!
//! An experiment is a text file under `experiments/` (see
//! [`crate::spec::SpecFile`]). Two entry points share this module:
//!
//! * `xp run <file>` — [`run_file_with`];
//! * `xp sweep <file> key=v1,v2 …` — [`sweep_file_with`] (add
//!   `--parallel` and the cells run as `xp run-cell` child processes
//!   through [`ftgcs_serve`]'s bounded job pool, with a
//!   content-addressed result cache — stdout stays byte-identical to
//!   the in-process sweep).
//!
//! [`run_cell_cmd`] is the child half of the multi-process executor and
//! [`serve_cmd`] is the `xp serve` results service; both reuse the same
//! spec → run machinery, so a cell computed by a child process, by the
//! service, or in-process is byte-identical (the determinism contract:
//! a run is a pure function of its canonical spec text).
//!
//! A spec that names an `analysis` dispatches into [`crate::exp`]; a
//! spec without one is a **streaming run**: the scenario is executed
//! through bounded-memory observers ([`CsvSampleWriter`],
//! [`SkewStream`], [`RowCounter`] fanned out via
//! [`Fanout`](ftgcs_sim::observe::Fanout)) — O(nodes) memory no matter
//! how long the horizon, no full-`Trace` materialization.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ftgcs::runner::Scenario;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::stream::{CsvSampleWriter, RowCounter, SkewStream};
use ftgcs_metrics::table::Table;
use ftgcs_serve::{run_indexed, CellKey, CellRequest, CellRunner, ResultStore, ServeConfig};
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::trace::{ClockSample, Row};
use ftgcs_sim::{SimTime, Stopwatch};

use crate::spec::SpecFile;
use crate::{emit_table, exp, results_dir};

/// Flags for one `xp run` invocation. Both are pure side channels: the
/// trace, the CSVs, and everything written to **stdout** are
/// byte-identical whether they are set or not.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// `--telemetry <out.json>`: time the engine's wall-clock phases
    /// and write the machine-readable [`ftgcs_sim::TelemetryReport`]
    /// JSON here after the run.
    pub telemetry: Option<PathBuf>,
    /// `--progress`: emit a once-a-second heartbeat to **stderr**
    /// (simulated time reached, samples/rows streamed, wall seconds).
    pub progress: bool,
}

/// Loads and runs one experiment file.
///
/// # Errors
///
/// Returns a human-readable message if the file cannot be read, parsed,
/// or executed.
pub fn run_file_with(path: &Path, opts: &RunOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    run_text_with(&path.display().to_string(), &text, opts)
}

/// Runs one experiment from its text form. `label` names the source in
/// diagnostics (the path for `xp run`, `run-cell` for a child).
///
/// # Errors
///
/// Returns a human-readable message on parse or execution failure, and
/// if telemetry/progress flags are passed for an `analysis` spec (those
/// run many scenarios internally; the flags drive the streaming
/// runner).
pub fn run_text_with(label: &str, text: &str, opts: &RunOptions) -> Result<(), String> {
    let file = SpecFile::parse(text).map_err(|e| format!("{label}: {e}"))?;
    match &file.analysis {
        Some(name) => {
            if opts.telemetry.is_some() || opts.progress {
                return Err(format!(
                    "{label}: --telemetry/--progress drive the streaming runner; this spec \
                     names an `analysis` (it runs its own grid of scenarios internally)"
                ));
            }
            let analysis = exp::find(name).expect("SpecFile::parse checked the name");
            analysis(&file);
            Ok(())
        }
        None => streaming_run(label, &file, opts),
    }
}

/// The `--progress` heartbeat: wall-clock cadence, streamed to
/// **stderr** only, so stdout and every results file stay
/// byte-identical with or without the flag.
struct Progress {
    sw: Stopwatch,
    next_at: f64,
    horizon: f64,
    samples: u64,
    rows: u64,
}

/// Rows between two reads of the wall clock by the heartbeat: often
/// enough that a run without samples still beats, rarely enough that
/// the clock is not read per row.
const ROWS_PER_CLOCK_READ: u64 = 256;

impl Progress {
    fn new(horizon: f64) -> Self {
        Progress {
            sw: Stopwatch::start(),
            next_at: 1.0,
            horizon,
            samples: 0,
            rows: 0,
        }
    }

    /// Prints the heartbeat, at simulated time `t`, if it is due.
    fn beat(&mut self, t: SimTime) {
        let elapsed = self.sw.elapsed_secs();
        if elapsed >= self.next_at {
            eprintln!(
                "[xp] t={:.3}/{:.3} s sim | {} samples, {} rows | {elapsed:.1} s wall",
                t.as_secs(),
                self.horizon,
                self.samples,
                self.rows,
            );
            self.next_at = elapsed + 1.0;
        }
    }
}

impl Observer for Progress {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.samples += 1;
        self.beat(sample.t);
    }

    fn on_row(&mut self, row: &Row) {
        self.rows += 1;
        if self.rows.is_multiple_of(ROWS_PER_CLOCK_READ) {
            self.beat(row.t);
        }
    }

    fn on_finish(&mut self, stats: &ftgcs_sim::engine::SimStats) {
        let elapsed = self.sw.elapsed_secs();
        let rate = if elapsed > 0.0 {
            stats.events as f64 / elapsed
        } else {
            0.0
        };
        eprintln!(
            "[xp] done: {} events in {elapsed:.2} s wall ({rate:.0} events/s)",
            stats.events
        );
    }
}

/// The default experiment: a single streaming run of the spec's
/// scenario. Samples go (decimated by `csv_stride`) to
/// `results/<name>_samples.csv`; the skew summary and row counts go to
/// stdout and `results/<name>_summary.csv`. Memory stays O(nodes).
fn streaming_run(label: &str, file: &SpecFile, opts: &RunOptions) -> Result<(), String> {
    let spec = &file.scenario;
    let mut scenario = Scenario::from_spec(spec).map_err(|e| format!("{label}: {e}"))?;
    if opts.telemetry.is_some() {
        scenario.telemetry(true);
    }
    let horizon = spec.duration.resolve(scenario.params());
    let nodes = scenario.cluster_graph().physical().node_count();
    let mask = FaultMask::from_nodes(nodes, &scenario.faulty_nodes());
    let never_faulty = mask.correct_count();
    let warm = crate::warmup(scenario.params());

    println!(
        "xp run {}: {} nodes, horizon {horizon:.3} s, stride {} (streaming, O(nodes) memory)",
        spec.name, nodes, file.csv_stride
    );

    let samples_path = results_dir().join(format!("{}_samples.csv", spec.name));
    let mut csv = CsvSampleWriter::create(&samples_path, file.csv_stride)
        .map_err(|e| format!("{}: {e}", samples_path.display()))?;
    let mut skew = SkewStream::new(mask).with_warmup(warm);
    let mut rows = RowCounter::new();
    let mut progress = opts.progress.then(|| Progress::new(horizon));
    let (stats, telemetry) = {
        let mut sinks: Vec<&mut dyn Observer> = vec![&mut csv, &mut skew, &mut rows];
        if let Some(p) = progress.as_mut() {
            sinks.push(p);
        }
        let mut fan = Fanout::new(sinks);
        scenario.run_streaming(horizon, &mut fan)
    };
    csv.finish()
        .map_err(|e| format!("{}: {e}", samples_path.display()))?;
    if let Some(report_path) = &opts.telemetry {
        let mut json = telemetry.to_json();
        json.push('\n');
        std::fs::write(report_path, json).map_err(|e| format!("{}: {e}", report_path.display()))?;
        // Stderr, like the heartbeat: stdout stays byte-identical with
        // and without the flag.
        eprintln!("[telemetry report written to {}]", report_path.display());
    }

    let mut summary = Table::new(&["quantity", "value"]);
    summary.row(&["nodes".into(), nodes.to_string()]);
    // The skew rows below are over these nodes only: zero of them (every
    // node faulty at some point) leaves no sample, and one leaves a
    // skew of zero that measures nothing.
    summary.row(&["never-faulty nodes".into(), never_faulty.to_string()]);
    summary.row(&["horizon (s)".into(), format!("{horizon}")]);
    summary.row(&["warmup (s)".into(), format!("{warm}")]);
    summary.row(&["events".into(), stats.events.to_string()]);
    summary.row(&["messages".into(), stats.messages.to_string()]);
    summary.row(&["samples (post-warmup)".into(), skew.count().to_string()]);
    summary.row(&["samples written".into(), csv.written().to_string()]);
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.3e}"));
    summary.row(&["global skew max (s)".into(), fmt_opt(skew.max())]);
    summary.row(&["global skew max at (s)".into(), fmt_opt(skew.max_at())]);
    summary.row(&["global skew mean (s)".into(), fmt_opt(skew.mean())]);
    summary.row(&["global skew p50 (s)".into(), fmt_opt(skew.quantile(0.5))]);
    summary.row(&["global skew p99 (s)".into(), fmt_opt(skew.quantile(0.99))]);
    for (kind, count) in rows.iter() {
        summary.row(&[format!("rows: {kind}"), count.to_string()]);
    }
    emit_table(&format!("{}_summary", spec.name), &summary);
    println!("[samples written to {}]", samples_path.display());
    Ok(())
}

/// One axis of a sweep: a spec key and the values to substitute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    /// Spec key (`seed`, `f`, `duration`, …).
    pub key: String,
    /// Values, each substituted verbatim as `key value`.
    pub values: Vec<String>,
}

impl SweepAxis {
    /// Parses a command-line axis `key=v1,v2,…`.
    ///
    /// # Errors
    ///
    /// Returns a message if the argument is not of that shape.
    pub fn parse(arg: &str) -> Result<Self, String> {
        let (key, vals) = arg
            .split_once('=')
            .ok_or_else(|| format!("sweep axis {arg:?} is not key=v1,v2,…"))?;
        let values: Vec<String> = vals
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        if key.is_empty() || values.is_empty() {
            return Err(format!(
                "sweep axis {arg:?} needs a key and at least one value"
            ));
        }
        Ok(SweepAxis {
            key: key.to_string(),
            values,
        })
    }
}

/// How a sweep executes its cells.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// `--parallel`: run cells as `xp run-cell --row` child processes
    /// through the bounded job pool, with the content-addressed result
    /// cache consulted first. Stdout is byte-identical to the
    /// sequential in-process sweep.
    pub parallel: bool,
    /// `--jobs N`: concurrent cell processes (parallel mode only).
    pub jobs: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            parallel: false,
            jobs: 2,
        }
    }
}

/// One expanded sweep cell: the base text with the axis substitutions
/// appended, already parsed.
struct SweepCell {
    name: String,
    values: Vec<String>,
    file: SpecFile,
}

/// What one measured cell contributes: the six table fields plus the
/// raw numbers behind the stderr progress lines.
#[derive(Clone)]
struct CellMeasurement {
    fields: [String; 6],
    events: u64,
    wall: f64,
}

/// Measures one sweep cell in-process: the cell's scenario streamed
/// through a [`SkewStream`] (no per-cell samples CSV — a sweep's
/// product is its summary). Shared verbatim by the sequential sweep
/// and the `run-cell --row` child, which is what makes the parallel
/// sweep's merged output byte-identical.
fn measure_cell(file: &SpecFile) -> Result<CellMeasurement, String> {
    let spec = &file.scenario;
    let scenario = Scenario::from_spec(spec).map_err(|e| e.to_string())?;
    let params = scenario.params();
    let nodes = scenario.cluster_graph().physical().node_count();
    let mask = FaultMask::from_nodes(nodes, &scenario.faulty_nodes());
    let mut skew = SkewStream::new(mask).with_warmup(crate::warmup(params));
    let sw = Stopwatch::start();
    let (stats, _) = scenario.run_streaming(spec.duration.resolve(params), &mut skew);
    let wall = sw.elapsed_secs();
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3e}"));
    Ok(CellMeasurement {
        fields: [
            nodes.to_string(),
            stats.events.to_string(),
            stats.messages.to_string(),
            fmt_opt(skew.max()),
            fmt_opt(skew.mean()),
            fmt_opt(skew.quantile(0.99)),
        ],
        events: stats.events,
        wall,
    })
}

/// The per-cell stderr progress line (stderr only, so stdout and the
/// sweep CSV stay byte-identical across modes and with older builds).
fn cell_stderr(k: usize, cells: usize, name: &str, wall: f64, events: u64, cached: bool) {
    let rate = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let suffix = if cached { " (cached)" } else { "" };
    stderr_line(&format!(
        "[xp sweep {k}/{cells}] {name}: {wall:.2} s wall, {rate:.0} events/s{suffix}\n"
    ));
}

/// Writes one formatted line to stderr in a single `write_all`:
/// `eprintln!` on the unbuffered stderr makes one write per format
/// piece.
fn stderr_line(line: &str) {
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Serializes one measured cell as the `run-cell --row` wire line:
/// tab-separated wall (full-precision), events, then the six table
/// fields. [`parse_row_tsv`] is the inverse.
fn row_tsv(m: &CellMeasurement) -> String {
    let mut line = format!("{}\t{}", m.wall, m.events);
    for field in &m.fields {
        line.push('\t');
        line.push_str(field);
    }
    line.push('\n');
    line
}

/// Parses a [`row_tsv`] line back into the measurement.
fn parse_row_tsv(line: &str) -> Result<CellMeasurement, String> {
    let parts: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
    let Ok([wall, events, fields @ ..]) = <[&str; 8]>::try_from(parts.as_slice()) else {
        return Err(format!("malformed row ({} of 8 fields)", parts.len()));
    };
    Ok(CellMeasurement {
        fields: fields.map(str::to_string),
        events: events
            .parse()
            .map_err(|e| format!("bad event count {events:?}: {e}"))?,
        wall: wall
            .parse()
            .map_err(|e| format!("bad wall clock {wall:?}: {e}"))?,
    })
}

/// The cell's cached row, if its entry holds one that parses. A
/// completed entry without such a row is evicted, so the cell is a miss
/// and the row its child computes takes the entry's place.
fn cached_row(store: &ResultStore, key: &CellKey) -> Option<CellMeasurement> {
    let row = store
        .read(key, "row.tsv")
        .ok()
        .and_then(|bytes| parse_row_tsv(std::str::from_utf8(&bytes).ok()?).ok());
    if row.is_none() && store.is_done(key) {
        let _ = store.evict(key);
    }
    row
}

/// Runs the cartesian product of the axes over a base spec file.
///
/// Each cell re-parses the base text with one `key value` line appended
/// per axis (spec scalar keys are last-wins, so appending overrides),
/// executes the cell's scenario through a [`SkewStream`] (no per-cell
/// samples CSV — a sweep's product is its summary), and writes one row
/// per cell to `results/<name>_sweep.csv`.
///
/// With `opts.parallel`, cells run as `xp run-cell --row` children over
/// the bounded job pool: every cell is expanded and canonicalized up
/// front, results are delivered (and printed) in cell order, crashed
/// children are retried (byte-identical by determinism), and finished
/// rows are kept in the content-addressed cache. The cache is read
/// before the pool starts, so a repeated sweep starts no thread and
/// spawns nothing; a cached row that does not parse is recomputed.
///
/// # Errors
///
/// Returns a human-readable message on the first (by cell index)
/// failing cell; parallel mode still runs every cell before reporting.
pub fn sweep_file_with(path: &Path, axes: &[SweepAxis], opts: &SweepOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let base = SpecFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if axes.is_empty() {
        return Err("sweep needs at least one key=v1,v2,… axis".into());
    }

    let mut headers: Vec<&str> = axes.iter().map(|a| a.key.as_str()).collect();
    headers.extend_from_slice(&[
        "nodes",
        "events",
        "messages",
        "skew max (s)",
        "skew mean (s)",
        "skew p99 (s)",
    ]);
    let mut table = Table::new(&headers);

    let cells: usize = axes.iter().map(|a| a.values.len()).product();
    // Expand and parse every cell up front (odometer over the axes), so
    // both modes validate identically before any cell runs.
    let mut expanded = Vec::with_capacity(cells);
    let mut index = vec![0usize; axes.len()];
    for _ in 0..cells {
        let mut cell_text = text.clone();
        let mut values = Vec::with_capacity(axes.len());
        for (a, axis) in axes.iter().enumerate() {
            let value = &axis.values[index[a]];
            let _ = write!(cell_text, "\n{} {}", axis.key, value);
            values.push(value.clone());
        }
        let name = values.join("/");
        let file = SpecFile::parse(&cell_text).map_err(|e| format!("cell {name}: {e}"))?;
        // Checked per cell, not on the base file: an axis can add the key.
        if file.analysis.is_some() {
            return Err(format!(
                "{}: sweeps drive the streaming runner; cell {name} names an `analysis` \
                 (its grid is analysis-internal — run it with `xp run`)",
                path.display()
            ));
        }
        expanded.push(SweepCell { name, values, file });
        for a in (0..axes.len()).rev() {
            index[a] += 1;
            if index[a] < axes[a].values.len() {
                break;
            }
            index[a] = 0;
        }
    }

    println!(
        "xp sweep {}: {} cell(s) over {} axis(es)\n",
        path.display(),
        cells,
        axes.len()
    );

    let total_sw = Stopwatch::start();
    let mut total_events: u64 = 0;
    // Called in cell order on this thread in both modes, which is what
    // keeps stdout byte-identical between them.
    let mut deliver = |k: usize, m: &CellMeasurement, cached: bool| {
        let cell = &expanded[k];
        cell_stderr(k + 1, cells, &cell.name, m.wall, m.events, cached);
        total_events += m.events;
        let mut row = cell.values.clone();
        row.extend(m.fields.iter().cloned());
        table.row(&row);
        println!("[{}/{cells}] done", k + 1);
    };
    if opts.parallel {
        let runner = CellRunner {
            binary: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            retries: 2,
        };
        let store = ResultStore::from_env();
        // Every cell is looked up here, before the pool starts, and the
        // pool is sized to the misses: a sweep without a miss starts no
        // thread and no child.
        let keys: Vec<CellKey> = expanded
            .iter()
            .map(|cell| cell_key(&cell.file, CellKind::SweepRow))
            .collect();
        let hits: Vec<Option<CellMeasurement>> =
            keys.iter().map(|key| cached_row(&store, key)).collect();
        let misses = hits.iter().filter(|hit| hit.is_none()).count();
        let mut first_err: Option<String> = None;
        run_indexed(
            cells,
            opts.jobs.min(misses),
            |k| {
                if let Some(hit) = &hits[k] {
                    return Ok((hit.clone(), true));
                }
                let cell = &expanded[k];
                let outcome = runner
                    .run_cell(&["--row"], &cell.file.print(), None)
                    .map_err(|e| format!("cell {}: {e}", cell.name))?;
                let m = parse_row_tsv(&outcome.stdout)
                    .map_err(|e| format!("cell {}: run-cell child: {e}", cell.name))?;
                if let Ok(staging) = store.begin(&keys[k]) {
                    if std::fs::write(staging.dir().join("row.tsv"), &outcome.stdout).is_ok() {
                        let _ = staging.publish();
                    } else {
                        staging.discard();
                    }
                }
                Ok((m, false))
            },
            |k, result| {
                if first_err.is_some() {
                    return;
                }
                match result {
                    Ok((m, cached)) => deliver(k, m, *cached),
                    Err(e) => first_err = Some(e.clone()),
                }
            },
        );
        if let Some(e) = first_err {
            return Err(e);
        }
    } else {
        for (k, cell) in expanded.iter().enumerate() {
            let m = measure_cell(&cell.file).map_err(|e| format!("cell {}: {e}", cell.name))?;
            deliver(k, &m, false);
        }
    }
    println!();
    emit_table(&format!("{}_sweep", base.scenario.name), &table);
    let total_wall = total_sw.elapsed_secs();
    let rate = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    stderr_line(&format!(
        "[xp sweep] {cells} cell(s) in {total_wall:.2} s wall, {rate:.0} events/s aggregate\n"
    ));
    Ok(())
}

/// What a cached cell produced, folded into its content hash so a
/// sweep row and a full run of the same spec never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// One sweep-row measurement (`run-cell --row` → `row.tsv`).
    SweepRow,
    /// A full run (`run-cell --dir` → stdout, CSVs, telemetry).
    Run,
}

/// The content-addressed cache key of one cell: a format-version tag,
/// the output kind, and the spec's canonical printing. Formatting-only
/// spec edits leave the key unchanged; any semantic change moves it.
#[must_use]
pub fn cell_key(file: &SpecFile, kind: CellKind) -> CellKey {
    let tag = match kind {
        CellKind::SweepRow => "row",
        CellKind::Run => "run",
    };
    CellKey::from_parts(&["ftgcs-cell-v1", tag, &file.print()])
}

/// Implements `xp run-cell`, the child half of the multi-process
/// executor: reads one spec text from **stdin** and either measures a
/// sweep row (`--row`, one [`row_tsv`] line on stdout) or performs a
/// full run (optionally `--dir <staging>`: chdir there first, so every
/// relative artifact — `results/*.csv`, `telemetry.json` — lands in
/// the staging directory the parent will publish).
///
/// # Errors
///
/// Returns a human-readable message on parse or execution failure;
/// `--row` additionally rejects `analysis` specs (sweeps stream).
pub fn run_cell_cmd(row: bool, dir: Option<&Path>) -> Result<(), String> {
    let mut text = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
        .map_err(|e| format!("reading spec from stdin: {e}"))?;
    let file = SpecFile::parse(&text).map_err(|e| format!("run-cell: {e}"))?;
    if row {
        if file.analysis.is_some() {
            return Err("run-cell --row: sweep cells cannot name an `analysis`".into());
        }
        let m = measure_cell(&file).map_err(|e| format!("run-cell: {e}"))?;
        print!("{}", row_tsv(&m));
        return Ok(());
    }
    if let Some(dir) = dir {
        std::env::set_current_dir(dir).map_err(|e| format!("chdir {}: {e}", dir.display()))?;
    }
    let opts = if file.analysis.is_some() {
        // Analyses drive their own grids; telemetry/progress flags are
        // streaming-runner-only (run_text_with rejects the combination).
        RunOptions::default()
    } else {
        RunOptions {
            telemetry: Some(PathBuf::from("telemetry.json")),
            progress: true,
        }
    };
    run_text_with("run-cell", &text, &opts)
}

/// Implements `xp serve`: the results service, parameterized with the
/// spec-format bridge ([`SpecFile::parse`] → canonical print → cache
/// key) that `ftgcs_serve` itself deliberately knows nothing about.
///
/// # Errors
///
/// Returns a message if the listener cannot bind.
pub fn serve_cmd(
    addr: &str,
    jobs: usize,
    cache: Option<&Path>,
    queue_capacity: usize,
) -> Result<(), String> {
    let store = match cache {
        Some(dir) => ResultStore::new(dir),
        None => ResultStore::from_env(),
    };
    let runner = CellRunner {
        binary: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        retries: 2,
    };
    let canonicalize = |text: &str| -> Result<CellRequest, String> {
        let file = SpecFile::parse(text).map_err(|e| format!("spec: {e}"))?;
        Ok(CellRequest {
            key: cell_key(&file, CellKind::Run),
            name: file.scenario.name.clone(),
            canonical: file.print(),
            analysis: file.analysis.clone(),
        })
    };
    ftgcs_serve::serve(
        ServeConfig {
            addr: addr.to_string(),
            jobs,
            queue_capacity,
            store,
            runner,
        },
        &canonicalize,
    )
}

/// Validates and lists every `*.spec` under `dir`, sorted by file name.
/// Parsing runs the whole validity gate of [`ftgcs::spec`], so a file
/// listed here is one `xp run` will not turn away.
///
/// # Errors
///
/// Returns a message naming every file the gate rejects (so CI can gate
/// on "all checked-in specs are valid").
pub fn list_dir(dir: &Path) -> Result<(), String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .spec files found", dir.display()));
    }
    let mut errors = Vec::new();
    println!("{:<42} {:<28} scenario", "file", "analysis");
    for path in &paths {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| SpecFile::parse(&t).map_err(|e| e.to_string()));
        match parsed {
            Ok(file) => {
                let analysis = file.analysis.as_deref().unwrap_or("(streaming run)");
                // Re-print canonically: one glance shows the scenario.
                let scenario = format!(
                    "f={} k={} seed={}",
                    file.scenario.f, file.scenario.cluster_size, file.scenario.seed
                );
                println!(
                    "{:<42} {:<28} {}",
                    path.file_name().unwrap_or_default().to_string_lossy(),
                    analysis,
                    scenario
                );
            }
            Err(e) => {
                println!(
                    "{:<42} PARSE ERROR: {e}",
                    path.file_name().unwrap_or_default().to_string_lossy()
                );
                errors.push(format!("{}: {e}", path.display()));
            }
        }
    }
    if errors.is_empty() {
        println!("\n{} spec file(s), all parse.", paths.len());
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_axis_parses() {
        let axis = SweepAxis::parse("seed=1,2,3").unwrap();
        assert_eq!(axis.key, "seed");
        assert_eq!(axis.values, vec!["1", "2", "3"]);
        let spaced = SweepAxis::parse("duration=10 rounds,20 rounds").unwrap();
        assert_eq!(spaced.values, vec!["10 rounds", "20 rounds"]);
        assert!(SweepAxis::parse("nope").is_err());
        assert!(SweepAxis::parse("k=").is_err());
    }

    #[test]
    fn run_text_rejects_unknown_analysis() {
        let err = run_text_with(
            "x",
            "name x\ntopology line 2\nanalysis bogus\n",
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("unknown analysis"), "{err}");
    }

    #[test]
    fn run_text_rejects_bad_specs() {
        assert!(run_text_with("x", "topology line 2\n", &RunOptions::default()).is_err());
    }

    #[test]
    fn a_due_heartbeat_fed_only_rows_beats() {
        // A run without samples streams rows alone; the heartbeat must
        // still read the clock and move on.
        let mut progress = Progress::new(1.0);
        progress.next_at = 0.0;
        let row = Row {
            t: SimTime::from_secs(0.5),
            node: ftgcs_sim::NodeId(0),
            kind: "round",
            values: Default::default(),
        };
        for _ in 0..ROWS_PER_CLOCK_READ {
            progress.on_row(&row);
        }
        assert!(progress.next_at >= 1.0, "rows alone never beat");
    }
}
