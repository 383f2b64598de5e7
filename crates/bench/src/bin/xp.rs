//! `xp` — the unified experiment driver.
//!
//! ```sh
//! xp run <spec-file> [--telemetry <out.json>] [--progress]
//! xp sweep <spec-file> key=v1,v2 … [--parallel [--jobs N]]
//! xp serve --addr 127.0.0.1:PORT [--jobs N] [--cache DIR] [--queue N]
//! xp run-cell [--row] [--dir D]     # child half of the executor (spec on stdin)
//! xp list [dir]                     # validate + list specs (default: experiments/)
//! ```
//!
//! Spec files (`experiments/*.spec`) either name an `analysis` —
//! dispatching into the figure/table/ablation code in
//! `ftgcs_bench::exp` — or describe a plain scenario, which runs
//! **streaming**:
//! samples and rows flow through bounded-memory observers into
//! `results/*.csv`, never materializing a full trace.
//!
//! `--telemetry <out.json>` times the engine's wall-clock phases and
//! writes the machine-readable run report (schema
//! `ftgcs-telemetry-v1`); `--progress` adds a stderr heartbeat. Both
//! leave stdout, the CSVs, and the simulated trace byte-identical.
//!
//! `sweep --parallel` runs cells as `xp run-cell` child processes over
//! a bounded job pool with a content-addressed result cache
//! (`results/cache/`, override with `FTGCS_CACHE_DIR`); stdout stays
//! byte-identical to the sequential sweep. `xp serve` exposes the same
//! executor as a long-running HTTP results service (see
//! EXPERIMENTS.md, "Sweep service").
//!
//! ```sh
//! cargo run --release -p ftgcs-bench --bin xp -- run experiments/f1_cluster_convergence.spec
//! cargo run --release -p ftgcs-bench --bin xp -- run experiments/long_line_demo.spec --telemetry results/long_line_demo_telemetry.json
//! cargo run --release -p ftgcs-bench --bin xp -- sweep experiments/long_line_demo.spec seed=1,2,3 --parallel --jobs 4
//! cargo run --release -p ftgcs-bench --bin xp -- serve --addr 127.0.0.1:7171
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ftgcs_bench::driver::{self, RunOptions, SweepAxis, SweepOptions};
use ftgcs_sim::telemetry::alloc_probe;

/// Feeds every heap allocation this process makes into the telemetry
/// allocation probe, so the `alloc.allocations` field of a
/// `--telemetry` report counts real allocator traffic (the same
/// discipline `crates/sim/tests/hot_path_alloc.rs` enforces in CI).
/// When no report is requested the probe is still bumped — one relaxed
/// atomic add per allocation, unobservable next to the allocation
/// itself.
struct CountingAlloc;

#[allow(
    unsafe_code,
    reason = "the allocation counter behind the telemetry report's `alloc` block"
)]
// SAFETY: every operation delegates directly to `System`, inheriting
// its `GlobalAlloc` contract; the added relaxed counter bump touches no
// allocator state and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_probe::note_alloc();
        // SAFETY: forwards `layout` unchanged to `System.alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_probe::note_alloc();
        // SAFETY: forwards all arguments unchanged to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  xp run <spec-file> [--telemetry <out.json>] [--progress]
  xp sweep <spec-file> key=v1,v2[,…] [key=…] [--parallel [--jobs N]]
  xp serve --addr <host:port> [--jobs N] [--cache <dir>] [--queue N]
  xp run-cell [--row] [--dir <dir>]   (spec text on stdin)
  xp list [dir]        (default dir: experiments)";

/// Parses `xp run`'s operands: the spec path plus optional
/// `--telemetry <out.json>` / `--progress` flags, in any order after
/// the path.
fn parse_run(args: &[String]) -> Result<(PathBuf, RunOptions), String> {
    let mut spec: Option<PathBuf> = None;
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--telemetry" => {
                let out = it
                    .next()
                    .ok_or_else(|| format!("--telemetry needs an output path\n{USAGE}"))?;
                opts.telemetry = Some(PathBuf::from(out));
            }
            "--progress" => opts.progress = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{USAGE}"));
            }
            path => {
                if spec.replace(PathBuf::from(path)).is_some() {
                    return Err(USAGE.to_string());
                }
            }
        }
    }
    let spec = spec.ok_or_else(|| USAGE.to_string())?;
    Ok((spec, opts))
}

/// Parses `xp sweep`'s trailing operands: `key=v1,v2` axes mixed with
/// the optional `--parallel` / `--jobs N` flags.
fn parse_sweep(args: &[String]) -> Result<(Vec<SweepAxis>, SweepOptions), String> {
    let mut axes = Vec::new();
    let mut opts = SweepOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--parallel" => opts.parallel = true,
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--jobs needs a positive integer\n{USAGE}"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{USAGE}"));
            }
            axis => axes.push(SweepAxis::parse(axis)?),
        }
    }
    if axes.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok((axes, opts))
}

/// Parses `xp serve`'s operands.
fn parse_serve(args: &[String]) -> Result<(String, usize, Option<PathBuf>, usize), String> {
    let mut addr: Option<String> = None;
    let mut jobs = 1usize;
    let mut cache: Option<PathBuf> = None;
    let mut queue = 64usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--jobs needs a positive integer\n{USAGE}"))?;
            }
            "--cache" => cache = Some(PathBuf::from(value("--cache")?)),
            "--queue" => {
                queue = value("--queue")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--queue needs a positive integer\n{USAGE}"))?;
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("serve needs --addr <host:port>\n{USAGE}"))?;
    Ok((addr, jobs, cache, queue))
}

/// Parses `xp run-cell`'s operands.
fn parse_run_cell(args: &[String]) -> Result<(bool, Option<PathBuf>), String> {
    let mut row = false;
    let mut dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--row" => row = true,
            "--dir" => {
                let d = it
                    .next()
                    .ok_or_else(|| format!("--dir needs a directory\n{USAGE}"))?;
                dir = Some(PathBuf::from(d));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok((row, dir))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") if args.len() >= 2 => {
            parse_run(&args[1..]).and_then(|(spec, opts)| driver::run_file_with(&spec, &opts))
        }
        Some("sweep") => match args.get(1) {
            Some(path) if args.len() >= 3 => parse_sweep(&args[2..])
                .and_then(|(axes, opts)| driver::sweep_file_with(Path::new(path), &axes, &opts)),
            _ => Err(USAGE.to_string()),
        },
        Some("serve") => parse_serve(&args[1..]).and_then(|(addr, jobs, cache, queue)| {
            driver::serve_cmd(&addr, jobs, cache.as_deref(), queue)
        }),
        Some("run-cell") => parse_run_cell(&args[1..])
            .and_then(|(row, dir)| driver::run_cell_cmd(row, dir.as_deref())),
        Some("list") => {
            let dir = args.get(1).map_or("experiments", String::as_str);
            match args.len() {
                1 | 2 => driver::list_dir(Path::new(dir)),
                _ => Err(USAGE.to_string()),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xp: {e}");
            ExitCode::FAILURE
        }
    }
}
