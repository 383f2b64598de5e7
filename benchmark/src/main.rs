//! The repository's layered benchmark: one process per workload,
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, the
//! result as one JSON object on the last line of stdout. See README.md
//! for the workloads, the metrics and how to compare two commits.

mod gen;
mod names;
mod pins;
mod probes;
mod report;
mod shell;
mod sim;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ftgcs_sim::telemetry::alloc_probe;

use gen::Scale;
use report::Report;
use sim::SimWorkload;
use trace::Tracer;

/// Feeds every heap allocation into the telemetry allocation probe, as
/// `xp` does, so `sim.allocs_per_kevent` counts real allocator traffic
/// and the in-process workloads pay the same relaxed add per
/// allocation that `xp run` pays.
struct CountingAlloc;

// SAFETY: every operation delegates directly to `System`, inheriting
// its `GlobalAlloc` contract; the added relaxed counter bump touches no
// allocator state and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_probe::note_alloc();
        System.alloc(layout)
    }
    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_probe::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: ftgcs-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke]
  run from the repository root (benchmark/run.sh builds everything first);
  without --workload (or with `all`) every workload runs in a process of its own";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: pins::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    if !names::WORKLOADS.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload {name:?} (known: {})",
                            names::WORKLOADS.join(", ")
                        ));
                    }
                    parsed.workload = Some(name.clone());
                }
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number\n{USAGE}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
                };
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The non-blank, non-comment lines of a manifest's `[profile.release]`
/// table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

// ftgcs-lint: allow(no-wall-clock) -- file mtimes for the stale-build check, never a measurement
type Mtime = std::time::SystemTime;

/// The newest modification time of any file under `dir`.
fn newest_mtime(dir: &Path) -> Option<Mtime> {
    let mut newest = None;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).ok()?.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                newest = newest.max(Some(modified));
            }
        }
    }
    newest
}

/// Fails fast, with a one-line reason, when the in-process workloads
/// and `xp` would silently measure different builds: the two release
/// profiles differ, `xp` is missing, or a binary is older than the
/// sources it was built from.
fn preflight(xp: &Path, own: &Path) -> Result<(), String> {
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e} (run from the repository root)"))
    };
    let (root_profile, own_profile) = (
        release_profile(&read("Cargo.toml")?),
        release_profile(&read("benchmark/Cargo.toml")?),
    );
    if root_profile != own_profile {
        return Err(format!(
            "[profile.release] drifted: Cargo.toml has {root_profile:?}, benchmark/Cargo.toml has \
             {own_profile:?}; copy the root's block"
        ));
    }
    let built = |binary: &Path| {
        std::fs::metadata(binary)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: {e}; build it with benchmark/run.sh", binary.display()))
    };
    let crates = newest_mtime(Path::new("crates")).ok_or("crates/: unreadable")?;
    if built(xp)? < crates {
        return Err(format!(
            "{} is older than crates/: rebuild with benchmark/run.sh",
            xp.display()
        ));
    }
    let sources = newest_mtime(Path::new("benchmark/src")).map_or(crates, |own| own.max(crates));
    if built(own)? < sources {
        return Err(format!(
            "{} is older than its sources: rebuild with benchmark/run.sh",
            own.display()
        ));
    }
    Ok(())
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, args: &Args, xp: &Path) -> Result<bool, String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match SimWorkload::from_name(name) {
        Some(workload) => sim::run(
            sim::Input {
                workload,
                seed: args.seed,
                scale,
            },
            args.seconds,
            &mut tracer,
            &mut report,
        )?,
        None if name == "sweep_cells" => {
            shell::sweep_cells(xp, args.seed, scale, args.seconds, &mut tracer, &mut report)?
        }
        None => shell::serve_closed(xp, args.seed, scale, args.seconds, &mut tracer, &mut report)?,
    }

    let list = if args.trace {
        report.set("trace.attributed_pct", tracer.attributed_pct());
        report.set("trace.spans", tracer.spans().len() as f64);
        let path = Path::new("benchmark/out/trace.json");
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(path, tracer.to_json(name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("[trace written to {}]", path.display());
        names::PER_LAYER
    } else {
        names::END_TO_END
    };
    println!(
        "workload {name} ({})  seed {}  seconds {}  trace {}  threads available {}",
        if names::GATED.contains(&name) {
            "listed in BENCHMARK.json"
        } else {
            "on request only"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    print!("{}", report.render(list));
    for reason in report.reasons() {
        println!("FAILED: {reason}");
    }
    println!("{}", report.result_line(list));
    Ok(report.failed == 0)
}

/// Runs every workload, each in a process of its own (so peak memory
/// and allocator state are per workload).
fn run_all(args: &Args, own: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    for name in names::WORKLOADS {
        let mut cmd = Command::new(own);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", own.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|mut args| {
        if args.smoke && !argv.iter().any(|a| a == "--seconds") {
            args.seconds = 0.2;
        }
        let own = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // run.sh builds `xp` into the same target directory.
        let xp: PathBuf = own.with_file_name("xp");
        preflight(&xp, &own)?;
        match &args.workload {
            Some(name) => run_one(name, &args, &xp),
            None => run_all(&args, &own),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftgcs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "flood_raw",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("the acceptance driver's arguments");
        assert_eq!(a.workload.as_deref(), Some("flood_raw"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (42, 12.0, true, false)
        );
        let all = args(&["--workload", "all", "--smoke"]).expect("all workloads");
        assert_eq!(
            (all.workload, all.seed, all.smoke),
            (None, pins::DEFAULT_SEED, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn release_profile_ignores_comments_and_stops_at_the_next_table() {
        let manifest =
            "[package]\nname = \"x\"\n\n# why\n[profile.release]\n# copied\ndebug = true\n\n\
                        lto = \"thin\"\n[profile.bench]\ndebug = false\n";
        assert_eq!(
            release_profile(manifest),
            ["debug = true", "lto = \"thin\""]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_two_release_profiles_agree() {
        let root = include_str!("../../Cargo.toml");
        let own = include_str!("../Cargo.toml");
        assert_eq!(release_profile(root), release_profile(own));
        assert!(!release_profile(own).is_empty());
    }
}
