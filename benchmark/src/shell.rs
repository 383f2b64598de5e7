//! The two shell workloads, driven through the real `xp` binary: child
//! processes, pipes, the content-addressed cache and the HTTP service.
//!
//! Everything they write lands in a scratch directory under
//! `benchmark/out/`, removed when the workload ends; every process
//! they start is waited for.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use ftgcs::runner::Scenario;
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::stream::CsvSampleWriter;
use ftgcs_serve::hash::fnv1a_64;

use crate::gen::{self, Scale};
use crate::probes;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, summary, tail_percentile};
use crate::trace::{now, Tracer};

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new("benchmark/out").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Absolute: children run with their own working directories.
        dir.canonicalize()
            .map(Scratch)
            .map_err(|e| format!("{}: {e}", dir.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mkdir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

// ---------------------------------------------------------------- sweep_cells

/// What one `xp sweep` process produced.
struct SweepRun {
    wall_s: f64,
    stdout: Vec<u8>,
    csv: Vec<u8>,
    peak_rss_mb: f64,
}

/// The sweep's inputs on disk and its command line.
struct SweepPlan {
    xp: PathBuf,
    spec: PathBuf,
    axes: [String; 2],
    cells: usize,
}

impl SweepPlan {
    /// Runs one `xp sweep` in working directory `dir` (created), with
    /// `cache` as the result store when `parallel`. `poll_rss` samples
    /// the process's `VmHWM` every 2 ms while it runs.
    fn run(&self, dir: &Path, cache: Option<&Path>, poll_rss: bool) -> Result<SweepRun, String> {
        mkdir(dir)?;
        let stdout_path = dir.join("stdout.txt");
        let stdout = std::fs::File::create(&stdout_path).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&self.xp);
        cmd.arg("sweep").arg(&self.spec).args(&self.axes);
        if let Some(cache) = cache {
            cmd.args(["--parallel", "--jobs", "2"])
                .env("FTGCS_CACHE_DIR", cache);
        }
        cmd.current_dir(dir)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::null());
        let start = now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn xp sweep: {e}"))?;
        let mut rss = 0.0f64;
        let status = if poll_rss {
            loop {
                if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                    break status;
                }
                rss = peak_rss_mb(child.id()).unwrap_or(rss);
                std::thread::sleep(Duration::from_millis(2));
            }
        } else {
            child.wait().map_err(|e| e.to_string())?
        };
        let wall_s = now() - start;
        if !status.success() {
            return Err(format!("xp sweep exited with {status}"));
        }
        let csv_path = dir.join("results/sweep_cells_sweep.csv");
        Ok(SweepRun {
            wall_s,
            stdout: std::fs::read(&stdout_path).map_err(|e| e.to_string())?,
            csv: std::fs::read(&csv_path).map_err(|e| format!("{}: {e}", csv_path.display()))?,
            peak_rss_mb: rss,
        })
    }

    /// Runs one sweep as an attempted operation whose stdout and merged
    /// CSV must equal `reference`'s byte for byte.
    fn checked(
        &self,
        dir: &Path,
        cache: Option<&Path>,
        poll_rss: bool,
        reference: Option<&SweepRun>,
        report: &mut Report,
    ) -> Option<SweepRun> {
        report.attempt();
        match self.run(dir, cache, poll_rss) {
            Ok(run) => {
                if let Some(reference) = reference {
                    if run.stdout != reference.stdout || run.csv != reference.csv {
                        report.fail(format!(
                            "{}: stdout or sweep CSV differs from the sequential sweep",
                            dir.display()
                        ));
                    }
                }
                Some(run)
            }
            Err(e) => {
                report.fail(e);
                None
            }
        }
    }
}

/// Set-up of `sweep_cells`: the scratch tree, the base spec file, and
/// `xp list` over it — the check a person runs before a long sweep
/// (every spec parses). The child process keeps the number above the
/// filesystem's sub-millisecond jitter.
fn sweep_setup(root: &Path, xp: &Path, seed: u64, scale: Scale) -> Result<SweepPlan, String> {
    mkdir(root)?;
    let spec = root.join("sweep_cells.spec");
    std::fs::write(&spec, gen::sweep_base(scale)).map_err(|e| e.to_string())?;
    let listed = Command::new(xp)
        .arg("list")
        .arg(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn xp list: {e}"))?;
    if !listed.success() {
        return Err(format!("xp list refused the generated spec: {listed}"));
    }
    let seeds = scale.size(8, 2).min(8);
    Ok(SweepPlan {
        xp: xp.to_path_buf(),
        spec,
        axes: [gen::sweep_seed_axis(seed, seeds), "f=1,2".to_string()],
        cells: seeds * 2,
    })
}

/// Σ of the children's own wall clocks, from the `row.tsv` entries a
/// cold sweep published (full precision, unlike the stderr lines).
fn cached_cell_walls(cache: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(cache) else {
        return 0.0;
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("row.tsv")).ok())
        .filter_map(|row| row.split('\t').next()?.parse::<f64>().ok())
        .sum()
}

/// `sweep_cells`: a 16-cell `xp sweep` sequential, cold-parallel and
/// cached.
pub fn sweep_cells(
    xp: &Path,
    seed: u64,
    scale: Scale,
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let root = tr.open("workload");
    let started = now();
    let scratch = Scratch::create("sweep_cells")?;

    // Set-up is timed here and again in every round below: how long a
    // process start takes depends on what the host did just before, so
    // samples taken in one burst at start-up read 1.3 ms in one run and
    // 1.8 ms in the next.
    let o = tr.open("setup");
    let start = now();
    let plan = sweep_setup(&scratch.0.join("setup"), xp, seed, scale)?;
    let mut setups = vec![now() - start];
    tr.close(o);

    // Sequential, in-process sweep: the reference bytes, and the
    // warm-up of the page cache for the binary.
    let o = tr.open("seq");
    let seq = plan.checked(&scratch.0.join("seq"), None, false, None, report);
    tr.close_counted(o, plan.cells as u64);
    let seq = seq.ok_or_else(|| report.reasons().join("; "))?;
    report.note(format!(
        "sweep_cells: {} cells, sequential sweep {:.3} s, sweep CSV {} bytes (fnv {:016x})",
        plan.cells,
        seq.wall_s,
        seq.csv.len(),
        fnv1a_64(&seq.csv)
    ));

    // One cold sweep that is not timed: the warm-up of the parallel
    // path, and the one whose memory is polled — polling every 2 ms
    // would be a third busy process beside the two children of a timed
    // sweep.
    let o = tr.open("cold_polled");
    let dir = scratch.0.join("polled");
    let polled = plan.checked(
        &dir.join("cold"),
        Some(&dir.join("cache")),
        true,
        Some(&seq),
        report,
    );
    let _ = std::fs::remove_dir_all(&dir);
    tr.close_counted(o, plan.cells as u64);
    let rss = polled.map_or(0.0, |p| p.peak_rss_mb);

    // Measured: a cold parallel sweep into an empty cache, then the
    // same command again and again, all hits; repeated for as long as
    // one more round, as long as the longest so far, ends inside the
    // time.
    let budget = tr.measure_window(seconds);
    let min_reps = if scale == Scale::Smoke { 1 } else { 3 };
    let (mut colds, mut cacheds, mut pool) = (Vec::new(), Vec::new(), Vec::new());
    let (mut k, mut longest) = (0, 0.0f64);
    while k < min_reps || now() - started + longest < budget {
        let round = now();
        let dir = scratch.0.join(format!("rep{k}"));
        let cache = dir.join("cache");
        let o = tr.open("cold");
        let cold = plan.checked(&dir.join("cold"), Some(&cache), false, Some(&seq), report);
        tr.close_counted(o, plan.cells as u64);
        if let Some(cold) = cold {
            pool.push(cached_cell_walls(&cache) / (2.0 * cold.wall_s));
            colds.push(cold.wall_s);
        }
        for _ in 0..scale.size(20, 3) {
            let o = tr.open("cached");
            let hit = plan.checked(&dir.join("cached"), Some(&cache), false, Some(&seq), report);
            tr.close_counted(o, plan.cells as u64);
            cacheds.extend(hit.map(|h| h.wall_s));
        }
        let o = tr.open("setup");
        for _ in 0..5 {
            let start = now();
            sweep_setup(&dir.join("setup"), xp, seed, scale)?;
            setups.push(now() - start);
        }
        tr.close(o);
        let _ = std::fs::remove_dir_all(&dir);
        longest = longest.max(now() - round);
        k += 1;
    }
    report.set_quiet("setup_s", &summary(&setups));
    if colds.is_empty() || cacheds.is_empty() {
        return Err(format!(
            "no sweep succeeded: {}",
            report.reasons().join("; ")
        ));
    }

    let cells = plan.cells as f64;
    let cold = summary(&colds);
    report.set_quiet("run_wall_s", &cold);
    let cached = summary(&cacheds);
    report.note(format!(
        "  cached sweep: min {:.6} s q1 {:.6} s median {:.6} s q3 {:.6} s n {}",
        cached.min, cached.q1, cached.median, cached.q3, cached.n
    ));
    report.set("work_per_s", cells / cached.q1);
    report.set("peak_rss_mb", rss);
    report.set("sweep_seq_cells_per_s", cells / seq.wall_s);
    report.set("sweep_cold_cells_per_s", cells / cold.q1);
    report.set("sweep_cached_cells_per_s", cells / cached.q1);
    report.set("sweep.parallel_speedup", seq.wall_s / cold.median);
    report.set("exec.pool_efficiency", median(&pool));

    if tr.enabled() {
        let o = tr.open("probes");
        let text = format!("{}seed 1\n", gen::sweep_base(scale));
        probes::spec_text_layers(&text, report)?;
        probes::serve_layers(xp, &scratch.0, &text, report)?;
        tr.close(o);
    }
    tr.close(root);
    Ok(())
}

// --------------------------------------------------------------- serve_closed

/// A running `xp serve` child, shut down and waited for on drop.
struct Server {
    child: Child,
    addr: String,
    /// Held open: the service prints two more lines, and a closed pipe
    /// would make them panic.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `xp serve` on an ephemeral port with `dir` as working
    /// directory and `dir/cache` as store; returns once it listens.
    fn start(xp: &Path, dir: &Path) -> Result<Self, String> {
        mkdir(dir)?;
        let mut child = Command::new(xp)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .arg("--cache")
            .arg(dir.join("cache"))
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn xp serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("xp serve: listening on http://")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "xp serve never announced its address (got {line:?})"
                ))
            }
        }
    }

    /// `POST /shutdown`, then waits for the process to end.
    fn shutdown(mut self) -> Result<(), String> {
        let answer = http(&self.addr, "POST", "/shutdown", b"");
        let status = self.child.wait().map_err(|e| e.to_string())?;
        answer?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("xp serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with a live child only when a step failed.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the service closes
/// after every response): `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    Ok((status, response[head_end + 4..].to_vec()))
}

/// The string value of `"key": "value"` in a flat JSON body.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&rest[..rest.find('"')?])
}

/// The number value of `"key": n` in a flat JSON body.
fn json_num(body: &str, key: &str) -> Option<f64> {
    let rest = &body[body.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One closed-loop cycle: submit → poll until done → fetch the CSV.
#[derive(Debug, Clone)]
struct Cycle {
    spec: usize,
    start: f64,
    submitted: f64,
    polled: f64,
    end: f64,
    polls: u32,
    /// Time inside the `GET /status` exchanges (the 1 ms sleeps between
    /// them excluded).
    status_s: f64,
    attempts: u32,
    csv_len: usize,
    csv_hash: u64,
}

impl Cycle {
    fn latency(&self) -> f64 {
        self.end - self.start
    }
}

fn cycle(addr: &str, spec: usize, text: &str) -> Result<(Cycle, Vec<u8>), String> {
    let start = now();
    let (status, body) = http(addr, "POST", "/submit", text.as_bytes())?;
    let submitted = now();
    let body = String::from_utf8_lossy(&body).into_owned();
    if status != 200 && status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let job = json_str(&body, "job")
        .ok_or_else(|| format!("submit answered no job id: {body}"))?
        .to_string();
    let mut state = json_str(&body, "state").unwrap_or("").to_string();
    let mut attempts = json_num(&body, "attempts").unwrap_or(0.0) as u32;
    let (mut polls, mut status_s) = (0, 0.0);
    while state != "done" {
        if state == "failed" {
            return Err(format!("job {job} failed: {body}"));
        }
        std::thread::sleep(Duration::from_millis(1));
        let asked = now();
        let (status, body) = http(addr, "GET", &format!("/status/{job}"), b"")?;
        status_s += now() - asked;
        let body = String::from_utf8_lossy(&body).into_owned();
        if status != 200 {
            return Err(format!("status answered {status}: {body}"));
        }
        polls += 1;
        state = json_str(&body, "state").unwrap_or("").to_string();
        attempts = json_num(&body, "attempts").unwrap_or(0.0) as u32;
    }
    let polled = now();
    let (status, csv) = http(
        addr,
        "GET",
        &format!("/result/{job}/smoke_samples.csv"),
        b"",
    )?;
    let end = now();
    if status != 200 {
        return Err(format!("result answered {status}"));
    }
    Ok((
        Cycle {
            spec,
            start,
            submitted,
            polled,
            end,
            polls,
            status_s,
            attempts,
            csv_len: csv.len(),
            csv_hash: fnv1a_64(&csv),
        },
        csv,
    ))
}

/// The samples CSV of submission `text`, computed in-process through
/// the same streaming writer `xp run` uses.
fn reference_csv(text: &str) -> Result<Vec<u8>, String> {
    let file = SpecFile::parse(text).map_err(|e| e.to_string())?;
    let params = file.scenario.params().map_err(|e| e.to_string())?;
    let scenario = Scenario::from_spec(&file.scenario).map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    let mut csv = CsvSampleWriter::new(&mut bytes, file.csv_stride);
    scenario.run_streaming(file.scenario.duration.resolve(&params), &mut csv);
    csv.finish().map_err(|e| e.to_string())?;
    drop(csv);
    Ok(bytes)
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientLog {
    cycles: Vec<Cycle>,
    errors: Vec<String>,
    /// `(spec, csv)` of the first cold fetches, for the in-process check.
    sampled: Vec<(usize, Vec<u8>)>,
}

/// Runs one phase with two closed-loop clients. Client `c` walks the
/// submissions `c, c+2, …`; a cold phase walks them once, a cached
/// phase again and again until `deadline`.
fn phase(addr: &str, texts: &[String], deadline: Option<f64>) -> [ClientLog; 2] {
    let client = |c: usize| {
        let mut log = ClientLog::default();
        let mine: Vec<usize> = (c..texts.len()).step_by(2).collect();
        'walk: loop {
            for &spec in &mine {
                if deadline.is_some_and(|d| now() >= d) {
                    break 'walk;
                }
                match cycle(addr, spec, &texts[spec]) {
                    Ok((cycle, csv)) => {
                        if deadline.is_none() && log.sampled.len() < 2 {
                            log.sampled.push((spec, csv));
                        }
                        log.cycles.push(cycle);
                    }
                    Err(e) => log.errors.push(e),
                }
            }
            if deadline.is_none() {
                break;
            }
        }
        log
    };
    std::thread::scope(|s| {
        let second = s.spawn(|| client(1));
        let first = client(0);
        [first, second.join().expect("client thread panicked")]
    })
}

/// Folds a phase's logs into the report: every cycle is an attempted
/// operation, failed on an HTTP error or a CSV that differs from the
/// first fetch of the same submission.
fn account(
    logs: [ClientLog; 2],
    first_fetch: &mut [Option<(usize, u64)>],
    report: &mut Report,
) -> Vec<Cycle> {
    let mut cycles = Vec::new();
    for log in logs {
        for e in log.errors {
            report.attempt();
            report.fail(e);
        }
        for c in log.cycles {
            let seen = (c.csv_len, c.csv_hash);
            let first = *first_fetch[c.spec].get_or_insert(seen);
            report.check(if first == seen {
                Ok(())
            } else {
                Err(format!(
                    "submission {}: fetched CSV differs from its first fetch",
                    c.spec
                ))
            });
            cycles.push(c);
        }
    }
    cycles.sort_by(|a, b| a.end.total_cmp(&b.end));
    cycles
}

/// Records up to `limit` cycles as spans (`cycle → submit, poll, fetch`).
fn record_cycles(tr: &mut Tracer, cycles: &[Cycle], limit: usize) {
    for c in cycles.iter().take(limit) {
        let span = tr.record("cycle", c.start, c.end);
        tr.record_under(span, "submit", c.start, c.submitted);
        tr.record_under(span, "poll", c.submitted, c.polled);
        tr.record_under(span, "fetch", c.polled, c.end);
    }
}

/// `serve_closed`: `xp serve` under two closed-loop clients, a new TCP
/// connection per request; distinct submissions first (cold), then the
/// same submissions again (cached).
pub fn serve_closed(
    xp: &Path,
    seed: u64,
    scale: Scale,
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let root = tr.open("workload");
    let started = now();
    let scratch = Scratch::create("serve_closed")?;
    let jobs = scale.size(400, 20);

    // Set-up: submissions generated, scratch store, server listening.
    // Repeated, so `setup_s` rests on several samples; the last server is used.
    let o = tr.open("setup");
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..4 {
        let start = now();
        let texts: Vec<String> = (0..jobs).map(|i| gen::serve_submission(seed, i)).collect();
        let server = Server::start(xp, &scratch.0.join(format!("server{k}")))?;
        setups.push(now() - start);
        if let Some((_, old)) = kept.replace((texts, server)) {
            Server::shutdown(old)?;
        }
    }
    let (texts, server) = kept.expect("set-up ran");
    tr.close(o);
    report.set_quiet("setup_s", &summary(&setups));
    let addr = server.addr.clone();

    let mut first_fetch = vec![None; jobs];

    let o = tr.open("cold");
    let cold_start = now();
    let mut logs = phase(&addr, &texts, None);
    let cold_wall = now() - cold_start;
    let sampled: Vec<(usize, Vec<u8>)> =
        logs.iter_mut().flat_map(|l| l.sampled.drain(..)).collect();
    let cold = account(logs, &mut first_fetch, report);
    record_cycles(tr, &cold, usize::MAX);
    tr.close_counted(o, cold.len() as u64);
    if cold.is_empty() {
        return Err(format!(
            "no cold job completed: {}",
            report.reasons().join("; ")
        ));
    }

    // Four sampled submissions must match an in-process streaming run.
    let o = tr.open("verify");
    for (spec, csv) in &sampled {
        let same = reference_csv(&texts[*spec]).map(|reference| &reference == csv);
        report.check(match same {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!(
                "submission {spec}: served CSV differs from the in-process run"
            )),
            Err(e) => Err(e),
        });
    }
    tr.close(o);

    // The cached phase takes the time that is left, and at least a
    // quarter of the whole.
    let budget = tr.measure_window(seconds);
    let o = tr.open("cached");
    let cached_start = now();
    let deadline = (started + budget).max(cached_start + 0.25 * budget);
    let logs = phase(&addr, &texts, Some(deadline));
    let cached_wall = now() - cached_start;
    let cached = account(logs, &mut first_fetch, report);
    record_cycles(tr, &cached, 2000);
    tr.close_counted(o, cached.len() as u64);
    if cached.is_empty() {
        return Err(format!(
            "no cached cycle completed: {}",
            report.reasons().join("; ")
        ));
    }

    if tr.enabled() {
        let o = tr.open("probes");
        let mut trips = Vec::new();
        for _ in 0..200 {
            let start = now();
            let (status, _) = http(&addr, "GET", "/stats", b"")?;
            if status != 200 {
                return Err(format!("GET /stats answered {status}"));
            }
            trips.push(now() - start);
        }
        report.set("http.roundtrip_us", 1e6 * median(&trips));
        probes::spec_text_layers(&texts[0], report)?;
        probes::serve_layers(xp, &scratch.0, &texts[0], report)?;
        tr.close(o);
    }

    // The service's own counters, then its memory, then shut it down.
    let (status, stats) = http(&addr, "GET", "/stats", b"")?;
    let stats = String::from_utf8_lossy(&stats).into_owned();
    let spawned = json_num(&stats, "cells_spawned");
    report.check(if status == 200 && spawned == Some(jobs as f64) {
        Ok(())
    } else {
        Err(format!(
            "/stats should end with cells_spawned == {jobs}: {stats}"
        ))
    });
    let rss = peak_rss_mb(server.child.id()).ok_or("cannot read the server's VmHWM")?;
    let o = tr.open("shutdown");
    Server::shutdown(server)?;
    tr.close(o);

    let cold_latency: Vec<f64> = cold.iter().map(Cycle::latency).collect();
    let latency: Vec<f64> = cached.iter().map(Cycle::latency).collect();
    report.set_quiet("run_wall_s", &summary(&cold_latency));

    // Cached throughput: the upper quartile over one-second slices of
    // the phase (cycles that ended in the slice; the partial last slice
    // dropped) — the quiet quarter, as for every gated timing.
    let slice = if scale == Scale::Smoke { 0.1 } else { 1.0 };
    let whole_slices = (cached_wall / slice).floor() as usize;
    let mut per_slice = vec![0.0f64; whole_slices];
    for c in &cached {
        let k = ((c.end - cached_start) / slice) as usize;
        if k < whole_slices {
            per_slice[k] += 1.0 / slice;
        }
    }
    let throughput = if per_slice.is_empty() {
        cached.len() as f64 / cached_wall
    } else {
        summary(&per_slice).q3
    };
    report.note(format!(
        "  cached phase: {} cycles in {cached_wall:.3} s, {} whole slices, p50 {:.3} ms",
        cached.len(),
        per_slice.len(),
        1e3 * median(&latency)
    ));
    if let Some((p, value)) = tail_percentile(&latency) {
        report.note(format!(
            "  cached cycle p{p}: {:.3} ms (n {})",
            1e3 * value,
            latency.len()
        ));
    }
    report.set("work_per_s", throughput);
    report.set("peak_rss_mb", rss);
    report.set("serve_cold_jobs_per_s", cold.len() as f64 / cold_wall);
    report.set("serve_cached_cycles_per_s", throughput);
    report.set("serve_cached_p50_ms", 1e3 * median(&latency));
    report.set("service.cycle_p99_ms", 1e3 * percentile(&latency, 99.0));
    let median_of = |f: fn(&Cycle) -> f64| median(&cached.iter().map(f).collect::<Vec<_>>());
    report.set(
        "service.submit_us",
        1e6 * median_of(|c| c.submitted - c.start),
    );
    report.set("service.result_us", 1e6 * median_of(|c| c.end - c.polled));
    let polls: u32 = cold.iter().map(|c| c.polls).sum();
    report.set(
        "service.polls_per_job",
        f64::from(polls) / cold.len() as f64,
    );
    if polls > 0 {
        let status_s: f64 = cold.iter().map(|c| c.status_s).sum();
        report.set("service.status_us", 1e6 * status_s / f64::from(polls));
    }
    report.set(
        "service.submissions",
        json_num(&stats, "submissions").unwrap_or(0.0),
    );
    report.set(
        "service.cache_hits",
        json_num(&stats, "cache_hits").unwrap_or(0.0),
    );
    report.set("service.cells_spawned", spawned.unwrap_or(0.0));
    // Processes beyond the first that a cold job cost.
    let retries: u32 = cold.iter().map(|c| c.attempts.saturating_sub(1)).sum();
    report.set("exec.retries", f64::from(retries));
    tr.close(root);
    Ok(())
}
