//! End-to-end tests of the distributed sweep executor and the results
//! service, driving the real `xp` binary:
//!
//! * `xp sweep --parallel` must produce **byte-identical** stdout and
//!   sweep CSV to the sequential in-process sweep;
//! * a `run-cell` child that crashes mid-cell must be retried, and its
//!   partial output dropped (retries are safe because a cell is a pure
//!   function of its canonical spec text);
//! * `xp serve` must run a submitted spec to completion, serve back
//!   CSVs byte-identical to an in-process `xp run`, and answer a
//!   repeated submission entirely from the content-addressed cache —
//!   zero new cell processes.

use std::io::{BufRead as _, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn xp() -> &'static str {
    env!("CARGO_BIN_EXE_xp")
}

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments")
        .join(name)
}

/// A fresh scratch directory, unique per test and per process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftgcs_service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const SEEDS: &str = "seed=1,2,3";
/// The worker sweep: one cell per scheduler, an axis value with a space.
const SCHEDULERS: &str = "scheduler=global,parallel 1,parallel 2";
const PARALLEL: [&str; 3] = ["--parallel", "--jobs", "2"];

/// Runs `xp sweep smoke.spec <axis> <extra…>` in `cwd`.
fn sweep(cwd: &Path, cache: &Path, axis: &str, extra: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(cwd).expect("sweep cwd");
    Command::new(xp())
        .current_dir(cwd)
        .env("FTGCS_CACHE_DIR", cache)
        .arg("sweep")
        .arg(spec_path("smoke.spec"))
        .arg(axis)
        .args(extra)
        .output()
        .expect("xp sweep")
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    parallel_sweep_matches_sequential("par_eq_seeds", SEEDS);
    let csv = parallel_sweep_matches_sequential("par_eq_schedulers", SCHEDULERS);
    // A run is a pure function of its spec whatever drains the queue:
    // the six measured columns agree on all three scheduler rows.
    let measured: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|row| row.split_once(',').expect("axis column").1)
        .collect();
    assert_eq!(measured.len(), 3, "{csv}");
    assert!(measured.iter().all(|m| *m == measured[0]), "{csv}");
}

/// Sweeps `axis` sequentially, with `--parallel --jobs 2` and again
/// from the cache; returns the sweep CSV all three agree on.
fn parallel_sweep_matches_sequential(name: &str, axis: &str) -> String {
    let dir = scratch(name);
    let seq = sweep(&dir.join("seq"), &dir.join("seq_cache"), axis, &[]);
    assert!(
        seq.status.success(),
        "{}",
        String::from_utf8_lossy(&seq.stderr)
    );
    let par = sweep(&dir.join("par"), &dir.join("cache"), axis, &PARALLEL);
    assert!(
        par.status.success(),
        "{}",
        String::from_utf8_lossy(&par.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&seq.stdout),
        String::from_utf8_lossy(&par.stdout),
        "parallel sweep stdout diverged from sequential"
    );
    let csv = std::fs::read_to_string(dir.join("seq/results/smoke_sweep.csv"))
        .expect("sequential sweep CSV");
    assert_eq!(
        csv,
        std::fs::read_to_string(dir.join("par/results/smoke_sweep.csv"))
            .expect("parallel sweep CSV"),
        "merged sweep CSV diverged"
    );
    // The stderr progress channel: per-cell [k/N] indices plus the
    // final wall-clock / aggregate throughput summary, in both modes.
    for err in [
        String::from_utf8_lossy(&seq.stderr),
        String::from_utf8_lossy(&par.stderr),
    ] {
        assert!(err.contains("[xp sweep 1/3]"), "{err}");
        assert!(err.contains("[xp sweep 3/3]"), "{err}");
        assert!(err.contains("events/s aggregate"), "{err}");
    }

    // A repeated parallel sweep is served from the cache — every cell
    // reads `(cached)` on stderr, so none ran a child — and is still
    // byte-identical on stdout.
    let again = sweep(&dir.join("par2"), &dir.join("cache"), axis, &PARALLEL);
    assert!(again.status.success());
    assert_eq!(seq.stdout, again.stdout);
    let err = String::from_utf8_lossy(&again.stderr);
    assert_eq!(
        err.matches("(cached)").count(),
        axis.split(',').count(),
        "repeat sweep did not hit the cache on every cell: {err}"
    );
    csv
}

/// A cached row that does not parse, or is not there, is a miss: the
/// cell is recomputed, its entry replaced, and the sweep's bytes are
/// those of the sequential sweep. A later sweep finds the recomputed
/// row.
#[test]
fn a_corrupt_cached_row_is_recomputed() {
    let dir = scratch("corrupt_row");
    let seq = sweep(&dir.join("seq"), &dir.join("seq_cache"), SEEDS, &[]);
    assert!(seq.status.success());
    let seq_csv = std::fs::read(dir.join("seq/results/smoke_sweep.csv")).expect("sequential CSV");
    let cache = dir.join("cache");
    assert!(sweep(&dir.join("cold"), &cache, SEEDS, &PARALLEL)
        .status
        .success());
    let row = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|entry| entry.path().join("row.tsv"))
        .find(|row| row.is_file())
        .expect("a cached row");
    for (round, corrupt) in [Some(&b"0.01\t12"[..]), Some(b""), None]
        .into_iter()
        .enumerate()
    {
        match corrupt {
            Some(bytes) => std::fs::write(&row, bytes).expect("corrupt the row"),
            None => std::fs::remove_file(&row).expect("remove the row"),
        }
        let cwd = dir.join(format!("fixed{round}"));
        let fixed = sweep(&cwd, &cache, SEEDS, &PARALLEL);
        let err = String::from_utf8_lossy(&fixed.stderr);
        assert!(fixed.status.success(), "{err}");
        assert_eq!(err.matches("(cached)").count(), 2, "{err}");
        assert_eq!(seq.stdout, fixed.stdout);
        assert_eq!(
            seq_csv,
            std::fs::read(cwd.join("results/smoke_sweep.csv")).expect("sweep CSV")
        );
        let again = sweep(&dir.join(format!("again{round}")), &cache, SEEDS, &PARALLEL);
        let err = String::from_utf8_lossy(&again.stderr);
        assert!(again.status.success(), "{err}");
        assert_eq!(err.matches("(cached)").count(), 3, "{err}");
        assert_eq!(seq.stdout, again.stdout);
    }
}

/// Sweeps `axis` in both modes and asserts the sweep is refused before
/// any cell runs: exit 1, no table, no CSV, no cache entry, and the same
/// one line on stderr, which is returned.
fn sweep_refused_before_any_cell_runs(name: &str, axis: &str) -> String {
    let dir = scratch(name);
    let refused = |mode: &str, extra: &[&str]| {
        let cwd = dir.join(mode);
        let out = sweep(&cwd, &dir.join("cache"), axis, extra);
        assert_eq!(out.status.code(), Some(1), "{mode}");
        assert!(out.stdout.is_empty(), "{mode} printed a banner or a table");
        assert!(!cwd.join("results").exists(), "{mode} wrote a CSV");
        String::from_utf8(out.stderr).expect("stderr is UTF-8")
    };
    let seq = refused("seq", &[]);
    assert_eq!(seq.lines().count(), 1, "{seq}");
    assert_eq!(seq, refused("par", &PARALLEL));
    assert!(!dir.join("cache").exists(), "a cache entry was created");
    seq
}

/// An axis can give a cell the `analysis` key the base file lacks; such
/// a sweep is refused before any cell runs, identically in both modes.
#[test]
fn sweep_rejects_an_analysis_axis_before_any_cell_runs() {
    let said = sweep_refused_before_any_cell_runs("analysis_axis", "analysis=t4_global_skew");
    assert!(said.contains("names an `analysis`"), "{said}");
}

/// So is one whose cell the validity gate turns away: parsing a cell is
/// the whole check, so no child is spawned to find out.
#[test]
fn sweep_rejects_an_invalid_cell_before_any_cell_runs() {
    let said = sweep_refused_before_any_cell_runs("invalid_axis", "fault=99 silent");
    assert!(said.contains("cell 99 silent: spec line "), "{said}");
    assert!(said.contains("fault node 99 out of range"), "{said}");
}

/// `xp list` validates: a directory holding a file the gate turns away
/// exits 1 and names the file and the line.
#[test]
fn list_names_a_file_the_gate_rejects() {
    let dir = scratch("list");
    let smoke = std::fs::read_to_string(spec_path("smoke.spec")).expect("smoke.spec");
    std::fs::write(dir.join("good.spec"), &smoke).expect("good.spec");
    std::fs::write(dir.join("bad.spec"), format!("{smoke}fault 99 silent\n")).expect("bad.spec");
    let out = Command::new(xp())
        .arg("list")
        .arg(&dir)
        .output()
        .expect("xp list");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let line = smoke.lines().count() + 1;
    assert!(err.contains("bad.spec"), "{err}");
    assert!(
        err.contains(&format!("spec line {line}: fault node 99 out of range")),
        "{err}"
    );
    assert!(!err.contains("good.spec"), "{err}");
}

/// A cell whose child crashes is run again, and the crashed attempt's
/// partial output is dropped. The crash comes from the test side: the
/// runner spawns a wrapper script that, on its first call only, prints
/// a partial line and exits non-zero, and otherwise `exec`s `xp`.
#[cfg(unix)]
#[test]
fn crashed_cell_is_retried_with_identical_output() {
    use ftgcs_serve::CellRunner;
    use std::os::unix::fs::PermissionsExt as _;

    const PARTIAL: &str = "partial output from a crashing cell";
    let dir = scratch("crash");
    let marker = dir.join("crashed_once");
    let wrapper = dir.join("xp_crashing_once.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\nif [ ! -e '{marker}' ]; then\n  : > '{marker}'\n  echo '{PARTIAL}'\n  \
             exit 3\nfi\nexec '{xp}' \"$@\"\n",
            marker = marker.display(),
            xp = xp(),
        ),
    )
    .expect("wrapper script");
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755))
        .expect("wrapper is executable");
    let spec = std::fs::read_to_string(spec_path("smoke.spec")).expect("smoke.spec");

    let mut direct = Command::new(xp())
        .args(["run-cell", "--row"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("xp run-cell");
    direct
        .stdin
        .take()
        .expect("stdin was piped")
        .write_all(spec.as_bytes())
        .expect("spec to run-cell");
    let direct = direct.wait_with_output().expect("xp run-cell");
    assert!(direct.status.success());
    let direct = String::from_utf8(direct.stdout).expect("stdout is UTF-8");

    let runner = CellRunner {
        binary: wrapper,
        retries: 2,
    };
    let outcome = runner
        .run_cell(&["--row"], &spec, None)
        .expect("the retry succeeds");
    assert_eq!(outcome.attempts, 2, "the first attempt must have crashed");
    assert!(marker.is_file(), "the wrapper never took the crash path");
    assert!(!outcome.stdout.contains(PARTIAL), "{}", outcome.stdout);
    // A row is the cell's wall clock, then what it measured: everything
    // after the wall clock is a pure function of the spec.
    let measured = |row: &str| row.split_once('\t').expect("a row").1.to_string();
    assert_eq!(measured(&outcome.stdout), measured(&direct));
}

/// Kills the serve child if a test assertion fires before shutdown.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One HTTP exchange: `request` is `"METHOD /path"`. Returns the
/// status code and the body.
fn http(addr: &str, request: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let (method, path) = request.split_once(' ').expect("request is METHOD /path");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    http_raw(addr, &[head.as_bytes(), body].concat())
}

/// Sends `raw` as it is, half-closes (so a request cut short reads as
/// EOF at the server, not as a ten-second timeout) and reads the reply.
fn http_raw(addr: &str, raw: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to xp serve");
    stream.write_all(raw).expect("send request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("reply has a header/body split");
    let head = std::str::from_utf8(&reply[..split]).expect("reply head is UTF-8");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {head:?}"));
    (status, reply[split + 4..].to_vec())
}

/// Pulls `"field": "value"` out of the service's JSON.
fn json_str(body: &str, field: &str) -> String {
    let tag = format!("\"{field}\": \"");
    let start = body
        .find(&tag)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
        + tag.len();
    body[start..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

#[test]
fn serve_runs_submissions_and_answers_repeats_from_cache() {
    let dir = scratch("serve");
    let mut child = Command::new(xp())
        .current_dir(&dir)
        .env("FTGCS_CACHE_DIR", dir.join("cache"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xp serve");
    let stdout = child.stdout.take().expect("serve stdout piped");
    let mut guard = KillOnDrop(child);
    // The reader must outlive the test body: dropping the pipe would
    // make the server's own stdout writes fail.
    let mut server_stdout = std::io::BufReader::new(stdout);
    let mut announce = String::new();
    server_stdout
        .read_line(&mut announce)
        .expect("serve announce line");
    let addr = announce
        .trim()
        .strip_prefix("xp serve: listening on http://")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .to_string();

    // In-process reference for byte-comparison.
    let ref_dir = dir.join("reference");
    std::fs::create_dir_all(&ref_dir).expect("reference dir");
    let status = Command::new(xp())
        .current_dir(&ref_dir)
        .arg("run")
        .arg(spec_path("smoke.spec"))
        .stdout(Stdio::null())
        .status()
        .expect("xp run");
    assert!(status.success());

    let spec_text = std::fs::read_to_string(spec_path("smoke.spec")).expect("smoke.spec");
    let (code, body) = http(&addr, "POST /submit", spec_text.as_bytes());
    assert_eq!(code, 202, "{}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).expect("submit reply is UTF-8");
    let job = json_str(&body, "job");
    assert_eq!(json_str(&body, "state"), "queued");

    let mut state = String::new();
    for _ in 0..600 {
        let (code, body) = http(&addr, &format!("GET /status/{job}"), b"");
        assert_eq!(code, 200);
        state = String::from_utf8(body).expect("status reply is UTF-8");
        match json_str(&state, "state").as_str() {
            "done" => break,
            "failed" => panic!("job failed: {state}"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    assert_eq!(
        json_str(&state, "state"),
        "done",
        "job never finished: {state}"
    );

    // Artifacts: the samples CSV byte-identical to the in-process run,
    // and the telemetry report in the machine-readable schema.
    let (code, csv) = http(&addr, &format!("GET /result/{job}/smoke_samples.csv"), b"");
    assert_eq!(code, 200);
    assert_eq!(
        csv,
        std::fs::read(ref_dir.join("results/smoke_samples.csv")).expect("reference CSV"),
        "served CSV diverged from the in-process run"
    );
    let (code, telemetry) = http(&addr, &format!("GET /result/{job}/telemetry.json"), b"");
    assert_eq!(code, 200);
    assert!(
        String::from_utf8_lossy(&telemetry).contains("ftgcs-telemetry-v1"),
        "telemetry artifact is not the machine-readable report"
    );
    let (code, listing) = http(&addr, &format!("GET /result/{job}"), b"");
    assert_eq!(code, 200);
    assert!(String::from_utf8_lossy(&listing).contains("smoke_summary.csv"));

    // What the validity gate turns away is turned away at the door —
    // 400 with the line and the sentence, nothing queued, no child
    // spawned to find out (`cells_spawned` below is still 1).
    let hostile = format!("{spec_text}fault 99 silent\n");
    let (code, body) = http(&addr, "POST /submit", hostile.as_bytes());
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(code, 400, "{body}");
    let line = spec_text.lines().count() + 1;
    assert!(
        body.contains(&format!("spec line {line}: fault node 99 out of range")),
        "{body}"
    );
    // So is a lookahead that no parallel window could add to the time:
    // the last `env` and `scheduler` lines win, the error is the latter's.
    let hostile = format!("{spec_text}env 1e-4 1e-3 0.0009999999999999998\nscheduler parallel 2\n");
    let (code, body) = http(&addr, "POST /submit", hostile.as_bytes());
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(code, 400, "{body}");
    let found = format!("spec line {}: scheduler parallel's lookahead", line + 1);
    assert!(body.contains(&found), "{body}");
    // And an analysis no child would know: refused by name, not queued.
    let hostile = format!("{spec_text}analysis no_such_analysis\n");
    let (code, body) = http(&addr, "POST /submit", hostile.as_bytes());
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(code, 400, "{body}");
    let found = format!("spec line {line}: unknown analysis \\\"no_such_analysis\\\"");
    assert!(body.contains(&found), "{body}");

    // Resubmitting the identical spec is answered from the cache:
    // still exactly one cell process ever spawned.
    let (code, body) = http(&addr, "POST /submit", spec_text.as_bytes());
    assert_eq!(code, 200);
    assert_eq!(
        json_str(&String::from_utf8(body).expect("UTF-8"), "state"),
        "done"
    );
    let (code, stats) = http(&addr, "GET /stats", b"");
    assert_eq!(code, 200);
    let stats = String::from_utf8(stats).expect("stats reply is UTF-8");
    assert!(stats.contains("\"cells_spawned\": 1"), "{stats}");
    assert!(stats.contains("\"cache_hits\": 1"), "{stats}");

    // A non-spec body is rejected, not enqueued.
    let (code, _) = http(&addr, "POST /submit", b"this is not a spec");
    assert_eq!(code, 400);
    let (code, _) = http(&addr, "GET /status/not-a-job-id", b"");
    assert_eq!(code, 400);
    let (code, _) = http(&addr, "GET /status/0123456789abcdef", b"");
    assert_eq!(code, 404);
    // A request cut off before the blank line that ends its headers is
    // rejected too, and the server carries on.
    let (code, _) = http_raw(&addr, b"GET /stats HTTP/1.1\r\nHost: x");
    assert_eq!(code, 400);
    let (code, _) = http(&addr, "GET /stats", b"");
    assert_eq!(code, 200);
    // A body that claims more than the request limit is refused before
    // the server waits for it.
    let (code, _) = http_raw(
        &addr,
        b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 9000000\r\n\r\n0123456789",
    );
    assert_eq!(code, 400);
    // One request per connection: bytes pipelined after a valid request
    // are never parsed as a second one, so exactly one reply comes back.
    let (code, body) = http_raw(
        &addr,
        b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n\x00\xffGET /shutdown HTTP/9\r\n\r\n\x01garbage",
    );
    assert_eq!(code, 200);
    assert!(
        !body.windows(9).any(|w| w == b"HTTP/1.1 "),
        "pipelined bytes drew a second reply: {}",
        String::from_utf8_lossy(&body)
    );
    let (code, _) = http(&addr, "GET /stats", b"");
    assert_eq!(code, 200);

    let (code, _) = http(&addr, "POST /shutdown", b"");
    assert_eq!(code, 200);
    let status = guard.0.wait().expect("serve exit status");
    assert!(status.success(), "serve exited with {status}");
}
