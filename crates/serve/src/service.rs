//! The long-running results service behind `xp serve`.
//!
//! Typed submissions in, verified results out: a client `POST`s a spec
//! text to `/submit`, the service canonicalizes it (via a caller-
//! supplied [`Canonicalizer`] — this crate knows nothing about the
//! spec grammar), keys it by content hash, and either answers straight
//! from the [`ResultStore`] or enqueues it on a **bounded** submission
//! queue feeding the same multi-process executor `xp sweep --parallel`
//! uses. Job progress surfaces the child's `--progress` telemetry
//! heartbeat (`ftgcs-telemetry-v1` events/sec line); finished CSVs and
//! telemetry reports are fetched from the cache entry.
//!
//! Endpoints (one request per connection, `Connection: close`):
//!
//! | method & path              | effect                                        |
//! |----------------------------|-----------------------------------------------|
//! | `POST /submit`             | body = spec text → job id (hash), state       |
//! | `GET /status/<job>`        | state, attempts, heartbeat                    |
//! | `GET /result/<job>`        | list of artifact names                        |
//! | `GET /result/<job>/<file>` | one artifact (CSV / telemetry JSON / stdout)  |
//! | `GET /jobs`                | all jobs this process has seen                |
//! | `GET /stats`               | submissions, cache hits, cells spawned        |
//! | `POST /shutdown`           | graceful stop (drain running cells, exit)     |

use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use crate::cache::ResultStore;
use crate::exec::CellRunner;
use crate::hash::CellKey;
use crate::http::{json_escape, read_request, respond, Request};

/// A canonicalized submission, produced by the [`Canonicalizer`] the
/// `xp` driver supplies (it owns the spec grammar; this crate does
/// not).
#[derive(Debug, Clone)]
pub struct CellRequest {
    /// Content-hash identity: the job id and cache key.
    pub key: CellKey,
    /// Scenario name (display only).
    pub name: String,
    /// Canonical spec text — fed verbatim to the `run-cell` child, so
    /// two submissions differing only in formatting share one cell.
    pub canonical: String,
    /// Analysis name, if the spec dispatches into one.
    pub analysis: Option<String>,
}

/// Parses and canonicalizes a raw submitted spec text.
pub type Canonicalizer = dyn Fn(&str) -> Result<CellRequest, String> + Sync;

/// Configuration for one `serve` invocation.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port; the bound
    /// address is printed on stdout as `xp serve: listening on …`).
    pub addr: String,
    /// Executor worker threads (concurrent cells).
    pub jobs: usize,
    /// Maximum queued (not yet running) submissions; beyond it,
    /// `/submit` answers `503`.
    pub queue_capacity: usize,
    /// The content-addressed result store.
    pub store: ResultStore,
    /// How to spawn `run-cell` children.
    pub runner: CellRunner,
}

/// Lifecycle of one submitted cell.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Everything the service remembers about one job.
#[derive(Debug, Clone)]
struct Job {
    name: String,
    state: JobState,
    /// Child processes this job cost (0 for pure cache hits).
    attempts: u32,
    /// Last stderr line of the running child — the telemetry
    /// heartbeat when the cell runs with `--progress`.
    heartbeat: String,
    /// Completed without spawning anything (served from the store).
    cached: bool,
}

/// Monotonic service counters, exposed at `/stats`.
#[derive(Debug, Default, Clone)]
struct Stats {
    submissions: u64,
    cache_hits: u64,
    cells_spawned: u64,
    completed: u64,
}

/// One queue entry: what the worker needs to run the cell.
struct QueuedCell {
    key: CellKey,
    canonical: String,
}

struct Service<'a> {
    store: ResultStore,
    runner: CellRunner,
    queue_capacity: usize,
    jobs: Mutex<BTreeMap<String, Job>>,
    queue: Mutex<VecDeque<QueuedCell>>,
    queue_ready: Condvar,
    stats: Mutex<Stats>,
    shutdown: AtomicBool,
    canonicalize: &'a Canonicalizer,
}

/// Binds, prints the bound address on stdout (`xp serve: listening on
/// http://<addr>` — scripts and tests parse this line to discover an
/// ephemeral port), and serves until `POST /shutdown`.
///
/// # Errors
///
/// Returns a message if the listener cannot bind.
pub fn serve(config: ServeConfig, canonicalize: &Canonicalizer) -> Result<(), String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("xp serve: listening on http://{addr}");
    println!(
        "xp serve: {} executor job(s), cache at {}",
        config.jobs.max(1),
        config.store.root().display()
    );

    let service = Service {
        store: config.store,
        runner: config.runner,
        queue_capacity: config.queue_capacity.max(1),
        jobs: Mutex::new(BTreeMap::new()),
        queue: Mutex::new(VecDeque::new()),
        queue_ready: Condvar::new(),
        stats: Mutex::new(Stats::default()),
        shutdown: AtomicBool::new(false),
        canonicalize,
    };
    #[allow(
        clippy::disallowed_methods,
        reason = "infrastructure threads: executor workers over OS processes, never simulated events"
    )]
    std::thread::scope(|s| {
        for _ in 0..config.jobs.max(1) {
            s.spawn(|| service.worker_loop());
        }
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            if !service.handle(&mut stream) {
                break;
            }
        }
        service.shutdown.store(true, Ordering::SeqCst);
        service.queue_ready.notify_all();
    });
    println!("xp serve: shut down");
    Ok(())
}

impl Service<'_> {
    /// Executor worker: drain the queue until shutdown.
    fn worker_loop(&self) {
        loop {
            let cell = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(cell) = queue.pop_front() {
                        break cell;
                    }
                    queue = self.queue_ready.wait(queue).expect("queue condvar");
                }
            };
            self.execute(&cell);
        }
    }

    /// Runs one queued cell through a `run-cell --dir <staging>` child
    /// and publishes its artifacts.
    fn execute(&self, cell: &QueuedCell) {
        let hex = cell.key.hex();
        self.update_job(&hex, |job| job.state = JobState::Running);

        let staging = match self.store.begin(&cell.key) {
            Ok(staging) => staging,
            Err(e) => {
                self.finish_job(&hex, JobState::Failed(format!("cache staging: {e}")), 0);
                return;
            }
        };
        let dir = staging.dir().display().to_string();
        let heartbeat = |line: &str| {
            if !line.is_empty() {
                self.update_job(&hex, |job| job.heartbeat = line.to_string());
            }
        };
        match self
            .runner
            .run_cell(&["--dir", &dir], &cell.canonical, Some(&heartbeat))
        {
            Ok(outcome) => {
                let staged_ok = std::fs::write(staging.dir().join("stdout.txt"), &outcome.stdout)
                    .and_then(|()| staging.publish().map(|_| ()));
                match staged_ok {
                    Ok(()) => self.finish_job(&hex, JobState::Done, outcome.attempts),
                    Err(e) => self.finish_job(
                        &hex,
                        JobState::Failed(format!("publishing results: {e}")),
                        outcome.attempts,
                    ),
                }
            }
            Err(e) => {
                staging.discard();
                // Every allowed attempt spawned a process before the
                // cell was given up on.
                self.finish_job(&hex, JobState::Failed(e), self.runner.retries + 1);
            }
        }
    }

    fn update_job(&self, hex: &str, f: impl FnOnce(&mut Job)) {
        if let Some(job) = self.jobs.lock().expect("jobs lock").get_mut(hex) {
            f(job);
        }
    }

    fn finish_job(&self, hex: &str, state: JobState, attempts: u32) {
        let done = state == JobState::Done;
        self.update_job(hex, |job| {
            job.state = state;
            job.attempts = attempts;
        });
        let mut stats = self.stats.lock().expect("stats lock");
        stats.cells_spawned += u64::from(attempts);
        if done {
            stats.completed += 1;
        }
    }

    /// Handles one connection; returns `false` on `/shutdown`.
    fn handle(&self, stream: &mut TcpStream) -> bool {
        let request = match read_request(stream) {
            Ok(request) => request,
            Err(e) => {
                let body = format!("{{\"error\": \"{}\"}}\n", json_escape(&e));
                let _ = respond(
                    stream,
                    400,
                    "Bad Request",
                    "application/json",
                    body.as_bytes(),
                );
                return true;
            }
        };
        let path = request.target.split('?').next().unwrap_or("").to_string();
        let outcome: Result<(), String> = match (request.method.as_str(), path.as_str()) {
            ("POST", "/submit") => self.submit(stream, &request),
            ("GET", "/jobs") => self.list_jobs(stream),
            ("GET", "/stats") => self.send_stats(stream),
            ("GET", "/") => respond(stream, 200, "OK", "text/plain", INDEX.as_bytes())
                .map_err(|e| e.to_string()),
            ("POST", "/shutdown") => {
                let _ = respond(stream, 200, "OK", "application/json", b"{\"ok\": true}\n");
                return false;
            }
            ("GET", _) if path.starts_with("/status/") => {
                self.status(stream, path.trim_start_matches("/status/"))
            }
            ("GET", _) if path.starts_with("/result/") => {
                self.result(stream, path.trim_start_matches("/result/"))
            }
            _ => respond(
                stream,
                404,
                "Not Found",
                "application/json",
                b"{\"error\": \"no such endpoint (GET / for the index)\"}\n",
            )
            .map_err(|e| e.to_string()),
        };
        // A client that hung up mid-response is its own problem; the
        // service just moves on to the next connection.
        let _ = outcome;
        true
    }

    /// `POST /submit`: canonicalize → cache lookup → enqueue.
    fn submit(&self, stream: &mut TcpStream, request: &Request) -> Result<(), String> {
        self.stats.lock().expect("stats lock").submissions += 1;
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => return self.error(stream, 400, "spec body is not UTF-8"),
        };
        let cell = match (self.canonicalize)(text) {
            Ok(cell) => cell,
            Err(e) => return self.error(stream, 400, &e),
        };
        let hex = cell.key.hex();

        let mut jobs = self.jobs.lock().expect("jobs lock");
        if let Some(job) = jobs.get_mut(&hex) {
            // Known job: answer with its current state. A failed job
            // is given another chance (determinism makes that safe);
            // done/queued/running jobs spawn nothing new.
            let requeue = matches!(job.state, JobState::Failed(_));
            if requeue {
                job.state = JobState::Queued;
                job.heartbeat.clear();
            } else if job.state == JobState::Done {
                self.stats.lock().expect("stats lock").cache_hits += 1;
            }
            let body = job_json(&hex, job);
            drop(jobs);
            if requeue {
                self.enqueue(cell);
            }
            return respond(stream, 200, "OK", "application/json", body.as_bytes())
                .map_err(|e| e.to_string());
        }
        if self.store.is_done(&cell.key) {
            // Content-hash cache hit: the spec was computed in some
            // earlier run (even an earlier server process). No child
            // is spawned — this is the acceptance path the smoke test
            // pins by watching `cells_spawned`.
            let job = Job {
                name: cell.name.clone(),
                state: JobState::Done,
                attempts: 0,
                heartbeat: String::new(),
                cached: true,
            };
            let body = job_json(&hex, &job);
            jobs.insert(hex, job);
            drop(jobs);
            self.stats.lock().expect("stats lock").cache_hits += 1;
            return respond(stream, 200, "OK", "application/json", body.as_bytes())
                .map_err(|e| e.to_string());
        }
        if self.queue.lock().expect("queue lock").len() >= self.queue_capacity {
            drop(jobs);
            return self.error(stream, 503, "submission queue is full; retry later");
        }
        let job = Job {
            name: cell.name.clone(),
            state: JobState::Queued,
            attempts: 0,
            heartbeat: String::new(),
            cached: false,
        };
        let body = job_json(&hex, &job);
        jobs.insert(hex, job);
        drop(jobs);
        self.enqueue(cell);
        respond(stream, 202, "Accepted", "application/json", body.as_bytes())
            .map_err(|e| e.to_string())
    }

    fn enqueue(&self, cell: CellRequest) {
        self.queue
            .lock()
            .expect("queue lock")
            .push_back(QueuedCell {
                key: cell.key,
                canonical: cell.canonical,
            });
        self.queue_ready.notify_one();
    }

    /// `GET /status/<job>`.
    fn status(&self, stream: &mut TcpStream, hex: &str) -> Result<(), String> {
        let Some(key) = CellKey::parse_hex(hex) else {
            return self.error(stream, 400, "job id must be 16 hex digits");
        };
        let jobs = self.jobs.lock().expect("jobs lock");
        if let Some(job) = jobs.get(hex) {
            let body = job_json(hex, job);
            drop(jobs);
            return respond(stream, 200, "OK", "application/json", body.as_bytes())
                .map_err(|e| e.to_string());
        }
        drop(jobs);
        if self.store.is_done(&key) {
            // Completed by an earlier server process over the same
            // cache: adopt it.
            let job = Job {
                name: "(cached)".to_string(),
                state: JobState::Done,
                attempts: 0,
                heartbeat: String::new(),
                cached: true,
            };
            let body = job_json(hex, &job);
            self.jobs
                .lock()
                .expect("jobs lock")
                .insert(hex.to_string(), job);
            return respond(stream, 200, "OK", "application/json", body.as_bytes())
                .map_err(|e| e.to_string());
        }
        self.error(stream, 404, "unknown job")
    }

    /// `GET /result/<job>[/<file>]`.
    fn result(&self, stream: &mut TcpStream, rest: &str) -> Result<(), String> {
        let (hex, file) = match rest.split_once('/') {
            Some((hex, file)) => (hex, Some(file)),
            None => (rest, None),
        };
        let Some(key) = CellKey::parse_hex(hex) else {
            return self.error(stream, 400, "job id must be 16 hex digits");
        };
        if !self.store.is_done(&key) {
            let state = self
                .jobs
                .lock()
                .expect("jobs lock")
                .get(hex)
                .map(|job| job.state.name().to_string());
            return match state {
                Some(state) => self.error(stream, 409, &format!("job is {state}, not done")),
                None => self.error(stream, 404, "unknown job"),
            };
        }
        let Some(file) = file else {
            let names = self.store.artifacts(&key);
            let list = names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ");
            let body = format!("{{\"job\": \"{hex}\", \"artifacts\": [{list}]}}\n");
            return respond(stream, 200, "OK", "application/json", body.as_bytes())
                .map_err(|e| e.to_string());
        };
        match self.store.read(&key, file) {
            Ok(bytes) => {
                let content_type = match file.rsplit_once('.').map(|(_, ext)| ext) {
                    Some("json") => "application/json",
                    Some("csv") => "text/csv",
                    _ => "text/plain",
                };
                respond(stream, 200, "OK", content_type, &bytes).map_err(|e| e.to_string())
            }
            Err(e) => self.error(stream, 404, &format!("no artifact {file:?}: {e}")),
        }
    }

    /// `GET /jobs`.
    fn list_jobs(&self, stream: &mut TcpStream) -> Result<(), String> {
        let jobs = self.jobs.lock().expect("jobs lock");
        let entries = jobs
            .iter()
            .map(|(hex, job)| job_json(hex, job))
            .collect::<Vec<_>>()
            .join(", ");
        drop(jobs);
        let body = format!("{{\"jobs\": [{entries}]}}\n");
        respond(stream, 200, "OK", "application/json", body.as_bytes()).map_err(|e| e.to_string())
    }

    /// `GET /stats`.
    fn send_stats(&self, stream: &mut TcpStream) -> Result<(), String> {
        let stats = self.stats.lock().expect("stats lock").clone();
        let body = format!(
            "{{\"submissions\": {}, \"cache_hits\": {}, \"cells_spawned\": {}, \"completed\": {}}}\n",
            stats.submissions, stats.cache_hits, stats.cells_spawned, stats.completed
        );
        respond(stream, 200, "OK", "application/json", body.as_bytes()).map_err(|e| e.to_string())
    }

    fn error(&self, stream: &mut TcpStream, status: u16, msg: &str) -> Result<(), String> {
        let reason = match status {
            400 => "Bad Request",
            404 => "Not Found",
            409 => "Conflict",
            503 => "Service Unavailable",
            _ => "Error",
        };
        let body = format!("{{\"error\": \"{}\"}}\n", json_escape(msg));
        respond(stream, status, reason, "application/json", body.as_bytes())
            .map_err(|e| e.to_string())
    }
}

/// Renders one job as a JSON object.
fn job_json(hex: &str, job: &Job) -> String {
    let mut out = format!(
        "{{\"job\": \"{hex}\", \"name\": \"{}\", \"state\": \"{}\", \"cached\": {}, \"attempts\": {}",
        json_escape(&job.name),
        job.state.name(),
        job.cached,
        job.attempts
    );
    if !job.heartbeat.is_empty() {
        out.push_str(&format!(
            ", \"heartbeat\": \"{}\"",
            json_escape(&job.heartbeat)
        ));
    }
    if let JobState::Failed(e) = &job.state {
        out.push_str(&format!(", \"error\": \"{}\"", json_escape(e)));
    }
    out.push('}');
    out
}

/// `GET /` index text.
const INDEX: &str = "ftgcs results service (xp serve)

  POST /submit                body = spec text -> {job, state, cached}
  GET  /status/<job>          job state + telemetry heartbeat
  GET  /result/<job>          artifact listing
  GET  /result/<job>/<file>   one artifact (CSV, telemetry.json, stdout.txt)
  GET  /jobs                  every job this process has seen
  GET  /stats                 submissions / cache_hits / cells_spawned
  POST /shutdown              graceful stop

Jobs are keyed by an FNV-1a content hash of the canonical spec
printing: resubmitting an unchanged spec is a cache hit and spawns no
cell process.
";
