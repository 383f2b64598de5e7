//! The multi-process cell executor: a bounded job pool over
//! `xp run-cell` children, with retry-on-crash.
//!
//! Each cell runs in its own child process (std-only
//! [`std::process::Command`] + pipes): the canonical spec text goes in
//! on stdin, the cell's machine-readable product comes back on stdout,
//! and stderr (the `--progress` telemetry heartbeat) streams through a
//! caller-supplied callback. Because a cell is a pure function of its
//! spec text, a child that dies mid-run — OOM-killed, crashed,
//! machine fault — is simply re-spawned: the retry is byte-identical
//! to the run that would have been, so retries never change results.
//!
//! [`run_indexed`] is the pool: it executes `count` jobs over at most
//! `jobs` worker threads and delivers results **in index order** to a
//! completion callback, which is what lets `xp sweep --parallel` keep
//! its stdout byte-identical to the sequential in-process sweep.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How to reach the cell binary, and how persistent to be.
#[derive(Debug, Clone)]
pub struct CellRunner {
    /// The `xp` binary to spawn (`xp run-cell` children). The driver
    /// passes its own `current_exe`; tests pass `CARGO_BIN_EXE_xp`.
    pub binary: PathBuf,
    /// Extra spawn attempts after the first (so `retries = 2` means at
    /// most three processes per cell).
    pub retries: u32,
}

/// One finished cell: the child's stdout plus how many processes the
/// cell actually cost (1 on the happy path; more after crashes).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Child stdout of the successful attempt.
    pub stdout: String,
    /// Number of processes spawned (successful attempt included).
    pub attempts: u32,
}

impl CellRunner {
    /// Runs one `xp run-cell` child to completion, feeding
    /// `spec_text` on stdin and retrying on any non-zero exit. Each
    /// stderr line of the running attempt is passed to
    /// `on_stderr_line` (the service uses this to surface the
    /// telemetry heartbeat as job progress).
    ///
    /// # Errors
    ///
    /// Returns a message naming the exit status and the tail of the
    /// child's stderr once every attempt is exhausted.
    pub fn run_cell(
        &self,
        args: &[&str],
        spec_text: &str,
        on_stderr_line: Option<&(dyn Fn(&str) + Sync)>,
    ) -> Result<CellOutcome, String> {
        let max_attempts = self.retries.saturating_add(1);
        let mut last_error = String::new();
        for attempt in 1..=max_attempts {
            match self.run_once(args, spec_text, on_stderr_line) {
                Ok(stdout) => {
                    return Ok(CellOutcome {
                        stdout,
                        attempts: attempt,
                    });
                }
                Err(e) => last_error = e,
            }
        }
        Err(format!(
            "cell failed after {max_attempts} attempt(s): {last_error}"
        ))
    }

    /// One spawn: pipe the spec in, collect stdout, stream stderr.
    fn run_once(
        &self,
        args: &[&str],
        spec_text: &str,
        on_stderr_line: Option<&(dyn Fn(&str) + Sync)>,
    ) -> Result<String, String> {
        let mut child = Command::new(&self.binary)
            .arg("run-cell")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.binary.display()))?;

        // A child that dies before draining stdin surfaces as EPIPE
        // here; the exit status below is the authoritative verdict.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(spec_text.as_bytes());
        }
        let mut stdout_pipe = child.stdout.take().expect("stdout was piped");
        let stderr_pipe = child.stderr.take().expect("stderr was piped");

        let mut stdout = String::new();
        let stderr_tail: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let mut stdout_err = None;
        // Stderr must be drained concurrently with stdout: a child
        // blocked writing a full stderr pipe would deadlock against a
        // parent blocked reading stdout.
        #[allow(
            clippy::disallowed_methods,
            reason = "infrastructure thread: drains a child's stderr pipe"
        )]
        std::thread::scope(|s| {
            s.spawn(|| {
                for line in BufReader::new(stderr_pipe).lines() {
                    let Ok(line) = line else { break };
                    if let Some(cb) = on_stderr_line {
                        cb(&line);
                    }
                    let mut tail = stderr_tail.lock().expect("stderr tail lock");
                    if tail.len() >= 8 {
                        tail.remove(0);
                    }
                    tail.push(line);
                }
            });
            if let Err(e) = stdout_pipe.read_to_string(&mut stdout) {
                stdout_err = Some(e);
            }
        });
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if let Some(e) = stdout_err {
            return Err(format!("reading cell stdout: {e}"));
        }
        if status.success() {
            Ok(stdout)
        } else {
            let tail = stderr_tail.lock().expect("stderr tail lock").join(" | ");
            Err(format!("child exited with {status} (stderr: {tail})"))
        }
    }
}

/// Runs `count` jobs over a pool of at most `jobs` worker threads and
/// delivers every result — in **index order**, on the calling thread —
/// to `on_done` as it becomes deliverable. Returns all results, also
/// in index order.
///
/// All jobs run even if some fail: determinism makes every cell
/// independent, and the caller decides (after the fact, in order)
/// which failure to report. This keeps the pool free of abort
/// channels and keeps delivery order a pure function of the index.
pub fn run_indexed<T, F, D>(
    count: usize,
    jobs: usize,
    work: F,
    mut on_done: D,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
    D: FnMut(usize, &Result<T, String>),
{
    if count == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, count);
    if jobs == 1 {
        // Inline fast path: no threads, same delivery contract.
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            let r = work(k);
            on_done(k, &r);
            out.push(r);
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, String>>>> =
        Mutex::new((0..count).map(|_| None).collect());
    let ready = Condvar::new();
    let mut delivered = Vec::with_capacity(count);
    #[allow(
        clippy::disallowed_methods,
        reason = "infrastructure threads: the job pool runs child processes, never simulated events"
    )]
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= count {
                    break;
                }
                let r = work(k);
                *slots
                    .lock()
                    .expect("pool slots lock")
                    .get_mut(k)
                    .expect("slot index") = Some(r);
                ready.notify_all();
            });
        }
        for k in 0..count {
            let mut guard = slots.lock().expect("pool slots lock");
            while guard[k].is_none() {
                guard = ready.wait(guard).expect("pool condvar wait");
            }
            let r = guard[k].take().expect("slot just checked");
            drop(guard);
            on_done(k, &r);
            delivered.push(r);
        }
    });
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_delivers_in_index_order_regardless_of_finish_order() {
        // Later indices finish first (they sleep less), but delivery
        // and the returned vec stay in index order.
        let mut seen = Vec::new();
        let results = run_indexed(
            8,
            4,
            |k| {
                std::thread::sleep(std::time::Duration::from_millis(5 * (8 - k as u64)));
                Ok(k * 10)
            },
            |k, r| seen.push((k, *r.as_ref().expect("job ok"))),
        );
        assert_eq!(seen, (0..8).map(|k| (k, k * 10)).collect::<Vec<_>>());
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn pool_runs_every_job_even_after_failures() {
        let results = run_indexed(
            5,
            2,
            |k| {
                if k == 1 {
                    Err("boom".to_string())
                } else {
                    Ok(k)
                }
            },
            |_, _| {},
        );
        assert_eq!(results.len(), 5);
        assert!(results[1].is_err());
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 4);
    }

    #[test]
    fn single_job_pool_runs_inline() {
        let results = run_indexed(3, 1, Ok, |_, _| {});
        assert_eq!(results.len(), 3);
    }
}
