//! The content-addressed result store: `results/cache/<key>/`.
//!
//! One directory per [`CellKey`], holding whatever artifacts the cell
//! produced (`row.tsv` for sweep rows; `stdout.txt`, `telemetry.json`,
//! and a `results/` subtree for full runs) plus a `DONE` marker.
//! Publication is atomic: artifacts are staged in a sibling temp
//! directory, the marker is written last, and a single `rename` flips
//! the entry live — a reader never observes a half-written entry, and
//! a crashed producer leaves only an unreferenced temp directory.
//!
//! Because a cell is a pure function of its canonical spec text (the
//! determinism contract), a populated entry never goes stale: a cache
//! hit is exactly as authoritative as a fresh run.

use std::io;
use std::path::{Path, PathBuf};

use crate::hash::CellKey;

/// Name of the completion marker inside a published entry.
const DONE_MARKER: &str = "DONE";

/// A content-addressed store rooted at some directory (by default
/// `results/cache`, overridable with `FTGCS_CACHE_DIR`).
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// A store rooted at `root` (created lazily on first write).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultStore { root: root.into() }
    }

    /// The store named by `FTGCS_CACHE_DIR`, defaulting to
    /// `results/cache` under the current working directory.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("FTGCS_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => ResultStore::new(dir),
            _ => ResultStore::new("results/cache"),
        }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The (published) entry directory for `key`.
    #[must_use]
    pub fn entry_dir(&self, key: &CellKey) -> PathBuf {
        self.root.join(key.hex())
    }

    /// Whether a completed entry exists for `key`.
    #[must_use]
    pub fn is_done(&self, key: &CellKey) -> bool {
        self.entry_dir(key).join(DONE_MARKER).is_file()
    }

    /// Reads one artifact from a **completed** entry. `rel` must be a
    /// plain file name ([`artifact_name_ok`]); full runs may nest
    /// their CSVs under `results/`, so a name not found at the entry
    /// root is also looked up there. A hit costs one probe of the
    /// `DONE` marker and the read.
    ///
    /// # Errors
    ///
    /// `NotFound` if the entry is absent/incomplete or the artifact
    /// does not exist; `InvalidInput` for a malformed name.
    pub fn read(&self, key: &CellKey, rel: &str) -> io::Result<Vec<u8>> {
        if !artifact_name_ok(rel) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid artifact name {rel:?}"),
            ));
        }
        let dir = self.entry_dir(key);
        if !dir.join(DONE_MARKER).is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no completed entry for {key}"),
            ));
        }
        match std::fs::read(dir.join(rel)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::read(dir.join("results").join(rel))
            }
            read => read,
        }
    }

    /// Removes the entry for `key`, if there is one. A reader that
    /// finds an artifact it cannot use evicts the entry, so that the
    /// recomputed one takes its place: [`Staging::publish`] keeps any
    /// completed entry it finds.
    ///
    /// # Errors
    ///
    /// Propagates removal failures other than `NotFound`.
    pub fn evict(&self, key: &CellKey) -> io::Result<()> {
        match std::fs::remove_dir_all(self.entry_dir(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            removed => removed,
        }
    }

    /// Lists a completed entry's artifacts (entry root plus the
    /// `results/` subtree), sorted. Empty for absent entries.
    #[must_use]
    pub fn artifacts(&self, key: &CellKey) -> Vec<String> {
        let mut names = Vec::new();
        if !self.is_done(key) {
            return names;
        }
        let dir = self.entry_dir(key);
        for d in [dir.clone(), dir.join("results")] {
            let Ok(entries) = std::fs::read_dir(&d) else {
                continue;
            };
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if entry.path().is_file() && name != DONE_MARKER {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    /// Opens a staging directory for `key`: a temp sibling the caller
    /// fills with artifacts, then [`Staging::publish`]es.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn begin(&self, key: &CellKey) -> io::Result<Staging> {
        // Process-id suffix keeps concurrent producer *processes* (two
        // sweeps, a sweep plus the service) apart; the sequence number
        // keeps concurrent stagings within one process apart.
        static STAGING_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STAGING_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self
            .root
            .join(format!(".tmp-{}-{}-{seq}", key.hex(), std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Staging {
            dir,
            final_dir: self.entry_dir(key),
        })
    }
}

/// An in-progress cache entry; artifacts written under
/// [`Staging::dir`] become visible only after [`Staging::publish`].
#[derive(Debug)]
pub struct Staging {
    dir: PathBuf,
    final_dir: PathBuf,
}

impl Staging {
    /// The directory to write artifacts into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically publishes the staged artifacts: writes the `DONE`
    /// marker, then renames the staging directory into place. If a
    /// concurrent producer already published a completed entry —
    /// byte-identical by determinism — the staged copy is discarded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn publish(self) -> io::Result<PathBuf> {
        std::fs::write(self.dir.join(DONE_MARKER), b"ok\n")?;
        if self.final_dir.join(DONE_MARKER).is_file() {
            std::fs::remove_dir_all(&self.dir)?;
            return Ok(self.final_dir);
        }
        if self.final_dir.exists() {
            // A stale incomplete entry (e.g. a producer killed between
            // rename steps in some earlier scheme): replace it.
            std::fs::remove_dir_all(&self.final_dir)?;
        }
        std::fs::rename(&self.dir, &self.final_dir)?;
        Ok(self.final_dir)
    }

    /// Drops the staged artifacts without publishing.
    pub fn discard(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A safe artifact name: non-empty, no path separators, no leading
/// dot — a single plain file-name component, so request paths cannot
/// escape the entry directory.
#[must_use]
pub fn artifact_name_ok(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ftgcs_store_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_makes_entry_visible_atomically() {
        let store = ResultStore::new(scratch("publish"));
        let key = CellKey::from_parts(&["t", "a"]);
        assert!(!store.is_done(&key));
        let staging = store.begin(&key).unwrap();
        std::fs::write(staging.dir().join("row.tsv"), b"1\t2\n").unwrap();
        assert!(!store.is_done(&key), "staged entries must stay invisible");
        staging.publish().unwrap();
        assert!(store.is_done(&key));
        assert_eq!(store.read(&key, "row.tsv").unwrap(), b"1\t2\n");
        assert_eq!(store.artifacts(&key), vec!["row.tsv".to_string()]);
    }

    #[test]
    fn nested_results_artifacts_are_found() {
        let store = ResultStore::new(scratch("nested"));
        let key = CellKey::from_parts(&["t", "b"]);
        let staging = store.begin(&key).unwrap();
        std::fs::create_dir_all(staging.dir().join("results")).unwrap();
        std::fs::write(staging.dir().join("results/x_samples.csv"), b"t,v\n").unwrap();
        staging.publish().unwrap();
        assert_eq!(store.read(&key, "x_samples.csv").unwrap(), b"t,v\n");
        assert_eq!(
            store.read(&key, "missing.csv").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn an_entry_without_its_marker_is_not_read() {
        let store = ResultStore::new(scratch("unmarked"));
        let key = CellKey::from_parts(&["t", "f"]);
        std::fs::create_dir_all(store.entry_dir(&key)).unwrap();
        std::fs::write(store.entry_dir(&key).join("row.tsv"), b"1\t2\n").unwrap();
        let err = store.read(&key, "row.tsv").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::write(store.entry_dir(&key).join(DONE_MARKER), b"ok\n").unwrap();
        assert_eq!(store.read(&key, "row.tsv").unwrap(), b"1\t2\n");
    }

    #[test]
    fn an_evicted_entry_gives_way_to_the_next_publisher() {
        let store = ResultStore::new(scratch("evict"));
        let key = CellKey::from_parts(&["t", "g"]);
        store.evict(&key).unwrap();
        let first = store.begin(&key).unwrap();
        std::fs::write(first.dir().join("row.tsv"), b"bad\n").unwrap();
        first.publish().unwrap();
        store.evict(&key).unwrap();
        assert!(!store.is_done(&key));
        let second = store.begin(&key).unwrap();
        std::fs::write(second.dir().join("row.tsv"), b"good\n").unwrap();
        second.publish().unwrap();
        assert_eq!(store.read(&key, "row.tsv").unwrap(), b"good\n");
    }

    #[test]
    fn racing_publishers_keep_the_first_entry() {
        let store = ResultStore::new(scratch("race"));
        let key = CellKey::from_parts(&["t", "c"]);
        let first = store.begin(&key).unwrap();
        std::fs::write(first.dir().join("row.tsv"), b"first\n").unwrap();
        let second = store.begin(&key).unwrap();
        std::fs::write(second.dir().join("row.tsv"), b"second\n").unwrap();
        first.publish().unwrap();
        second.publish().unwrap();
        // Determinism makes the two byte-identical in real use; the
        // store just has to keep exactly one completed entry.
        assert_eq!(store.read(&key, "row.tsv").unwrap(), b"first\n");
    }

    #[test]
    fn discard_leaves_no_entry() {
        let store = ResultStore::new(scratch("discard"));
        let key = CellKey::from_parts(&["t", "d"]);
        let staging = store.begin(&key).unwrap();
        std::fs::write(staging.dir().join("row.tsv"), b"x\n").unwrap();
        staging.discard();
        assert!(!store.is_done(&key));
    }

    #[test]
    fn artifact_names_cannot_escape() {
        assert!(artifact_name_ok("smoke_samples.csv"));
        assert!(artifact_name_ok("telemetry.json"));
        for bad in ["", "..", "../x", "a/b", ".hidden", "a\\b", "DONE extra?"] {
            assert!(!artifact_name_ok(bad), "accepted {bad:?}");
        }
        let store = ResultStore::new(scratch("escape"));
        let key = CellKey::from_parts(&["t", "e"]);
        assert!(store.read(&key, "../secrets").is_err());
    }
}
