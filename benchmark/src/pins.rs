//! Counts pinned for the default seed.
//!
//! A deterministic simulator repeats its simulated statistics exactly,
//! so for `--seed DEFAULT_SEED` at full size every repetition must
//! dispatch exactly these events and deliver exactly these messages. A
//! change that moves them is by definition not a pure speed-up: it
//! re-baselines these numbers in a change of its own.

/// The seed `run.sh` and `aa.sh` use when none is given (the paper's
/// PODC presentation date).
pub const DEFAULT_SEED: u64 = 20_190_729;

/// `(events, messages)` of one repetition of simulation workload `name`.
pub fn counts(name: &str) -> (u64, u64) {
    match name {
        "line64_global" | "line64_par2" => (4_361_814, 3_629_144),
        "flood_raw" => (4_559_678, 4_174_177),
        "fatcluster_churn" => (4_168_223, 3_939_899),
        "stream_dense" => (1_654_650, 1_282_740),
        other => panic!("no pinned counts for {other}"),
    }
}
