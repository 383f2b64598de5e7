//! Workload input generators: `(workload, seed, scale) → spec text`.
//!
//! The program under test only ever sees what is generated here — spec
//! text for the spec-driven workloads, sweep axes and submission bodies
//! for the shell workloads. Generation is a pure function of the seed:
//! the same seed gives byte-identical text, another seed gives another
//! `seed` line and nothing else, so every run of a workload does the
//! same kind of work on different random draws.

use std::fmt::Write as _;

/// How large a run is: the sizes of `BENCHMARK.json`, or `--smoke`'s
/// twentieth of them (same checks, no meaningful timings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` scaled down for `--smoke`, never below `floor`.
    pub fn size(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(floor),
        }
    }
}

/// SplitMix64 step: decorrelates the per-workload and per-cell seeds
/// derived from the one `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `seed` line value of stream `stream` (a workload, a sweep cell,
/// a submission) under benchmark seed `seed`. Kept below 2^53 so it
/// survives any float round-trip a tool downstream might apply.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 11
}

const ENV: &str = "env 1e-4 1e-3 1e-4\n";

/// `line64_global` / `line64_par2`: the paper's headline setting, a
/// line of 64 clusters (diameter 63) with `f = 1`, 256 nodes. The two
/// workloads share one seed stream so their digests must agree.
pub fn line64(seed: u64, scale: Scale, parallel_workers: Option<usize>) -> String {
    let mut text = format!(
        "name line64\ntopology line 64\nf 1\n{ENV}seed {}\nduration {} rounds\n\
         sample_interval half_round\n",
        derive_seed(seed, 1),
        scale.size(100, 10),
    );
    if let Some(workers) = parallel_workers {
        let _ = writeln!(text, "scheduler parallel {workers}");
    }
    text
}

/// `fatcluster_churn`: three fat clusters (`f = 4`, `k = 13`) with two
/// permanent two-faced liars per cluster, one churner and one mobile
/// adversary — `f` scheduled faults per cluster at the worst instant,
/// plus whichever nodes are still re-integrating after one.
pub fn fatcluster_churn(seed: u64, scale: Scale) -> String {
    format!(
        "name fatcluster_churn\ntopology ring 3\nf 4\n{ENV}seed {}\nduration {} rounds\n\
         fault_per_cluster 2 two_faced 0.001\nchurn 1 silent period 2.0 downtime 0.7\n\
         mobile 1 skew_puller -0.001 hop 3.0\n",
        derive_seed(seed, 2),
        scale.size(250, 25),
    )
}

/// `stream_dense`: a small grid sampled every 0.5 ms, so the observer
/// pipeline (CSV formatting above all) does most of the work.
pub fn stream_dense(seed: u64, scale: Scale) -> String {
    format!(
        "name stream_dense\ntopology grid 3 3\nf 1\n{ENV}seed {}\nduration {} rounds\n\
         sample_interval 0.0005\n",
        derive_seed(seed, 3),
        scale.size(200, 20),
    )
}

/// The base spec `sweep_cells` sweeps; the `seed` and `f` axes are
/// appended by `xp sweep` itself.
pub fn sweep_base(scale: Scale) -> String {
    format!(
        "name sweep_cells\ntopology grid 3 3\nf 1\n{ENV}duration {} rounds\n",
        scale.size(20, 4),
    )
}

/// The `seed=` axis of `sweep_cells`: `count` distinct seeds.
pub fn sweep_seed_axis(seed: u64, count: usize) -> String {
    let values: Vec<String> = (0..count as u64)
        .map(|i| derive_seed(seed, 100 + i).to_string())
        .collect();
    format!("seed={}", values.join(","))
}

/// Submission `index` of `serve_closed`: `experiments/smoke.spec` with
/// a distinct seed (so every submission is a distinct cache key).
pub fn serve_submission(seed: u64, index: usize) -> String {
    format!(
        "name smoke\ntopology line 2\nf 1\n{ENV}seed {}\nduration 8 rounds\n",
        derive_seed(seed, 1000 + index as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_bench::spec::SpecFile;

    fn all(seed: u64, scale: Scale) -> Vec<String> {
        vec![
            line64(seed, scale, None),
            line64(seed, scale, Some(2)),
            fatcluster_churn(seed, scale),
            stream_dense(seed, scale),
            sweep_base(scale),
            serve_submission(seed, 0),
            serve_submission(seed, 399),
        ]
    }

    #[test]
    fn same_seed_gives_byte_identical_text() {
        assert_eq!(all(7, Scale::Full), all(7, Scale::Full));
        assert_eq!(sweep_seed_axis(7, 8), sweep_seed_axis(7, 8));
    }

    #[test]
    fn another_seed_gives_another_text() {
        for ((a, b), k) in all(7, Scale::Full).iter().zip(all(8, Scale::Full)).zip(0..) {
            // The sweep base carries no seed line: its seeds are the axis.
            assert_eq!(a == &b, k == 4, "generator {k}");
        }
        assert_ne!(sweep_seed_axis(7, 8), sweep_seed_axis(8, 8));
        assert_ne!(serve_submission(7, 0), serve_submission(7, 1));
    }

    #[test]
    fn every_generated_spec_round_trips() {
        for scale in [Scale::Full, Scale::Smoke] {
            for text in all(20190729, scale) {
                let file = SpecFile::parse(&text).expect("generated spec parses");
                assert_eq!(SpecFile::parse(&file.print()).as_ref(), Ok(&file), "{text}");
            }
        }
    }

    #[test]
    fn sweep_axis_has_distinct_values() {
        let axis = sweep_seed_axis(1, 8);
        let mut values: Vec<&str> = axis.trim_start_matches("seed=").split(',').collect();
        assert_eq!(values.len(), 8);
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 8);
    }

    #[test]
    fn line64_variants_differ_only_in_the_scheduler_line() {
        let global = line64(3, Scale::Full, None);
        let par = line64(3, Scale::Full, Some(2));
        assert_eq!(par, format!("{global}scheduler parallel 2\n"));
    }
}
