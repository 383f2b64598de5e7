//! The approximate-agreement step of the Lynch–Welch algorithm.
//!
//! Each round, a node collects one pulse-offset observation per cluster
//! member and computes the correction (Algorithm 1, line 12)
//!
//! ```text
//! Δ_v(r) = (S^(f+1) + S^(n−f)) / 2
//! ```
//!
//! where `S` is the observation multiset sorted ascending and `S^(i)` its
//! `i`-th element (1-indexed). Discarding the `f` smallest and `f` largest
//! entries ensures both selected order statistics lie within the range of
//! *correct* observations whenever at most `f` entries are Byzantine —
//! the classical trimmed-midpoint rule of Dolev et al. \[6\].

/// Outcome of the trimmed-midpoint computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Midpoint {
    /// The correction `Δ = (S^(f+1) + S^(n−f))/2`.
    pub delta: f64,
    /// The two selected order statistics (lower, upper).
    pub bounds: (f64, f64),
}

/// Computes the trimmed midpoint of `observations` tolerating `f` faults.
///
/// Missing observations (members whose pulse never arrived) must be encoded
/// as `f64::INFINITY`; at most `f` entries may be infinite, which the
/// trimming then removes from the upper side.
///
/// # Errors
///
/// Returns `Err` (with a diagnostic) when the multiset is too small
/// (`n < 2f+1`) or when a selected order statistic is non-finite (more than
/// `f` missing/faulty observations — an improper execution).
///
/// # Examples
///
/// ```
/// use ftgcs::agreement::trimmed_midpoint;
///
/// // 4 observations, f = 1: the outliers ±100 are discarded.
/// let m = trimmed_midpoint(&[-100.0, 0.0, 1.0, 100.0], 1).unwrap();
/// assert_eq!(m.delta, 0.5);
/// assert_eq!(m.bounds, (0.0, 1.0));
/// ```
pub fn trimmed_midpoint(observations: &[f64], f: usize) -> Result<Midpoint, MidpointError> {
    trimmed_midpoint_mut(&mut observations.to_vec(), f)
}

/// [`trimmed_midpoint`] on a buffer the caller gives up: sorts
/// `observations` in place instead of copying them, so ClusterSync,
/// which has no further use for its round's multiset, allocates nothing.
pub(crate) fn trimmed_midpoint_mut(
    observations: &mut [f64],
    f: usize,
) -> Result<Midpoint, MidpointError> {
    let n = observations.len();
    if n < 2 * f + 1 {
        return Err(MidpointError::TooFewObservations { n, f });
    }
    let sorted = observations;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations must not be NaN"));
    let lo = sorted[f]; // S^(f+1), 1-indexed
    let hi = sorted[n - 1 - f]; // S^(n-f)
    if !lo.is_finite() || !hi.is_finite() {
        return Err(MidpointError::TooManyMissing {
            missing: sorted.iter().filter(|x| !x.is_finite()).count(),
            f,
        });
    }
    Ok(Midpoint {
        delta: (lo + hi) / 2.0,
        bounds: (lo, hi),
    })
}

/// Why a trimmed midpoint could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MidpointError {
    /// Fewer than `2f+1` observations: trimming would remove everything.
    TooFewObservations {
        /// Number of observations supplied.
        n: usize,
        /// Fault budget.
        f: usize,
    },
    /// More than `f` observations were missing (non-finite), so a selected
    /// order statistic is not a real value.
    TooManyMissing {
        /// Number of non-finite observations.
        missing: usize,
        /// Fault budget.
        f: usize,
    },
}

impl std::fmt::Display for MidpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MidpointError::TooFewObservations { n, f: budget } => {
                write!(
                    f,
                    "need at least 2f+1 = {} observations, got {n}",
                    2 * budget + 1
                )
            }
            MidpointError::TooManyMissing { missing, f: budget } => write!(
                f,
                "{missing} observations missing, exceeding the fault budget f = {budget}"
            ),
        }
    }
}

impl std::error::Error for MidpointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_plain_midrange() {
        let m = trimmed_midpoint(&[1.0, 5.0, 3.0], 0).unwrap();
        assert_eq!(m.delta, 3.0);
        assert_eq!(m.bounds, (1.0, 5.0));
    }

    #[test]
    fn byzantine_extremes_cannot_move_result_outside_correct_range() {
        // Correct observations in [0, 1]; one Byzantine tries +inf and -inf.
        for bad in [f64::INFINITY, -1e30, 1e30] {
            let m = trimmed_midpoint(&[0.0, 0.4, 1.0, bad], 1).unwrap();
            assert!(
                (0.0..=1.0).contains(&m.delta),
                "bad={bad} moved delta to {}",
                m.delta
            );
        }
    }

    #[test]
    fn two_faults_with_seven_observations() {
        // k = 3f+1 = 7 with f = 2: four correct values around 10.
        let obs = [-999.0, -999.0, 9.0, 10.0, 11.0, 12.0, 999.0];
        let m = trimmed_midpoint(&obs, 2).unwrap();
        assert!((9.0..=12.0).contains(&m.delta));
        assert_eq!(m.bounds, (9.0, 11.0));
    }

    #[test]
    fn missing_observations_within_budget_are_fine() {
        let m = trimmed_midpoint(&[0.0, 0.2, 0.4, f64::INFINITY], 1).unwrap();
        assert_eq!(m.bounds, (0.2, 0.4));
    }

    #[test]
    fn too_many_missing_is_reported() {
        let err = trimmed_midpoint(&[0.0, 0.1, f64::INFINITY, f64::INFINITY], 1).unwrap_err();
        assert_eq!(err, MidpointError::TooManyMissing { missing: 2, f: 1 });
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn too_few_observations_is_reported() {
        let err = trimmed_midpoint(&[0.0, 1.0], 1).unwrap_err();
        assert!(matches!(
            err,
            MidpointError::TooFewObservations { n: 2, f: 1 }
        ));
        assert!(err.to_string().contains("2f+1"));
    }

    proptest::proptest! {
        /// The copying entry point and the in-place one agree bit for
        /// bit — missing entries, repeated values, error cases and
        /// all — and the former leaves its input alone.
        #[test]
        fn in_place_and_copying_midpoints_are_bit_equal(
            raw in proptest::collection::vec((0u8..8, -1e3f64..1e3), 0..30),
            f in 0usize..9,
        ) {
            let observations: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => f64::INFINITY,
                    1 => x.round(), // collisions, and both zeros
                    _ => x,
                })
                .collect();
            let bits = |m: Result<Midpoint, MidpointError>| {
                m.map(|m| (m.delta.to_bits(), m.bounds.0.to_bits(), m.bounds.1.to_bits()))
            };
            let before = observations.clone();
            let copied = bits(trimmed_midpoint(&observations, f));
            proptest::prop_assert_eq!(
                observations.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                before.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            let mut scratch = before;
            proptest::prop_assert_eq!(bits(trimmed_midpoint_mut(&mut scratch, f)), copied);
        }
    }

    #[test]
    fn result_is_permutation_invariant() {
        let a = trimmed_midpoint(&[3.0, 1.0, 2.0, 9.0, -4.0], 1).unwrap();
        let b = trimmed_midpoint(&[9.0, -4.0, 2.0, 1.0, 3.0], 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_cluster_sizes() {
        // k = 3f+1 observations for f = 0..3 always succeed when complete.
        for f in 0..4usize {
            let k = 3 * f + 1;
            let obs: Vec<f64> = (0..k).map(|i| i as f64).collect();
            let m = trimmed_midpoint(&obs, f).unwrap();
            assert!((0.0..k as f64).contains(&m.delta));
        }
    }
}
