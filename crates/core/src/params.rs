//! Parameter derivation (paper Sections 3–4, Appendix B.3, Eq. (5)).
//!
//! Given the physical constants — drift bound `ρ`, maximum delay `d`, delay
//! uncertainty `U` — and the fault budget `f`, this module derives every
//! constant the algorithm needs:
//!
//! * the rate-control constants `µ = c₂·ρ` and `ϕ = 1/c₁`,
//! * the steady-state pulse-diameter bound `E = β/(1−α)` (Eq. 11),
//! * the phase durations `τ₁ = ϑ_g E`, `τ₂ = ϑ_g(E+d)`,
//!   `τ₃ = ϑ_g(E+U)/ϕ` and round length `T` (Eq. 10),
//! * the trigger slack `δ = (k+5)E` and step `κ = 3δ` (Lemma 4.8),
//!
//! and checks feasibility (`α < 1`, `0 < ϕ < 1`, `c₂ ≥ 16`). Two presets
//! are provided: [`Params::paper`] uses the exact constants of Eq. (5)
//! (`c₂ = 32`, `ε = 1/4096`), which are only feasible for
//! `ρ ≲ 2·10⁻⁶`; [`Params::practical`] keeps the same structure with a
//! configurable margin `ε` (default `0.1`), feasible for realistic quartz
//! drifts (`ρ ≈ 10⁻⁴`).

use std::error::Error;
use std::fmt;

/// Why a parameter set is infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// A physical input was non-positive, NaN, or inconsistent (`U > d`).
    InvalidInput(String),
    /// The contraction factor `α` is at least 1, so the Lynch–Welch
    /// recursion `e(r+1) = α·e(r) + β` does not converge (paper, Eq. 11).
    /// Decrease `ρ`, decrease `c₂`, or increase the margin `ε`.
    NotContracting {
        /// The computed `α ≥ 1`.
        alpha: f64,
    },
    /// A derived constant violated its range (e.g. `ϕ ∉ (0,1)`).
    DerivedOutOfRange(String),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ParamError::NotContracting { alpha } => write!(
                f,
                "round-error recursion does not contract (alpha = {alpha:.6} >= 1); \
                 reduce rho or c2, or increase epsilon"
            ),
            ParamError::DerivedOutOfRange(msg) => {
                write!(f, "derived constant out of range: {msg}")
            }
        }
    }
}

impl Error for ParamError {}

/// Complete, validated parameter set for one deployment.
///
/// Constructed by [`Params::paper`], [`Params::practical`], or
/// [`ParamsBuilder`]; all fields are read-only afterwards.
///
/// # Examples
///
/// ```
/// use ftgcs::params::Params;
///
/// // 1 ms links with 100 µs jitter, quartz-grade drift, f = 1.
/// let p = Params::practical(1e-4, 1e-3, 1e-4, 1).unwrap();
/// assert!(p.alpha < 1.0);
/// assert!(p.e > 0.0);
/// assert!(p.kappa > p.delta);
/// // Eq. (10): the round is dominated by the amortization phase tau3.
/// assert!(p.tau3 > 10.0 * (p.tau1 + p.tau2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Hardware drift bound ρ.
    pub rho: f64,
    /// Maximum message delay `d` (seconds).
    pub d: f64,
    /// Delay uncertainty `U` (seconds).
    pub u: f64,
    /// Fault budget per cluster `f`.
    pub f: usize,
    /// Cluster size `k ≥ 3f+1`.
    pub cluster_size: usize,
    /// Amortization constant `c₁ = 1/ϕ` (Eq. 5; `Θ(1/ρ)`).
    pub c1: f64,
    /// Rate-boost constant `c₂` with `µ = c₂·ρ` (paper: 32).
    pub c2: f64,
    /// Contraction margin `ε` (paper: 1/4096).
    pub epsilon: f64,
    /// Fast-mode rate boost `µ = c₂·ρ`.
    pub mu: f64,
    /// Amortization gain `ϕ = 1/c₁ ∈ (0, 1)`.
    pub phi: f64,
    /// `ϑ_g = (1+ρ)(1+µ)`: nominal clock rate bound (Eq. 6 context).
    pub theta_g: f64,
    /// `ϑ_max = (1 + 2ϕ/(1−ϕ))(1+µ)(1+ρ)`: absolute logical rate bound
    /// (Notation B.5).
    pub theta_max: f64,
    /// Contraction factor of the round-error recursion (Eq. 11).
    pub alpha: f64,
    /// Additive term of the round-error recursion (Eq. 11).
    pub beta: f64,
    /// Steady-state pulse-diameter bound `E = β/(1−α)`.
    pub e: f64,
    /// Phase 1 duration `τ₁ = ϑ_g·E` (logical time).
    pub tau1: f64,
    /// Phase 2 duration `τ₂ = ϑ_g·(E+d)`.
    pub tau2: f64,
    /// Phase 3 duration `τ₃ = ϑ_g·(E+U)/ϕ`.
    pub tau3: f64,
    /// Round length `T = τ₁+τ₂+τ₃`.
    pub t_round: f64,
    /// Unanimity constant `k` of Lemma 3.6 (rounds of unanimity required
    /// before the amortized-rate bounds hold).
    pub k_rounds: usize,
    /// Trigger slack `δ = (k_rounds + 5)·E` (Lemma 4.8).
    pub delta: f64,
    /// Trigger step `κ = 3δ` (Lemma 4.8).
    pub kappa: f64,
    /// Catch-up threshold constant `c` of Theorem C.3 (fast mode when
    /// `L_v ≤ M_v − c·δ`).
    pub catch_up_c: f64,
    /// Max-estimator level granularity (seconds of logical time per level
    /// pulse). See `global_max` module docs for the safety argument.
    pub level_unit: f64,
}

impl Params {
    /// The paper's exact constants (Eq. 5): `c₂ = 32`, `ε = 1/4096`,
    /// `c₁ = ((1/2)−ε)/((1+c₂)ρ)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::NotContracting`] unless `ρ` is *very* small
    /// (≈ `2·10⁻⁶` or less with these constants) — the paper's
    /// "sufficiently small ρ" is quantitatively demanding.
    pub fn paper(rho: f64, d: f64, u: f64, f: usize) -> Result<Params, ParamError> {
        ParamsBuilder::new(rho, d, u, f)
            .c2(32.0)
            .epsilon(1.0 / 4096.0)
            .build()
    }

    /// The paper's construction with a relaxed contraction margin
    /// (`ε = 0.1`), feasible for quartz-grade drifts (`ρ ≲ 5·10⁻⁴`).
    ///
    /// # Errors
    ///
    /// Returns an error if the inputs are invalid or the combination is
    /// still infeasible.
    pub fn practical(rho: f64, d: f64, u: f64, f: usize) -> Result<Params, ParamError> {
        ParamsBuilder::new(rho, d, u, f).build()
    }

    /// Starts a custom parameter build.
    #[must_use]
    pub fn builder(rho: f64, d: f64, u: f64, f: usize) -> ParamsBuilder {
        ParamsBuilder::new(rho, d, u, f)
    }

    /// The minimum message delay `d − U`: the conservative-lookahead
    /// floor of the per-cluster scheduler partition. Any message
    /// between clusters takes at least this long, so a scheduler shard
    /// can advance this far before other shards could affect it.
    ///
    /// The global scheduler never reads it (it runs at `U = d` too).
    /// The **parallel** executor ([`crate::runner::Scenario::parallel`])
    /// consumes it as the width of its inter-barrier windows — a larger
    /// floor means fewer barriers and longer uninterrupted per-shard
    /// runs — and therefore needs it positive.
    #[must_use]
    pub fn lookahead(&self) -> f64 {
        self.d - self.u
    }

    /// Predicted intra-cluster skew bound `2·ϑ_g·E` (Corollary 3.2).
    #[must_use]
    pub fn intra_cluster_skew_bound(&self) -> f64 {
        2.0 * self.theta_g * self.e
    }

    /// Predicted cluster-clock estimate error bound `E` (Corollary 3.5).
    #[must_use]
    pub fn estimate_error_bound(&self) -> f64 {
        self.e
    }

    /// The effective GCS drift/boost parameters of Proposition 4.11:
    /// `ρ̄ = (1+ϕ)(1+µ/4) − 1` and `µ̄ = (1+ϕ)(1+7µ/8) − 1`.
    #[must_use]
    pub fn gcs_axiom_rates(&self) -> (f64, f64) {
        let rho_bar = (1.0 + self.phi) * (1.0 + self.mu / 4.0) - 1.0;
        let mu_bar = (1.0 + self.phi) * (1.0 + 7.0 * self.mu / 8.0) - 1.0;
        (rho_bar, mu_bar)
    }

    /// Predicted global skew bound: `c·δ·(D+1)` plus the max-estimator lag
    /// (Theorem C.3; a guide curve, not a tight constant).
    #[must_use]
    pub fn global_skew_bound(&self, diameter: usize) -> f64 {
        let d_term = (diameter as f64 + 1.0) * self.d;
        (self.catch_up_c + 2.0) * self.delta
            + self.level_unit
            + 2.0 * d_term
            + self.delta * diameter as f64
    }

    /// Predicted cluster-level local skew bound
    /// `2κ·(⌈log_σ(S/κ)⌉ + 1)` with base `σ = µ̄/ρ̄` (Theorem 4.10; the
    /// explicit constants follow the shape of [KLLO'10]).
    #[must_use]
    pub fn local_skew_bound(&self, diameter: usize) -> f64 {
        let (rho_bar, mu_bar) = self.gcs_axiom_rates();
        let sigma = mu_bar / rho_bar;
        debug_assert!(sigma > 1.0, "axiom A4 requires mu_bar/rho_bar > 1");
        let s = self.global_skew_bound(diameter);
        let levels = (s / self.kappa).max(1.0).log(sigma).ceil().max(0.0) + 1.0;
        2.0 * self.kappa * levels
    }

    /// Predicted *node-level* local skew bound: cluster-level bound plus
    /// twice the intra-cluster bound (proof of Theorem 1.1).
    #[must_use]
    pub fn node_local_skew_bound(&self, diameter: usize) -> f64 {
        self.local_skew_bound(diameter) + 2.0 * self.intra_cluster_skew_bound()
    }

    /// The theoretical pulse-diameter recursion `e(r+1) = α·e(r) + β`
    /// (Corollary B.13), evaluated for `rounds` rounds from `e1`.
    #[must_use]
    pub fn error_recursion(&self, e1: f64, rounds: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(rounds);
        let mut e = e1;
        for _ in 0..rounds {
            out.push(e);
            e = self.alpha * e + self.beta;
        }
        out
    }

    /// Coefficients `(α, β)` of the tightened recursion for *unanimous*
    /// clusters (Claim B.15, Eq. 12) with nominal rates in `[ζ, ζ·ϑ_u]`,
    /// `ϑ_u = 1+ρ`. `fast = true` uses `ζ = (1+ϕ)(1+µ)`, else
    /// `ζ = 1+ϕ`.
    #[must_use]
    pub fn unanimous_recursion(&self, fast: bool) -> (f64, f64) {
        let theta = 1.0 + self.rho;
        let zeta_max = (1.0 + self.phi) * (1.0 + self.mu);
        let zeta = if fast { zeta_max } else { 1.0 + self.phi };
        let gamma = (zeta_max / zeta) * (self.theta_g / theta) * (theta - 1.0);
        let alpha = (2.0 * theta * theta + 5.0 * theta - 5.0)
            / (2.0 * (theta + 1.0) * (1.0 - gamma))
            + gamma / (1.0 - gamma) * (1.0 + self.c1);
        let beta = gamma / (1.0 - gamma) * self.d
            + ((3.0 * theta - 1.0) + gamma * self.c1) * self.u / (1.0 - gamma);
        (alpha, beta)
    }

    /// Steady-state pulse diameter `e∞ = β/(1−α)` of the unanimous
    /// recursion (used by Lemma 3.6's rate bounds).
    #[must_use]
    pub fn unanimous_steady_state(&self, fast: bool) -> f64 {
        let (alpha, beta) = self.unanimous_recursion(fast);
        debug_assert!(alpha < 1.0);
        beta / (1.0 - alpha)
    }

    /// Amortized-rate bounds of Lemma 3.6: returns
    /// `(fast_min, slow_min, slow_max)` =
    /// `((1+ϕ)(1+⅞µ), (1+ϕ)(1−⅛µ), (1+ϕ)(1+⅛µ))`.
    #[must_use]
    pub fn unanimous_rate_bounds(&self) -> (f64, f64, f64) {
        let base = 1.0 + self.phi;
        (
            base * (1.0 + 7.0 * self.mu / 8.0),
            base * (1.0 - self.mu / 8.0),
            base * (1.0 + self.mu / 8.0),
        )
    }

    /// A suggested simulated-time horizon for experiments on a graph of
    /// the given diameter: stabilization takes `O(S/µ)` (paper §A), plus a
    /// few rounds of cluster convergence.
    #[must_use]
    pub fn suggested_horizon(&self, diameter: usize) -> f64 {
        let stabilize = self.global_skew_bound(diameter) / (self.mu / 2.0);
        10.0 * self.t_round + stabilize
    }
}

/// Builder for [`Params`] with custom constants.
///
/// # Examples
///
/// ```
/// use ftgcs::params::Params;
///
/// let p = Params::builder(1e-4, 1e-3, 1e-4, 1)
///     .c2(64.0)
///     .epsilon(0.15)
///     .k_rounds(4)
///     .build()
///     .unwrap();
/// assert_eq!(p.c2, 64.0);
/// assert!((p.mu - 64.0 * 1e-4).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct ParamsBuilder {
    rho: f64,
    d: f64,
    u: f64,
    f: usize,
    cluster_size: Option<usize>,
    c2: f64,
    epsilon: f64,
    k_rounds: usize,
    catch_up_c: f64,
    level_unit: Option<f64>,
}

impl ParamsBuilder {
    /// Starts a build from the physical constants and fault budget.
    #[must_use]
    pub fn new(rho: f64, d: f64, u: f64, f: usize) -> Self {
        ParamsBuilder {
            rho,
            d,
            u,
            f,
            cluster_size: None,
            c2: 32.0,
            epsilon: 0.1,
            k_rounds: 6,
            catch_up_c: 8.0,
            level_unit: None,
        }
    }

    /// Sets the cluster size `k` (default: the minimum `3f+1`).
    #[must_use]
    pub fn cluster_size(mut self, k: usize) -> Self {
        self.cluster_size = Some(k);
        self
    }

    /// Sets `c₂` (`µ = c₂·ρ`; paper: 32; must be ≥ 16 for Prop. 4.11).
    #[must_use]
    pub fn c2(mut self, c2: f64) -> Self {
        self.c2 = c2;
        self
    }

    /// Sets the contraction margin `ε ∈ (0, 1/2)` (paper: 1/4096).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the unanimity constant of Lemma 3.6 (default 6).
    #[must_use]
    pub fn k_rounds(mut self, k: usize) -> Self {
        self.k_rounds = k;
        self
    }

    /// Sets the catch-up threshold constant of Theorem C.3 (default 8).
    #[must_use]
    pub fn catch_up_c(mut self, c: f64) -> Self {
        self.catch_up_c = c;
        self
    }

    /// Sets the max-estimator level granularity (default `δ`).
    #[must_use]
    pub fn level_unit(mut self, unit: f64) -> Self {
        self.level_unit = Some(unit);
        self
    }

    /// Derives and validates the full parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if inputs are invalid, `α ≥ 1`
    /// (non-contracting), or a derived constant is out of range.
    pub fn build(self) -> Result<Params, ParamError> {
        let ParamsBuilder {
            rho,
            d,
            u,
            f,
            cluster_size,
            c2,
            epsilon,
            k_rounds,
            catch_up_c,
            level_unit,
        } = self;
        if !rho.is_finite() || rho <= 0.0 {
            return Err(ParamError::InvalidInput(format!(
                "rho must be positive and finite, got {rho:e}"
            )));
        }
        if !d.is_finite() || d <= 0.0 || !u.is_finite() || u < 0.0 || u > d {
            return Err(ParamError::InvalidInput(format!(
                "need 0 < d and 0 <= U <= d, got d={d:e}, U={u:e}"
            )));
        }
        if !(0.0..0.5).contains(&epsilon) || epsilon == 0.0 {
            return Err(ParamError::InvalidInput(format!(
                "epsilon must lie in (0, 1/2), got {epsilon:e}"
            )));
        }
        if c2 < 16.0 {
            return Err(ParamError::InvalidInput(format!(
                "c2 must be >= 16 (Prop. 4.11; paper uses 32), got {c2:e}"
            )));
        }
        if k_rounds == 0 {
            return Err(ParamError::InvalidInput(
                "k_rounds must be positive".to_owned(),
            ));
        }
        // Saturating: an `f` whose `3f+1` overflows has no feasible `k`.
        let min_k = f.saturating_mul(3).saturating_add(1);
        let k = cluster_size.unwrap_or(min_k);
        if k < min_k || min_k == usize::MAX {
            return Err(ParamError::InvalidInput(format!(
                "cluster size {k} < 3f+1 = {min_k}"
            )));
        }

        // Eq. (5): c1 = ((1/2) - eps) / ((1 + c2) rho), phi = 1/c1, mu = c2 rho.
        let c1 = (0.5 - epsilon) / ((1.0 + c2) * rho);
        let phi = 1.0 / c1;
        if !(0.0 < phi && phi < 1.0) {
            return Err(ParamError::DerivedOutOfRange(format!(
                "phi = 1/c1 = {phi:e} must lie in (0, 1); rho too large for this c2/epsilon"
            )));
        }
        let mu = c2 * rho;
        let theta_g = (1.0 + rho) * (1.0 + mu);
        let theta_max = (1.0 + 2.0 * phi / (1.0 - phi)) * (1.0 + mu) * (1.0 + rho);

        // Eq. (11): the general-case recursion coefficients.
        let alpha = (6.0 * theta_g * theta_g * phi + 5.0 * theta_g * phi - 9.0 * phi
            + 2.0 * theta_g * theta_g
            - 2.0)
            / (2.0 * phi * (theta_g + 1.0));
        let beta = (3.0 * theta_g - 1.0 + (theta_g - 1.0) / phi) * u + (theta_g - 1.0) * d;
        if alpha >= 1.0 {
            return Err(ParamError::NotContracting { alpha });
        }
        let e = beta / (1.0 - alpha);

        // Eq. (10): phase durations.
        let tau1 = theta_g * e;
        let tau2 = theta_g * (e + d);
        let tau3 = theta_g * (e + u) / phi;
        let t_round = tau1 + tau2 + tau3;

        // Lemma 4.8: delta = (k+5)E, kappa = 3 delta.
        let delta = (k_rounds as f64 + 5.0) * e;
        let kappa = 3.0 * delta;

        let params = Params {
            rho,
            d,
            u,
            f,
            cluster_size: k,
            c1,
            c2,
            epsilon,
            mu,
            phi,
            theta_g,
            theta_max,
            alpha,
            beta,
            e,
            tau1,
            tau2,
            tau3,
            t_round,
            k_rounds,
            delta,
            kappa,
            catch_up_c,
            level_unit: level_unit.unwrap_or(delta),
        };
        // Axiom A4 sanity: mu_bar/rho_bar > 1 must hold (Prop. 4.11).
        let (rho_bar, mu_bar) = params.gcs_axiom_rates();
        if mu_bar <= rho_bar {
            return Err(ParamError::DerivedOutOfRange(format!(
                "GCS axiom A4 violated: mu_bar={mu_bar:e} <= rho_bar={rho_bar:e}"
            )));
        }
        // A level pulse takes at least `d − U` to arrive; a smaller unit
        // would let the flooding over-claim (`global_max` module docs).
        if params.level_unit < params.lookahead() {
            return Err(ParamError::DerivedOutOfRange(format!(
                "level unit {:e} is below the minimum delay d-U = {:e}",
                params.level_unit,
                params.lookahead()
            )));
        }
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn practical() -> Params {
        Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible")
    }

    #[test]
    fn practical_parameters_are_feasible() {
        let p = practical();
        assert!(p.alpha < 1.0, "alpha = {}", p.alpha);
        assert!(p.alpha > 0.5, "alpha should exceed the 1/2 base term");
        assert!(p.phi > 0.0 && p.phi < 1.0);
        assert!((p.mu - 32.0 * 1e-4).abs() < 1e-12);
        assert_eq!(p.cluster_size, 4);
        // tau3 dominates the round (c1 >> 1).
        assert!(p.tau3 > p.tau1 + p.tau2);
        assert!((p.t_round - (p.tau1 + p.tau2 + p.tau3)).abs() < 1e-15);
        // delta/kappa relations from Lemma 4.8.
        assert!((p.delta - 11.0 * p.e).abs() < 1e-12);
        assert!((p.kappa - 3.0 * p.delta).abs() < 1e-12);
    }

    #[test]
    fn paper_constants_require_tiny_rho() {
        // The exact Eq. (5) constants are infeasible at quartz drift...
        let err = Params::paper(1e-4, 1e-3, 1e-4, 1).unwrap_err();
        assert!(matches!(err, ParamError::NotContracting { alpha } if alpha >= 1.0));
        // ...but feasible for sufficiently small rho, as the paper states.
        let p = Params::paper(1e-7, 1e-3, 1e-4, 1).expect("tiny rho is feasible");
        assert!(p.alpha < 1.0);
        assert!((p.epsilon - 1.0 / 4096.0).abs() < 1e-15);
    }

    #[test]
    fn alpha_decreases_with_epsilon() {
        let tight = Params::builder(1e-4, 1e-3, 1e-4, 1)
            .epsilon(0.05)
            .build()
            .unwrap();
        let loose = Params::builder(1e-4, 1e-3, 1e-4, 1)
            .epsilon(0.2)
            .build()
            .unwrap();
        assert!(loose.alpha < tight.alpha);
        // Looser margin -> smaller E (faster contraction, same beta scale).
        assert!(loose.e < tight.e);
    }

    #[test]
    fn skew_bounds_are_ordered() {
        let p = practical();
        assert!(p.intra_cluster_skew_bound() > p.e);
        assert!(p.local_skew_bound(8) > p.kappa);
        assert!(p.node_local_skew_bound(8) > p.local_skew_bound(8));
        // Local skew grows (weakly) with diameter, and much slower than
        // global skew.
        let l4 = p.local_skew_bound(4);
        let l64 = p.local_skew_bound(64);
        assert!(l64 >= l4);
        assert!(p.global_skew_bound(64) / p.global_skew_bound(4) > 4.0);
    }

    #[test]
    fn gcs_axioms_hold() {
        let p = practical();
        let (rho_bar, mu_bar) = p.gcs_axiom_rates();
        assert!(mu_bar / rho_bar > 1.0, "axiom A4");
        // A2/A3 shape: 1 + mu_bar <= theta_max-ish ordering.
        assert!(1.0 + mu_bar < p.theta_max);
        assert!(rho_bar > p.rho);
    }

    #[test]
    fn error_recursion_converges_to_e() {
        let p = practical();
        let seq = p.error_recursion(10.0 * p.e, 200);
        let last = *seq.last().unwrap();
        assert!((last - p.e).abs() < 1e-9 * p.e.max(1.0));
        // Monotone decrease from above.
        for w in seq.windows(2) {
            assert!(w[1] <= w[0] + 1e-18);
        }
    }

    #[test]
    fn unanimous_recursion_is_tighter() {
        let p = practical();
        let (af, _bf) = p.unanimous_recursion(true);
        let (as_, _bs) = p.unanimous_recursion(false);
        assert!(af < p.alpha);
        assert!(as_ < p.alpha);
        let ef = p.unanimous_steady_state(true);
        let es = p.unanimous_steady_state(false);
        assert!(ef < p.e, "e_f^inf = {ef} should be < E = {}", p.e);
        assert!(es < p.e);
    }

    #[test]
    fn unanimous_rate_bounds_ordered() {
        let p = practical();
        let (fast_min, slow_min, slow_max) = p.unanimous_rate_bounds();
        assert!(slow_min < slow_max);
        assert!(slow_max < fast_min, "fast clusters outrun slow clusters");
        // The gap enables the GCS simulation (Cor. 4.7).
        assert!(fast_min - slow_max > p.mu / 2.0 * (1.0 + p.phi) * 0.9);
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            Params::builder(0.0, 1e-3, 1e-4, 1).build(),
            Err(ParamError::InvalidInput(_))
        ));
        assert!(matches!(
            Params::builder(1e-4, 1e-3, 2e-3, 1).build(),
            Err(ParamError::InvalidInput(_))
        ));
        assert!(matches!(
            Params::builder(1e-4, 1e-3, 1e-4, 1).c2(8.0).build(),
            Err(ParamError::InvalidInput(_))
        ));
        assert!(matches!(
            Params::builder(1e-4, 1e-3, 1e-4, 1).epsilon(0.7).build(),
            Err(ParamError::InvalidInput(_))
        ));
        assert!(matches!(
            Params::builder(1e-4, 1e-3, 1e-4, 2).cluster_size(5).build(),
            Err(ParamError::InvalidInput(_))
        ));
        // Large rho makes phi >= 1.
        let err = Params::builder(0.02, 1e-3, 1e-4, 1).build().unwrap_err();
        assert!(matches!(err, ParamError::DerivedOutOfRange(_)), "{err}");
    }

    #[test]
    fn errors_display_helpfully() {
        let err = Params::paper(1e-4, 1e-3, 1e-4, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("alpha"), "{msg}");
        let err = Params::builder(-1.0, 1e-3, 1e-4, 1).build().unwrap_err();
        assert!(err.to_string().contains("rho"));
    }

    #[test]
    fn zero_uncertainty_is_allowed() {
        // `U = 0` is a valid input; what it needs is a level unit that
        // still covers the minimum delay `d − U = d`, which the default
        // `δ` does not at `ρ = 1e-4`.
        let err = Params::practical(1e-4, 1e-3, 0.0, 1).unwrap_err();
        assert!(matches!(err, ParamError::DerivedOutOfRange(_)), "{err}");
        let p = Params::builder(1e-4, 1e-3, 0.0, 1)
            .level_unit(1e-3)
            .build()
            .unwrap();
        assert!(p.e > 0.0, "drift alone still causes error");
        assert!(p.beta > 0.0);
    }

    #[test]
    fn suggested_horizon_scales_with_diameter() {
        let p = practical();
        assert!(p.suggested_horizon(16) > p.suggested_horizon(2));
        assert!(p.suggested_horizon(2) > 10.0 * p.t_round);
    }

    #[test]
    fn level_unit_defaults_to_delta() {
        let p = practical();
        assert_eq!(p.level_unit, p.delta);
        let p2 = Params::builder(1e-4, 1e-3, 1e-4, 1)
            .level_unit(0.5)
            .build()
            .unwrap();
        assert_eq!(p2.level_unit, 0.5);
    }
}
