//! Drifting hardware clocks.
//!
//! The paper models each node's hardware clock as a locally integrable rate
//! function `h_v : ℝ → [1, 1+ρ]` with `H_v(t) = ∫₀ᵗ h_v(τ) dτ` (Section 2).
//! We realize `h_v` as a deterministic, lazily extended piecewise-constant
//! function, which makes `H_v` piecewise linear and therefore *exactly*
//! invertible — timers set at hardware/logical targets fire at the precise
//! Newtonian instants the model prescribes, with no numeric integration.
//!
//! [`RateModel`] chooses the shape of the drift: constant (including the
//! extremal rates `1` and `1+ρ` used in worst-case arguments), a bounded
//! random walk, a piecewise-sampled sinusoid (slow thermal wander), or an
//! explicit schedule for adversarial hand-built scenarios.

use std::collections::VecDeque;

use crate::rng::SimRng;
use crate::time::SimTime;

/// Hardware-time reading of a clock (seconds on the clock's own scale).
pub type HardwareTime = f64;

/// How a node's hardware clock rate `h_v(t) ∈ [1, 1+ρ]` evolves.
///
/// All models are *deterministic given the node's RNG stream*: the full
/// future rate schedule is a pure function of the seed, so inverting the
/// clock never invalidates previously computed event times.
#[derive(Debug, Clone, PartialEq)]
pub enum RateModel {
    /// A constant rate `1 + frac · ρ`, where `frac ∈ [0, 1]`.
    ///
    /// `frac = 0` and `frac = 1` give the extremal clocks of worst-case
    /// indistinguishability arguments.
    Constant {
        /// Position within the drift band, `0.0` = slowest, `1.0` = fastest.
        frac: f64,
    },
    /// Each node draws one uniform rate in `[1, 1+ρ]` and keeps it forever.
    RandomConstant,
    /// A bounded random walk: rates are redrawn every `dwell` seconds by a
    /// reflected step of at most `step · ρ`.
    RandomWalk {
        /// Mean dwell time between rate changes, in seconds.
        dwell: f64,
        /// Maximum step per change, as a fraction of the band width ρ.
        step: f64,
    },
    /// A sinusoidal wander sampled piecewise: rate
    /// `1 + ρ·(1 + sin(2πt/period + phase))/2`, held constant over segments
    /// of length `period / 32`.
    Sinusoid {
        /// Oscillation period in seconds.
        period: f64,
        /// Phase offset in radians; each node may use a different phase.
        phase: f64,
    },
    /// An explicit schedule of `(start_time_secs, band_fraction)` pairs,
    /// sorted by start time; the first entry must start at `0.0`.
    ///
    /// Useful for adversarial scenarios such as "front half of the line runs
    /// fast for 100 s, then slow".
    Schedule(Vec<(f64, f64)>),
}

impl Default for RateModel {
    /// Defaults to a drift-band random walk with 1 s dwell.
    fn default() -> Self {
        RateModel::RandomWalk {
            dwell: 1.0,
            step: 0.5,
        }
    }
}

/// One constant-rate segment of a hardware clock.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Newtonian start of the segment.
    start: f64,
    /// Hardware reading at `start`.
    hw_at_start: f64,
    /// Rate over the segment (`1 ≤ rate ≤ 1+ρ`).
    rate: f64,
}

/// A drifting hardware clock with exact forward and inverse evaluation.
///
/// The clock keeps the segment of its latest reading inline, with the
/// instant that segment ends, so a reading inside it is one multiply-add:
/// no segment list, no extension, no search. A reading past it extends the
/// schedule, searches it, caches the segment found and drops every
/// segment before it, so memory stays flat however long the run.
///
/// # Contract
///
/// Readings never go back: [`Self::hardware_time`] is asked at
/// nondecreasing instants, and [`Self::when_hardware_reaches`] only for
/// targets at or above the hardware reading where the latest reading's
/// segment starts. Asking before that segment panics. The engine reads a node's clock at the
/// instant it dispatches or samples, and inverts only targets above the
/// current reading, so it keeps the contract by construction.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::clock::{HardwareClock, RateModel};
/// use ftgcs_sim::rng::SimRng;
/// use ftgcs_sim::time::SimTime;
///
/// let mut clock = HardwareClock::new(
///     1e-4,
///     RateModel::Constant { frac: 1.0 },
///     SimRng::seed_from(0),
/// );
/// let t = SimTime::from_secs(10.0);
/// let h = clock.hardware_time(t);
/// assert!((h - 10.0 * 1.0001).abs() < 1e-12);
/// // The inverse recovers the Newtonian time:
/// assert!((clock.when_hardware_reaches(h).as_secs() - 10.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct HardwareClock {
    rho: f64,
    model: RateModel,
    rng: SimRng,
    /// Generated segments, in increasing `start` order, from the cached
    /// one on; never empty.
    segments: VecDeque<Segment>,
    /// Newtonian time up to which segments have been generated. The last
    /// segment extends to `generated_until`; beyond it, more segments are
    /// appended on demand.
    generated_until: f64,
    /// The segment of the latest reading (`segments[0]`).
    current: Segment,
    /// Where `current` ends (exclusive): the next segment's start, or
    /// `generated_until` when `current` was the last one generated.
    /// Either stays true when more segments are appended. Empty until
    /// the first reading, which therefore takes the search.
    current_end: f64,
}

impl HardwareClock {
    /// Creates a clock with drift bound `rho` and the given rate model.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is negative or the model is malformed (e.g. a
    /// [`RateModel::Schedule`] that does not start at time 0).
    #[must_use]
    pub fn new(rho: f64, model: RateModel, rng: SimRng) -> Self {
        assert!(rho >= 0.0, "drift bound rho must be non-negative");
        if let RateModel::Schedule(entries) = &model {
            assert!(
                entries.first().is_some_and(|e| e.0 == 0.0),
                "rate schedule must start at t = 0"
            );
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "rate schedule must be strictly increasing in time"
            );
        }
        let mut clock = HardwareClock {
            rho,
            model,
            rng,
            segments: VecDeque::new(),
            generated_until: 0.0,
            current: Segment {
                start: 0.0,
                hw_at_start: 0.0,
                rate: 1.0,
            },
            current_end: 0.0,
        };
        clock.bootstrap();
        clock
    }

    fn bootstrap(&mut self) {
        let first_rate = match &self.model {
            RateModel::Constant { frac } => self.rate_from_frac(*frac),
            RateModel::RandomConstant => {
                let f = self.rng.uniform(0.0, 1.0);
                self.rate_from_frac(f)
            }
            RateModel::RandomWalk { .. } => {
                let f = self.rng.uniform(0.0, 1.0);
                self.rate_from_frac(f)
            }
            RateModel::Sinusoid { phase, .. } => self.rate_from_frac((1.0 + phase.sin()) / 2.0),
            RateModel::Schedule(entries) => self.rate_from_frac(entries[0].1),
        };
        self.segments.push_back(Segment {
            start: 0.0,
            hw_at_start: 0.0,
            rate: first_rate,
        });
        self.generated_until = self.next_breakpoint(0.0);
    }

    fn rate_from_frac(&self, frac: f64) -> f64 {
        1.0 + self.rho * frac.clamp(0.0, 1.0)
    }

    /// Returns the Newtonian time of the breakpoint following `t`.
    fn next_breakpoint(&mut self, t: f64) -> f64 {
        match &self.model {
            RateModel::Constant { .. } | RateModel::RandomConstant => f64::INFINITY,
            RateModel::RandomWalk { dwell, .. } => {
                let dwell = *dwell;
                // Jittered dwell in [dwell/2, 3·dwell/2] keeps nodes from
                // changing rates in lockstep.
                t + self.rng.uniform(0.5 * dwell, 1.5 * dwell)
            }
            RateModel::Sinusoid { period, .. } => t + period / 32.0,
            RateModel::Schedule(entries) => entries
                .iter()
                .map(|e| e.0)
                .find(|&s| s > t)
                .unwrap_or(f64::INFINITY),
        }
    }

    /// Appends segments until the schedule covers Newtonian time `t`.
    fn extend_to(&mut self, t: f64) {
        while self.generated_until <= t {
            let last = *self.segments.back().expect("segments never empty");
            let seg_end = self.generated_until;
            let hw_at_end = last.hw_at_start + last.rate * (seg_end - last.start);
            let new_rate = match &self.model {
                RateModel::Constant { .. } | RateModel::RandomConstant => last.rate,
                RateModel::RandomWalk { step, .. } => {
                    let band = self.rho;
                    let max_step = step * band;
                    let lo = (last.rate - 1.0 - max_step).max(0.0);
                    let hi = (last.rate - 1.0 + max_step).min(band);
                    1.0 + self.rng.uniform(lo, hi.max(lo))
                }
                RateModel::Sinusoid { period, phase } => {
                    let x = 2.0 * std::f64::consts::PI * seg_end / period + phase;
                    self.rate_from_frac((1.0 + x.sin()) / 2.0)
                }
                RateModel::Schedule(entries) => {
                    let frac = entries
                        .iter()
                        .rev()
                        .find(|e| e.0 <= seg_end)
                        .map_or(entries[0].1, |e| e.1);
                    self.rate_from_frac(frac)
                }
            };
            self.segments.push_back(Segment {
                start: seg_end,
                hw_at_start: hw_at_end,
                rate: new_rate,
            });
            self.generated_until = self.next_breakpoint(seg_end);
        }
    }

    /// Makes the segment containing Newtonian time `t` the cached one,
    /// dropping every segment before it.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies before the retained segments (a reading that
    /// went back) or is NaN.
    #[cold]
    fn seek(&mut self, t: f64) {
        self.extend_to(t);
        let i = match self
            .segments
            .binary_search_by(|s| s.start.partial_cmp(&t).expect("no NaN"))
        {
            Ok(i) => i,
            Err(0) => panic!(
                "hardware clock read at t = {t} s, before its retained segment \
                 (from {} s): readings must not go back",
                self.segments[0].start
            ),
            Err(i) => i - 1,
        };
        self.segments.drain(..i);
        self.current = self.segments[0];
        self.current_end = self
            .segments
            .get(1)
            .map_or(self.generated_until, |s| s.start);
    }

    /// Returns the hardware reading `H_v(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the segment of the previous reading
    /// (see the contract on [`HardwareClock`]) or is NaN.
    #[must_use]
    pub fn hardware_time(&mut self, t: SimTime) -> HardwareTime {
        let t = t.as_secs();
        // `current_end` is exclusive, so an exact segment start reads in
        // the segment it starts, as the search would choose it.
        if !(self.current.start <= t && t < self.current_end) {
            self.seek(t);
        }
        let s = self.current;
        s.hw_at_start + s.rate * (t - s.start)
    }

    /// Returns the Newtonian time at which the hardware reading reaches
    /// `target` (exact inverse of [`Self::hardware_time`]).
    ///
    /// # Panics
    ///
    /// Panics if `target` is negative or NaN, or lies before the retained
    /// segments (see the contract on [`HardwareClock`]).
    #[must_use]
    pub fn when_hardware_reaches(&mut self, target: HardwareTime) -> SimTime {
        assert!(target >= 0.0, "hardware targets are non-negative");
        // Rates are ≥ 1, so by time `target` the hardware reading is ≥
        // `target`: generating segments up to Newtonian `target` suffices.
        self.extend_to(target);
        let i = match self
            .segments
            .binary_search_by(|s| s.hw_at_start.partial_cmp(&target).expect("no NaN"))
        {
            Ok(i) => i,
            // Only once segments were dropped: the first one generated
            // starts at hardware 0 ≤ `target`.
            Err(0) => panic!(
                "hardware target {target} lies before the clock's retained segment \
                 (from {}): inverses must not go back",
                self.segments[0].hw_at_start
            ),
            Err(i) => i - 1,
        };
        let s = self.segments[i];
        SimTime::from_secs(s.start + (target - s.hw_at_start) / s.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times() -> Vec<f64> {
        vec![0.0, 0.001, 0.37, 1.0, 2.5, 9.99, 10.0, 47.3, 120.0]
    }

    fn check_bounds_and_inverse(mut c: HardwareClock, rho: f64) {
        let mut prev_h = -1.0;
        for &t in &times() {
            let h = c.hardware_time(SimTime::from_secs(t));
            // Monotone, within drift envelope.
            assert!(h > prev_h || t == 0.0, "monotone at t={t}");
            assert!(h >= t - 1e-9, "h >= t at t={t}: {h}");
            assert!(h <= t * (1.0 + rho) + 1e-9, "h <= (1+rho)t at t={t}: {h}");
            // Exact inverse.
            let back = c.when_hardware_reaches(h).as_secs();
            assert!((back - t).abs() < 1e-9, "inverse at t={t}: {back}");
            prev_h = h;
        }
    }

    #[test]
    fn constant_model_exact() {
        let mut c = HardwareClock::new(
            1e-3,
            RateModel::Constant { frac: 0.5 },
            SimRng::seed_from(0),
        );
        let h = c.hardware_time(SimTime::from_secs(100.0));
        assert!((h - 100.0 * 1.0005).abs() < 1e-9);
        check_bounds_and_inverse(c, 1e-3);
    }

    #[test]
    fn random_walk_within_bounds() {
        for seed in 0..8 {
            let c = HardwareClock::new(
                1e-2,
                RateModel::RandomWalk {
                    dwell: 0.5,
                    step: 0.3,
                },
                SimRng::seed_from(seed),
            );
            check_bounds_and_inverse(c, 1e-2);
        }
    }

    #[test]
    fn sinusoid_within_bounds() {
        let c = HardwareClock::new(
            1e-3,
            RateModel::Sinusoid {
                period: 5.0,
                phase: 1.0,
            },
            SimRng::seed_from(1),
        );
        check_bounds_and_inverse(c, 1e-3);
    }

    #[test]
    fn schedule_switches_rates() {
        let clock = || {
            HardwareClock::new(
                1e-2,
                RateModel::Schedule(vec![(0.0, 0.0), (10.0, 1.0)]),
                SimRng::seed_from(0),
            )
        };
        let mut c = clock();
        // Rate 1 up to t = 10, then 1.01: H(20) = 10·1 + 10·1.01 = 20.1.
        assert_eq!(c.hardware_time(SimTime::from_secs(5.0)), 5.0);
        let h = c.hardware_time(SimTime::from_secs(20.0));
        assert!((h - 20.1).abs() < 1e-9);
        let h = c.hardware_time(SimTime::from_secs(30.0));
        assert!((h - 30.2).abs() < 1e-9);
        check_bounds_and_inverse(clock(), 1e-2);
    }

    #[test]
    fn random_constant_is_reproducible() {
        let mut a = HardwareClock::new(1e-3, RateModel::RandomConstant, SimRng::seed_from(5));
        let mut b = HardwareClock::new(1e-3, RateModel::RandomConstant, SimRng::seed_from(5));
        assert_eq!(
            a.hardware_time(SimTime::from_secs(3.0)),
            b.hardware_time(SimTime::from_secs(3.0))
        );
    }

    #[test]
    fn inverse_lands_on_future_segments() {
        let mut c = HardwareClock::new(
            5e-2,
            RateModel::RandomWalk {
                dwell: 0.2,
                step: 1.0,
            },
            SimRng::seed_from(3),
        );
        // Query far in the future first through the inverse path.
        let t = c.when_hardware_reaches(50.0);
        let h = c.hardware_time(t);
        assert!((h - 50.0).abs() < 1e-9, "h={h}");
    }

    #[test]
    #[should_panic(expected = "must start at t = 0")]
    fn schedule_must_start_at_zero() {
        let _ = HardwareClock::new(
            1e-3,
            RateModel::Schedule(vec![(1.0, 0.5)]),
            SimRng::seed_from(0),
        );
    }

    #[test]
    fn zero_rho_is_perfect_clock() {
        let mut c = HardwareClock::new(0.0, RateModel::default(), SimRng::seed_from(9));
        for &t in &times() {
            assert!((c.hardware_time(SimTime::from_secs(t)) - t).abs() < 1e-12);
        }
    }
}
