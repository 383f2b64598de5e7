//! The clock-reading contract: a hardware clock that keeps the segment of
//! its latest reading answers exactly as a search over its whole rate
//! schedule would.
//!
//! For each of the five rate models and several seeds, a clock is driven
//! through a random nondecreasing sequence of readings — small steps
//! inside a segment, exact segment starts, jumps past everything generated
//! so far, repeats of the same instant — with inverse queries interleaved,
//! some far enough ahead to extend the schedule before the readings catch
//! up (so readings land in the last generated segment, and in segments
//! generated by an inverse). Every answer must equal, to the bit, the
//! answer of a fresh clock with the same seed and model asked only that
//! question: its first reading takes the search, and its schedule is the
//! same pure function of the seed.
//!
//! Readings never go back (the contract on `HardwareClock`): one that
//! does, or an inverse below the retained segment, is a panic.

use ftgcs_sim::clock::{HardwareClock, RateModel};
use ftgcs_sim::rng::SimRng;
use ftgcs_sim::time::SimTime;

const RHO: f64 = 1e-2;
/// Typical segment length of every model below, in seconds.
const DWELL: f64 = 0.05;
const SEEDS: u64 = 8;
const STEPS: usize = 300;

fn models() -> Vec<(&'static str, RateModel)> {
    let schedule = (0..200)
        .map(|k| (k as f64 * DWELL, ((k * 7) % 11) as f64 / 10.0))
        .collect();
    vec![
        ("constant", RateModel::Constant { frac: 0.3 }),
        ("random_constant", RateModel::RandomConstant),
        (
            "random_walk",
            RateModel::RandomWalk {
                dwell: DWELL,
                step: 0.5,
            },
        ),
        (
            "sinusoid",
            RateModel::Sinusoid {
                period: 32.0 * DWELL,
                phase: 0.7,
            },
        ),
        ("schedule", RateModel::Schedule(schedule)),
    ]
}

/// The segment starts after `0` of `model` under `seed`, up to `horizon`,
/// derived from the model's definition: schedule entries, the sinusoid's
/// `period / 32` steps, and the random walk's jittered dwells drawn from
/// the clock's own stream (one draw per new rate, one per dwell).
fn segment_starts(model: &RateModel, seed: u64, horizon: f64) -> Vec<f64> {
    let mut starts = Vec::new();
    match model {
        RateModel::Constant { .. } | RateModel::RandomConstant => {}
        RateModel::RandomWalk { dwell, .. } => {
            let mut rng = SimRng::seed_from(seed);
            let _ = rng.unit(); // the first rate
            let mut t = 0.0;
            while t <= horizon {
                t += rng.uniform(0.5 * dwell, 1.5 * dwell);
                starts.push(t);
                let _ = rng.unit(); // the rate from `t` on
            }
        }
        RateModel::Sinusoid { period, .. } => {
            let mut t = 0.0;
            while t <= horizon {
                t += period / 32.0;
                starts.push(t);
            }
        }
        RateModel::Schedule(entries) => starts.extend(entries.iter().skip(1).map(|e| e.0)),
    }
    starts
}

fn fresh(model: &RateModel, seed: u64) -> HardwareClock {
    HardwareClock::new(RHO, model.clone(), SimRng::seed_from(seed))
}

/// Reads `clock` at `t` and checks the answer against a fresh clock's.
fn read(clock: &mut HardwareClock, model: &RateModel, seed: u64, t: f64, what: &str) -> f64 {
    let got = clock.hardware_time(SimTime::from_secs(t));
    let want = fresh(model, seed).hardware_time(SimTime::from_secs(t));
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: hardware_time({t}) = {got}, a fresh clock reads {want}"
    );
    got
}

/// Inverts `target` on `clock` and checks the answer against a fresh
/// clock's.
fn invert(clock: &mut HardwareClock, model: &RateModel, seed: u64, target: f64, what: &str) -> f64 {
    let got = clock.when_hardware_reaches(target).as_secs();
    let want = fresh(model, seed).when_hardware_reaches(target).as_secs();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: when_hardware_reaches({target}) = {got}, a fresh clock answers {want}"
    );
    got
}

#[test]
fn every_reading_equals_a_fresh_clocks_search() {
    for (name, model) in models() {
        for seed in 0..SEEDS {
            let starts = segment_starts(&model, seed, STEPS as f64 * 3.0 * DWELL);
            let mut plan = SimRng::seed_from(1_000 + seed);
            let mut clock = fresh(&model, seed);
            let (mut t, mut h) = (0.0, 0.0);
            let mut exact_starts = 0;
            for step in 0..STEPS {
                let what = format!("{name} seed {seed} step {step}");
                match plan.index(7) {
                    // Inside the current segment, mostly.
                    0 => t += plan.uniform(0.0, DWELL / 20.0),
                    // The next exact segment start (or this one again).
                    1 => {
                        if let Some(&s) = starts.iter().find(|&&s| s >= t) {
                            t = s;
                            exact_starts += 1;
                        }
                    }
                    // Past everything generated so far.
                    2 => t += plan.uniform(1.0, 5.0) * DWELL,
                    // The same instant again.
                    3 => {}
                    // A timer: invert a nearby target, then read where
                    // it fires.
                    4 => {
                        let target = h + plan.uniform(0.0, 3.0 * DWELL);
                        t = invert(&mut clock, &model, seed, target, &what).max(t);
                    }
                    // A far inverse extends the schedule; the reading at
                    // Newtonian `target` lies in its last generated
                    // segment (rates ≥ 1 put it at or past the answer).
                    5 => {
                        let target = h + plan.uniform(4.0, 10.0) * DWELL;
                        invert(&mut clock, &model, seed, target, &what);
                        t = t.max(target);
                    }
                    // An inverse of the current reading itself.
                    _ => {
                        invert(&mut clock, &model, seed, h, &what);
                    }
                }
                h = read(&mut clock, &model, seed, t, &what);
            }
            if !starts.is_empty() {
                assert!(exact_starts > 0, "{name} seed {seed}: no exact start read");
            }
        }
    }
}

/// The random walk's starts above are taken from the clock's draw order;
/// if that order changed, the exact-start readings would silently become
/// ordinary ones. The rate must change at each derived start.
#[test]
fn derived_random_walk_starts_are_rate_changes() {
    let model = RateModel::RandomWalk {
        dwell: DWELL,
        step: 0.5,
    };
    for seed in 0..SEEDS {
        let mut clock = fresh(&model, seed);
        let delta = DWELL / 1_000.0;
        for &s in segment_starts(&model, seed, 20.0 * DWELL).iter().take(20) {
            let before = clock.hardware_time(SimTime::from_secs(s - delta));
            let at = clock.hardware_time(SimTime::from_secs(s));
            let after = clock.hardware_time(SimTime::from_secs(s + delta));
            let (r0, r1) = ((at - before) / delta, (after - at) / delta);
            assert!(
                (r0 - r1).abs() > 1e-9,
                "seed {seed}: rate {r0} before and {r1} after the derived start {s}"
            );
        }
    }
}

fn two_rate_clock() -> HardwareClock {
    HardwareClock::new(
        RHO,
        RateModel::Schedule(vec![(0.0, 0.0), (1.0, 1.0)]),
        SimRng::seed_from(0),
    )
}

#[test]
#[should_panic(expected = "readings must not go back")]
fn a_reading_before_the_retained_segment_panics() {
    let mut clock = two_rate_clock();
    let _ = clock.hardware_time(SimTime::from_secs(2.0));
    let _ = clock.hardware_time(SimTime::from_secs(0.5));
}

#[test]
#[should_panic(expected = "inverses must not go back")]
fn an_inverse_before_the_retained_segment_panics() {
    let mut clock = two_rate_clock();
    let _ = clock.hardware_time(SimTime::from_secs(2.0));
    let _ = clock.when_hardware_reaches(0.5);
}
