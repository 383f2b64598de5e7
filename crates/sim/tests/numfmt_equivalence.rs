//! Differential suite: `numfmt::push_f64` must produce exactly the
//! bytes of `format!("{v}")` for every `f64`.
//!
//! The samples CSV is the workspace's byte-level output contract
//! (checked-in `results/*.csv`, the content-addressed cache,
//! `Trace::to_bytes()` in every equivalence suite), so the hand-rolled
//! shortest-round-trip writer is accepted against `std` here — on the
//! places such algorithms go wrong (interval ends, powers of two where
//! the lower neighbour is closer, powers of ten where the table entry
//! is exact, subnormals, exact 17-digit ties) and on random bit
//! patterns and clock-like values.

use ftgcs_sim::numfmt::push_f64;
use proptest::prelude::*;

/// Asserts equality with `std` for `v` and `-v`.
fn check(out: &mut Vec<u8>, v: f64) {
    for v in [v, -v] {
        out.clear();
        push_f64(out, v);
        assert_eq!(
            std::str::from_utf8(out).expect("ASCII"),
            format!("{v}"),
            "bits {:#018x}",
            v.to_bits()
        );
    }
}

/// `v` with its two neighbouring bit patterns.
fn check_with_neighbours(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    for b in [bits.saturating_sub(1), bits, bits + 1] {
        check(out, f64::from_bits(b));
    }
}

/// Exactly `2^e` for `-1074 ≤ e ≤ 1023`.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

#[test]
fn edge_list() {
    let mut out = Vec::new();
    let min_pos = f64::MIN_POSITIVE.to_bits();
    for v in [
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::from_bits(min_pos - 1),
        f64::from_bits(min_pos + 1),
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        1e21,
        1e22,
        1e23,
        9_007_199_254_740_991.0, // 2^53 − 1
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        0.1,
        0.3,
        0.1 + 0.2,
        1.0,
        1.5,
        100.0,
        123_456.789,
        f64::EPSILON,
        // The exact 17-digit tie std breaks upward (…313, not …312).
        pow2(-25),
    ] {
        check(&mut out, v);
    }
}

#[test]
fn every_power_of_two_with_both_neighbours() {
    let mut out = Vec::new();
    for e in -1074..=1023 {
        check_with_neighbours(&mut out, pow2(e));
    }
}

#[test]
fn every_power_of_ten_with_both_neighbours() {
    let mut out = Vec::new();
    for e in -323..=308 {
        let v: f64 = format!("1e{e}").parse().expect("a decimal literal");
        check_with_neighbours(&mut out, v);
    }
}

#[test]
fn dyadic_values_including_exact_ties() {
    // m·2^e has a finite decimal expansion, so it can sit exactly on
    // the midpoint between two decimal candidates — the only inputs
    // on which the tie rule is observable.
    let mut out = Vec::new();
    let near_top = (0..48u64).flat_map(|j| [(1 << 52) + j, (1 << 53) - 1 - j]);
    for m in (1..=48u64).chain(near_top) {
        for e in -1074..=971 {
            let v = m as f64 * pow2(e);
            if v.is_finite() {
                check(&mut out, v);
            }
        }
    }
}

proptest! {
    #[test]
    fn random_bit_patterns(patterns in prop::collection::vec(0u64..u64::MAX, 256..257)) {
        let mut out = Vec::new();
        for bits in patterns {
            check(&mut out, f64::from_bits(bits));
        }
    }

    #[test]
    fn clock_like_values(
        secs in prop::collection::vec(0.0f64..100.0, 128..129),
        skews in prop::collection::vec(0.0f64..1e-3, 128..129),
        ticks in prop::collection::vec(0u32..2_000_000, 128..129),
    ) {
        let mut out = Vec::new();
        for ((s, k), i) in secs.into_iter().zip(skews).zip(ticks) {
            check(&mut out, s);
            check(&mut out, k);
            // Sample times: multiples of the densest sample interval,
            // and a logical clock riding slightly off one.
            let t = f64::from(i) * 0.0005;
            check(&mut out, t);
            check(&mut out, t + k);
        }
    }
}
