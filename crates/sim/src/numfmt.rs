//! Shortest-round-trip `f64` printing and the samples-CSV line format.
//!
//! [`push_f64`] appends **exactly the bytes of `format!("{v}")`** for
//! every `f64` bit pattern — the shortest decimal that parses back to
//! the same value, in plain positional notation, never an exponent —
//! but computes the digits with integer arithmetic only instead of
//! going through `core::fmt`. The digit generation is Schubfach
//! (R. Giulietti, *The Schubfach way to render doubles*, 2020): one
//! 128-bit power-of-ten multiplier per value, three 64×128-bit
//! products rounded to odd, and a constant number of comparisons to
//! pick the shortest decimal inside the rounding interval. One
//! deliberate deviation from the paper: when the two 17-digit
//! candidates are exactly equidistant from the value the paper rounds
//! to even, `std` rounds **up** (`2f64.powi(-25)` ends in `…313`, not
//! `…312`), and so does this module.
//!
//! The samples CSV (`t,n0,n1,…` header, one line of logical clocks per
//! sample) is the workspace's byte-level output contract — checked-in
//! `results/*.csv`, the content-addressed cache and
//! [`Trace::to_bytes`](crate::trace::Trace::to_bytes) all depend on it —
//! so its one formatter lives here, next to the number writer:
//! [`push_sample_header`] and [`push_sample_values`] (which
//! [`push_sample_line`] calls) are what both
//! [`Trace::write_samples_csv`](crate::trace::Trace::write_samples_csv)
//! and the streaming `CsvSampleWriter` in `ftgcs_metrics` call.
//!
//! Equality with `std` is pinned by differential tests
//! (`tests/numfmt_equivalence.rs`), not by inspection.
//!
//! # Examples
//!
//! ```
//! use ftgcs_sim::numfmt::push_f64;
//!
//! let mut out = Vec::new();
//! for v in [0.1 + 0.2, -0.0, 1e21, 5e-324, f64::NAN] {
//!     out.clear();
//!     push_f64(&mut out, v);
//!     assert_eq!(out, format!("{v}").as_bytes());
//! }
//! ```

use crate::trace::ClockSample;

/// Smallest decimal exponent `e` with a table entry: the scaling for
/// the largest finite `f64` multiplies by `10^-292`.
const POW10_MIN: i32 = -292;
/// Largest decimal exponent with a table entry: the smallest subnormal
/// is scaled by `10^324`.
const POW10_MAX: i32 = 324;
const POW10_LEN: usize = (POW10_MAX - POW10_MIN + 1) as usize;

/// Limbs of the compile-time bignum: 1152 bits, enough for `10^324`
/// (1077 bits) and for `2^1151 / 10^292` to keep 128 significant bits.
const LIMBS: usize = 18;

/// `POW10[e - POW10_MIN]` is `10^e` normalized to 128 significant bits
/// and rounded up: `ceil(10^e · 2^(127 − floor(log2 10^e)))`.
///
/// Static data, evaluated at compile time — no lazy initialization on
/// any run's set-up path.
static POW10: [u128; POW10_LEN] = pow10_table();

const fn pow10_table() -> [u128; POW10_LEN] {
    let mut table = [0u128; POW10_LEN];

    // 10^0 … 10^324 exactly, multiplying a little-endian bignum by ten.
    let mut big = [0u64; LIMBS];
    big[0] = 1;
    let mut e = 0;
    while e <= POW10_MAX {
        let (top, inexact) = top_128(&big);
        table[(e - POW10_MIN) as usize] = top + inexact as u128;
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let wide = big[i] as u128 * 10 + carry;
            big[i] = wide as u64;
            carry = wide >> 64;
            i += 1;
        }
        e += 1;
    }

    // 10^-1 … 10^-292 as floor(2^1151 / 10^j), dividing by ten each
    // step (floors of floors compose). The quotient is never an
    // integer, so rounding up is always `+ 1`.
    let mut big = [0u64; LIMBS];
    big[LIMBS - 1] = 1 << 63;
    let mut e = -1;
    while e >= POW10_MIN {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let wide = (rem << 64) | big[i] as u128;
            big[i] = (wide / 10) as u64;
            rem = wide % 10;
        }
        table[(e - POW10_MIN) as usize] = top_128(&big).0 + 1;
        e -= 1;
    }
    table
}

/// The 128 most significant bits of a non-zero bignum (left-aligned),
/// and whether any lower bit is set.
const fn top_128(big: &[u64; LIMBS]) -> (u128, bool) {
    let mut hi = LIMBS - 1;
    while big[hi] == 0 {
        hi -= 1;
    }
    let a = big[hi];
    let b = if hi >= 1 { big[hi - 1] } else { 0 };
    let c = if hi >= 2 { big[hi - 2] } else { 0 };
    let lz = a.leading_zeros();
    let ab = ((a as u128) << 64) | b as u128;
    let top = if lz == 0 {
        ab
    } else {
        (ab << lz) | (c as u128 >> (64 - lz))
    };
    let mut inexact = (c << lz) != 0;
    let mut i = 0;
    while i + 2 < hi {
        inexact |= big[i] != 0;
        i += 1;
    }
    (top, inexact)
}

/// `"00" "01" … "99"`: digits are emitted two at a time.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes `n` in decimal, right-aligned into `buf`; returns the index
/// of the first digit.
fn fill_decimal(buf: &mut [u8; 20], mut n: u64) -> usize {
    fn put_pair(dst: &mut [u8], at: usize, below_100: u32) {
        let pair = below_100 as usize * 2;
        dst[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    let mut i = buf.len();
    // Eight digits per 64-bit division; their four pairs come from
    // 32-bit arithmetic on two independent halves (measured 10 % off
    // the whole writer against a plain `% 100` loop).
    while n >= 100_000_000 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        i -= 8;
        let dst = &mut buf[i..i + 8];
        let (a, b) = (low / 10_000, low % 10_000);
        put_pair(dst, 0, a / 100);
        put_pair(dst, 2, a % 100);
        put_pair(dst, 4, b / 100);
        put_pair(dst, 6, b % 100);
    }
    let mut n = n as u32;
    while n >= 100 {
        i -= 2;
        put_pair(buf, i, n % 100);
        n /= 100;
    }
    if n >= 10 {
        i -= 2;
        put_pair(buf, i, n);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Appends `n` in decimal — the bytes of `format!("{n}")`.
fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = fill_decimal(&mut buf, n);
    out.extend_from_slice(&buf[start..]);
}

/// The high 64 bits of `g · cp / 2^64`, with every discarded bit
/// OR-ed into the lowest one (round to odd). `g` overestimates the
/// true power of ten by less than one unit, hence `> 1`, not `!= 0`.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let x = (g as u64) as u128 * cp as u128;
    let y = (g >> 64) * cp as u128;
    let z = y + (x >> 64);
    (z >> 64) as u64 | u64::from(z as u64 > 1)
}

/// Shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// inside the rounding interval of the finite non-zero double whose
/// raw fraction and biased exponent fields are given. `digits` may
/// carry trailing zeros.
fn shortest_decimal(fraction: u64, biased_exp: u64) -> (u64, i32) {
    let (c, q) = if biased_exp != 0 {
        ((1 << 52) | fraction, biased_exp as i32 - 1075)
    } else {
        (fraction, -1074)
    };
    // The interval's ends round back to the value only for an even
    // significand (IEEE ties-to-even); at a power of two the lower
    // neighbour is half as far away.
    let ends_inside = c & 1 == 0;
    let lower_closer = fraction == 0 && biased_exp > 1;

    // Everything below is in units of a quarter of 10^k, where
    // k = floor(log10(2^q)) (of 3/4 · 2^q at a power of two):
    // log10(2) ≈ 1262611 / 2^22 and log10(4/3) ≈ 524031 / 2^22, exact
    // after flooring over the whole exponent range.
    let cb = 4 * c;
    let cbl = cb - 2 + u64::from(lower_closer);
    let cbr = cb + 2;
    let k = (q * 1_262_611 - if lower_closer { 524_031 } else { 0 }) >> 22;
    // floor(log2(10^-k)) (log2(10) ≈ 1741647 / 2^19), then the left
    // shift (1..=4) that aligns the 128-bit multiplier with 2^q.
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = POW10[(-k - POW10_MIN) as usize];

    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + u64::from(!ends_inside);
    let upper = vbr - u64::from(!ends_inside);

    // A multiple of ten inside the interval is one digit shorter; at
    // most one of the two around `s` can be.
    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + u64::from(up_inside), k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return (s + u64::from(up_inside), k);
    }
    // Both neighbours round-trip: the closer one, an exact tie going
    // up as `std` does.
    let round_up = vb >= 4 * s + 2;
    (s + u64::from(round_up), k)
}

/// Appends the bytes of `format!("{v}")`: the shortest decimal that
/// round-trips, in positional notation (`NaN`, `inf`, `-inf` for the
/// non-finite values). Never allocates beyond growing `out`.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let fraction = bits & ((1 << 52) - 1);
    let biased_exp = (bits >> 52) & 0x7ff;
    if biased_exp == 0x7ff {
        out.extend_from_slice(match (fraction, v.is_sign_negative()) {
            (0, false) => b"inf".as_slice(),
            (0, true) => b"-inf",
            _ => b"NaN",
        });
        return;
    }
    if v.is_sign_negative() {
        out.push(b'-');
    }
    if biased_exp == 0 && fraction == 0 {
        out.push(b'0');
        return;
    }
    // Integers below 2^53 are their own shortest decimal.
    if (1023..=1075).contains(&biased_exp) {
        let c = (1 << 52) | fraction;
        let point_shift = 1075 - biased_exp as u32;
        if c.trailing_zeros() >= point_shift {
            push_u64(out, c >> point_shift);
            return;
        }
    }

    let (digits, exponent) = shortest_decimal(fraction, biased_exp);
    let mut buf = [0u8; 20];
    let start = fill_decimal(&mut buf, digits);
    let mut digits = &buf[start..];
    let mut exponent = exponent;
    while let [rest @ .., b'0'] = digits {
        digits = rest;
        exponent += 1;
    }
    // value = 0.d1d2…dn · 10^point
    let n = digits.len() as i32;
    let point = n + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if point >= n {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - n) as usize, b'0');
    } else {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    }
}

/// Appends the samples-CSV header line for `nodes` nodes:
/// `t,n0,n1,…\n`.
pub fn push_sample_header(out: &mut Vec<u8>, nodes: usize) {
    out.push(b't');
    for i in 0..nodes {
        out.extend_from_slice(b",n");
        push_u64(out, i as u64);
    }
    out.push(b'\n');
}

/// Appends one samples-CSV line: the sample time in seconds, then
/// every node's logical clock, comma-separated, newline-terminated.
pub fn push_sample_line(out: &mut Vec<u8>, sample: &ClockSample) {
    push_sample_values(out, sample.t.as_secs(), &sample.logical);
}

/// Appends the samples-CSV line of time `t` (seconds) and the logical
/// clocks `logical`: what [`push_sample_line`] prints for a sample it
/// no longer holds, only its numbers.
pub fn push_sample_values(out: &mut Vec<u8>, t: f64, logical: &[f64]) {
    push_f64(out, t);
    for &v in logical {
        out.push(b',');
        push_f64(out, v);
    }
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn printed(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).expect("push_f64 emits ASCII")
    }

    #[test]
    fn table_matches_known_powers_of_ten() {
        let at = |e: i32| POW10[(e - POW10_MIN) as usize];
        // Exact while 10^e fits 128 bits: 10^e = 5^e · 2^e.
        assert_eq!(at(0), 1 << 127);
        assert_eq!(at(1), 0xA << 124);
        assert_eq!(at(27), 5u128.pow(27) << (127 - 62));
        // 1/10 = 0.000110011…b: the repeating pattern, rounded up.
        assert_eq!(at(-1), 0xCCCC_CCCC_CCCC_CCCC_CCCC_CCCC_CCCC_CCCD);
        // Every entry is normalized, and consecutive entries differ by
        // a factor of ten up to the rounding.
        for e in POW10_MIN..POW10_MAX {
            let (g, next) = (at(e), at(e + 1));
            assert!(g >> 127 == 1, "10^{e} not normalized");
            let ratio = next as f64 / g as f64;
            assert!(
                (ratio - 1.25).abs() < 1e-15 || (ratio - 0.625).abs() < 1e-15,
                "10^{e} → 10^{}: ratio {ratio}",
                e + 1
            );
        }
    }

    #[test]
    fn exact_ties_round_up_like_std() {
        // 2^-25 = 2.98023223876953125e-8 sits exactly between its two
        // 17-digit candidates; textbook Schubfach picks the even `…312`.
        let v = 2f64.powi(-25);
        assert_eq!(printed(v), "0.000000029802322387695313");
        assert_eq!(printed(v), format!("{v}"));
    }

    #[test]
    fn sample_lines_match_the_write_macros_they_replaced() {
        let sample = ClockSample {
            t: SimTime::from_secs(0.0015),
            logical: vec![0.0015000000000000002, 1.0, 0.0, 12.000_000_1],
        };
        let mut out = Vec::new();
        push_sample_header(&mut out, 12);
        push_sample_line(&mut out, &sample);

        let mut want = String::from("t");
        for i in 0..12 {
            want.push_str(&format!(",n{i}"));
        }
        want.push_str(&format!("\n{}", sample.t.as_secs()));
        for v in &sample.logical {
            want.push_str(&format!(",{v}"));
        }
        want.push('\n');
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }
}
