//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The simulator's clock is a `u64` count of nanoseconds since the start
//! of the run. 2^64 ns ≈ 584 years, so overflow is not a practical
//! concern for 60-second throughput tests.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// 2^63: every `f64` in `[0, 2^63)` converts to `i64` exactly.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// Truncate `x` to `u64`, adding one when `up(x, trunc(x))` says so —
/// the shared core of the rounding helpers below.
///
/// On `[0, 2^63)` the truncation goes through `i64`: one `cvttsd2si`
/// down and one `cvtsi2sd` back on baseline x86-64, which has no
/// unsigned conversions. Through `u64` the same round trip takes two
/// `cvttsd2si` with a fix-up for values at or above 2^63, and six
/// instructions back to `f64`. Every other input is an integer, an
/// infinity, NaN or negative, and there `x as u64` (0 for NaN and
/// negatives, saturating above) already is what `round`, `ceil` and
/// `floor` followed by `as u64` give.
#[inline(always)]
fn trunc_then(x: f64, up: impl FnOnce(f64, f64) -> bool) -> u64 {
    if (0.0..TWO_63).contains(&x) {
        let t = x as i64;
        t as u64 + u64::from(up(x, t as f64))
    } else {
        x as u64
    }
}

/// Round a non-negative `f64` to the nearest integer, halves away from
/// zero — bit-identical to `x.round() as u64` over the whole `f64`
/// domain (negatives, NaN and out-of-range values all saturate through
/// the same `as` conversion), but inlines to a handful of SSE2
/// instructions where `f64::round` is an out-of-line libm call on
/// baseline x86-64. The simulator converts float-domain service times
/// on every event, so this sits on the hot path.
#[inline]
pub fn round_f64_u64(x: f64) -> u64 {
    // For x < 2^53 the truncation and the fractional part are both
    // exact, so the comparison reproduces round()'s half-away-from-zero
    // tie break; for x >= 2^53 there is no fractional part and the
    // truncation is already the answer.
    trunc_then(x, |x, t| x - t >= 0.5)
}

/// `x.ceil() as u64` over the whole `f64` domain, without libm's
/// out-of-line `ceil`.
#[inline]
pub fn ceil_f64_u64(x: f64) -> u64 {
    trunc_then(x, |x, t| t < x)
}

/// `x.floor() as u64` over the whole `f64` domain, without libm's
/// out-of-line `floor`.
#[inline]
pub fn floor_f64_u64(x: f64) -> u64 {
    trunc_then(x, |_, _| false)
}

/// An instant on the simulated clock (nanoseconds since run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Time zero: the start of the simulation run.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from seconds (fractional seconds allowed).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "SimTime cannot be negative");
        SimTime(round_f64_u64(secs * 1e9))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (lossy for very large times; fine for our runs).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction producing a duration.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "SimDuration cannot be negative");
        SimDuration(round_f64_u64(secs * 1e9))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a dimensionless factor (e.g. jitter multipliers).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration scale must be non-negative");
        // Up to 2^53 ns the float round trip is exact, so scaling by one
        // returns `self` either way; skip the two conversions.
        if factor == 1.0 && self.0 <= 1 << 53 {
            return self;
        }
        SimDuration(round_f64_u64(self.0 as f64 * factor))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// True if this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl crate::canon::Canonicalize for SimDuration {
    fn canonicalize(&self, c: &mut crate::canon::Canon) {
        c.put_u64("ns", self.0);
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!(((t + d) - t).as_nanos(), 2_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.000_001).as_nanos(), 1_000);
    }

    /// Each helper against the `std` expression it replaces.
    fn assert_helpers_match_std(x: f64) {
        let bits = x.to_bits();
        assert_eq!(round_f64_u64(x), x.round() as u64, "round mismatch at {x:e} ({bits:#x})");
        assert_eq!(ceil_f64_u64(x), x.ceil() as u64, "ceil mismatch at {x:e} ({bits:#x})");
        assert_eq!(floor_f64_u64(x), x.floor() as u64, "floor mismatch at {x:e} ({bits:#x})");
    }

    #[test]
    fn conversions_match_std_on_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut cases = vec![
            0.0, -0.0, 0.25, 0.5, 0.75, 0.999_999_999, 1.0, 1.499_999_9, 1.5, 2.5, 3.5, 1e9,
            1.5e9 + 0.5, f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::from_bits(1),
            -f64::from_bits(1), f64::from_bits(0x000f_ffff_ffff_ffff), 9.3e18, 2e19, f64::MAX,
            -0.2, -0.5, -0.7, -1.0, -3.7, f64::MIN, f64::NAN, -f64::NAN, f64::INFINITY,
            f64::NEG_INFINITY, u64::MAX as f64, i64::MAX as f64,
        ];
        // Neighbours of the powers of two where the fast path's
        // assumptions change: 2^52 (no more halves), 2^53 (no more odd
        // integers), 2^63 (the end of the `i64` range) and 2^64.
        for e in [52, 53, 63, 64] {
            let p = two(e);
            cases.extend([p - 1.0, p, p + 1.0, p - 0.5, p + 2.0]);
            cases.extend([f64::from_bits(p.to_bits() - 1), f64::from_bits(p.to_bits() + 1)]);
        }
        // Ties at .5 across the magnitudes where they still exist.
        cases.extend((0..52).map(|e| two(e) + 0.5));
        for &x in &cases {
            assert_helpers_match_std(x);
            assert_helpers_match_std(-x);
        }
        // A dense deterministic sweep around the ns magnitudes the
        // cost model actually produces.
        let mut v = 1.0_f64;
        for i in 0..200_000u64 {
            assert_helpers_match_std(v + (i as f64) * 0.137);
            v += 17.31;
        }
    }

    /// Seeded random bit patterns cover every exponent and sign, NaN
    /// payloads and subnormals; the second half draws from `[0, 2^64)`
    /// where the fast path and its fallback meet.
    #[test]
    fn conversions_match_std_on_random_bit_patterns() {
        let mut rng = crate::SimRng::seed_from_u64(0x05ee_df64);
        for _ in 0..200_000 {
            assert_helpers_match_std(f64::from_bits(rng.next_u64()));
            let magnitude = 2f64.powi((rng.next_u64() % 65) as i32);
            assert_helpers_match_std(rng.uniform(0.0, magnitude));
        }
    }

    /// Scaling by exactly one returns `self` up to 2^53 ns, which is
    /// what the float round trip gives there; beyond it the round trip
    /// still runs.
    #[test]
    fn mul_f64_by_one_matches_the_float_round_trip() {
        let old = |d: SimDuration, f: f64| SimDuration(round_f64_u64(d.0 as f64 * f));
        let edge = 1u64 << 53;
        let top = [u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for ns in (0..64).chain(edge - 64..edge + 64).chain(top) {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(d.mul_f64(1.0), old(d, 1.0), "at {ns} ns");
            assert_eq!(d.mul_f64(1.5), old(d, 1.5), "at {ns} ns");
        }
        // Above 2^53 ns the round trip is lossy and `mul_f64(1.0)` keeps
        // it: an odd count comes back even.
        assert_eq!(SimDuration::from_nanos(edge + 1).mul_f64(1.0).as_nanos(), edge);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 15_000_000);
        assert_eq!((d * 3).as_nanos(), 30_000_000);
        assert_eq!((d / 2).as_nanos(), 5_000_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_nanos(5);
        let db = SimDuration::from_nanos(9);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }
}
