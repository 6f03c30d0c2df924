//! Division by a divisor fixed at construction, without the hardware
//! divider: the closed forms of [`crate::Dragonfly`] divide by run-time
//! `a`, `p`, `h` and the group count a score of times per routing
//! decision, and a decision is revisited for every head packet every
//! cycle (§V).

/// A divisor `d ≥ 1` with `m = ⌈2⁶⁴ / d⌉`: `n / d` is the high word of
/// `n · m`, exactly, for every `n: u32` — `m · d = 2⁶⁴ + e` with
/// `0 ≤ e < d`, so `n · m / 2⁶⁴` exceeds `n / d` by `n · e / (d · 2⁶⁴)`,
/// less than `2⁻³² ≤ 1 / d` and so too little to carry a fraction of at
/// most `(d − 1) / d` to the next integer. Topology ids are `u32`
/// newtypes, so the range holds by type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divisor {
    d: u32,
    /// Modulo 2⁶⁴: 0 exactly for `d = 1`, whose reciprocal is 2⁶⁴.
    m: u64,
}

// The receiver is the divisor, not the dividend, so `div` and `rem` are
// not the operator traits' methods; `Div<Divisor> for u32` would hide at
// the call site that no divide instruction runs.
#[expect(
    clippy::should_implement_trait,
    reason = "the receiver is the divisor: these are not the operator traits' methods"
)]
impl Divisor {
    /// The divisor `d`.
    ///
    /// # Panics
    /// Panics if `d` is zero or exceeds `u32::MAX`.
    #[expect(clippy::expect_used, reason = "construction-time validation of d")]
    pub fn new(d: usize) -> Self {
        let d = u32::try_from(d)
            .ok()
            .filter(|&d| d != 0)
            .expect("a divisor must lie in 1..=u32::MAX");
        let m = (u64::MAX / u64::from(d)).wrapping_add(1);
        Self { d, m }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(self) -> u32 {
        self.d
    }

    /// `n / d`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the quotient of a u32 by d >= 1 is a u32"
    )]
    pub fn div(self, n: u32) -> u32 {
        if self.m == 0 {
            return n;
        }
        ((u128::from(n) * u128::from(self.m)) >> 64) as u32
    }

    /// `n % d`.
    #[inline]
    pub fn rem(self, n: u32) -> u32 {
        n - self.div(n) * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn agrees(d: u32, n: u32) {
        let by = Divisor::new(d as usize);
        assert_eq!(by.get(), d);
        assert_eq!(by.div(n), n / d, "{n} / {d}");
        assert_eq!(by.rem(n), n % d, "{n} % {d}");
    }

    /// Every divisor a realizable network has, at the numerators where
    /// a reciprocal that is off by one shows first: around 0, around
    /// `d`, around a far multiple of `d`, and at the top of the range.
    #[test]
    fn small_divisors_agree_at_the_quotient_steps() {
        for d in 1..=4096u32 {
            let k = (u32::MAX / d).min(1_000_003);
            for n in [
                0,
                1,
                d - 1,
                d,
                d + 1,
                k * d - 1,
                k * d,
                (u32::MAX / d) * d - 1,
                (u32::MAX / d) * d,
                u32::MAX - 1,
                u32::MAX,
            ] {
                agrees(d, n);
            }
        }
    }

    #[test]
    fn the_largest_divisors_agree() {
        for d in [
            u32::MAX,
            u32::MAX - 1,
            1 << 31,
            (1 << 31) + 1,
            (1 << 16) + 1,
        ] {
            for n in [0, 1, d - 1, d, d.saturating_add(1), u32::MAX - 1, u32::MAX] {
                agrees(d, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a divisor must lie in 1..=u32::MAX")]
    fn zero_is_refused() {
        Divisor::new(0);
    }

    proptest! {
        #[test]
        fn agrees_with_the_hardware_divider(n in any::<u32>(), d in 1u32..=u32::MAX) {
            agrees(d, n);
        }
    }
}
