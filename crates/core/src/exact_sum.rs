//! Exact, order-free summation of `f64`s: the accumulator behind the
//! store's root reduction.
//!
//! Neal's *small superaccumulator* ("Fast exact summation using small
//! and large superaccumulators", arXiv:1505.05571): every finite double
//! is an integer multiple of 2^-1074 below 2^1024, so 32-bit chunks in
//! 68 `i64` words hold any sum of them exactly. A term touches at most
//! three words and carries are deferred, so adding or retracting one
//! costs a few integer operations, and the state depends only on the
//! multiset of terms held, never on their order. NaN, the infinities
//! and `-0` have no fixed-point form and are counted beside the words.

/// 66 words hold the 2,098 bits a double can reach; the rest take the
/// carries of sums past `f64::MAX`.
const WORDS: usize = 68;

/// Terms between carry propagations: a term moves a word by less than
/// 2^32, so after 2^30 of them every word is still below 2^63.
const CARRY_EVERY: u32 = 1 << 30;

/// An exact sum of `f64` terms that can also retract a term it holds.
#[derive(Debug)]
pub struct ExactSum {
    /// Word `i` counts units of 2^(32·i − 1074).
    words: [i64; WORDS],
    /// Finite nonzero terms since carries were last propagated.
    pending: u32,
    terms: i64,
    negative_zeros: i64,
    nans: i64,
    positive_infinities: i64,
    negative_infinities: i64,
}

impl Default for ExactSum {
    fn default() -> ExactSum {
        ExactSum {
            words: [0; WORDS],
            pending: 0,
            terms: 0,
            negative_zeros: 0,
            nans: 0,
            positive_infinities: 0,
            negative_infinities: 0,
        }
    }
}

impl ExactSum {
    /// Add a term (`sign` 1), or retract one added before (`sign` −1).
    pub fn add(&mut self, x: f64, sign: i64) {
        self.terms += sign;
        if x.is_nan() {
            self.nans += sign;
        } else if x == f64::INFINITY {
            self.positive_infinities += sign;
        } else if x == f64::NEG_INFINITY {
            self.negative_infinities += sign;
        } else if x == 0.0 {
            self.negative_zeros += sign * i64::from(x.is_sign_negative());
        } else {
            if self.pending == CARRY_EVERY {
                propagate(&mut self.words);
                self.pending = 0;
            }
            self.pending += 1;
            let bits = x.to_bits();
            let exponent = (bits >> 52) & 0x7ff;
            let fraction = bits & ((1 << 52) - 1);
            // x = ±mantissa · 2^(shift − 1074); subnormals lack the
            // implicit bit.
            let (mantissa, shift) = match exponent {
                0 => (fraction, 0),
                _ => (fraction | (1 << 52), exponent - 1),
            };
            let wide = u128::from(mantissa) << (shift % 32);
            let first = (shift / 32) as usize;
            let sign = if x.is_sign_negative() { -sign } else { sign };
            for (i, word) in self.words[first..first + 3].iter_mut().enumerate() {
                *word += sign * ((wide >> (32 * i)) & 0xffff_ffff) as i64;
            }
        }
    }

    /// The sum, rounded once to nearest-even. Any NaN term, or terms of
    /// both infinities, give NaN; otherwise an infinite term wins; an
    /// exact zero is `-0` only when every term was `-0`, as in IEEE
    /// addition.
    pub fn value(&self) -> f64 {
        if self.nans > 0 || (self.positive_infinities > 0 && self.negative_infinities > 0) {
            return f64::NAN;
        }
        if self.positive_infinities > 0 {
            return f64::INFINITY;
        }
        if self.negative_infinities > 0 {
            return f64::NEG_INFINITY;
        }
        let mut words = self.words;
        propagate(&mut words);
        // Every word but the last is now in [0, 2^32): the last holds
        // the sign.
        let negative = words[WORDS - 1] < 0;
        if negative {
            words.iter_mut().for_each(|w| *w = -*w);
            propagate(&mut words);
        }
        let Some(top) = words.iter().rposition(|&w| w != 0) else {
            let all_negative_zeros = self.terms > 0 && self.negative_zeros == self.terms;
            return if all_negative_zeros { -0.0 } else { 0.0 };
        };
        let magnitude = round_magnitude(&words, top);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Move each word's bits above the 32nd into the next word, leaving
/// every word but the last in [0, 2^32). The value is unchanged.
fn propagate(words: &mut [i64; WORDS]) {
    for i in 0..WORDS - 1 {
        words[i + 1] += words[i] >> 32;
        words[i] &= 0xffff_ffff;
    }
}

/// Round a positive propagated accumulator whose highest nonzero word
/// is `top` to the nearest double, ties to even.
fn round_magnitude(words: &[i64; WORDS], top: usize) -> f64 {
    // The top three words hold at least 65 leading bits: the 53-bit
    // mantissa and the rounding bit. Lower words only break ties.
    let low = top.saturating_sub(2);
    let head = (low..=top)
        .rev()
        .fold(0u128, |acc, i| (acc << 32) | words[i] as u128);
    let sticky = words[..low].iter().any(|&w| w != 0);
    let lead = 127 - head.leading_zeros() as usize;
    // The leading bit counts units of 2^(exponent − 1074).
    let exponent = 32 * low + lead;
    if exponent < 53 {
        // Below 2^-1021 every multiple of 2^-1074 is a double, and its
        // bits are the count.
        return f64::from_bits(head as u64);
    }
    let shift = lead - 52;
    let mut mantissa = (head >> shift) as u64;
    let half = 1u128 << (shift - 1);
    let rest = head & ((1u128 << shift) - 1);
    if rest > half || (rest == half && (sticky || mantissa & 1 == 1)) {
        mantissa += 1;
    }
    let mut biased = (exponent - 51) as u64;
    if mantissa == 1 << 53 {
        mantissa >>= 1;
        biased += 1;
    }
    if biased >= 0x7ff {
        return f64::INFINITY;
    }
    f64::from_bits((biased << 52) | (mantissa & ((1 << 52) - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(terms: &[f64]) -> f64 {
        let mut acc = ExactSum::default();
        terms.iter().for_each(|&x| acc.add(x, 1));
        acc.value()
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn sums_round_once_in_any_order() {
        for order in [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.3, 0.1]] {
            assert_eq!(sum(&order), 0.6, "{order:?}");
        }
        // A running f64 sum overflows on the first two terms.
        assert_eq!(sum(&[1e308, 1e308, -1e308]), 1e308);
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // MAX plus half an ulp ties to the even neighbour: 2^1024.
        assert_eq!(sum(&[f64::MAX, 2f64.powi(970)]), f64::INFINITY);
        assert_eq!(sum(&[f64::MAX, 2f64.powi(969)]), f64::MAX);
        // Ties to even, unless a far-away term breaks the tie.
        let big = 2f64.powi(53);
        assert_eq!(sum(&[big, 1.0]), big);
        assert_eq!(sum(&[big, 1.0, 2f64.powi(-1000)]), big + 2.0);
        assert_eq!(sum(&[big, 3.0]), big + 4.0);
        assert_eq!(sum(&[1.0, 1e-300, -1.0]), 1e-300);
    }

    #[test]
    fn subnormals_and_signed_zeros() {
        let tiny = f64::from_bits(1);
        assert_eq!(sum(&[tiny, tiny]).to_bits(), 2);
        assert_eq!(sum(&[f64::MIN_POSITIVE, -tiny]).to_bits(), (1 << 52) - 1);
        assert_eq!(sum(&[tiny, -tiny]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[5.0, -5.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits());
        let mut acc = ExactSum::default();
        acc.add(5.0, 1);
        acc.add(-0.0, 1);
        acc.add(5.0, -1);
        assert_eq!(acc.value().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn nan_and_infinities_are_counted_beside_the_words() {
        assert!(sum(&[1.0, f64::NAN]).is_nan());
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(sum(&[f64::INFINITY, -f64::MAX, 1.0]), f64::INFINITY);
        assert_eq!(sum(&[f64::NEG_INFINITY, 2.0]), f64::NEG_INFINITY);
        let mut acc = ExactSum::default();
        for x in [2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            acc.add(x, 1);
        }
        for x in [f64::NEG_INFINITY, f64::NAN, f64::INFINITY] {
            acc.add(x, -1);
        }
        assert_eq!(acc.value(), 2.5);
    }

    #[test]
    fn deferred_carries_do_not_change_the_value() {
        let mut acc = ExactSum::default();
        for x in [0.1, -7.25e200, 3e-310, 1e17] {
            acc.add(x, 1);
        }
        let before = acc.value();
        acc.pending = CARRY_EVERY - 1;
        for _ in 0..4 {
            acc.add(0.7, 1);
            acc.add(0.7, -1);
        }
        assert!(acc.pending < 8, "carries were propagated");
        assert_eq!(acc.value().to_bits(), before.to_bits());
    }

    /// Terms whose biased exponents sit in `[low, low + 60]`, so their
    /// exact sum is an `i128` count of the window's smallest unit.
    fn windowed(low: u64, raw: &[u64]) -> Vec<f64> {
        raw.iter()
            .map(|&w| {
                let exponent = low + ((w >> 52) & 0x7ff) % 61;
                f64::from_bits((w & ((1 << 63) | ((1 << 52) - 1))) | (exponent << 52))
            })
            .collect()
    }

    /// The independent oracle: the exact sum in `i128` fixed point,
    /// rounded to nearest-even by `as f64`, then scaled by a power of
    /// two (exact: the result is a double multiple of the unit).
    fn oracle(low: u64, terms: &[f64]) -> f64 {
        let floor = low.max(1);
        let total: i128 = terms
            .iter()
            .map(|&x| {
                let bits = x.to_bits();
                let exponent = (bits >> 52) & 0x7ff;
                let fraction = bits & ((1 << 52) - 1);
                let mantissa = if exponent == 0 {
                    fraction
                } else {
                    fraction | (1 << 52)
                };
                let units = i128::from(mantissa) << (exponent.max(1) - floor);
                if x.is_sign_negative() {
                    -units
                } else {
                    units
                }
            })
            .sum();
        // 2^(floor − 1075), subnormal below floor 53.
        let unit = if floor >= 53 {
            f64::from_bits((floor - 52) << 52)
        } else {
            f64::from_bits(1 << (floor - 1))
        };
        (total as f64) * unit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        /// Exact against the `i128` oracle over every exponent window,
        /// subnormals and overflow included, and unchanged by retracting
        /// every term and re-adding them in reverse order.
        #[test]
        fn matches_the_i128_oracle(
            low in 0u64..1987,
            raw in proptest::collection::vec(any::<u64>(), 1..40),
        ) {
            let terms = windowed(low, &raw);
            let expected = oracle(low, &terms);
            let mut acc = ExactSum::default();
            terms.iter().for_each(|&x| acc.add(x, 1));
            prop_assert!(same(acc.value(), expected), "{terms:?}: {} vs {expected}", acc.value());
            terms.iter().for_each(|&x| acc.add(x, -1));
            prop_assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
            terms.iter().rev().for_each(|&x| acc.add(x, 1));
            prop_assert!(same(acc.value(), expected), "re-added: {} vs {expected}", acc.value());
        }

        /// Any doubles at all — NaN, infinities, zeros, subnormals —
        /// give the same bits whatever the order and history.
        #[test]
        fn any_terms_are_order_free(raw in proptest::collection::vec(any::<u64>(), 1..24)) {
            let terms: Vec<f64> = raw.iter().map(|&w| f64::from_bits(w)).collect();
            let forward = sum(&terms);
            let mut acc = ExactSum::default();
            terms.iter().rev().for_each(|&x| acc.add(x, 1));
            terms.iter().step_by(2).for_each(|&x| acc.add(x, -1));
            terms.iter().step_by(2).for_each(|&x| acc.add(x, 1));
            prop_assert!(same(acc.value(), forward), "{terms:?}: {} vs {forward}", acc.value());
        }
    }
}
