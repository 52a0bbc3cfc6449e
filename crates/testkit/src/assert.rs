//! Statistical assertion helpers for figure-shape tests.
//!
//! The paper's figures are reproduced as *shapes* — ratios, orderings and
//! dispersions — rather than absolute milliseconds, so the integration
//! tests all need the same three checks: "this ratio lands in this band",
//! "this series trends this way", "this series is tight/noisy enough".
//! Centralizing them here gives every figure test the same failure
//! message format and tolerance semantics.

/// Direction of a trend for [`assert_monotone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Each value should be >= its predecessor (within slack).
    Increasing,
    /// Each value should be <= its predecessor (within slack).
    Decreasing,
}

/// Asserts that `numerator / denominator` lies in `[lo, hi]`.
///
/// Pass `f64::INFINITY` as `hi` for a one-sided "at least `lo`×" check.
/// Panics with the computed ratio and band on failure.
pub fn assert_ratio_within(name: &str, numerator: f64, denominator: f64, lo: f64, hi: f64) {
    assert!(
        denominator != 0.0 && denominator.is_finite() && numerator.is_finite(),
        "{name}: ratio {numerator}/{denominator} is not well-defined"
    );
    let ratio = numerator / denominator;
    assert!(
        ratio >= lo && ratio <= hi,
        "{name}: ratio {ratio:.4} ({numerator:.4}/{denominator:.4}) outside [{lo}, {hi}]"
    );
}

/// Asserts that `values` trends in `direction`, allowing each step to
/// regress against its predecessor by at most `slack` (a fraction: 0.05
/// lets a nominally decreasing series tick up 5% between samples).
///
/// Series with fewer than two values pass trivially.
pub fn assert_monotone(name: &str, values: &[f64], direction: Direction, slack: f64) {
    assert!(slack >= 0.0, "{name}: negative slack {slack}");
    for (i, pair) in values.windows(2).enumerate() {
        let (prev, next) = (pair[0], pair[1]);
        assert!(
            prev.is_finite() && next.is_finite(),
            "{name}: non-finite value at index {i}..{}",
            i + 1
        );
        let ok = match direction {
            Direction::Increasing => next >= prev - slack * prev.abs(),
            Direction::Decreasing => next <= prev + slack * prev.abs(),
        };
        assert!(
            ok,
            "{name}: {direction:?} trend broken at index {}: {prev:.4} -> {next:.4} \
             (slack {slack})",
            i + 1
        );
    }
}

/// Asserts that a scalar lies in `[lo, hi]` — the degenerate but common
/// case of a band check on an already-computed quantity.
pub fn assert_within(name: &str, value: f64, lo: f64, hi: f64) {
    assert!(
        value.is_finite() && value >= lo && value <= hi,
        "{name}: value {value:.4} outside [{lo}, {hi}]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_within_band_passes() {
        assert_ratio_within("speedup", 9.0, 3.0, 2.0, 4.0);
        assert_ratio_within("one-sided", 10.0, 1.0, 5.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn ratio_outside_band_panics() {
        assert_ratio_within("speedup", 1.0, 1.0, 2.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "not well-defined")]
    fn ratio_by_zero_panics() {
        assert_ratio_within("bad", 1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn monotone_respects_slack() {
        // Nominally decreasing with a 3% blip — passes at 5% slack.
        let v = [10.0, 8.0, 8.24, 7.0];
        assert_monotone("warmup", &v, Direction::Decreasing, 0.05);
    }

    #[test]
    #[should_panic(expected = "trend broken at index 2")]
    fn monotone_flags_big_regression() {
        let v = [10.0, 8.0, 9.5];
        assert_monotone("warmup", &v, Direction::Decreasing, 0.05);
    }

    #[test]
    fn increasing_direction_works() {
        assert_monotone("ramp", &[1.0, 2.0, 2.0, 3.0], Direction::Increasing, 0.0);
    }

    #[test]
    fn within_band_checks_scalar() {
        assert_within("fraction", 0.4, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn within_flags_out_of_band() {
        assert_within("fraction", 1.4, 0.0, 1.0);
    }
}
