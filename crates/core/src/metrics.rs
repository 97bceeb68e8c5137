//! Performance-metric helpers shared by the decision engine, the
//! simulator, and the live runtime.
//!
//! The payback algebra works with "any measure that increases with
//! increased application performance, e.g., flop rate"; these helpers keep
//! the conversions in one place.

/// Fractional improvement of `new` over `old`: `(new − old) / old`.
/// Negative when `new < old`.
///
/// # Panics
/// Panics if `old` is not strictly positive.
pub fn improvement(old: f64, new: f64) -> f64 {
    assert!(old > 0.0, "baseline must be positive, got {old}");
    (new - old) / old
}

/// For an equal-partition application, the whole-application performance is
/// set by the *minimum* processor performance. Returns that minimum.
///
/// # Panics
/// Panics on an empty slice.
pub fn bottleneck_perf(perfs: &[f64]) -> f64 {
    assert!(!perfs.is_empty(), "need at least one processor");
    perfs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_is_signed_fraction() {
        assert_eq!(improvement(10.0, 15.0), 0.5);
        assert_eq!(improvement(10.0, 5.0), -0.5);
        assert_eq!(improvement(10.0, 10.0), 0.0);
    }

    #[test]
    fn bottleneck_is_min() {
        assert_eq!(bottleneck_perf(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn improvement_rejects_zero_baseline() {
        improvement(0.0, 1.0);
    }
}
