//! Free functions over `&[f64]` slices used throughout the workspace.
//!
//! These are deliberately slice-based (rather than methods on a vector
//! newtype) so callers can apply them to any contiguous storage.

/// Dot product of two equal-length slices, on the deterministic
/// 8-lane kernel spec ([`kernels::dot_f64`]).
///
/// # Panics
///
/// Panics if the slices have different lengths; callers in this workspace
/// always pass equal-length buffers, so this indicates an internal bug.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    kernels::dot_f64(a, b)
}

/// Infinity norm `max_i |a_i|` (0 for an empty slice).
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |acc, &x| acc.max(x.abs()))
}

/// True if every element is finite.
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn all_finite_flags_nan_and_inf() {
        assert!(all_finite(&[0.0, 1.0]));
        assert!(!all_finite(&[f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn dot_commutative(a in proptest::collection::vec(-1e3f64..1e3, 0..32)) {
            let b: Vec<f64> = a.iter().rev().copied().collect();
            prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-6);
        }
    }
}
