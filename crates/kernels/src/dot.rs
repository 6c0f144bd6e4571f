//! Lane-blocked reductions and element-wise vector kernels.

use crate::{reduce_lanes_f32, reduce_lanes_f64, LANES};

/// Deterministic 8-lane dot product over `f32` slices.
///
/// Lane `l` accumulates products at indices `i ≡ l (mod 8)` in
/// ascending order; lanes reduce with the fixed tree of
/// [`reduce_lanes_f32`]. The result is a pure function of the inputs —
/// bit-identical at any thread count or call site.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32: length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += x * y;
    }
    reduce_lanes_f32(&acc)
}

/// Deterministic 8-lane dot product over `f64` slices.
///
/// Same lane and tree spec as [`dot_f32`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f64: length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += x * y;
    }
    reduce_lanes_f64(&acc)
}

/// Deterministic 8-lane mixed dot product: `Σ a[i] * (b[i] as f64)`.
///
/// The functional simulator keeps conductance matrices in `f64` and
/// input levels in `f32`; each product widens the level before the
/// multiply, exactly as the pre-kernel scalar loop did.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f64_f32(a: &[f64], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f64_f32: length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * f64::from(xb[l]);
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += x * f64::from(*y);
    }
    reduce_lanes_f64(&acc)
}

/// `y += alpha * x`, element-wise.
///
/// No reduction, so no ordering freedom: bit-identical to the naive
/// loop (the compiler vectorizes it freely because the elements are
/// independent).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy_f64: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y`, element-wise (a Krylov direction update).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xpby_f64(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby_f64: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use proptest::prelude::*;

    /// Straight-line reference of the *same* lane spec, written as the
    /// definition reads (one pass per lane) rather than how the kernel
    /// iterates. Bit equality against this pins the implementation to
    /// the documented order.
    fn spec_dot_f32(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        for l in 0..LANES {
            let mut i = l;
            while i < a.len() {
                acc[l] += a[i] * b[i];
                i += LANES;
            }
        }
        reduce_lanes_f32(&acc)
    }

    fn spec_dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for l in 0..LANES {
            let mut i = l;
            while i < a.len() {
                acc[l] += a[i] * b[i];
                i += LANES;
            }
        }
        reduce_lanes_f64(&acc)
    }

    #[test]
    fn dot_known_values() {
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b = vec![2.0f32; 19];
        assert_eq!(dot_f32(&a, &b), 2.0 * (0..19).sum::<i32>() as f32);
        assert_eq!(dot_f32(&[], &[]), 0.0);
        let a64: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
        let b64 = vec![2.0f64; 19];
        assert_eq!(dot_f64(&a64, &b64), 342.0);
        assert_eq!(dot_f64_f32(&a64, &b), 342.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_checked() {
        dot_f32(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_xpby_match_naive() {
        let x: Vec<f64> = (0..37).map(|i| 0.1 * i as f64).collect();
        let mut y: Vec<f64> = (0..37).map(|i| -0.2 * i as f64).collect();
        let mut y2 = y.clone();
        axpy_f64(1.7, &x, &mut y);
        for (yi, xi) in y2.iter_mut().zip(&x) {
            *yi += 1.7 * xi;
        }
        assert_eq!(y, y2);
        xpby_f64(&x, -0.3, &mut y);
        for (yi, xi) in y2.iter_mut().zip(&x) {
            *yi = xi + -0.3 * *yi;
        }
        assert_eq!(y, y2);
    }

    proptest! {
        /// The kernel matches the straight-line spec bit for bit at
        /// every length, including all tail sizes.
        #[test]
        fn dot_f32_matches_spec_exactly(
            data in proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..67),
        ) {
            let a: Vec<f32> = data.iter().map(|p| p.0).collect();
            let b: Vec<f32> = data.iter().map(|p| p.1).collect();
            prop_assert_eq!(dot_f32(&a, &b).to_bits(), spec_dot_f32(&a, &b).to_bits());
        }

        #[test]
        fn dot_f64_matches_spec_exactly(
            data in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..67),
        ) {
            let a: Vec<f64> = data.iter().map(|p| p.0).collect();
            let b: Vec<f64> = data.iter().map(|p| p.1).collect();
            prop_assert_eq!(dot_f64(&a, &b).to_bits(), spec_dot_f64(&a, &b).to_bits());
            let bf: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let b_widened: Vec<f64> = bf.iter().map(|&x| f64::from(x)).collect();
            prop_assert_eq!(
                dot_f64_f32(&a, &bf).to_bits(),
                spec_dot_f64(&a, &b_widened).to_bits()
            );
        }

        /// The lane-blocked result stays within a tight relative bound
        /// of the old sequential order (both are correct summations of
        /// the same products; they differ only in rounding).
        #[test]
        fn dot_f32_close_to_naive(
            data in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 1..200),
        ) {
            let a: Vec<f32> = data.iter().map(|p| p.0).collect();
            let b: Vec<f32> = data.iter().map(|p| p.1).collect();
            let blocked = dot_f32(&a, &b);
            let sequential = naive::dot_f32(&a, &b);
            let magnitude: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let bound = f32::EPSILON * magnitude * a.len() as f32;
            prop_assert!(
                (blocked - sequential).abs() <= bound.max(1e-6),
                "blocked {blocked} vs sequential {sequential} (bound {bound})"
            );
        }
    }
}
