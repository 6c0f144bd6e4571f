use crate::{LinalgError, Mat};

/// Dense LU decomposition with partial pivoting.
///
/// A direct solver that shares no code with the circuit solver's
/// iterative block Gauss–Seidel: the conformance suite's reference
/// Newton solves each crossbar correction system with it. Factoring
/// once and back-substituting per right-hand side costs
/// `O(n^3 + k n^2)` for `k` of them.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), linalg::LinalgError> {
/// use linalg::{Mat, LuDecomposition};
///
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Mat,
    /// Row permutation: row `i` of the factored matrix came from
    /// `pivots[i]` of the original.
    pivots: Vec<usize>,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/inf.
    pub fn new(a: &Mat) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !crate::vec_ops::all_finite(a.as_slice()) {
            return Err(LinalgError::NonFinite("lu input matrix".into()));
        }

        let mut lu = a.clone();
        let mut pivots: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below row k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < f64::EPSILON * 16.0 {
                return Err(LinalgError::Singular { pivot_index: k });
            }
            if p != k {
                pivots.swap(k, p);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }

        Ok(LuDecomposition { lu, pivots })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "lu solve: system is {n}x{n} but rhs has length {}",
                b.len()
            )));
        }
        // Apply permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.pivots.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves against many right-hand sides given as columns of `b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Mat) -> Result<Mat, LinalgError> {
        if b.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch(format!(
                "lu solve_matrix: system is {0}x{0} but rhs has {1} rows",
                self.dim(),
                b.rows()
            )));
        }
        let mut out = Mat::zeros(b.rows(), b.cols());
        let mut col = vec![0.0; b.rows()];
        for j in 0..b.cols() {
            for i in 0..b.rows() {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col)?;
            for i in 0..b.rows() {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solves_2x2() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!((ax[0] - 3.0).abs() < 1e-12);
        assert!((ax[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Mat::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NonFinite(_))
        ));
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = Mat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let inv = lu.solve_matrix(&Mat::identity(2)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rhs_length_validated() {
        let lu = LuDecomposition::new(&Mat::identity(3)).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_matrix(&Mat::zeros(2, 2)).is_err());
    }

    proptest! {
        /// Random diagonally-dominant systems solve to high accuracy.
        #[test]
        fn random_dd_systems(seed in 0u64..48) {
            let n = 12;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Mat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            for i in 0..n {
                a[(i, i)] += n as f64; // force diagonal dominance
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let lu = LuDecomposition::new(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            for i in 0..n {
                prop_assert!((ax[i] - b[i]).abs() < 1e-9);
            }
        }
    }
}
