//! Lane-blocked CSR sparse matrix–vector product.

use crate::{reduce_lanes_f64, LANES};

/// CSR matvec `y = A·x` over raw CSR buffers.
///
/// The accumulation order within a row is a fixed function of the
/// row's length, so the result is independent of thread count and call
/// site:
///
/// - **Short rows** (`nnz ≤ 8`, the norm for crossbar circuit
///   Jacobians at ~5 entries per row): products accumulate
///   sequentially in ascending position — identical to the pre-kernel
///   loop. Padding a 5-entry row out to 8 lanes and running the
///   reduction tree would more than double the row's flops for zero
///   SIMD benefit (the `x` gather defeats vectorization anyway).
/// - **Long rows** (`nnz > 8`): the 8-lane split applied *by position
///   within the row* (lane `l` takes the row's entries at positions
///   `≡ l (mod 8)`, ascending; the tail continues by position) and the
///   fixed tree of [`reduce_lanes_f64`], giving the long reduction the
///   same instruction-level parallelism as the dense dot kernels.
///
/// # Panics
///
/// Panics if the CSR structure is inconsistent (`row_ptr` not
/// monotonically covering `col_idx`/`values`, `y` length not matching
/// the row count, or a column index out of `x`'s bounds — the latter
/// panics via slice indexing).
#[inline]
pub fn spmv_csr(row_ptr: &[usize], col_idx: &[usize], values: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(col_idx.len(), values.len(), "spmv_csr: structure length");
    assert_eq!(
        row_ptr.len(),
        y.len() + 1,
        "spmv_csr: row pointer length must be rows + 1"
    );
    assert_eq!(
        *row_ptr.last().expect("row_ptr is non-empty"),
        values.len(),
        "spmv_csr: row pointers must cover all entries"
    );
    for (r, out) in y.iter_mut().enumerate() {
        let lo = row_ptr[r];
        let hi = row_ptr[r + 1];
        if hi - lo <= LANES {
            let mut acc = 0.0f64;
            for idx in lo..hi {
                acc += values[idx] * x[col_idx[idx]];
            }
            *out = acc;
        } else {
            let vals = &values[lo..hi];
            let cols = &col_idx[lo..hi];
            let mut acc = [0.0f64; LANES];
            let mut cv = vals.chunks_exact(LANES);
            let mut cc = cols.chunks_exact(LANES);
            for (v8, c8) in cv.by_ref().zip(cc.by_ref()) {
                for l in 0..LANES {
                    acc[l] += v8[l] * x[c8[l]];
                }
            }
            for (l, (v, c)) in cv.remainder().iter().zip(cc.remainder()).enumerate() {
                acc[l] += v * x[*c];
            }
            *out = reduce_lanes_f64(&acc);
        }
    }
}

/// Execution strategy a [`SpmvPlan`] selected at build time.
///
/// The choice is a pure function of the matrix *structure* (shape and
/// row-length distribution), never of the values, so a plan built for a
/// Jacobian sparsity pattern stays valid when the numeric entries
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvStrategy {
    /// Sequential per-row accumulation — the reference order. Chosen
    /// for matrices too small for blocking to pay (`nnz <`
    /// [`SpmvPlan::NAIVE_MAX_NNZ`]), where call overhead dominates.
    Naive,
    /// Sliced-ELLPACK with [`LANES`]-row slices (SELL-8). Chosen for
    /// the short-row regime (crossbar Jacobians: ~5 entries per row)
    /// when zero-padding stays under 1.5× the stored non-zeros.
    Sell,
    /// The per-row dispatching [`spmv_csr`] kernel. Chosen when rows
    /// are long or ragged enough that SELL padding would waste more
    /// flops than the lane split recovers.
    LaneCsr,
}

/// A prepared CSR sparse matrix–vector product.
///
/// [`spmv_csr`] decides its accumulation order per row on every call;
/// for the short-row matrices that dominate this workspace (circuit
/// Jacobians at ~5 entries per row) that means the per-row dispatch
/// branch is pure overhead and every row is a serial dependency chain.
/// `SpmvPlan` moves the decision to *build* time and, in the short-row
/// regime, re-packs the matrix into SELL-8 (sliced ELLPACK): rows are
/// grouped into slices of [`LANES`] = 8, each slice padded to its
/// widest row (padding entries are `0.0` at column 0) and stored
/// column-major within the slice, so the apply loop runs 8 independent
/// accumulator chains — the same instruction-level parallelism as the
/// dense kernels — with no per-row branching.
///
/// Build the plan once per sparsity pattern and amortize it across the
/// many products an iterative solver performs (one or more per
/// iteration): that is where the win lives, and why the
/// benchmarks time `apply` with the plan built outside the loop.
///
/// # Determinism
///
/// Within each row the products accumulate in ascending position —
/// exactly the [`naive::spmv_csr`](crate::naive::spmv_csr) order — so
/// for finite inputs the result is **bit-identical to naive** under
/// every strategy, with two documented SELL caveats: a row whose exact
/// result is `-0.0` returns `+0.0` (trailing `+ 0.0` padding terms
/// round `-0.0 + 0.0` to `+0.0`), and a non-finite `x[0]` poisons
/// padded rows (`0.0 × ∞ = NaN`). Neither occurs in this workspace's
/// solvers, which assert finite inputs.
///
/// # Example
///
/// ```
/// // [[2, -1], [-1, 2]] · [1, 3]
/// let plan = kernels::SpmvPlan::new(&[0, 2, 4], &[0, 1, 0, 1], &[2.0, -1.0, -1.0, 2.0], 2);
/// let mut y = [0.0f64; 2];
/// plan.apply(&[1.0, 3.0], &mut y);
/// assert_eq!(y, [-1.0, 5.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SpmvPlan {
    rows: usize,
    cols: usize,
    nnz: usize,
    strategy: SpmvStrategy,
    /// CSR buffers; retained for `Naive` and `LaneCsr`, cleared for
    /// `Sell` (the SELL buffers replace them).
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Per-slice padded width (max row nnz in the slice); `Sell` only.
    slice_width: Vec<usize>,
    /// Column indices, column-major within each 8-row slice.
    sell_cols: Vec<usize>,
    /// Values matching `sell_cols`; padding entries are `0.0`.
    sell_vals: Vec<f64>,
}

impl SpmvPlan {
    /// Below this many stored non-zeros the plan stays [`SpmvStrategy::Naive`]:
    /// the whole product fits in a few hundred flops and blocking
    /// overhead costs more than it saves.
    pub const NAIVE_MAX_NNZ: usize = 256;

    /// Builds a plan from raw CSR buffers (copied), choosing the
    /// strategy from the structure:
    ///
    /// 1. `nnz <` [`Self::NAIVE_MAX_NNZ`] → [`SpmvStrategy::Naive`];
    /// 2. SELL-8 padding ≤ 1.5 × nnz → [`SpmvStrategy::Sell`];
    /// 3. otherwise → [`SpmvStrategy::LaneCsr`].
    ///
    /// # Panics
    ///
    /// Panics on inconsistent CSR structure: `row_ptr` not starting at
    /// 0, not non-decreasing, or not covering `col_idx`/`values`;
    /// mismatched `col_idx`/`values` lengths; or a column index `≥
    /// cols`.
    pub fn new(row_ptr: &[usize], col_idx: &[usize], values: &[f64], cols: usize) -> Self {
        assert!(!row_ptr.is_empty(), "spmv plan: row_ptr must be non-empty");
        assert_eq!(col_idx.len(), values.len(), "spmv plan: structure length");
        assert_eq!(row_ptr[0], 0, "spmv plan: row_ptr must start at 0");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "spmv plan: row_ptr must be non-decreasing"
        );
        assert_eq!(
            *row_ptr.last().expect("row_ptr is non-empty"),
            values.len(),
            "spmv plan: row pointers must cover all entries"
        );
        assert!(
            col_idx.iter().all(|&c| c < cols),
            "spmv plan: column index out of bounds"
        );

        let rows = row_ptr.len() - 1;
        let nnz = values.len();

        // SELL-8 padded size: each 8-row slice pads to its widest row.
        let mut padded = 0usize;
        for slice in row_ptr.windows(2).collect::<Vec<_>>().chunks(LANES) {
            let width = slice.iter().map(|w| w[1] - w[0]).max().unwrap_or(0);
            padded += width * LANES;
        }

        let strategy = if nnz < Self::NAIVE_MAX_NNZ {
            SpmvStrategy::Naive
        } else if 2 * padded <= 3 * nnz {
            SpmvStrategy::Sell
        } else {
            SpmvStrategy::LaneCsr
        };

        let mut plan = SpmvPlan {
            rows,
            cols,
            nnz,
            strategy,
            row_ptr: row_ptr.to_vec(),
            col_idx: col_idx.to_vec(),
            values: values.to_vec(),
            slice_width: Vec::new(),
            sell_cols: Vec::new(),
            sell_vals: Vec::new(),
        };

        if strategy == SpmvStrategy::Sell {
            plan.slice_width.reserve(rows.div_ceil(LANES));
            plan.sell_cols.reserve(padded);
            plan.sell_vals.reserve(padded);
            for slice_rows in (0..rows).collect::<Vec<_>>().chunks(LANES) {
                let width = slice_rows
                    .iter()
                    .map(|&r| row_ptr[r + 1] - row_ptr[r])
                    .max()
                    .unwrap_or(0);
                plan.slice_width.push(width);
                for j in 0..width {
                    for l in 0..LANES {
                        // Real entry at position j of the lane's row, or
                        // zero padding (value 0.0 at column 0).
                        match slice_rows.get(l) {
                            Some(&r) if row_ptr[r] + j < row_ptr[r + 1] => {
                                plan.sell_cols.push(col_idx[row_ptr[r] + j]);
                                plan.sell_vals.push(values[row_ptr[r] + j]);
                            }
                            _ => {
                                plan.sell_cols.push(0);
                                plan.sell_vals.push(0.0);
                            }
                        }
                    }
                }
            }
            // The SELL buffers fully describe the matrix; drop the CSR
            // copies so a cached plan costs one layout, not two.
            plan.row_ptr = Vec::new();
            plan.col_idx = Vec::new();
            plan.values = Vec::new();
        }

        plan
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros (excluding SELL padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The strategy chosen at build time.
    pub fn strategy(&self) -> SpmvStrategy {
        self.strategy
    }

    /// Computes `y = A·x` using the prepared layout.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    #[inline]
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv plan apply: x length");
        assert_eq!(y.len(), self.rows, "spmv plan apply: y length");
        match self.strategy {
            SpmvStrategy::Naive => {
                crate::naive::spmv_csr(&self.row_ptr, &self.col_idx, &self.values, x, y);
            }
            SpmvStrategy::LaneCsr => {
                spmv_csr(&self.row_ptr, &self.col_idx, &self.values, x, y);
            }
            SpmvStrategy::Sell => {
                let mut base = 0usize;
                for (s, &width) in self.slice_width.iter().enumerate() {
                    let r0 = s * LANES;
                    let mut acc = [0.0f64; LANES];
                    for j in 0..width {
                        let off = base + j * LANES;
                        let vals = &self.sell_vals[off..off + LANES];
                        let cols = &self.sell_cols[off..off + LANES];
                        for l in 0..LANES {
                            acc[l] += vals[l] * x[cols[l]];
                        }
                    }
                    let live = LANES.min(self.rows - r0);
                    y[r0..r0 + live].copy_from_slice(&acc[..live]);
                    base += width * LANES;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use proptest::prelude::*;

    #[test]
    fn tridiagonal_known() {
        // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] · [1, 2, 3]
        let row_ptr = [0usize, 2, 5, 7];
        let col_idx = [0usize, 1, 0, 1, 2, 1, 2];
        let values = [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0];
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0f64; 3];
        spmv_csr(&row_ptr, &col_idx, &values, &x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn empty_matrix() {
        let mut y: [f64; 0] = [];
        spmv_csr(&[0], &[], &[], &[], &mut y);
    }

    #[test]
    #[should_panic(expected = "row pointer length")]
    fn bad_row_ptr_rejected() {
        let mut y = [0.0f64; 2];
        spmv_csr(&[0, 1], &[0], &[1.0], &[1.0], &mut y);
    }

    /// Random CSR with `rows[r]` entries in row r over `n_cols` columns.
    fn random_csr(rows: &[usize], n_cols: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &nnz in rows {
            for _ in 0..nnz {
                col_idx.push((next() % n_cols as u64) as usize);
                values.push((next() % 1000) as f64 / 100.0 - 5.0);
            }
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx, values)
    }

    #[test]
    fn plan_small_matrix_is_naive() {
        let plan = SpmvPlan::new(&[0, 2, 4], &[0, 1, 0, 1], &[2.0, -1.0, -1.0, 2.0], 2);
        assert_eq!(plan.strategy(), SpmvStrategy::Naive);
        assert_eq!((plan.rows(), plan.cols(), plan.nnz()), (2, 2, 4));
        let mut y = [0.0f64; 2];
        plan.apply(&[1.0, 3.0], &mut y);
        assert_eq!(y, [-1.0, 5.0]);
    }

    #[test]
    fn plan_short_rows_pick_sell() {
        // 128 rows × 5 entries: the crossbar-Jacobian shape.
        let rows = vec![5usize; 128];
        let (row_ptr, col_idx, values) = random_csr(&rows, 64, 3);
        let plan = SpmvPlan::new(&row_ptr, &col_idx, &values, 64);
        assert_eq!(plan.strategy(), SpmvStrategy::Sell);
    }

    #[test]
    fn plan_ragged_rows_fall_back_to_lane_csr() {
        // One 400-entry row per 8-row slice forces ~8x padding.
        let rows: Vec<usize> = (0..64).map(|r| if r % 8 == 0 { 400 } else { 1 }).collect();
        let (row_ptr, col_idx, values) = random_csr(&rows, 64, 5);
        let plan = SpmvPlan::new(&row_ptr, &col_idx, &values, 64);
        assert_eq!(plan.strategy(), SpmvStrategy::LaneCsr);
    }

    #[test]
    fn plan_empty_matrix() {
        let plan = SpmvPlan::new(&[0], &[], &[], 0);
        let mut y: [f64; 0] = [];
        plan.apply(&[], &mut y);
    }

    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn plan_rejects_out_of_bounds_column() {
        SpmvPlan::new(&[0, 1], &[3], &[1.0], 3);
    }

    proptest! {
        /// SELL and naive plans are bit-identical to `naive::spmv_csr`
        /// for finite inputs, at any row-length mix that stays in the
        /// short-row regime (partial final slices included).
        #[test]
        fn plan_bit_identical_to_naive(
            rows in proptest::collection::vec(0usize..=8, 1..80),
            seed in 0u64..8,
        ) {
            let n_cols = 16usize;
            let (row_ptr, col_idx, values) = random_csr(&rows, n_cols, seed);
            // With every row at ≤ 8 entries each strategy is
            // bit-identical: Naive and Sell by the ascending-position
            // order, LaneCsr via spmv_csr's short-row path.
            let plan = SpmvPlan::new(&row_ptr, &col_idx, &values, n_cols);
            let x: Vec<f64> = (0..n_cols).map(|i| i as f64 * 0.7 - 2.0).collect();
            let mut got = vec![0.0f64; rows.len()];
            plan.apply(&x, &mut got);
            let mut reference = vec![0.0f64; rows.len()];
            naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
            for (a, b) in got.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// The lane-CSR fallback stays within the documented ulp bound
        /// of naive (same bound as the `spmv_close_to_naive` law).
        #[test]
        fn plan_lane_csr_close_to_naive(
            seed in 0u64..8,
        ) {
            let rows: Vec<usize> = (0..32).map(|r| if r % 8 == 0 { 200 } else { 1 }).collect();
            let n_cols = 16usize;
            let (row_ptr, col_idx, values) = random_csr(&rows, n_cols, seed);
            let plan = SpmvPlan::new(&row_ptr, &col_idx, &values, n_cols);
            prop_assert_eq!(plan.strategy(), SpmvStrategy::LaneCsr);
            let x: Vec<f64> = (0..n_cols).map(|i| i as f64 * 0.3 - 1.0).collect();
            let mut got = vec![0.0f64; rows.len()];
            plan.apply(&x, &mut got);
            let mut reference = vec![0.0f64; rows.len()];
            naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
            for (r, (a, b)) in got.iter().zip(&reference).enumerate() {
                let lo = row_ptr[r];
                let hi = row_ptr[r + 1];
                let magnitude: f64 = (lo..hi).map(|k| (values[k] * x[col_idx[k]]).abs()).sum();
                let bound = (f64::EPSILON * magnitude * (hi - lo).max(1) as f64).max(1e-12);
                prop_assert!((a - b).abs() <= bound, "row {r}: {a} vs {b}");
            }
        }
    }

    proptest! {
        /// Rows with at most 8 entries use the sequential order and are
        /// bit-identical to the pre-kernel loop.
        #[test]
        fn short_rows_bit_identical_to_naive(
            rows in proptest::collection::vec(0usize..=8, 1..12),
            seed in 0u64..8,
        ) {
            let n_cols = 8usize;
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for &nnz in &rows {
                for _ in 0..nnz {
                    col_idx.push((next() % n_cols as u64) as usize);
                    values.push((next() % 1000) as f64 / 100.0 - 5.0);
                }
                row_ptr.push(col_idx.len());
            }
            let x: Vec<f64> = (0..n_cols).map(|i| i as f64 * 0.7 - 2.0).collect();
            let mut blocked = vec![0.0f64; rows.len()];
            spmv_csr(&row_ptr, &col_idx, &values, &x, &mut blocked);
            let mut reference = vec![0.0f64; rows.len()];
            naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
            for (a, b) in blocked.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Lane-blocked rows stay within a tight bound of the old
        /// sequential row accumulation.
        #[test]
        fn spmv_close_to_naive(
            rows in proptest::collection::vec(0usize..24, 1..12),
            seed in 0u64..16,
        ) {
            // Build a random CSR: `rows[r]` entries in row r, columns
            // cycling over an 8-wide x.
            let n_cols = 8usize;
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for &nnz in &rows {
                for _ in 0..nnz {
                    col_idx.push((next() % n_cols as u64) as usize);
                    values.push((next() % 1000) as f64 / 100.0 - 5.0);
                }
                row_ptr.push(col_idx.len());
            }
            let x: Vec<f64> = (0..n_cols).map(|i| i as f64 * 0.3 - 1.0).collect();
            let mut blocked = vec![0.0f64; rows.len()];
            spmv_csr(&row_ptr, &col_idx, &values, &x, &mut blocked);
            let mut reference = vec![0.0f64; rows.len()];
            naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
            for (r, (a, b)) in blocked.iter().zip(&reference).enumerate() {
                let lo = row_ptr[r];
                let hi = row_ptr[r + 1];
                let magnitude: f64 = (lo..hi).map(|k| (values[k] * x[col_idx[k]]).abs()).sum();
                let bound = (f64::EPSILON * magnitude * (hi - lo).max(1) as f64).max(1e-12);
                prop_assert!((a - b).abs() <= bound, "row {r}: {a} vs {b}");
            }
        }
    }
}
