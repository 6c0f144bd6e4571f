//! Differential oracles: two independent implementations of the same
//! function must agree, either bit-for-bit or within a documented
//! rounding bound.

use crate::gen;
use crate::{Category, Law};
use geniex::GeniexTile;
use kernels::naive;
use linalg::{LuDecomposition, Mat};
use proptest::TestRng;
use std::path::PathBuf;
use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};

pub(crate) fn laws() -> Vec<Box<dyn Law>> {
    vec![
        Box::new(DotVsNaive),
        Box::new(GemmVsNaive),
        Box::new(GemvVsNaive),
        Box::new(SpmvVsNaive),
        Box::new(SpmvPlanVsNaive),
        Box::new(ParallelVsSerial),
        Box::new(StoreWarmVsCold),
        Box::new(SolverBgsVsDenseLu),
        Box::new(AmortizedVsColdSolve),
        Box::new(WarmStartFixedPoint),
        Box::new(FastTileVsFullSurrogate),
    ]
}

/// Lane-blocked dot products vs the old sequential order.
struct DotVsNaive;

impl Law for DotVsNaive {
    fn name(&self) -> &'static str {
        "oracle/dot_vs_naive"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "|blocked - naive| <= eps * len * sum|a_i b_i| (floor 1e-6 f32 / 1e-12 f64)"
    }
    fn cases(&self) -> u64 {
        16
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let len = gen::usize_in(rng, 0, 192);
        let a = gen::vec_f32(rng, len, -10.0, 10.0);
        let b = gen::vec_f32(rng, len, -10.0, 10.0);
        let blocked = kernels::dot_f32(&a, &b);
        let sequential = naive::dot_f32(&a, &b);
        let magnitude: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let bound = (f32::EPSILON * magnitude * len as f32).max(1e-6);
        if (blocked - sequential).abs() > bound {
            return Err(format!(
                "dot_f32 len {len}: blocked {blocked} vs naive {sequential} (bound {bound})"
            ));
        }

        let a64 = gen::vec_f64(rng, len, -10.0, 10.0);
        let b64 = gen::vec_f64(rng, len, -10.0, 10.0);
        let blocked = kernels::dot_f64(&a64, &b64);
        let sequential = naive::dot_f64(&a64, &b64);
        let magnitude: f64 = a64.iter().zip(&b64).map(|(x, y)| (x * y).abs()).sum();
        let bound = (f64::EPSILON * magnitude * len as f64).max(1e-12);
        if (blocked - sequential).abs() > bound {
            return Err(format!(
                "dot_f64 len {len}: blocked {blocked} vs naive {sequential} (bound {bound})"
            ));
        }
        Ok(())
    }
}

/// Register-blocked GEMM vs the naive triple loops. `gemm_nn` keeps
/// the naive `ikj` accumulation chain and must match bit-for-bit;
/// `gemm_nt` re-orders the reduction and is ulp-bounded.
struct GemmVsNaive;

impl Law for GemmVsNaive {
    fn name(&self) -> &'static str {
        "oracle/gemm_vs_naive"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "gemm_nn bit-identical; gemm_nt within eps * k * sum|a_l b_l| per element (floor 1e-6)"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let m = gen::usize_in(rng, 0, 12);
        let k = gen::usize_in(rng, 0, 12);
        let n = gen::usize_in(rng, 0, 12);
        let a = gen::vec_f32(rng, m * k, -2.0, 2.0);

        let b = gen::vec_f32(rng, k * n, -2.0, 2.0);
        let mut blocked = vec![0.0f32; m * n];
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nn(&a, &b, &mut blocked, k, n);
        naive::gemm_nn(&a, &b, &mut reference, k, n);
        for (idx, (x, y)) in blocked.iter().zip(&reference).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!(
                    "gemm_nn {m}x{k}x{n} diverged at {idx}: {x} vs {y} (must be bit-identical)"
                ));
            }
        }

        let bt = gen::vec_f32(rng, n * k, -2.0, 2.0);
        let mut blocked = vec![0.0f32; m * n];
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nt(&a, &bt, &mut blocked, k, n);
        naive::gemm_nt(&a, &bt, &mut reference, k, n);
        for i in 0..m {
            for j in 0..n {
                let x = blocked[i * n + j];
                let y = reference[i * n + j];
                let magnitude: f32 = (0..k).map(|l| (a[i * k + l] * bt[j * k + l]).abs()).sum();
                let bound = (f32::EPSILON * magnitude * k as f32).max(1e-6);
                if (x - y).abs() > bound {
                    return Err(format!(
                        "gemm_nt {m}x{k}x{n} at ({i},{j}): {x} vs {y} (bound {bound})"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Lane-blocked level GEMV (the funcsim/ideal-MVM hot path) vs naive.
struct GemvVsNaive;

impl Law for GemvVsNaive {
    fn name(&self) -> &'static str {
        "oracle/gemv_vs_naive"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "per row: |blocked - naive| <= eps * k * |scale| * sum|m_i x_i| (floor 1e-18)"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let m = gen::usize_in(rng, 0, 16);
        let k = gen::usize_in(rng, 0, 48);
        let mat = gen::vec_f64(rng, m * k, 0.0, 1e-4);
        let x = gen::vec_f32(rng, k, 0.0, 1.0);
        let scale = gen::f64_in(rng, 0.01, 0.5);
        let mut blocked = vec![0.0f64; m];
        let mut reference = vec![0.0f64; m];
        kernels::gemv_levels_scaled(&mat, &x, scale, &mut blocked);
        naive::gemv_levels_scaled(&mat, &x, scale, &mut reference);
        for i in 0..m {
            let magnitude: f64 = (0..k).map(|l| (mat[i * k + l] * x[l] as f64).abs()).sum();
            let bound = (f64::EPSILON * magnitude * scale.abs() * k as f64).max(1e-18);
            if (blocked[i] - reference[i]).abs() > bound {
                return Err(format!(
                    "gemv_levels_scaled {m}x{k} row {i}: {} vs {} (bound {bound})",
                    blocked[i], reference[i]
                ));
            }
        }
        Ok(())
    }
}

/// CSR sparse MVM (`kernels::spmv_csr`) vs naive. Rows
/// with at most [`kernels::LANES`] entries keep the sequential order
/// and must match bit-for-bit.
struct SpmvVsNaive;

impl Law for SpmvVsNaive {
    fn name(&self) -> &'static str {
        "oracle/spmv_vs_naive"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "rows with <= 8 entries bit-identical; longer rows within eps * nnz * sum|v x| (floor 1e-15)"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let rows = gen::usize_in(rng, 0, 12);
        let cols = gen::usize_in(rng, 1, 24);
        // Random CSR: each row draws an entry count then distinct
        // ascending column indices.
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            let nnz = gen::usize_in(rng, 0, cols.min(12));
            let mut picked = gen::permutation(rng, cols);
            picked.truncate(nnz);
            picked.sort_unstable();
            for c in picked {
                col_idx.push(c);
                values.push(gen::f64_in(rng, -1.0, 1.0));
            }
            row_ptr[i + 1] = col_idx.len();
        }
        let x = gen::vec_f64(rng, cols, -1.0, 1.0);
        let mut blocked = vec![0.0f64; rows];
        let mut reference = vec![0.0f64; rows];
        kernels::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut blocked);
        naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
        for i in 0..rows {
            let nnz = row_ptr[i + 1] - row_ptr[i];
            if nnz <= kernels::LANES {
                if blocked[i].to_bits() != reference[i].to_bits() {
                    return Err(format!(
                        "spmv row {i} ({nnz} entries): {} vs {} (must be bit-identical)",
                        blocked[i], reference[i]
                    ));
                }
            } else {
                let magnitude: f64 = (row_ptr[i]..row_ptr[i + 1])
                    .map(|p| (values[p] * x[col_idx[p]]).abs())
                    .sum();
                let bound = (f64::EPSILON * magnitude * nnz as f64).max(1e-15);
                if (blocked[i] - reference[i]).abs() > bound {
                    return Err(format!(
                        "spmv row {i} ({nnz} entries): {} vs {} (bound {bound})",
                        blocked[i], reference[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The strategy-dispatching [`kernels::SpmvPlan`] (naive / SELL-8 /
/// lane-CSR hybrid, chosen from the sparsity pattern) vs the plain
/// naive CSR loop. Sized so the draw actually crosses the dispatch
/// thresholds: small patterns plan as `Naive`, denser ones as `Sell`
/// or `LaneCsr`.
struct SpmvPlanVsNaive;

impl Law for SpmvPlanVsNaive {
    fn name(&self) -> &'static str {
        "oracle/spmv_plan_vs_naive"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "rows with <= 8 entries bit-identical; longer rows within eps * nnz * sum|v x| (floor 1e-15)"
    }
    fn cases(&self) -> u64 {
        8
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let rows = gen::usize_in(rng, 0, 64);
        let cols = gen::usize_in(rng, 1, 32);
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            let nnz = gen::usize_in(rng, 0, cols.min(16));
            let mut picked = gen::permutation(rng, cols);
            picked.truncate(nnz);
            picked.sort_unstable();
            for c in picked {
                col_idx.push(c);
                values.push(gen::f64_in(rng, -1.0, 1.0));
            }
            row_ptr[i + 1] = col_idx.len();
        }
        let x = gen::vec_f64(rng, cols, -1.0, 1.0);
        let plan = kernels::SpmvPlan::new(&row_ptr, &col_idx, &values, cols);
        let mut planned = vec![0.0f64; rows];
        let mut reference = vec![0.0f64; rows];
        plan.apply(&x, &mut planned);
        naive::spmv_csr(&row_ptr, &col_idx, &values, &x, &mut reference);
        for i in 0..rows {
            let nnz = row_ptr[i + 1] - row_ptr[i];
            if nnz <= kernels::LANES {
                if planned[i].to_bits() != reference[i].to_bits() {
                    return Err(format!(
                        "spmv plan ({:?}) row {i} ({nnz} entries): {} vs {} (must be bit-identical)",
                        plan.strategy(),
                        planned[i],
                        reference[i]
                    ));
                }
            } else {
                let magnitude: f64 = (row_ptr[i]..row_ptr[i + 1])
                    .map(|p| (values[p] * x[col_idx[p]]).abs())
                    .sum();
                let bound = (f64::EPSILON * magnitude * nnz as f64).max(1e-15);
                if (planned[i] - reference[i]).abs() > bound {
                    return Err(format!(
                        "spmv plan ({:?}) row {i} ({nnz} entries): {} vs {} (bound {bound})",
                        plan.strategy(),
                        planned[i],
                        reference[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One worker thread vs eight: the work-stealing pool's contract is
/// bit-identical results at any `GENIEX_THREADS`.
struct ParallelVsSerial;

impl Law for ParallelVsSerial {
    fn name(&self) -> &'static str {
        "oracle/parallel_vs_serial"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "bit-identical across thread counts (exact)"
    }
    fn cases(&self) -> u64 {
        6
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let items = gen::usize_in(rng, 1, 40);
        let len = gen::usize_in(rng, 1, 64);
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..items)
            .map(|_| {
                (
                    gen::vec_f64(rng, len, -1.0, 1.0),
                    gen::vec_f64(rng, len, -1.0, 1.0),
                )
            })
            .collect();
        let work = |p: &(Vec<f64>, Vec<f64>)| kernels::dot_f64(&p.0, &p.1);

        let serial: Vec<f64> = pairs.iter().map(work).collect();
        let pool1 = parallel::ThreadPool::new(1);
        let pool8 = parallel::ThreadPool::new(8);
        let one = pool1.par_map_grained(&pairs, 3, work);
        let eight = pool8.par_map_grained(&pairs, 3, work);
        for (i, ((s, a), b)) in serial.iter().zip(&one).zip(&eight).enumerate() {
            if s.to_bits() != a.to_bits() || s.to_bits() != b.to_bits() {
                return Err(format!(
                    "par_map item {i}: serial {s} vs 1-thread {a} vs 8-thread {b}"
                ));
            }
        }

        let reduce = |pool: &parallel::ThreadPool| {
            pool.par_reduce(
                &pairs,
                3,
                |chunk| chunk.iter().map(work).fold(0.0f64, |acc, d| acc + d),
                |a, b| a + b,
            )
            .unwrap_or(0.0)
        };
        let (r1, r8) = (reduce(&pool1), reduce(&pool8));
        if r1.to_bits() != r8.to_bits() {
            return Err(format!("par_reduce: 1-thread {r1} vs 8-thread {r8}"));
        }
        Ok(())
    }
}

/// Cold write → warm read round trip through the content-addressed
/// store, plus corruption demotion to a regenerating miss.
struct StoreWarmVsCold;

impl StoreWarmVsCold {
    fn temp_root(rng: &mut TestRng) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geniex-conformance-{}-{}-{:016x}",
            std::process::id(),
            telemetry::current_thread_id(),
            rng.next_u64()
        ))
    }
}

impl Law for StoreWarmVsCold {
    fn name(&self) -> &'static str {
        "oracle/store_warm_vs_cold"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "warm and cold payload bytes identical; corrupt entries miss then regenerate (exact)"
    }
    fn cases(&self) -> u64 {
        6
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let root = Self::temp_root(rng);
        let result = self.check_at(&root, rng);
        std::fs::remove_dir_all(&root).ok();
        result
    }
}

impl StoreWarmVsCold {
    fn check_at(&self, root: &PathBuf, rng: &mut TestRng) -> Result<(), String> {
        let payload: Vec<u8> = (0..gen::usize_in(rng, 1, 512))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut builder = store::KeyBuilder::new(*b"conf");
        builder.u64("case", rng.next_u64());
        let key = builder.finish();

        let warm = store::Store::with_mode(root, store::Mode::ReadWrite);
        if warm.load(&key).is_some() {
            return Err("fresh store reported a hit".into());
        }
        warm.save(&key, &payload).map_err(|e| e.to_string())?;
        let warm_bytes = warm.load(&key).ok_or("warm read missed")?;
        if warm_bytes != payload {
            return Err(format!(
                "warm read returned {} bytes, wrote {}",
                warm_bytes.len(),
                payload.len()
            ));
        }
        // A cold process sees the identical artifact.
        let cold = store::Store::with_mode(root, store::Mode::Read);
        let cold_bytes = cold.load(&key).ok_or("cold read missed")?;
        if cold_bytes != warm_bytes {
            return Err("cold read disagrees with warm read".into());
        }
        // Corruption must demote to a miss, and a re-save must recover.
        let path = warm.path_for(&key);
        let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let idx = (rng.next_u64() as usize) % bytes.len();
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
        if warm.load(&key).is_some() {
            return Err("corrupt entry still readable".into());
        }
        warm.save(&key, &payload).map_err(|e| e.to_string())?;
        if warm.load(&key).as_deref() != Some(payload.as_slice()) {
            return Err("regenerated entry does not round-trip".into());
        }
        Ok(())
    }
}

/// The circuit solver's Newton (block Gauss–Seidel over prefactored
/// line solves) vs an independent reference Newton whose corrections
/// are dense LU solves: both must find the same operating point.
struct SolverBgsVsDenseLu;

impl Law for SolverBgsVsDenseLu {
    fn name(&self) -> &'static str {
        "oracle/solver_bgs_vs_dense_lu"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "per column |I_bgs - I_lu| <= 1e-9 * |I| (floor 1e-13 A)"
    }
    fn cases(&self) -> u64 {
        6
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let rows = gen::usize_in(rng, 2, 6);
        let cols = gen::usize_in(rng, 2, 6);
        let params = CrossbarParams::builder(rows, cols)
            .r_wire(gen::f64_in(rng, 1.0, 5.0))
            .build()
            .map_err(|e| e.to_string())?;
        let levels = gen::vec_f64(rng, rows * cols, 0.0, 1.0);
        let g = ConductanceMatrix::from_levels(&params, &levels).map_err(|e| e.to_string())?;
        let v = gen::vec_f64(rng, rows, 0.0, params.v_supply);

        let circuit = CrossbarCircuit::new(&params, &g).map_err(|e| e.to_string())?;
        let bgs = circuit.solve(&v).map_err(|e| e.to_string())?;
        let lu = dense_lu_newton(&circuit, &v)?;

        for (j, (a, b)) in bgs.currents.iter().zip(&lu).enumerate() {
            let bound = (1e-9 * a.abs()).max(1e-13);
            if (a - b).abs() > bound {
                return Err(format!(
                    "column {j}: BGS {a} vs dense LU {b} (bound {bound}, {rows}x{cols})"
                ));
            }
        }
        Ok(())
    }
}

/// Reference damped Newton on the crossbar's KCL system, returning the
/// sensed bit-line currents. Only the physics comes from the circuit
/// ([`CrossbarCircuit::kcl_linearization`] and the line resistances);
/// the Jacobian is assembled densely here and every correction is a
/// direct [`LuDecomposition`] solve. Convergence is held to the
/// solver's own [`CrossbarCircuit::effective_tolerance`].
fn dense_lu_newton(circuit: &CrossbarCircuit, v: &[f64]) -> Result<Vec<f64>, String> {
    let p = circuit.params();
    let (rows, cols) = (p.rows, p.cols);
    let half = rows * cols;
    // Node layout of `SolveReport::node_voltages`: word lines, then bit lines.
    let w = |i: usize, j: usize| i * cols + j;
    let b = |i: usize, j: usize| half + w(i, j);
    let (g_src, g_snk, g_w) = (1.0 / p.r_source, 1.0 / p.r_sink, 1.0 / p.r_wire);
    let norm = |f: &[f64]| f.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tolerance = circuit.effective_tolerance(v);

    // Word lines at their drive, bit lines at virtual ground.
    let mut x = vec![0.0; 2 * half];
    for i in 0..rows {
        for j in 0..cols {
            x[w(i, j)] = v[i];
        }
    }
    let (mut f, mut gd) = circuit
        .kcl_linearization(v, &x)
        .map_err(|e| e.to_string())?;
    let mut res = norm(&f);
    for _ in 0..60 {
        if res <= tolerance {
            break;
        }
        // J = dF/dx: a conductance Laplacian, grounded through the
        // source and sink resistors.
        let mut jac = Mat::zeros(2 * half, 2 * half);
        let mut branch = |a: usize, c: usize, g: f64| {
            jac[(a, a)] += g;
            jac[(c, c)] += g;
            jac[(a, c)] -= g;
            jac[(c, a)] -= g;
        };
        for i in 0..rows {
            for j in 0..cols {
                branch(w(i, j), b(i, j), gd[i * cols + j]);
                if j + 1 < cols {
                    branch(w(i, j), w(i, j + 1), g_w);
                }
                if i + 1 < rows {
                    branch(b(i, j), b(i + 1, j), g_w);
                }
            }
        }
        for i in 0..rows {
            jac[(w(i, 0), w(i, 0))] += g_src;
        }
        for j in 0..cols {
            jac[(b(rows - 1, j), b(rows - 1, j))] += g_snk;
        }
        let dx = LuDecomposition::new(&jac)
            .and_then(|lu| lu.solve(&f))
            .map_err(|e| e.to_string())?;

        // Halve the step until the true residual shrinks.
        let mut scale = 1.0;
        let mut accepted = false;
        for _ in 0..=30 {
            let trial: Vec<f64> = x.iter().zip(&dx).map(|(xk, dk)| xk - scale * dk).collect();
            let (tf, tgd) = circuit
                .kcl_linearization(v, &trial)
                .map_err(|e| e.to_string())?;
            let trial_res = norm(&tf);
            if trial_res < res || trial_res <= tolerance {
                (x, f, gd, res) = (trial, tf, tgd, trial_res);
                accepted = true;
                break;
            }
            scale *= 0.5;
        }
        if !accepted {
            return Err(format!("reference Newton stalled at residual {res:e}"));
        }
    }
    if res > tolerance {
        return Err(format!(
            "reference Newton did not converge: residual {res:e} > {tolerance:e}"
        ));
    }
    Ok((0..cols).map(|j| g_snk * x[b(rows - 1, j)]).collect())
}

/// The amortized batch path (cached factorization + warm-started
/// Newton, DESIGN.md §15) vs one cold exact solve per sample. The two
/// paths stop at different equally-converged iterates, so agreement
/// is bounded by the solver tolerance rather than machine epsilon.
struct AmortizedVsColdSolve;

impl Law for AmortizedVsColdSolve {
    fn name(&self) -> &'static str {
        "oracle/amortized_vs_cold_solve"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "per column |I_amortized - I_cold| <= 1e-6 * |I| + 1e-10 A (solver tolerance)"
    }
    fn cases(&self) -> u64 {
        6
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let rows = gen::usize_in(rng, 2, 6);
        let cols = gen::usize_in(rng, 2, 6);
        let samples = gen::usize_in(rng, 2, 4);
        let params = CrossbarParams::builder(rows, cols)
            .r_wire(gen::f64_in(rng, 1.0, 5.0))
            .build()
            .map_err(|e| e.to_string())?;
        let levels = gen::vec_f64(rng, rows * cols, 0.0, 1.0);
        let g = ConductanceMatrix::from_levels(&params, &levels).map_err(|e| e.to_string())?;
        let circuit = CrossbarCircuit::new(&params, &g).map_err(|e| e.to_string())?;

        // Correlated panel — the regime warm-starting targets.
        let mut volts = gen::vec_f64(rng, rows, 0.0, params.v_supply);
        for s in 1..samples {
            for i in 0..rows {
                let jitter = gen::f64_in(rng, -0.2, 0.2) * params.v_supply;
                let prev = volts[(s - 1) * rows + i];
                volts.push((prev + jitter).clamp(0.0, params.v_supply));
            }
        }

        let mut cache = SolverCache::for_circuit(&circuit);
        let amortized = circuit
            .solve_batch(&volts, samples, &mut cache)
            .map_err(|e| e.to_string())?;
        for (s, report) in amortized.iter().enumerate() {
            let cold = circuit
                .solve(&volts[s * rows..(s + 1) * rows])
                .map_err(|e| e.to_string())?;
            for (j, (a, b)) in report.currents.iter().zip(&cold.currents).enumerate() {
                let bound = 1e-6 * b.abs() + 1e-10;
                if (a - b).abs() > bound {
                    return Err(format!(
                        "sample {s} column {j}: amortized {a} vs cold {b} \
                         (bound {bound}, {rows}x{cols})"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Re-solving the input a warm cache just converged on is a fixed
/// point: the stored residual already satisfies the tolerance, so the
/// solver must take zero Newton iterations and reproduce the previous
/// currents bit-for-bit.
struct WarmStartFixedPoint;

impl Law for WarmStartFixedPoint {
    fn name(&self) -> &'static str {
        "oracle/warm_start_fixed_point"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "warm re-solve of the same input: 0 Newton iterations, bit-identical currents (exact)"
    }
    fn cases(&self) -> u64 {
        6
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let rows = gen::usize_in(rng, 2, 6);
        let cols = gen::usize_in(rng, 2, 6);
        let params = CrossbarParams::builder(rows, cols)
            .build()
            .map_err(|e| e.to_string())?;
        let levels = gen::vec_f64(rng, rows * cols, 0.0, 1.0);
        let g = ConductanceMatrix::from_levels(&params, &levels).map_err(|e| e.to_string())?;
        let circuit = CrossbarCircuit::new(&params, &g).map_err(|e| e.to_string())?;
        let v = gen::vec_f64(rng, rows, 0.0, params.v_supply);

        let mut cache = SolverCache::for_circuit(&circuit);
        let first = circuit
            .solve_amortized(&v, &mut cache)
            .map_err(|e| e.to_string())?;
        let second = circuit
            .solve_amortized(&v, &mut cache)
            .map_err(|e| e.to_string())?;
        if second.newton_iterations != 0 {
            return Err(format!(
                "warm re-solve took {} Newton iterations, expected 0 ({rows}x{cols})",
                second.newton_iterations
            ));
        }
        for (j, (a, b)) in second.currents.iter().zip(&first.currents).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "column {j}: warm re-solve {a} vs first solve {b} (must be bit-identical)"
                ));
            }
        }
        Ok(())
    }
}

/// The tile-specialized `core::fast` f32 path vs the full surrogate
/// forward pass it was derived from.
struct FastTileVsFullSurrogate;

impl Law for FastTileVsFullSurrogate {
    fn name(&self) -> &'static str {
        "oracle/fast_tile_vs_full_surrogate"
    }
    fn category(&self) -> Category {
        Category::Oracle
    }
    fn tolerance(&self) -> &'static str {
        "per bit line |f_R_fast - f_R_full| < 1e-4 (f32 re-association only)"
    }
    fn cases(&self) -> u64 {
        8
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let mut surrogate = crate::fixtures::surrogate().clone();
        let (rows, cols) = (surrogate.params().rows, surrogate.params().cols);
        let g_levels = gen::vec_f32(rng, rows * cols, 0.0, 1.0);
        let v_levels = gen::vec_f32(rng, rows, 0.0, 1.0);

        let tile = GeniexTile::new(&surrogate, &g_levels).map_err(|e| e.to_string())?;
        let fast = tile.f_r_from_levels(&v_levels).map_err(|e| e.to_string())?;
        let full = surrogate
            .predict_f_r(&v_levels, &g_levels)
            .map_err(|e| e.to_string())?;
        for (j, (a, b)) in full.iter().zip(&fast).enumerate() {
            if (a - b).abs() >= 1e-4 {
                return Err(format!("bit line {j}: full {a} vs fast {b}"));
            }
        }
        // The batched entry point must agree with the single-vector
        // one bit-for-bit (shared forward path).
        let batch = tile.f_r_batch(&v_levels, 1).map_err(|e| e.to_string())?;
        if batch != fast {
            return Err("f_r_batch(1) diverged from f_r_from_levels".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar::NonIdealityConfig;

    #[test]
    fn dense_lu_newton_matches_closed_form_single_cell() {
        // One linear cell between a source and a sink resistor: the
        // whole crossbar is three resistors in series.
        let mut params = CrossbarParams::builder(1, 1).build().unwrap();
        params.nonideality = NonIdealityConfig::linear_only();
        let g_cell = params.g_on();
        let g = ConductanceMatrix::uniform(1, 1, g_cell);
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v = params.v_supply;
        let expected = v / (params.r_source + 1.0 / g_cell + params.r_sink);
        let current = dense_lu_newton(&circuit, &[v]).unwrap()[0];
        assert!(
            (current - expected).abs() <= 1e-12 * expected,
            "{current} vs closed form {expected}"
        );
    }
}
