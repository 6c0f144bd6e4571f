//! The linear analytical baseline model.
//!
//! Analytical crossbar models (CxDNN [Jain & Raghunathan 2019] and
//! relatives) capture only the *linear* non-idealities: the parasitic
//! source/sink/wire resistances. Devices are taken at their programmed
//! conductance, ignoring the sinh I-V and the access device. The
//! resulting circuit is linear in the input voltages, so for a fixed
//! conductance state `G` the whole crossbar collapses to an effective
//! matrix `M(G)` with `I_out = M(G) · V` — which is exactly the matrix
//! -inversion technique those papers use, and what makes the analytical
//! backend of the functional simulator fast.
//!
//! GENIEx's claim (reproduced here) is that this model *overestimates*
//! accuracy degradation, because the device non-linearity it ignores
//! partially re-idealizes the crossbar at high voltage.

use crate::circuit::CrossbarCircuit;
use crate::conductance::ConductanceMatrix;
use crate::params::{CrossbarParams, NonIdealityConfig};
use crate::XbarError;
use linalg::Mat;

/// The linear analytical model of a programmed crossbar.
///
/// Construction extracts the effective matrix `M(G)` column-by-column
/// by solving the linear parasitic circuit against unit input vectors;
/// afterwards every [`mvm`](AnalyticalModel::mvm) is a dense
/// matrix-vector product.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xbar::XbarError> {
/// use xbar::{AnalyticalModel, ConductanceMatrix, CrossbarParams, ideal_mvm};
///
/// let params = CrossbarParams::builder(4, 4).build()?;
/// let g = ConductanceMatrix::uniform(4, 4, params.g_on());
/// let model = AnalyticalModel::new(&params, &g)?;
/// let v = vec![params.v_supply; 4];
/// let i_model = model.mvm(&v)?;
/// let i_ideal = ideal_mvm(&v, &g)?;
/// // The linear model only loses current to parasitics.
/// assert!(i_model[0] < i_ideal[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    /// Effective transfer matrix: `cols x rows`, `I = M · V`.
    effective: Mat,
    rows: usize,
    cols: usize,
}

impl AnalyticalModel {
    /// Builds the analytical model for conductance state `g`.
    ///
    /// The model always uses [`NonIdealityConfig::linear_only`]
    /// regardless of what `params.nonideality` says — that is its
    /// defining limitation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying circuit and
    /// [`XbarError::NewtonDiverged`] if a unit solve fails (the linear
    /// circuit converges in one Newton step, so this indicates broken
    /// parameters).
    pub fn new(params: &CrossbarParams, g: &ConductanceMatrix) -> Result<Self, XbarError> {
        let mut linear_params = params.clone();
        linear_params.nonideality = NonIdealityConfig {
            parasitics: params.nonideality.parasitics,
            device_nonlinearity: false,
            access_device: false,
        };
        let circuit = CrossbarCircuit::new(&linear_params, g)?;

        let (rows, cols) = (params.rows, params.cols);
        // Column k of M is the response to the unit vector e_k. Unit
        // amplitude v_supply keeps the solves well-scaled; linearity
        // lets us divide it back out.
        let amplitude = params.v_supply;
        let mut effective = Mat::zeros(cols, rows);
        let mut v = vec![0.0; rows];
        for k in 0..rows {
            v[k] = amplitude;
            let report = circuit.solve(&v)?;
            for j in 0..cols {
                effective[(j, k)] = report.currents[j] / amplitude;
            }
            v[k] = 0.0;
        }
        Ok(AnalyticalModel {
            effective,
            rows,
            cols,
        })
    }

    /// Predicted non-ideal output currents for input voltages `v`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Shape`] if `v.len()` does not match the
    /// crossbar's row count.
    pub fn mvm(&self, v: &[f64]) -> Result<Vec<f64>, XbarError> {
        if v.len() != self.rows {
            return Err(XbarError::Shape(format!(
                "analytical mvm: {} inputs for {} word lines",
                v.len(),
                self.rows
            )));
        }
        Ok(self.effective.matvec(v)?)
    }

    /// The effective transfer matrix `M(G)` (`cols x rows`).
    pub fn effective_matrix(&self) -> &Mat {
        &self.effective
    }

    /// Crossbar input dimension (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Crossbar output dimension (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal_mvm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(n: usize) -> CrossbarParams {
        CrossbarParams::builder(n, n).build().unwrap()
    }

    #[test]
    fn matches_linear_circuit_exactly() {
        let p = params(6);
        let mut rng = StdRng::seed_from_u64(21);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let model = AnalyticalModel::new(&p, &g).unwrap();

        let mut linear_params = p.clone();
        linear_params.nonideality = NonIdealityConfig::linear_only();
        let circuit = CrossbarCircuit::new(&linear_params, &g).unwrap();

        let v = vec![0.25, 0.0, 0.125, 0.1875, 0.0625, 0.25];
        let from_model = model.mvm(&v).unwrap();
        let from_circuit = circuit.solve(&v).unwrap().currents;
        for (a, b) in from_model.iter().zip(&from_circuit) {
            assert!(
                (a - b).abs() < 1e-10 * b.abs().max(1e-12),
                "model {a} vs circuit {b}"
            );
        }
    }

    #[test]
    fn linearity_superposition() {
        let p = params(4);
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let model = AnalyticalModel::new(&p, &g).unwrap();
        let v1 = vec![0.1, 0.0, 0.05, 0.2];
        let v2 = vec![0.0, 0.15, 0.1, 0.0];
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + b).collect();
        let i1 = model.mvm(&v1).unwrap();
        let i2 = model.mvm(&v2).unwrap();
        let i_sum = model.mvm(&sum).unwrap();
        for j in 0..4 {
            assert!((i1[j] + i2[j] - i_sum[j]).abs() < 1e-15);
        }
    }

    #[test]
    fn below_ideal_everywhere_for_positive_inputs() {
        let p = params(8);
        let mut rng = StdRng::seed_from_u64(9);
        let g = ConductanceMatrix::random_sparse(&p, 0.2, &mut rng);
        let model = AnalyticalModel::new(&p, &g).unwrap();
        let v = vec![p.v_supply; 8];
        let predicted = model.mvm(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (m, i) in predicted.iter().zip(&ideal) {
            assert!(m <= i);
            assert!(*m > 0.0);
        }
    }

    #[test]
    fn shape_validation() {
        let p = params(4);
        let g = ConductanceMatrix::uniform(4, 4, 1e-5);
        let model = AnalyticalModel::new(&p, &g).unwrap();
        assert!(model.mvm(&[0.1; 3]).is_err());
        assert_eq!(model.rows(), 4);
        assert_eq!(model.cols(), 4);
        assert_eq!(model.effective_matrix().rows(), 4);
    }

    #[test]
    fn ignores_nonlinear_config_flags() {
        // Building from params with all non-idealities enabled must
        // still produce the *linear* model.
        let p = params(4); // nonideality = all()
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let model = AnalyticalModel::new(&p, &g).unwrap();
        // Superposition must hold exactly — the nonlinear circuit would
        // violate it.
        let i1 = model.mvm(&[0.2, 0.0, 0.0, 0.0]).unwrap();
        let i2 = model.mvm(&[0.0, 0.2, 0.0, 0.0]).unwrap();
        let i12 = model.mvm(&[0.2, 0.2, 0.0, 0.0]).unwrap();
        for j in 0..4 {
            assert!((i1[j] + i2[j] - i12[j]).abs() < 1e-15);
        }
    }
}
