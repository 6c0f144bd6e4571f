//! Non-ideal memristive crossbar circuit simulation.
//!
//! This crate plays the role HSPICE plays in the GENIEx paper (DAC 2020):
//! it produces the ground-truth transfer characteristics
//! `(V, G) -> I_non_ideal` of a parasitic 1T1R crossbar, which the GENIEx
//! surrogate is trained against and which the analytical baseline is
//! compared to.
//!
//! # What is modelled
//!
//! * **Linear non-idealities** (Table 2 of the paper): source resistance
//!   at every word-line driver, sink resistance at every bit-line sense
//!   node, and wire resistance between adjacent cells on both lines.
//! * **Non-linear non-idealities**: the filamentary RRAM compact model
//!   `I(d, V) = I0 · exp(d/d0) · sinh(V/V0)` (Guan et al. 2012) and a
//!   saturating access-device model in series at every cross-point.
//!
//! # Architecture
//!
//! * [`device`] — device I-V models and conductance calibration.
//! * [`CrossbarParams`] / [`NonIdealityConfig`] — design parameters
//!   (size, Ron, ON/OFF ratio, parasitic resistances, supply voltage).
//! * [`CrossbarCircuit`] — the nonlinear DC solver (modified nodal
//!   analysis, damped Newton–Raphson, each correction solved by block
//!   Gauss–Seidel over prefactored tridiagonal line solves).
//! * [`SolverCache`] / [`JacobianFactorization`] — amortized solving:
//!   content-keyed frozen-Jacobian factorizations and warm-started
//!   Newton for batches of inputs against one programmed tile
//!   (DESIGN.md §15).
//! * [`AnalyticalModel`] — the linear baseline (parasitics only; devices
//!   replaced by their programmed conductance), including the CxDNN-style
//!   effective-matrix extraction.
//! * [`ideal_mvm`] — the ideal `I_j = Σ_i V_i · G_ij` arithmetic.
//! * [`zoo`] — the pluggable non-ideality zoo: seeded, composable
//!   imperfection models (variation, stuck-at faults, drift, read
//!   noise) with declared lifecycle stages.
//! * [`nf`] — the non-ideality-factor metric and its summary statistics.
//! * [`sweep`] — design-space sweep drivers used by the figure
//!   regeneration binaries.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), xbar::XbarError> {
//! use xbar::{CrossbarParams, CrossbarCircuit, ConductanceMatrix, ideal_mvm};
//!
//! let params = CrossbarParams::builder(16, 16).build()?;
//! // All devices at G_on, all inputs at full supply.
//! let g = ConductanceMatrix::uniform(16, 16, params.g_on());
//! let v = vec![params.v_supply; 16];
//! let circuit = CrossbarCircuit::new(&params, &g)?;
//! let non_ideal = circuit.solve(&v)?;
//! let ideal = ideal_mvm(&v, &g)?;
//! // At this size the parasitic IR drop outweighs the device
//! // non-linearity's boost: every column loses current.
//! for (i, ni) in ideal.iter().zip(&non_ideal.currents) {
//!     assert!(ni < i);
//! }
//! # Ok(())
//! # }
//! ```

mod analytical;
mod cache;
mod circuit;
mod conductance;
pub mod device;
mod error;
pub mod netlist;
pub mod nf;
mod params;
pub mod sweep;
pub mod zoo;

pub use analytical::AnalyticalModel;
pub use cache::{JacobianFactorization, SolverCache};
pub use circuit::{CrossbarCircuit, SolveReport};
pub use conductance::ConductanceMatrix;
pub use error::XbarError;
pub use params::{CrossbarParams, CrossbarParamsBuilder, DeviceParams, NonIdealityConfig};
pub use zoo::{NonIdeality, NonIdealityStack, Stage};

use linalg::LinalgError;

/// Computes the ideal MVM `I_j = Σ_i V_i · G_ij`.
///
/// This is the arithmetic a perfect crossbar would perform and the
/// numerator of the paper's non-ideality factor.
///
/// # Errors
///
/// Returns [`XbarError::Shape`] if `v.len() != g.rows()`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xbar::XbarError> {
/// use xbar::{ConductanceMatrix, ideal_mvm};
/// let g = ConductanceMatrix::uniform(2, 3, 1e-5);
/// let i = ideal_mvm(&[0.25, 0.25], &g)?;
/// assert_eq!(i.len(), 3);
/// assert!((i[0] - 2.0 * 0.25 * 1e-5).abs() < 1e-18);
/// # Ok(())
/// # }
/// ```
pub fn ideal_mvm(v: &[f64], g: &ConductanceMatrix) -> Result<Vec<f64>, XbarError> {
    if v.len() != g.rows() {
        return Err(XbarError::Shape(format!(
            "ideal_mvm: {} inputs for a {}x{} crossbar",
            v.len(),
            g.rows(),
            g.cols()
        )));
    }
    let mut out = vec![0.0; g.cols()];
    for i in 0..g.rows() {
        let vi = v[i];
        if vi == 0.0 {
            continue;
        }
        for j in 0..g.cols() {
            out[j] += vi * g.get(i, j);
        }
    }
    Ok(out)
}

impl From<LinalgError> for XbarError {
    fn from(err: LinalgError) -> Self {
        XbarError::Numerical(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_mvm_rejects_bad_shape() {
        let g = ConductanceMatrix::uniform(2, 2, 1e-5);
        assert!(ideal_mvm(&[1.0], &g).is_err());
    }

    #[test]
    fn ideal_mvm_zero_inputs_give_zero() {
        let g = ConductanceMatrix::uniform(3, 3, 1e-5);
        let out = ideal_mvm(&[0.0; 3], &g).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ideal_mvm_known_value() {
        let mut g = ConductanceMatrix::uniform(2, 2, 0.0);
        g.set(0, 0, 1e-5);
        g.set(1, 1, 2e-5);
        let out = ideal_mvm(&[0.5, 0.25], &g).unwrap();
        assert!((out[0] - 0.5e-5).abs() < 1e-18);
        assert!((out[1] - 0.5e-5).abs() < 1e-18);
    }
}
