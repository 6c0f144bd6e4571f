//! The Fig. 5 benchmarking protocol: NF RMSE of each model against the
//! circuit ground truth on a held-out validation set.

use crate::dataset::live_current_floor;
use crate::fast::GeniexTile;
use crate::surrogate::Geniex;
use crate::GeniexError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbar::nf::nf_rmse;
use xbar::{ideal_mvm, AnalyticalModel, ConductanceMatrix, CrossbarCircuit, CrossbarParams};

/// RMSE of model-predicted NF against the circuit reference, per model.
#[derive(Debug, Clone, PartialEq)]
pub struct RmseComparison {
    /// Supply voltage the comparison ran at.
    pub v_supply: f64,
    /// RMSE of the analytical (linear) model's NF.
    pub analytical_rmse: f64,
    /// RMSE of the GENIEx surrogate's NF.
    pub geniex_rmse: f64,
    /// Number of NF samples the RMSEs were computed over.
    pub samples: usize,
}

impl RmseComparison {
    /// Ratio `analytical / geniex` — the paper headlines 7× at 0.25 V
    /// and 12.8× at 0.5 V.
    pub fn improvement_factor(&self) -> f64 {
        if self.geniex_rmse == 0.0 {
            f64::INFINITY
        } else {
            self.analytical_rmse / self.geniex_rmse
        }
    }
}

/// Configuration for [`compare_models`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkConfig {
    /// Number of validation operating points.
    pub stimuli: usize,
    /// RNG seed for stimulus generation.
    pub seed: u64,
    /// Number of quantized DAC input levels.
    pub dac_levels: usize,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            stimuli: 50,
            seed: 0xF165,
            dac_levels: 16,
        }
    }
}

/// Runs the Fig. 5 protocol: random held-out stimuli are evaluated on
/// the circuit (reference), the analytical baseline, and the trained
/// surrogate; NF values are compared by RMSE.
///
/// # Errors
///
/// * [`GeniexError::InvalidConfig`] if `stimuli == 0` or
///   `dac_levels == 0`.
/// * [`GeniexError::NotTrained`] for untrained surrogates.
/// * Propagates circuit and model failures.
pub fn compare_models(
    params: &CrossbarParams,
    surrogate: &Geniex,
    config: &BenchmarkConfig,
) -> Result<RmseComparison, GeniexError> {
    if config.stimuli == 0 {
        return Err(GeniexError::InvalidConfig("stimuli must be > 0".into()));
    }
    if config.dac_levels == 0 {
        return Err(GeniexError::InvalidConfig("dac_levels must be > 0".into()));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut nf_reference = Vec::new();
    let mut nf_analytical = Vec::new();
    let mut nf_geniex = Vec::new();

    for _ in 0..config.stimuli {
        let v_sparsity = rng.gen_range(0.0..0.9);
        let g_sparsity = rng.gen_range(0.0..0.9);
        let v: Vec<f64> = (0..params.rows)
            .map(|_| {
                if rng.gen::<f64>() < v_sparsity {
                    0.0
                } else {
                    params.v_supply * rng.gen_range(1..=config.dac_levels) as f64
                        / config.dac_levels as f64
                }
            })
            .collect();
        let g = ConductanceMatrix::random_sparse(params, g_sparsity, &mut rng);

        let reference = CrossbarCircuit::new(params, &g)?.solve(&v)?.currents;
        let analytical = AnalyticalModel::new(params, &g)?.mvm(&v)?;
        let g_levels: Vec<f32> = g
            .to_levels(surrogate.params())
            .into_iter()
            .map(|x| x as f32)
            .collect();
        let f_r = GeniexTile::new(surrogate, &g_levels)?.f_r(&v)?;
        let ideal = ideal_mvm(&v, &g)?;
        // The surrogate predicts f_R = I_ideal / I_non_ideal; dead
        // columns stay at zero current.
        let geniex: Vec<f64> = ideal
            .iter()
            .zip(&f_r)
            .map(|(&id, &fr)| if id == 0.0 { 0.0 } else { id / fr as f64 })
            .collect();

        // Keep the three NF vectors aligned: only columns carrying a
        // meaningful ideal current contribute (NF on near-dead columns
        // is numerically wild and physically irrelevant).
        let floor = live_current_floor(params);
        let mask: Vec<bool> = ideal.iter().map(|id| id.abs() > floor).collect();
        let filter = |currents: &[f64]| -> Vec<f64> {
            ideal
                .iter()
                .zip(currents)
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|((id, ni), _)| (id - ni) / id)
                .collect()
        };
        nf_reference.extend(filter(&reference));
        nf_analytical.extend(filter(&analytical));
        nf_geniex.extend(filter(&geniex));
    }

    Ok(RmseComparison {
        v_supply: params.v_supply,
        analytical_rmse: nf_rmse(&nf_reference, &nf_analytical),
        geniex_rmse: nf_rmse(&nf_reference, &nf_geniex),
        samples: nf_reference.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetConfig};
    use crate::surrogate::TrainConfig;

    #[test]
    fn geniex_beats_analytical_on_small_crossbar() {
        // The headline claim at miniature scale: after training, the
        // surrogate's NF RMSE must be below the analytical model's.
        // Generalization needs data volume more than capacity or
        // optimization budget here (the paper samples the (V, G) space
        // "exhaustively"): 2k samples is the floor at which the
        // surrogate beats the analytical baseline with margin.
        let params = CrossbarParams::builder(6, 6).build().unwrap();
        let data = generate(
            &params,
            &DatasetConfig {
                samples: 2000,
                seed: 33,
                ..DatasetConfig::default()
            },
        )
        .unwrap();
        let mut surrogate = Geniex::new(&params, 128, 3).unwrap();
        surrogate
            .train(
                &data,
                &TrainConfig {
                    epochs: 150,
                    batch_size: 32,
                    learning_rate: 1e-3,
                    seed: 4,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let cmp = compare_models(
            &params,
            &surrogate,
            &BenchmarkConfig {
                stimuli: 20,
                seed: 99,
                dac_levels: 16,
            },
        )
        .unwrap();
        assert!(cmp.samples > 0);
        assert!(
            cmp.geniex_rmse < cmp.analytical_rmse,
            "geniex {} should beat analytical {}",
            cmp.geniex_rmse,
            cmp.analytical_rmse
        );
        assert!(cmp.improvement_factor() > 1.0);
    }

    #[test]
    fn config_validation() {
        let params = CrossbarParams::builder(4, 4).build().unwrap();
        let surrogate = Geniex::new(&params, 8, 0).unwrap();
        for config in [
            BenchmarkConfig {
                stimuli: 0,
                ..BenchmarkConfig::default()
            },
            BenchmarkConfig {
                dac_levels: 0,
                ..BenchmarkConfig::default()
            },
        ] {
            assert!(matches!(
                compare_models(&params, &surrogate, &config),
                Err(GeniexError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn untrained_surrogate_rejected() {
        let params = CrossbarParams::builder(4, 4).build().unwrap();
        let surrogate = Geniex::new(&params, 8, 0).unwrap();
        assert!(matches!(
            compare_models(&params, &surrogate, &BenchmarkConfig::default()),
            Err(GeniexError::NotTrained)
        ));
    }

    #[test]
    fn improvement_factor_edge_cases() {
        let cmp = RmseComparison {
            v_supply: 0.25,
            analytical_rmse: 1.0,
            geniex_rmse: 0.0,
            samples: 10,
        };
        assert!(cmp.improvement_factor().is_infinite());
    }
}
