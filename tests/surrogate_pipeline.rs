//! Integration test of the full GENIEx pipeline: circuit-simulated
//! dataset → surrogate training → persistence → fast-forward →
//! benchmark against the analytical baseline.

use geniex::benchmark::{compare_models, BenchmarkConfig};
use geniex::dataset::{generate, DatasetConfig};
use geniex::{Geniex, GeniexTile, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;
use xbar::{ideal_mvm, ConductanceMatrix, CrossbarCircuit, CrossbarParams};

fn design_point() -> CrossbarParams {
    CrossbarParams::builder(5, 5).build().unwrap()
}

fn trained_surrogate(params: &CrossbarParams) -> Geniex {
    let data = generate(
        params,
        &DatasetConfig {
            samples: 1200,
            seed: 21,
            ..DatasetConfig::default()
        },
    )
    .unwrap();
    let mut surrogate = Geniex::new(params, 96, 3).unwrap();
    surrogate
        .train(
            &data,
            &TrainConfig {
                epochs: 100,
                batch_size: 32,
                learning_rate: 1e-3,
                seed: 4,
                ..TrainConfig::default()
            },
        )
        .unwrap();
    surrogate
}

#[test]
fn full_pipeline_beats_analytical_and_survives_round_trip() {
    let params = design_point();
    let surrogate = trained_surrogate(&params);

    // Headline: lower NF RMSE than the analytical baseline on held-out
    // stimuli.
    let cmp = compare_models(
        &params,
        &surrogate,
        &BenchmarkConfig {
            stimuli: 15,
            seed: 77,
            dac_levels: 16,
        },
    )
    .unwrap();
    assert!(
        cmp.geniex_rmse < cmp.analytical_rmse,
        "geniex {} vs analytical {}",
        cmp.geniex_rmse,
        cmp.analytical_rmse
    );

    // Persistence must preserve behaviour exactly.
    let mut buf = Vec::new();
    surrogate.save(&mut buf).unwrap();
    let mut reloaded = Geniex::load(&mut Cursor::new(&buf), &params).unwrap();
    let mut original = surrogate.clone();
    let v = vec![0.5f32; 5];
    let g = vec![0.5f32; 25];
    assert_eq!(
        original.predict_f_r(&v, &g).unwrap(),
        reloaded.predict_f_r(&v, &g).unwrap()
    );

    // Fast-forward tile must agree with the full forward pass.
    let tile = GeniexTile::new(&surrogate, &g).unwrap();
    let fast = tile.f_r_from_levels(&v).unwrap();
    let full = original.predict_f_r(&v, &g).unwrap();
    for (a, b) in fast.iter().zip(&full) {
        assert!((a - b).abs() < 1e-4);
    }
}

#[test]
fn surrogate_tracks_circuit_currents_on_held_out_patterns() {
    let params = design_point();
    let surrogate = trained_surrogate(&params);
    let mut rng = StdRng::seed_from_u64(1234);

    let mut total_rel_err = 0.0f64;
    let mut count = 0usize;
    for _ in 0..6 {
        let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let g_levels: Vec<f32> = g.to_levels(&params).into_iter().map(|x| x as f32).collect();
        let tile = GeniexTile::new(&surrogate, &g_levels).unwrap();
        let v = vec![params.v_supply; 5];
        let truth = circuit.solve(&v).unwrap().currents;
        // I_non_ideal = I_ideal / f_R, with dead columns left at zero.
        let f_r = tile.f_r(&v).unwrap();
        let predicted: Vec<f64> = ideal_mvm(&v, &g)
            .unwrap()
            .iter()
            .zip(&f_r)
            .map(|(&id, &fr)| if id == 0.0 { 0.0 } else { id / fr as f64 })
            .collect();
        for (p, t) in predicted.iter().zip(&truth) {
            if t.abs() > 1e-9 {
                total_rel_err += ((p - t) / t).abs();
                count += 1;
            }
        }
    }
    let mean_rel_err = total_rel_err / count as f64;
    assert!(
        mean_rel_err < 0.05,
        "mean relative current error {mean_rel_err} too large"
    );
}

#[test]
fn dataset_split_and_validation_loss_are_consistent() {
    let params = design_point();
    let data = generate(
        &params,
        &DatasetConfig {
            samples: 400,
            seed: 5,
            ..DatasetConfig::default()
        },
    )
    .unwrap();
    let (train, validation) = data.split(0.8);
    assert_eq!(train.len() + validation.len(), 400);

    let mut surrogate = Geniex::new(&params, 48, 3).unwrap();
    surrogate
        .train(
            &train,
            &TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
        )
        .unwrap();

    // Validation f_R RMSE should beat the trivial "always 1" predictor.
    let mut sq_model = 0.0f64;
    let mut sq_trivial = 0.0f64;
    let mut n = 0usize;
    for s in &validation.samples {
        let predicted = surrogate.predict_f_r(&s.v_levels, &s.g_levels).unwrap();
        for (p, t) in predicted.iter().zip(&s.f_r) {
            sq_model += ((p - t) as f64).powi(2);
            sq_trivial += ((1.0 - t) as f64).powi(2);
            n += 1;
        }
    }
    assert!(n > 0);
    assert!(
        sq_model < sq_trivial,
        "surrogate ({}) must beat the trivial predictor ({})",
        (sq_model / n as f64).sqrt(),
        (sq_trivial / n as f64).sqrt()
    );
}
