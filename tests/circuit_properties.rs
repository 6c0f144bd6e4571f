//! Cross-crate physical invariants of the circuit substrate, checked
//! from the outside (public APIs only).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar::nf::{non_ideality_factors, NfSummary};
use xbar::{
    ideal_mvm, AnalyticalModel, ConductanceMatrix, CrossbarCircuit, CrossbarParams,
    NonIdealityConfig,
};

fn default_params(n: usize) -> CrossbarParams {
    CrossbarParams::builder(n, n).build().expect("valid params")
}

#[test]
fn linear_circuit_equals_analytical_model() {
    // The analytical model *is* the linear circuit: on a crossbar with
    // only linear non-idealities they must agree to solver precision.
    let mut params = default_params(6);
    params.nonideality = NonIdealityConfig::linear_only();
    let mut rng = StdRng::seed_from_u64(42);
    let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
    let circuit = CrossbarCircuit::new(&params, &g).unwrap();
    let model = AnalyticalModel::new(&params, &g).unwrap();
    let v = vec![0.25, 0.125, 0.0, 0.0625, 0.25, 0.1875];
    let a = circuit.solve(&v).unwrap().currents;
    let b = model.mvm(&v).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-9 * x.abs().max(1e-12));
    }
}

#[test]
fn nf_grows_with_crossbar_size() {
    // Fig. 2(b): larger crossbars -> larger NF (longer wires, lower
    // effective resistance).
    let mut medians = Vec::new();
    for n in [4usize, 8, 16] {
        let params = default_params(n);
        let g = ConductanceMatrix::uniform(n, n, params.g_on());
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v = vec![params.v_supply; n];
        let non_ideal = circuit.solve(&v).unwrap().currents;
        let ideal = ideal_mvm(&v, &g).unwrap();
        let nf = non_ideality_factors(&ideal, &non_ideal);
        medians.push(NfSummary::from_samples(&nf).unwrap().median);
    }
    assert!(medians[0] < medians[1], "{medians:?}");
    assert!(medians[1] < medians[2], "{medians:?}");
}

#[test]
fn nf_shrinks_with_higher_on_resistance() {
    // Fig. 2(c): higher Ron -> smaller NF.
    let mut medians = Vec::new();
    for ron in [50e3, 100e3, 300e3] {
        let params = CrossbarParams::builder(8, 8).r_on(ron).build().unwrap();
        let g = ConductanceMatrix::uniform(8, 8, params.g_on());
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v = vec![params.v_supply; 8];
        let non_ideal = circuit.solve(&v).unwrap().currents;
        let ideal = ideal_mvm(&v, &g).unwrap();
        let nf = non_ideality_factors(&ideal, &non_ideal);
        medians.push(NfSummary::from_samples(&nf).unwrap().median);
    }
    assert!(medians[0] > medians[1], "{medians:?}");
    assert!(medians[1] > medians[2], "{medians:?}");
}

#[test]
fn nonlinearity_error_grows_with_supply_voltage() {
    // Fig. 3(b): the relative difference between linear-only and full
    // nonlinear outputs grows with Vsupply.
    let mut rel_errors = Vec::new();
    for v_supply in [0.25, 0.5] {
        let params = CrossbarParams::builder(8, 8)
            .v_supply(v_supply)
            .build()
            .unwrap();
        let mut linear = params.clone();
        linear.nonideality = NonIdealityConfig::linear_only();
        let g = ConductanceMatrix::uniform(8, 8, params.g_on());
        let v = vec![v_supply; 8];
        let full = CrossbarCircuit::new(&params, &g)
            .unwrap()
            .solve(&v)
            .unwrap()
            .currents;
        let lin = CrossbarCircuit::new(&linear, &g)
            .unwrap()
            .solve(&v)
            .unwrap()
            .currents;
        let rel: f64 = full
            .iter()
            .zip(&lin)
            .map(|(a, b)| ((a - b) / b).abs())
            .sum::<f64>()
            / 8.0;
        rel_errors.push(rel);
    }
    assert!(
        rel_errors[1] > rel_errors[0] * 1.5,
        "nonlinearity error should grow sharply with voltage: {rel_errors:?}"
    );
}

#[test]
fn model_ordering_reflects_size_and_voltage() {
    // The device non-linearity always boosts the circuit above the
    // linear analytical prediction (the paper's central claim: the
    // analytical model overestimates degradation). Whether the
    // circuit also beats the *ideal* MVM depends on the design
    // point: small crossbars at any voltage are boost-dominated
    // (NF < 0, the Fig. 9 anomaly regime); larger crossbars at
    // 0.25 V are IR-drop-dominated (NF > 0, Fig. 2's regime).
    for (n, v_supply, boost_beats_ir) in [(4usize, 0.25, true), (4, 0.5, true), (16, 0.25, false)] {
        let p = CrossbarParams::builder(n, n)
            .v_supply(v_supply)
            .build()
            .unwrap();
        let g = ConductanceMatrix::uniform(n, n, p.g_on());
        let v = vec![p.v_supply; n];
        let ideal = ideal_mvm(&v, &g).unwrap();
        let circuit = CrossbarCircuit::new(&p, &g)
            .unwrap()
            .solve(&v)
            .unwrap()
            .currents;
        let analytical = AnalyticalModel::new(&p, &g).unwrap().mvm(&v).unwrap();
        for j in 0..n {
            // Parasitics always pull the linear model below ideal,
            // and the sinh boost always lifts the circuit above it.
            assert!(analytical[j] < ideal[j], "n={n} v={v_supply}");
            assert!(circuit[j] > analytical[j], "n={n} v={v_supply}");
            if boost_beats_ir {
                assert!(circuit[j] > ideal[j], "boost regime n={n} v={v_supply}");
            } else {
                assert!(circuit[j] < ideal[j], "ir-drop regime n={n} v={v_supply}");
            }
        }
    }
}

#[test]
fn all_predictors_vanish_at_zero_input() {
    let params = default_params(4);
    let mut rng = StdRng::seed_from_u64(19);
    let g = ConductanceMatrix::random_sparse(&params, 0.3, &mut rng);
    let v = [0.0; 4];
    for out in [
        ideal_mvm(&v, &g).unwrap(),
        AnalyticalModel::new(&params, &g).unwrap().mvm(&v).unwrap(),
        CrossbarCircuit::new(&params, &g)
            .unwrap()
            .solve(&v)
            .unwrap()
            .currents,
    ] {
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|&i| i.abs() < 1e-12),
            "nonzero at zero input: {out:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scaling all inputs down scales every output down (monotone
    /// passive network).
    #[test]
    fn circuit_output_monotone_in_drive(seed in 0u64..500) {
        let params = default_params(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ConductanceMatrix::random_sparse(&params, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v_full = vec![params.v_supply; 5];
        let v_half: Vec<f64> = v_full.iter().map(|x| x * 0.5).collect();
        let full = circuit.solve(&v_full).unwrap().currents;
        let half = circuit.solve(&v_half).unwrap().currents;
        for (f, h) in full.iter().zip(&half) {
            prop_assert!(h <= f);
            prop_assert!(*h >= 0.0);
        }
    }

    /// The non-ideal output never exceeds the ideal output by more
    /// than the sinh boost bound at the operating voltage.
    #[test]
    fn non_ideal_current_is_bounded(seed in 0u64..500) {
        let params = default_params(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ConductanceMatrix::random_sparse(&params, 0.2, &mut rng);
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v = vec![params.v_supply; 5];
        let non_ideal = circuit.solve(&v).unwrap().currents;
        let ideal = ideal_mvm(&v, &g).unwrap();
        // sinh(x)/x at x = Vsupply/V0 = 1 is ~1.175.
        let boost_bound = 1.2;
        for (ni, id) in non_ideal.iter().zip(&ideal) {
            prop_assert!(*ni >= 0.0);
            prop_assert!(*ni <= id * boost_bound + 1e-12);
        }
    }
}
