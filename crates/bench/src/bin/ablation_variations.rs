//! Ablation: device variations and stuck-at faults on top of the
//! analytical backend.
//!
//! The paper motivates GENIEx partly by noting that non-ideality
//! effects are "exacerbated further due to the device variations"
//! (Section 1). This sweep quantifies that: classification accuracy
//! versus programming spread (lognormal sigma) and stuck-at fault
//! rates. Each tile is programmed through the non-ideality zoo with a
//! lognormal spread followed by stuck-at faults (split evenly between
//! stuck-off and stuck-on), so a stuck cell overrides its spread value.
//!
//! ```text
//! cargo run --release -p geniex-bench --bin ablation_variations
//! ```

use funcsim::{
    evaluate_spec, AnalyticalEngine, ArchConfig, CrossbarEngine, IdealEngine, ZooEngine,
};
use geniex_bench::setup::{accuracy_design_point, results_dir, standard_workload, DEFAULT_SIZE};
use geniex_bench::table::{fix, pct, Table};
use vision::{rescale_for_fxp, SynthSpec, SynthVision};
use xbar::zoo::{LognormalSpread, NonIdealityStack, StuckAtFaults};
use xbar::XbarError;

/// Seed of every tile's defect map.
const SEED: u64 = 1234;

/// Wraps `inner` so each tile gets a lognormal spread of `sigma`, then
/// stuck-at faults at a total rate of `stuck`.
fn varied<E: CrossbarEngine>(inner: E, sigma: f64, stuck: f64) -> Result<ZooEngine<E>, XbarError> {
    let stack = NonIdealityStack::new(SEED)
        .with_model(Box::new(LognormalSpread { sigma }))?
        .with_model(Box::new(StuckAtFaults {
            stuck_off_rate: stuck / 2.0,
            stuck_on_rate: stuck / 2.0,
        }))?;
    Ok(ZooEngine::new(inner, stack))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = geniex_bench::manifest::start(
        "ablation_variations",
        &[
            ("size", telemetry::Json::from(DEFAULT_SIZE)),
            ("seed", telemetry::Json::from(SEED)),
        ],
    );
    let workload = standard_workload(SynthSpec::SynthS);
    let calib_data = SynthVision::generate(SynthSpec::SynthS, 8, 1)?;
    let (calib, _) = calib_data.full_batch()?;
    let spec = rescale_for_fxp(&workload.model.to_spec(), &calib, 3.5)?;
    let arch = ArchConfig::default().with_xbar(accuracy_design_point(DEFAULT_SIZE));

    println!("FP32 reference accuracy: {}%", pct(workload.fp32_accuracy));
    let mut table = Table::new(&["sigma", "stuck_rate", "ideal_pct", "analytical_pct"]);

    for (sigma, stuck) in [
        (0.0, 0.0),
        (0.1, 0.0),
        (0.2, 0.0),
        (0.4, 0.0),
        (0.0, 0.01),
        (0.0, 0.05),
        (0.2, 0.01),
    ] {
        let ideal = evaluate_spec(
            spec.clone(),
            &arch,
            &varied(IdealEngine, sigma, stuck)?,
            &workload.test,
            16,
        )?;
        let analytical = evaluate_spec(
            spec.clone(),
            &arch,
            &varied(AnalyticalEngine, sigma, stuck)?,
            &workload.test,
            16,
        )?;
        println!(
            "sigma {sigma:.1} stuck {stuck:.2}: ideal-arith {}%, analytical {}%",
            pct(ideal),
            pct(analytical)
        );
        table.row(&[fix(sigma, 2), fix(stuck, 3), pct(ideal), pct(analytical)]);
    }

    println!("\n{}", table.render());
    table.write_csv(results_dir().join("ablation_variations.csv"))?;
    println!("expected: accuracy degrades with spread and fault rate; IR drop compounds it");
    geniex_bench::manifest::finish(
        run,
        &[(
            "fp32_accuracy",
            telemetry::Json::from(workload.fp32_accuracy),
        )],
    );
    Ok(())
}
