//! `fig5-cold`: the paper's Fig-5 protocol at the 16×16 design point,
//! at both supplies, from a cold start and at a reduced budget.
//!
//! One repetition runs, per supply, `dataset::generate` (circuit
//! truth: many distinct 16×16 tiles fanned out over the pool), a fresh
//! `Geniex::new(hidden 250)` + `Geniex::train`, and
//! `benchmark::compare_models`. The surrogate trainer is the hot layer
//! here, so `nn` and `parallel` work shows on this workload and on no
//! other. Every repetition draws fresh data from its own sub-seed.

use std::time::Instant;

use geniex::benchmark::{compare_models, BenchmarkConfig, RmseComparison};
use geniex::dataset::{generate, DatasetConfig};
use geniex::{Geniex, TrainConfig};
use nn::{Adam, Mlp, Optimizer, Tensor};
use telemetry::HistogramSnapshot;
use xbar::CrossbarParams;

use crate::stats::median;
use crate::trace::Snapshot;
use crate::{derive_seed, Ctx, Outcome, Rng};

const SIZE: usize = 16;
const SUPPLIES: [f64; 2] = [0.25, 0.5];
const HIDDEN: usize = 250;
const SAMPLES: usize = 600;
const EPOCHS: usize = 12;
const BATCH: usize = 32;
const STIMULI: usize = 24;
/// Enough repetitions for a tail over both supplies' calls.
const MIN_REPS: usize = 6;
const SETUP_REPS: usize = 101;
/// Training steps replayed one phase at a time in the traced run.
const REPLAY_STEPS: usize = 60;

/// Per-layer measurements gathered on traced repetitions.
#[derive(Default)]
struct Layers {
    truth_s: Vec<f64>,
    train_s: Vec<f64>,
    eval_s: Vec<f64>,
    train_steps: Vec<f64>,
    tasks_generate: Vec<f64>,
    tasks_train: Vec<f64>,
    steals_generate: Vec<f64>,
    steals_train: Vec<f64>,
    task_seconds_generate: Option<HistogramSnapshot>,
    task_seconds_train: Option<HistogramSnapshot>,
}

const TASKS: &str = "parallel.global.tasks";
const STEALS: &str = "parallel.global.steals";
const TASK_SECONDS: &str = "parallel.global.task_seconds";

/// The Fig-5 shape every repetition must show: a finite surrogate
/// RMSE below the analytical model's.
pub fn fidelity_ok(cmp: &RmseComparison) -> bool {
    cmp.geniex_rmse.is_finite()
        && cmp.analytical_rmse.is_finite()
        && cmp.geniex_rmse < cmp.analytical_rmse
}

fn params(v_supply: f64) -> Result<CrossbarParams, String> {
    CrossbarParams::builder(SIZE, SIZE)
        .v_supply(v_supply)
        .build()
        .map_err(|e| format!("crossbar params: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;

    // Set-up: the design points and freshly initialised surrogates.
    parallel::global();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        for (i, &v) in SUPPLIES.iter().enumerate() {
            let p = params(v)?;
            let init = derive_seed(ctx.seed, 1000 + (rep * 2 + i) as u64);
            std::hint::black_box(Geniex::new(&p, HIDDEN, init).map_err(|e| e.to_string())?);
        }
        setup.push(start.elapsed().as_secs_f64());
    }
    out.values.set("setup_s", median(&setup));

    let mut light_ms = Vec::new();
    let mut heavy_ms = Vec::new();
    let mut walls = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut rmse = [Vec::new(), Vec::new()];
    let mut analytical = [Vec::new(), Vec::new()];
    let mut layers = Layers::default();
    let started = Instant::now();
    let mut rep = 0usize;
    while rep < MIN_REPS || ctx.time_left(started) {
        // A traced run alternates untraced and traced repetitions so
        // the tracing overhead is measured in the same process.
        let traced = ctx.traced && rep % 2 == 1;
        tracer.set_active(traced);
        let rep_start = Instant::now();
        let rep_span = tracer.span("fig5.rep", 0, 0);
        for (i, &v) in SUPPLIES.iter().enumerate() {
            let p = params(v)?;
            let seed = derive_seed(ctx.seed, (rep * 2 + i) as u64);
            let point = tracer.span("fig5.point", rep_span.id(), 0);

            let before = traced.then(Snapshot::take);
            let t = Instant::now();
            let data = {
                let _s = tracer.span("geniex.dataset.generate", point.id(), 0);
                generate(
                    &p,
                    &DatasetConfig {
                        samples: SAMPLES,
                        seed,
                        ..DatasetConfig::default()
                    },
                )
                .map_err(|e| format!("dataset generation: {e}"))?
            };
            let truth_s = t.elapsed().as_secs_f64();
            light_ms.push(truth_s * 1e3);
            let mid = traced.then(Snapshot::take);

            let mut surrogate = Geniex::new(&p, HIDDEN, derive_seed(seed, 1))
                .map_err(|e| format!("surrogate: {e}"))?;
            let t = Instant::now();
            {
                let _s = tracer.span("geniex.train", point.id(), 0);
                surrogate
                    .train(
                        &data,
                        &TrainConfig {
                            epochs: EPOCHS,
                            batch_size: BATCH,
                            learning_rate: 1e-3,
                            seed: derive_seed(seed, 2),
                            ..TrainConfig::default()
                        },
                    )
                    .map_err(|e| format!("training: {e}"))?;
            }
            let train_s = t.elapsed().as_secs_f64();
            heavy_ms.push(train_s * 1e3);
            let after = traced.then(Snapshot::take);

            let t = Instant::now();
            let mut cmp = {
                let _s = tracer.span("geniex.benchmark.compare_models", point.id(), 0);
                compare_models(
                    &p,
                    &surrogate,
                    &BenchmarkConfig {
                        stimuli: STIMULI,
                        seed: derive_seed(seed, 3),
                        dac_levels: 16,
                    },
                )
                .map_err(|e| format!("compare_models: {e}"))?
            };
            let eval_s = t.elapsed().as_secs_f64();
            drop(point);

            if ctx.inject_mismatch && rep == 0 && i == 0 {
                cmp.geniex_rmse = 2.0 * cmp.analytical_rmse;
            }
            out.check(fidelity_ok(&cmp), || {
                format!(
                    "rep {rep} at {v} V: GENIEx NF RMSE {} vs analytical {}",
                    cmp.geniex_rmse, cmp.analytical_rmse
                )
            });
            rmse[i].push(cmp.geniex_rmse);
            analytical[i].push(cmp.analytical_rmse);

            if let (Some(before), Some(mid), Some(after)) = (before, mid, after) {
                layers.truth_s.push(truth_s);
                layers.train_s.push(train_s);
                layers.eval_s.push(eval_s);
                layers
                    .train_steps
                    .push(after.counter_since(&mid, "nn.adam.steps") as f64);
                layers
                    .tasks_generate
                    .push(mid.counter_since(&before, TASKS) as f64);
                layers
                    .tasks_train
                    .push(after.counter_since(&mid, TASKS) as f64);
                layers
                    .steals_generate
                    .push(mid.counter_since(&before, STEALS) as f64);
                layers
                    .steals_train
                    .push(after.counter_since(&mid, STEALS) as f64);
                mid.add_histogram_since(&before, TASK_SECONDS, &mut layers.task_seconds_generate);
                after.add_histogram_since(&mid, TASK_SECONDS, &mut layers.task_seconds_train);
            }
        }
        drop(rep_span);
        walls[usize::from(traced)].push(rep_start.elapsed().as_secs_f64());
        rep += 1;
    }
    tracer.set_active(ctx.traced);

    println!("# fig5-cold: {rep} repetitions; light = dataset::generate, heavy = Geniex::train");
    out.set_latencies(&light_ms, &heavy_ms)?;
    for (i, v) in SUPPLIES.iter().enumerate() {
        println!(
            "# NF RMSE at {v} V (median of {}): GENIEx {:.5}, analytical {:.5}",
            rmse[i].len(),
            median(&rmse[i]),
            median(&analytical[i])
        );
    }
    let v = &mut out.values;
    v.set("wall_s", median(&walls[0]));

    if ctx.traced {
        report_layers(ctx, &layers, &mut out);
        let v = &mut out.values;
        v.set("geniex.eval.nf_rmse_lowv", median(&rmse[0]));
        v.set("geniex.eval.nf_rmse_highv", median(&rmse[1]));
        v.set("geniex.eval.analytical_rmse_lowv", median(&analytical[0]));
        v.set("geniex.eval.analytical_rmse_highv", median(&analytical[1]));
        v.set(
            "trace.overhead_frac",
            median(&walls[1]) / median(&walls[0]) - 1.0,
        );
    }
    Ok(out)
}

fn report_layers(ctx: &Ctx, layers: &Layers, out: &mut Outcome) {
    let in_dim = SIZE + SIZE * SIZE;
    // Dense forward costs 2 FLOPs per weight per sample; backward
    // (input and weight gradients) twice that. Computed from the MLP
    // shape, not counted.
    let weights = (in_dim * HIDDEN + HIDDEN * SIZE) as f64;
    let flops_per_train = 6.0 * weights * (SAMPLES * EPOCHS) as f64;
    let train_s = median(&layers.train_s);
    let steps = median(&layers.train_steps);
    let p50_us = |h: &Option<HistogramSnapshot>| h.as_ref().map_or(0.0, |h| h.p50() * 1e6);

    let v = &mut out.values;
    v.set("nn.train.s", train_s);
    v.set("nn.train.steps", steps);
    v.set("nn.train.us_per_step", train_s * 1e6 / steps);
    v.set("nn.train.gflops", flops_per_train / train_s / 1e9);
    v.set(
        "parallel.global.tasks.generate",
        median(&layers.tasks_generate),
    );
    v.set("parallel.global.tasks.train", median(&layers.tasks_train));
    v.set(
        "parallel.global.steals.generate",
        median(&layers.steals_generate),
    );
    v.set("parallel.global.steals.train", median(&layers.steals_train));
    v.set(
        "parallel.global.task_us_p50.generate",
        p50_us(&layers.task_seconds_generate),
    );
    v.set(
        "parallel.global.task_us_p50.train",
        p50_us(&layers.task_seconds_train),
    );
    let truth_s = median(&layers.truth_s);
    v.set("xbar.truth.s", truth_s);
    v.set("xbar.truth.ms_per_sample", truth_s * 1e3 / SAMPLES as f64);
    v.set("geniex.eval.s", median(&layers.eval_s));

    let (fwd, bwd, adam) = replay_steps(ctx);
    v.set("nn.step.fwd_us", fwd);
    v.set("nn.step.bwd_us", bwd);
    v.set("nn.step.adam_us", adam);
}

/// Replays training steps at the surrogate's shape, timing forward,
/// backward and the Adam update apart; returns their medians in µs.
fn replay_steps(ctx: &Ctx) -> (f64, f64, f64) {
    let tracer = &ctx.tracer;
    let in_dim = SIZE + SIZE * SIZE;
    let mut rng = Rng::new(derive_seed(ctx.seed, 0x5EED));
    let mut mlp = Mlp::new(&[in_dim, HIDDEN, SIZE], rng.next_u64()).expect("valid MLP shape");
    let mut adam = Adam::new(1e-3);
    let mut random = |rows: usize, cols: usize| -> Tensor {
        let data = (0..rows * cols).map(|_| rng.unit() as f32).collect();
        Tensor::from_vec(data, &[rows, cols]).expect("tensor shape")
    };
    let x = random(BATCH, in_dim);
    let y = random(BATCH, SIZE);
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..REPLAY_STEPS {
        let t = Instant::now();
        let pred = {
            let _s = tracer.span("nn.mlp.forward_train", 0, 0);
            mlp.forward_train(&x)
        };
        fwd.push(us(t));
        let (_, grad) = nn::loss::mse(&pred, &y).expect("matching shapes");
        let t = Instant::now();
        {
            let _s = tracer.span("nn.mlp.backward", 0, 0);
            mlp.zero_grad();
            mlp.backward(&grad);
        }
        bwd.push(us(t));
        let t = Instant::now();
        {
            let _s = tracer.span("nn.adam.step", 0, 0);
            adam.step(&mut mlp);
        }
        step.push(us(t));
    }
    (median(&fwd), median(&bwd), median(&step))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(geniex: f64, analytical: f64) -> RmseComparison {
        RmseComparison {
            v_supply: 0.25,
            analytical_rmse: analytical,
            geniex_rmse: geniex,
            samples: 10,
        }
    }

    #[test]
    fn fidelity_check_rejects_a_surrogate_worse_than_analytical() {
        assert!(fidelity_ok(&cmp(0.03, 0.05)));
        assert!(!fidelity_ok(&cmp(0.06, 0.05)));
        assert!(!fidelity_ok(&cmp(f64::NAN, 0.05)));
        assert!(!fidelity_ok(&cmp(0.03, f64::INFINITY)));
    }
}
