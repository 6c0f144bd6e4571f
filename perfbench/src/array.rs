//! `array-256`: one seeded 256×256 tile at RxNN scale, where the
//! circuit solver is the hot path.
//!
//! Set-up programs the tile through the non-ideality zoo (lognormal
//! spread, then drift), assembles the `CrossbarCircuit` and builds its
//! `SolverCache`. Each panel then solves a correlated stimulus stream
//! twice: every sample cold with `CrossbarCircuit::solve`, and the
//! whole stream through `solve_batch` on one cache, one sample per
//! call so each is timed. Consecutive samples differ in a few rows, as
//! bit-sliced streams do. The two paths use `xbar` differently, so a
//! change that speeds one at the other's cost shows.

use std::time::Instant;

use xbar::zoo::{ConductanceDrift, LognormalSpread, NonIdealityStack};
use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolveReport, SolverCache};

use crate::stats::{mean, median};
use crate::trace::Snapshot;
use crate::{derive_seed, Ctx, Outcome, Rng};

const SIZE: usize = 256;
/// Samples per correlated panel.
const PANEL: usize = 8;
/// Word lines whose input changes from one sample to the next.
const CHANGED_ROWS: usize = 8;
/// DAC levels of the quantized inputs.
const DAC_LEVELS: u64 = 16;
/// Enough panels for a tail over each path's solves.
const MIN_PANELS: usize = 2;
/// Set-up repetitions, each on its own tile. Every one leaves its
/// factorization in the program's process-wide registry, so these add
/// `SETUP_REPS` × ~2.6 MB to `peak_rss_mb` and `SETUP_REPS` misses to
/// `xbar.cache.misses`.
const SETUP_REPS: usize = 25;

/// The amortized path's documented agreement with a cold solve:
/// `|I_warm - I_cold| <= 1e-6·|I_cold| + 1e-10` A on every bit line.
pub fn currents_agree(cold: &[f64], warm: &[f64]) -> bool {
    cold.len() == warm.len()
        && cold
            .iter()
            .zip(warm)
            .all(|(c, w)| (w - c).abs() <= 1e-6 * c.abs() + 1e-10)
}

/// Independent KCL residual of a solve, and whether it is within the
/// tolerance the solver promises.
fn kcl(circuit: &CrossbarCircuit, v: &[f64], report: &SolveReport) -> Result<(f64, bool), String> {
    let residual = circuit
        .verify_kcl(v, &report.node_voltages)
        .map_err(|e| format!("verify_kcl: {e}"))?;
    Ok((residual, residual <= circuit.effective_tolerance(v)))
}

/// Per-layer measurements gathered on traced panels.
#[derive(Default)]
struct Layers {
    cold_iters: Vec<f64>,
    warm_iters: Vec<f64>,
    dampings: Vec<f64>,
    warm_starts: usize,
    warm_samples: usize,
    fallbacks: u64,
    cache_hits: u64,
    cache_misses: u64,
    cold_ns_per_node_iter: Vec<f64>,
    warm_ns_per_node_iter: Vec<f64>,
}

fn ns_per_node_iter(seconds: f64, report: &SolveReport) -> f64 {
    let nodes = 2 * SIZE * SIZE;
    seconds * 1e9 / (nodes * report.newton_iterations.max(1)) as f64
}

/// A correlated stimulus panel, row-major: sparse quantized inputs,
/// then `CHANGED_ROWS` rows redrawn per step.
fn panel_inputs(rng: &mut Rng, v_supply: f64) -> Vec<f64> {
    let draw = |rng: &mut Rng| {
        if rng.unit() < 0.5 {
            0.0
        } else {
            v_supply * (1 + rng.next_u64() % DAC_LEVELS) as f64 / DAC_LEVELS as f64
        }
    };
    let mut volts = Vec::with_capacity(PANEL * SIZE);
    for _ in 0..SIZE {
        volts.push(draw(rng));
    }
    for s in 1..PANEL {
        volts.extend_from_within((s - 1) * SIZE..s * SIZE);
        for _ in 0..CHANGED_ROWS {
            let row = (rng.next_u64() % SIZE as u64) as usize;
            volts[s * SIZE + row] = draw(rng);
        }
    }
    volts
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let params = CrossbarParams::builder(SIZE, SIZE)
        .build()
        .map_err(|e| format!("crossbar params: {e}"))?;
    let mut rng = Rng::new(derive_seed(ctx.seed, 0xA11));
    let levels: Vec<f64> = (0..SIZE * SIZE).map(|_| rng.unit()).collect();
    let target = ConductanceMatrix::from_levels(&params, &levels)
        .map_err(|e| format!("target conductances: {e}"))?;
    let stack = NonIdealityStack::new(derive_seed(ctx.seed, 0x200))
        .with_model(Box::new(LognormalSpread { sigma: 0.1 }))
        .and_then(|s| {
            s.with_model(Box::new(ConductanceDrift {
                t: 1e3,
                t0: 1.0,
                nu: 0.05,
            }))
        })
        .map_err(|e| format!("non-ideality stack: {e}"))?;

    // Set-up, repeated on distinct tiles so every repetition builds its
    // factorization cold; the first tile is the one measured. A traced
    // run counts the registry misses of these builds too.
    let (mut program_s, mut circuit_s, mut cache_s, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut measured = None;
    let mut layers = Layers::default();
    tracer.set_active(ctx.traced);
    let before_setup = ctx.traced.then(Snapshot::take);
    for tile in 0..SETUP_REPS {
        let _s = tracer.span("array.setup", 0, 0);
        let t0 = Instant::now();
        let g = stack
            .program(&params, &target, tile as u64)
            .map_err(|e| format!("programming: {e}"))?;
        let t1 = Instant::now();
        let circuit =
            CrossbarCircuit::new(&params, &g).map_err(|e| format!("circuit assembly: {e}"))?;
        let t2 = Instant::now();
        std::hint::black_box(SolverCache::for_circuit(&circuit));
        let t3 = Instant::now();
        program_s.push((t1 - t0).as_secs_f64());
        circuit_s.push((t2 - t1).as_secs_f64());
        cache_s.push((t3 - t2).as_secs_f64());
        setup.push((t3 - t0).as_secs_f64());
        measured.get_or_insert(circuit);
    }
    let circuit = measured.expect("at least one set-up repetition");
    out.values.set("setup_s", median(&setup));
    if let Some(before) = before_setup {
        let after = Snapshot::take();
        layers.cache_hits += after.counter_since(&before, "xbar.cache.hits");
        layers.cache_misses += after.counter_since(&before, "xbar.cache.misses");
    }

    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut walls = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut kcl_max = 0.0f64;
    let started = Instant::now();
    let mut panel = 0usize;
    while panel < MIN_PANELS || ctx.time_left(started) {
        let traced = ctx.traced && panel % 2 == 1;
        tracer.set_active(traced);
        let volts = panel_inputs(&mut rng, params.v_supply);
        let before = traced.then(Snapshot::take);
        let panel_span = tracer.span("array.panel", 0, 0);
        let mut wall = 0.0;

        let mut cold = Vec::with_capacity(PANEL);
        for (s, v) in volts.chunks_exact(SIZE).enumerate() {
            let request = (panel * PANEL + s + 1) as u64;
            let _s = tracer.span("xbar.solve", panel_span.id(), request);
            let t = Instant::now();
            let report = circuit.solve(v).map_err(|e| format!("cold solve: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            cold_ms.push(secs * 1e3);
            if traced {
                layers.cold_iters.push(report.newton_iterations as f64);
                layers.dampings.push(report.dampings as f64);
                layers
                    .cold_ns_per_node_iter
                    .push(ns_per_node_iter(secs, &report));
            }
            cold.push(report);
        }

        let t = Instant::now();
        let mut cache = {
            let _s = tracer.span("xbar.solver_cache.for_circuit", panel_span.id(), 0);
            SolverCache::for_circuit(&circuit)
        };
        wall += t.elapsed().as_secs_f64();
        let mut warm = Vec::with_capacity(PANEL);
        for (s, v) in volts.chunks_exact(SIZE).enumerate() {
            let request = (panel * PANEL + s + 1) as u64;
            let _s = tracer.span("xbar.solve_batch", panel_span.id(), request);
            let t = Instant::now();
            let report = circuit
                .solve_batch(v, 1, &mut cache)
                .map_err(|e| format!("amortized solve: {e}"))?
                .pop()
                .expect("one report per sample");
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            warm_ms.push(secs * 1e3);
            if traced {
                layers.warm_iters.push(report.newton_iterations as f64);
                layers.dampings.push(report.dampings as f64);
                layers.warm_samples += 1;
                layers.warm_starts += usize::from(report.warm_start);
                layers
                    .warm_ns_per_node_iter
                    .push(ns_per_node_iter(secs, &report));
            }
            warm.push(report);
        }
        drop(panel_span);
        walls[usize::from(traced)].push(wall);
        if let Some(before) = before {
            let after = Snapshot::take();
            layers.fallbacks += after.counter_since(&before, "xbar.amortized.fallbacks");
            layers.cache_hits += after.counter_since(&before, "xbar.cache.hits");
            layers.cache_misses += after.counter_since(&before, "xbar.cache.misses");
        }

        if ctx.inject_mismatch && panel == 0 {
            warm[0].currents[0] += 1e-6;
        }
        for (s, v) in volts.chunks_exact(SIZE).enumerate() {
            let (cold_residual, cold_ok) = kcl(&circuit, v, &cold[s])?;
            let (warm_residual, warm_ok) = kcl(&circuit, v, &warm[s])?;
            kcl_max = kcl_max.max(cold_residual).max(warm_residual);
            let agree = currents_agree(&cold[s].currents, &warm[s].currents);
            out.check(agree && cold_ok && warm_ok, || {
                format!(
                    "panel {panel} sample {s}: currents agree {agree}, KCL cold {cold_residual:e} \
                     warm {warm_residual:e} vs tolerance {:e}",
                    circuit.effective_tolerance(v)
                )
            });
        }
        panel += 1;
    }
    tracer.set_active(ctx.traced);

    println!(
        "# array-256: {panel} panels of {PANEL}; light = solve_batch sample, heavy = cold solve"
    );
    out.set_latencies(&warm_ms, &cold_ms)?;
    let v = &mut out.values;
    v.set("wall_s", median(&walls[0]));

    if ctx.traced {
        v.set("xbar.cold.newton_iters", mean(&layers.cold_iters));
        v.set("xbar.warm.newton_iters", mean(&layers.warm_iters));
        v.set("xbar.dampings", mean(&layers.dampings));
        v.set(
            "xbar.warm_start_frac",
            layers.warm_starts as f64 / layers.warm_samples as f64,
        );
        v.set("xbar.amortized.fallbacks", layers.fallbacks as f64);
        v.set("xbar.cache.hits", layers.cache_hits as f64);
        v.set("xbar.cache.misses", layers.cache_misses as f64);
        v.set(
            "xbar.cold.ns_per_node_iter",
            median(&layers.cold_ns_per_node_iter),
        );
        v.set(
            "xbar.warm.ns_per_node_iter",
            median(&layers.warm_ns_per_node_iter),
        );
        v.set("xbar.kcl_residual_max", kcl_max);
        v.set("zoo.program_s", median(&program_s));
        v.set("xbar.circuit_new_s", median(&circuit_s));
        v.set("xbar.cache_build_s", median(&cache_s));
        v.set(
            "trace.overhead_frac",
            median(&walls[1]) / median(&walls[0]) - 1.0,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_tolerance_is_relative_plus_absolute() {
        let cold = [1e-4, 0.0];
        assert!(currents_agree(&cold, &[1e-4 + 1e-10, 1e-10]));
        assert!(!currents_agree(&cold, &[1e-4 + 1e-9, 0.0]));
        assert!(!currents_agree(&cold, &[1e-4, 2e-10]));
        assert!(!currents_agree(&cold, &[1e-4]));
    }

    #[test]
    fn amortized_solves_pass_the_check_and_a_corrupted_one_fails() {
        let n = 8;
        let params = CrossbarParams::builder(n, n).build().unwrap();
        let levels: Vec<f64> = (0..n * n).map(|k| (k % 7) as f64 / 7.0).collect();
        let g = ConductanceMatrix::from_levels(&params, &levels).unwrap();
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let v: Vec<f64> = (0..n)
            .map(|i| params.v_supply * (i % 3) as f64 / 2.0)
            .collect();
        let cold = circuit.solve(&v).unwrap();
        let mut cache = SolverCache::for_circuit(&circuit);
        let mut warm = circuit
            .solve_batch(&v, 1, &mut cache)
            .unwrap()
            .pop()
            .unwrap();
        assert!(currents_agree(&cold.currents, &warm.currents));
        assert!(kcl(&circuit, &v, &warm).unwrap().1);
        warm.currents[0] += 1e-6;
        assert!(!currents_agree(&cold.currents, &warm.currents));
    }

    #[test]
    fn panels_change_only_a_few_rows_per_step() {
        let mut rng = Rng::new(3);
        let volts = panel_inputs(&mut rng, 0.25);
        assert_eq!(volts.len(), PANEL * SIZE);
        for s in 1..PANEL {
            let changed = (0..SIZE)
                .filter(|&i| volts[s * SIZE + i] != volts[(s - 1) * SIZE + i])
                .count();
            assert!(changed <= CHANGED_ROWS);
        }
        assert_eq!(volts, panel_inputs(&mut Rng::new(3), 0.25));
    }
}
