//! Amortized-solve benchmark: cold per-sample circuit solving versus
//! the [`xbar::SolverCache`] batched path, emitting
//! `results/BENCH_solve.json` for `bench_gate --solve`.
//!
//! Both paths solve the same panel of random stimuli against the same
//! programmed tile:
//!
//! * **cold** — one `CrossbarCircuit::solve` per sample: the shared
//!   Newton loop from the driven guess, factoring the exact Jacobian
//!   at every iteration and re-solving every cell's internal node.
//! * **amortized** — `SolverCache::for_circuit` once, then one
//!   `solve_batch` over the whole panel: the frozen-Jacobian
//!   factorization is built (or fetched from the process-wide
//!   registry) a single time and every sample after the first
//!   warm-starts from its predecessor's operating point (DESIGN.md
//!   §15).
//!
//! Two shapes run: the original 64×64 leg and an RxNN-scale 256×256
//! leg, where the factorization is ~64x more expensive and the
//! amortization win correspondingly larger. The gated metrics are the
//! **ratios** of per-sample times (`amortized_speedup` and
//! `amortized_speedup_256 = cold_ns / amortized_ns`), which are
//! machine-relative: a committed baseline transfers across hosts the
//! same way the kernel-gate speedups do. The acceptance floor for this
//! arc is 2.0x at 64×64, witnessed by
//! `results/BENCH_solve_baseline.json`.
//!
//! Usage: `solve_bench [out.json]` (default
//! `results/BENCH_solve.json`). `GENIEX_SOLVE_BENCH_SAMPLES` /
//! `GENIEX_SOLVE_BENCH_REPS` override the 64×64 panel size and
//! repetition count; `GENIEX_SOLVE_BENCH_SAMPLES_256` /
//! `GENIEX_SOLVE_BENCH_REPS_256` the 256×256 leg's.

use std::time::Instant;

use geniex_bench::setup::results_dir;
use telemetry::Json;
use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};

const DEFAULT_SAMPLES: usize = 24;
const DEFAULT_REPS: usize = 3;
const DEFAULT_SAMPLES_256: usize = 8;
const DEFAULT_REPS_256: usize = 2;

fn env_count(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Deterministic xorshift64* stream in [0, 1).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct LegResult {
    size: usize,
    samples: usize,
    reps: usize,
    cold_ns: f64,
    amortized_ns: f64,
    cold_iters: usize,
    amortized_iters: usize,
    speedup: f64,
}

impl LegResult {
    fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("rows".to_string(), Json::from(self.size)),
            ("cols".to_string(), Json::from(self.size)),
            ("samples".to_string(), Json::from(self.samples)),
            ("reps".to_string(), Json::from(self.reps)),
            ("cold_ns_per_solve".to_string(), Json::from(self.cold_ns)),
            (
                "amortized_ns_per_solve".to_string(),
                Json::from(self.amortized_ns),
            ),
            ("cold_newton_iters".to_string(), Json::from(self.cold_iters)),
            (
                "amortized_newton_iters".to_string(),
                Json::from(self.amortized_iters),
            ),
        ]
    }
}

/// Runs the cold-vs-amortized comparison for one crossbar edge length.
fn run_leg(size: usize, samples: usize, reps: usize) -> LegResult {
    let params = CrossbarParams::builder(size, size)
        .build()
        .expect("default design point");
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ size as u64);
    let mut g = ConductanceMatrix::uniform(size, size, params.g_off());
    let span = params.g_on() - params.g_off();
    for i in 0..size {
        for j in 0..size {
            g.set(i, j, params.g_off() + span * rng.next_f64());
        }
    }
    let circuit = CrossbarCircuit::new(&params, &g).expect("circuit builds");

    // Correlated stimulus stream, like consecutive MVMs of a real
    // workload: each sample perturbs the previous one, which is the
    // regime warm-starting is designed for (a fully random stream
    // still amortizes the factorization, just with more iterations).
    let mut volts = vec![0.0f64; samples * size];
    for i in 0..size {
        volts[i] = params.v_supply * rng.next_f64();
    }
    for s in 1..samples {
        for i in 0..size {
            let prev = volts[(s - 1) * size + i];
            let jitter = 0.2 * params.v_supply * (rng.next_f64() - 0.5);
            volts[s * size + i] = (prev + jitter).clamp(0.0, params.v_supply);
        }
    }

    // Warm-up: fault in code paths and the factorization registry so
    // neither rep 0 nor the cold loop pays one-time costs.
    let first = &volts[..size];
    circuit.solve(first).expect("warm-up cold solve");
    let mut cache = SolverCache::for_circuit(&circuit);
    circuit
        .solve_amortized(first, &mut cache)
        .expect("warm-up amortized solve");

    let mut cold_best = f64::INFINITY;
    let mut cold_iters = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let mut iters = 0usize;
        for v in volts.chunks_exact(size) {
            let report = circuit.solve(v).expect("cold solve");
            iters += report.newton_iterations;
        }
        cold_best = cold_best.min(start.elapsed().as_secs_f64());
        cold_iters = iters;
    }

    let mut amortized_best = f64::INFINITY;
    let mut amortized_iters = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        // Fresh cache per rep: the timed region includes content
        // keying and the registry fetch, exactly what a newly
        // programmed tile pays.
        let mut cache = SolverCache::for_circuit(&circuit);
        let reports = circuit
            .solve_batch(&volts, samples, &mut cache)
            .expect("amortized batch solve");
        amortized_best = amortized_best.min(start.elapsed().as_secs_f64());
        amortized_iters = reports.iter().map(|r| r.newton_iterations).sum();
    }

    let cold_ns = cold_best * 1e9 / samples as f64;
    let amortized_ns = amortized_best * 1e9 / samples as f64;
    let speedup = cold_ns / amortized_ns;

    println!(
        "solve_bench: {size}x{size}, {samples} samples, best of {reps} reps\n\
         {:<12} {:>14.1} ns/solve  {:>5} Newton iterations\n\
         {:<12} {:>14.1} ns/solve  {:>5} Newton iterations\n\
         {:<12} {:>14.2}x",
        "cold", cold_ns, cold_iters, "amortized", amortized_ns, amortized_iters, "speedup", speedup
    );

    LegResult {
        size,
        samples,
        reps,
        cold_ns,
        amortized_ns,
        cold_iters,
        amortized_iters,
        speedup,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BENCH_solve.json"));

    let leg64 = run_leg(
        64,
        env_count("GENIEX_SOLVE_BENCH_SAMPLES", DEFAULT_SAMPLES),
        env_count("GENIEX_SOLVE_BENCH_REPS", DEFAULT_REPS),
    );
    let leg256 = run_leg(
        256,
        env_count("GENIEX_SOLVE_BENCH_SAMPLES_256", DEFAULT_SAMPLES_256),
        env_count("GENIEX_SOLVE_BENCH_REPS_256", DEFAULT_REPS_256),
    );

    // The 64×64 leg keeps its historical top-level keys so older
    // tooling reading this file stays compatible; the 256×256 leg
    // nests under "leg_256".
    let mut fields = leg64.fields();
    fields.push(("leg_256".to_string(), Json::Obj(leg256.fields())));
    fields.push((
        "gate".to_string(),
        Json::Obj(vec![
            ("amortized_speedup".to_string(), Json::from(leg64.speedup)),
            (
                "amortized_speedup_256".to_string(),
                Json::from(leg256.speedup),
            ),
        ]),
    ));

    let json = Json::Obj(fields);
    std::fs::write(&out_path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("solve_bench: cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    });
    println!("wrote {}", out_path.display());
}
