//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! timings of the GENIEx paper pipeline, 256×256 array solving and
//! mixed open-loop serving, with every output checked on every run.
//!
//! ```text
//! perfbench --workload <fig5-cold|array-256|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject-mismatch]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate traced run
//! that reports the per-layer metrics and writes its spans to
//! `perfbench/out/`. `--inject-mismatch` corrupts one checked output,
//! so the run must fail (used by the benchmark's own tests). Any failed
//! check makes the run exit with code 1. See README.md.

mod array;
mod fig5;
mod metrics;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Values;
use trace::Tracer;

/// Worker threads of the program's global pool in an untraced run,
/// fixed so that end-to-end figures compare like with like on any
/// machine. A traced run uses one worker per core instead, so that the
/// `parallel` layer is measured (see README.md, "Pool width").
pub const POOL_THREADS: usize = 1;

/// Everything a workload receives from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub inject_mismatch: bool,
    pub tracer: Tracer,
}

impl Ctx {
    /// True until the run's measuring time is used up.
    pub fn time_left(&self, started: Instant) -> bool {
        started.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a workload hands back: its checked-operation tally and the
/// metric values it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// Sets the latency metrics every workload shares from its light
    /// and heavy operation latencies (ms): each class's median and
    /// tail. Prints each tail's percentile and sample count.
    pub fn set_latencies(&mut self, light_ms: &[f64], heavy_ms: &[f64]) -> Result<(), String> {
        let too_few = |what: &str| format!("too few {what} operations for a tail");
        let light = stats::tail(light_ms).ok_or_else(|| too_few("light"))?;
        let heavy = stats::tail(heavy_ms).ok_or_else(|| too_few("heavy"))?;
        println!(
            "# tails: light p{:.1} of {} = {:.3} ms, heavy p{:.1} of {} = {:.3} ms",
            light.percentile,
            light.samples,
            light.value,
            heavy.percentile,
            heavy.samples,
            heavy.value
        );
        self.values.set("light_p50_ms", stats::median(light_ms));
        self.values.set("heavy_p50_ms", stats::median(heavy_ms));
        self.values.set("light_tail_ms", light.value);
        self.values.set("heavy_tail_ms", heavy.value);
        Ok(())
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }
}

/// A stream of seeded 64-bit values (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for sub-stream `tag` of `seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

const WORKLOADS: [&str; 3] = ["fig5-cold", "array-256", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    inject_mismatch: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut inject_mismatch = false;
    while let Some(flag) = argv.next() {
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        inject_mismatch,
    })
}

/// Pins everything in the environment the program reads, before any
/// of it is read: no artifact store (set-up is always cold), a fixed
/// pool width of `threads`, and no inherited `GENIEX_*` knob.
fn isolate(threads: usize) {
    for (key, _) in std::env::vars() {
        if key.starts_with("GENIEX_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("GENIEX_STORE", "off");
    std::env::set_var("GENIEX_THREADS", threads.to_string());
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--inject-mismatch]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    isolate(if args.traced { nproc } else { POOL_THREADS });
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        inject_mismatch: args.inject_mismatch,
        tracer: Tracer::new(),
    };
    let commit = std::env::current_dir()
        .ok()
        .and_then(|d| telemetry::git_rev(&d))
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads={} commit={commit}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        parallel::default_threads()
    );

    let result = match args.workload.as_str() {
        "fig5-cold" => fig5::run(&ctx),
        "array-256" => array::run(&ctx),
        _ => serve_mixed::run(&ctx),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.traced {
        let rss_kb = telemetry::peak_rss_kb().unwrap_or(0);
        outcome.values.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    }

    if args.traced {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("# {} spans written to {}", ctx.tracer.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    let defs = if args.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for d in defs {
        if let Some(v) = outcome.values.get(d.name) {
            if v != 0.0 && v.abs() < 1e-3 {
                println!("{:<40} {v:>16.6e} {}", d.name, d.unit);
            } else {
                println!("{:<40} {v:>16.6} {}", d.name, d.unit);
            }
        }
    }
    let rendered = match metrics::render(defs, &outcome.values, !args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {rendered}}}",
        outcome.attempted, outcome.failed
    );
    if correct && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "array-256",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "array-256");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.traced && !a.inject_mismatch);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "fig5-cold", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "fig5-cold",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fig5-cold",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }
}
