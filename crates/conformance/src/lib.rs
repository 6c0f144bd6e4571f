//! Conformance harness for the GENIEx stack: every optimized path in
//! this workspace is held to an executable law.
//!
//! Four PRs of aggressive optimisation (lane-blocked kernels,
//! work-stealing parallelism, a content-addressed store, a specialized
//! surrogate fast path) created fast paths whose only prior guarantees
//! were ad-hoc digest checks. This crate registers three families of
//! laws that prove the fast paths *are* the reference paths:
//!
//! * **Differential oracles** — two independent implementations of the
//!   same function must agree: naive vs lane-blocked kernels, one vs
//!   eight worker threads, cold vs warm store artifacts, the circuit
//!   solver's block Gauss–Seidel Newton vs a dense-LU reference Newton,
//!   and the full surrogate forward vs the tile-specialized fast path.
//! * **Physics invariants** — properties the circuit ground truth must
//!   satisfy regardless of implementation: per-node KCL below the
//!   solver's own tolerance, passivity (non-negative dissipated
//!   power), monotone IR-drop degradation as `R_wire` grows, and
//!   oddness `I(d, -V) = -I(d, V)` of the sinh device model.
//! * **Metamorphic relations** — input transformations with known
//!   output transformations on the functional simulator: tile-size
//!   invariance, bit-slice recombination against a full-precision
//!   integer GEMV, row/column permutation equivariance, linear-regime
//!   voltage scaling `I(αV) ≈ αI(V)`, and batch/single bit-identity.
//!
//! The non-ideality zoo (`xbar::zoo`) contributes invariants for
//! zero-strength identity, seed determinism across thread counts,
//! per-model RNG stream independence and monotone degradation in
//! strength, and a metamorphic batch/single read-noise relation.
//!
//! Every law draws its cases from the in-tree `proptest` strategies
//! through a per-law seeded [`TestRng`], so a failing run reproduces
//! from a single number: set [`SEED_ENV`] (`GENIEX_CONFORMANCE_SEED`)
//! to the seed printed in the failure report and re-run. The
//! `conformance` binary in `geniex-bench` drives [`run_suite`] and
//! emits a JSONL report through `geniex-telemetry`.

#![forbid(unsafe_code)]

use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

mod metamorphic;
mod oracles;
mod physics;
mod zoo;

pub use proptest::fnv1a64;

/// Environment variable naming the suite's base seed.
pub const SEED_ENV: &str = "GENIEX_CONFORMANCE_SEED";

/// Environment variable overriding every law's case count.
pub const CASES_ENV: &str = "GENIEX_CONFORMANCE_CASES";

/// Which family a law belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Two independent implementations must agree.
    Oracle,
    /// A physical property of the circuit ground truth.
    Invariant,
    /// A known input→output transformation relation.
    Metamorphic,
}

impl Category {
    /// Stable lowercase tag used in reports and law names.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Oracle => "oracle",
            Category::Invariant => "invariant",
            Category::Metamorphic => "metamorphic",
        }
    }
}

/// One executable conformance law.
///
/// A law is checked over `cases()` independently seeded cases; each
/// case samples its inputs from the in-tree `proptest` strategies via
/// the provided [`TestRng`] and returns `Err(detail)` on violation.
pub trait Law: Send + Sync {
    /// Unique name, `family/short_name` by convention.
    fn name(&self) -> &'static str;

    /// The family this law belongs to.
    fn category(&self) -> Category;

    /// Human-readable statement of the enforced numeric bound.
    fn tolerance(&self) -> &'static str;

    /// Cases per run at the default budget.
    fn cases(&self) -> u64 {
        12
    }

    /// Checks one sampled case. `Err` carries the violation detail.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound, including the
    /// offending values.
    fn check(&self, rng: &mut TestRng) -> Result<(), String>;
}

/// Suite configuration: the base seed plus an optional case-count
/// override.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Base seed mixed (via FNV-1a of the law name) into every law's
    /// per-case generator.
    pub seed: u64,
    /// When set, every law runs exactly this many cases.
    pub cases_override: Option<u64>,
}

impl SuiteConfig {
    /// Builds a config with the given seed and default case counts.
    pub fn with_seed(seed: u64) -> Self {
        SuiteConfig {
            seed,
            cases_override: None,
        }
    }

    /// Reads [`SEED_ENV`] and [`CASES_ENV`] (defaults: seed 0, per-law
    /// case counts).
    pub fn from_env() -> Self {
        let seed = std::env::var(SEED_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        let cases_override = std::env::var(CASES_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        SuiteConfig {
            seed,
            cases_override,
        }
    }
}

/// One violated case of one law.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Case index within the law's run (re-derivable from the seed).
    pub case: u64,
    /// What was violated, with the offending values.
    pub detail: String,
}

/// Outcome of running one law.
#[derive(Debug, Clone)]
pub struct LawReport {
    /// Law name (`family/short_name`).
    pub name: &'static str,
    /// Law family.
    pub category: Category,
    /// Documented tolerance statement.
    pub tolerance: &'static str,
    /// Cases executed.
    pub cases_run: u64,
    /// Violations, in case order.
    pub failures: Vec<CaseFailure>,
    /// Wall-clock milliseconds for the whole law.
    pub wall_ms: f64,
}

impl LawReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Outcome of running the whole suite.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The base seed the suite ran under.
    pub seed: u64,
    /// Per-law outcomes, in registry order.
    pub laws: Vec<LawReport>,
}

impl SuiteReport {
    /// Whether every law passed.
    pub fn passed(&self) -> bool {
        self.laws.iter().all(LawReport::passed)
    }

    /// Total cases executed across all laws.
    pub fn total_cases(&self) -> u64 {
        self.laws.iter().map(|l| l.cases_run).sum()
    }

    /// Total violations across all laws.
    pub fn total_failures(&self) -> usize {
        self.laws.iter().map(|l| l.failures.len()).sum()
    }

    /// The one-line reproduction command for the first failing law, if
    /// any: re-running it replays the exact same sampled cases.
    pub fn repro_line(&self) -> Option<String> {
        self.laws.iter().find(|l| !l.passed()).map(|l| {
            format!(
                "{SEED_ENV}={} cargo run --release -p geniex-bench --bin conformance -- --law {}",
                self.seed, l.name
            )
        })
    }
}

/// The generator for `case` of the law named `name` under `seed`.
///
/// Exposed so a failing case can be replayed in isolation (e.g. from a
/// debugger) given the numbers in a failure report.
pub fn case_rng(seed: u64, name: &str, case: u64) -> TestRng {
    TestRng::with_seed(seed ^ fnv1a64(name.as_bytes()), case)
}

/// Runs one law under `config`, catching panics as violations.
pub fn run_law(law: &dyn Law, config: &SuiteConfig) -> LawReport {
    let cases = config.cases_override.unwrap_or_else(|| law.cases());
    let start = Instant::now();
    let mut failures = Vec::new();
    for case in 0..cases {
        let mut rng = case_rng(config.seed, law.name(), case);
        let outcome = catch_unwind(AssertUnwindSafe(|| law.check(&mut rng)));
        let failure = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(detail)) => Some(detail),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("law panicked");
                Some(format!("panic: {msg}"))
            }
        };
        if let Some(detail) = failure {
            failures.push(CaseFailure { case, detail });
        }
    }
    LawReport {
        name: law.name(),
        category: law.category(),
        tolerance: law.tolerance(),
        cases_run: cases,
        failures,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// All registered laws, grouped by family.
pub fn registry() -> Vec<Box<dyn Law>> {
    let mut laws = oracles::laws();
    laws.extend(physics::laws());
    laws.extend(metamorphic::laws());
    laws.extend(zoo::laws());
    laws
}

/// Runs every registered law under `config`.
pub fn run_suite(config: &SuiteConfig) -> SuiteReport {
    let laws = registry();
    run_laws(&laws, config)
}

/// Runs the given laws under `config` (the binary uses this for
/// `--law` filtering).
pub fn run_laws(laws: &[Box<dyn Law>], config: &SuiteConfig) -> SuiteReport {
    SuiteReport {
        seed: config.seed,
        laws: laws.iter().map(|l| run_law(l.as_ref(), config)).collect(),
    }
}

/// Shared sampling helpers built on the in-tree `proptest` strategies.
pub(crate) mod gen {
    use proptest::collection;
    use proptest::strategy::Strategy;
    use proptest::TestRng;

    pub fn usize_in(rng: &mut TestRng, lo: usize, hi_incl: usize) -> usize {
        (lo..=hi_incl).sample(rng)
    }

    pub fn f64_in(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        (lo..hi).sample(rng)
    }

    pub fn vec_f32(rng: &mut TestRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        collection::vec(lo..hi, len).sample(rng)
    }

    pub fn vec_f64(rng: &mut TestRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        collection::vec(lo..hi, len).sample(rng)
    }

    /// A uniformly sampled permutation of `0..n` (Fisher–Yates).
    pub fn permutation(rng: &mut TestRng, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (0..=i).sample(rng);
            p.swap(i, j);
        }
        p
    }
}

/// Fixtures shared between laws (training a surrogate is the one
/// expensive setup; do it once per process).
pub(crate) mod fixtures {
    use geniex::dataset::{generate, DatasetConfig};
    use geniex::{Geniex, TrainConfig};
    use std::sync::OnceLock;
    use xbar::CrossbarParams;

    /// A small trained 4x4 surrogate, built once.
    pub fn surrogate() -> &'static Geniex {
        static SURROGATE: OnceLock<Geniex> = OnceLock::new();
        SURROGATE.get_or_init(|| {
            let params = CrossbarParams::builder(4, 4).build().unwrap();
            let data = generate(
                &params,
                &DatasetConfig {
                    samples: 60,
                    seed: 2,
                    ..DatasetConfig::default()
                },
            )
            .unwrap();
            let mut s = Geniex::new(&params, 24, 5).unwrap();
            s.train(
                &data,
                &TrainConfig {
                    epochs: 25,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_meets_coverage_floor() {
        let laws = registry();
        let count = |c: Category| laws.iter().filter(|l| l.category() == c).count();
        assert!(laws.len() >= 26, "only {} laws registered", laws.len());
        assert!(count(Category::Oracle) >= 4);
        assert!(count(Category::Invariant) >= 4);
        assert!(count(Category::Metamorphic) >= 4);
        // Names are unique and follow the family/short_name convention.
        let mut names: Vec<_> = laws.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), laws.len(), "duplicate law names");
        for law in &laws {
            assert!(
                law.name().starts_with(law.category().as_str()),
                "law {} not prefixed with its family",
                law.name()
            );
            assert!(!law.tolerance().is_empty());
        }
    }

    #[test]
    fn full_suite_passes_at_reduced_budget() {
        let report = run_suite(&SuiteConfig {
            seed: 0,
            cases_override: Some(2),
        });
        let failing: Vec<String> = report
            .laws
            .iter()
            .filter(|l| !l.passed())
            .map(|l| format!("{}: {}", l.name, l.failures[0].detail))
            .collect();
        assert!(report.passed(), "violations: {failing:?}");
        assert!(report.repro_line().is_none());
    }

    /// A deliberately broken law: the harness must catch the violation
    /// and reproduce the same failing cases from the same seed.
    struct InjectedViolation;

    impl Law for InjectedViolation {
        fn name(&self) -> &'static str {
            "oracle/injected_violation"
        }
        fn category(&self) -> Category {
            Category::Oracle
        }
        fn tolerance(&self) -> &'static str {
            "always fails on odd draws"
        }
        fn check(&self, rng: &mut TestRng) -> Result<(), String> {
            let draw = rng.next_u64();
            if draw % 2 == 1 {
                Err(format!("odd draw {draw}"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn injected_violation_reproduces_from_seed() {
        let laws: Vec<Box<dyn Law>> = vec![Box::new(InjectedViolation)];
        let config = SuiteConfig {
            seed: 7,
            cases_override: Some(16),
        };
        let first = run_laws(&laws, &config);
        let second = run_laws(&laws, &config);
        assert!(!first.passed(), "injected violation went undetected");
        let cases =
            |r: &SuiteReport| -> Vec<u64> { r.laws[0].failures.iter().map(|f| f.case).collect() };
        assert_eq!(cases(&first), cases(&second), "repro is not deterministic");
        let line = first.repro_line().unwrap();
        assert!(line.contains("GENIEX_CONFORMANCE_SEED=7"));
        assert!(line.contains("--law oracle/injected_violation"));
        // A different seed samples different cases.
        let other = run_laws(
            &laws,
            &SuiteConfig {
                seed: 8,
                cases_override: Some(16),
            },
        );
        assert_ne!(cases(&first), cases(&other));
    }

    #[test]
    fn panics_are_reported_as_failures() {
        struct Panicker;
        impl Law for Panicker {
            fn name(&self) -> &'static str {
                "oracle/panicker"
            }
            fn category(&self) -> Category {
                Category::Oracle
            }
            fn tolerance(&self) -> &'static str {
                "n/a"
            }
            fn check(&self, _rng: &mut TestRng) -> Result<(), String> {
                panic!("boom");
            }
        }
        let report = run_law(
            &Panicker,
            &SuiteConfig {
                seed: 0,
                cases_override: Some(1),
            },
        );
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].detail.contains("boom"));
    }
}
