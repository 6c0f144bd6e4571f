//! Amortized solving: cached Jacobian factorizations keyed by circuit
//! content, shared across tiles and reused across batches of inputs.
//!
//! The functional simulator evaluates many MVMs against the *same*
//! programmed conductance matrix, yet a plain [`CrossbarCircuit::solve`]
//! starts every call from scratch: it runs the one Newton loop from the
//! driven guess, evaluating every cell's current and `dI/dV` (one
//! device evaluation per cross-point per residual) and re-factoring
//! the Thomas chains of the exact Jacobian at every iteration. An
//! amortized solve runs the same loop from state carried across calls,
//! which this module holds:
//!
//! * [`JacobianFactorization`] — the Block-Gauss–Seidel correction
//!   operator every Newton step sweeps against: per-cell differential
//!   conductances plus the forward-eliminated Thomas factors
//!   (`1/denom`, `c'`) of every word-line and bit-line chain. Building
//!   it costs one exact factorization; applying it is multiply-only.
//!   The cached one is frozen at the zero-bias linearization point,
//!   which makes it *input-independent*, so it is keyed purely by
//!   circuit content and safely shared between tiles programmed with
//!   the same matrix.
//! * [`SolverCache`] — the per-tile handle
//!   [`CrossbarCircuit::solve_amortized`] and
//!   [`CrossbarCircuit::solve_batch`] consume: the factorization plus
//!   the previous sample's node voltages, residual and per-cell
//!   `dI/dV` for warm-starting Newton, plus the series cells'
//!   internal-node voltages.
//! * A process-wide registry mapping [`CrossbarCircuit::solver_key`]
//!   (a [`store::Canonical`] content key over the design parameters
//!   and the programmed conductances) to shared
//!   factorizations, so rebuilding a tile for the same programmed
//!   matrix — a clone, a re-tiled layer, a serve worker — reuses the
//!   factorization instead of recomputing it.
//!
//! # Invalidation
//!
//! A `SolverCache` never goes stale silently: every
//! `solve_amortized`/`solve_batch` call re-derives the circuit's
//! content key and compares it to the cached one. On mismatch the cache
//! re-keys — fetches or builds the right factorization and drops the
//! warm-start voltages (they belong to the old operating landscape).
//! Matching keys keep both. The warm start is additionally dropped
//! whenever a solve fails, so a diverged sample cannot poison the next
//! one.
//!
//! [`CrossbarCircuit::solve`]: crate::CrossbarCircuit::solve
//! [`CrossbarCircuit::solve_amortized`]: crate::CrossbarCircuit::solve_amortized
//! [`CrossbarCircuit::solve_batch`]: crate::CrossbarCircuit::solve_batch
//! [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key

use crate::circuit::{metrics, CrossbarCircuit};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The Block-Gauss–Seidel correction operator of a programmed crossbar
/// at one linearization point, fully factorized.
///
/// Holds, for every word-line and bit-line tridiagonal chain, the
/// forward-eliminated Thomas factors: the reciprocal pivots `1/denom_k`
/// and the eliminated super-diagonal `c'_k`. Applying the operator is
/// then two multiply-only sweeps per chain — no divisions, no
/// device-model evaluations. Every Newton correction, cold or
/// amortized, sweeps against one of these.
///
/// The instance a [`SolverCache`] holds is frozen at zero bias, the one
/// linearization point that depends only on the programmed state:
/// `dI/dV(0)` of every calibrated cell equals its programmed
/// small-signal conductance. For linear devices the frozen
/// operator *is* the exact Jacobian; for `sinh`-family devices it is a
/// chord — the outer loop still damps and verifies the true KCL
/// residual, so convergence (not just the iterate) is exact either way
/// (see [`CrossbarCircuit::solve_amortized`]).
///
/// [`CrossbarCircuit::solve_amortized`]: crate::CrossbarCircuit::solve_amortized
#[derive(Debug)]
pub struct JacobianFactorization {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Per-cell differential conductance at the linearization point,
    /// row-major.
    pub(crate) gd: Vec<f64>,
    /// Word-line chains (one per row, `cols` long), row-major: `1/denom`.
    pub(crate) w_inv_denom: Vec<f64>,
    /// Word-line chains: eliminated super-diagonal `c'`.
    pub(crate) w_c_prime: Vec<f64>,
    /// Bit-line chains (one per column, `rows` long), chain-major
    /// (`j * rows + i`): `1/denom`.
    pub(crate) b_inv_denom: Vec<f64>,
    /// Bit-line chains, chain-major: `c'`.
    pub(crate) b_c_prime: Vec<f64>,
}

impl JacobianFactorization {
    /// Crossbar rows the factorization was built for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Crossbar columns the factorization was built for.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Forward-eliminates the symmetric tridiagonal system with diagonal
/// `diag` and constant off-diagonal `off` (Thomas algorithm), storing
/// the reciprocal pivots `1/denom_k` and the eliminated super-diagonal
/// `c'_k` for [`thomas_apply`]. All slices have the chain's length.
pub(crate) fn thomas_factor(diag: &[f64], off: f64, inv_denom: &mut [f64], c_prime: &mut [f64]) {
    let mut denom = diag[0];
    inv_denom[0] = 1.0 / denom;
    c_prime[0] = off / denom;
    for k in 1..diag.len() {
        denom = diag[k] - off * c_prime[k - 1];
        inv_denom[k] = 1.0 / denom;
        c_prime[k] = off / denom;
    }
}

/// Applies a prefactorized symmetric tridiagonal solve: forward
/// substitution with cached reciprocal pivots, then back substitution
/// with the cached eliminated super-diagonal. Multiply-only — the
/// divisions were paid once at factorization time.
#[inline]
pub(crate) fn thomas_apply(
    inv_denom: &[f64],
    c_prime: &[f64],
    off: f64,
    rhs: &[f64],
    sol: &mut [f64],
) {
    let n = rhs.len();
    sol[0] = rhs[0] * inv_denom[0];
    for k in 1..n {
        sol[k] = (rhs[k] - off * sol[k - 1]) * inv_denom[k];
    }
    for k in (0..n.saturating_sub(1)).rev() {
        sol[k] -= c_prime[k] * sol[k + 1];
    }
}

/// Cap on the process-wide factorization registry. Each entry is
/// ~`5 × rows × cols` f64s; 64 entries of 64×64 tiles ≈ 10 MB. When
/// full, new factorizations are still returned to the caller but not
/// retained (no eviction — eviction order would be nondeterministic).
const REGISTRY_CAP: usize = 64;

fn registry() -> &'static Mutex<HashMap<store::Key, Arc<JacobianFactorization>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<store::Key, Arc<JacobianFactorization>>>> =
        OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fetches the factorization for `key` from the registry, building it
/// from `circuit` on a miss.
fn fetch_or_build(key: store::Key, circuit: &CrossbarCircuit) -> Arc<JacobianFactorization> {
    let m = metrics();
    if let Some(hit) = registry()
        .lock()
        .expect("solver cache registry poisoned")
        .get(&key)
        .cloned()
    {
        if telemetry::enabled() {
            m.cache_hits.inc();
        }
        return hit;
    }
    if telemetry::enabled() {
        m.cache_misses.inc();
    }
    let built = Arc::new(circuit.factorize());
    let mut reg = registry().lock().expect("solver cache registry poisoned");
    if reg.len() < REGISTRY_CAP {
        reg.entry(key).or_insert_with(|| built.clone());
    }
    built
}

/// Per-tile amortization state for [`CrossbarCircuit::solve_amortized`]
/// and [`CrossbarCircuit::solve_batch`]: the (possibly shared) frozen
/// Jacobian factorization plus the previous converged node voltages for
/// warm-starting the next sample.
///
/// The cache is self-validating: it remembers the content key
/// ([`CrossbarCircuit::solver_key`]) it was built for and re-keys
/// automatically when handed a circuit with different content — so it
/// is always safe to reuse, just fastest when the circuit actually
/// stays the same.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xbar::XbarError> {
/// use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};
///
/// let params = CrossbarParams::builder(4, 4).build()?;
/// let g = ConductanceMatrix::uniform(4, 4, params.g_on());
/// let circuit = CrossbarCircuit::new(&params, &g)?;
/// let mut cache = SolverCache::for_circuit(&circuit);
///
/// let v = vec![params.v_supply; 4];
/// let cold = circuit.solve(&v)?;
/// let amortized = circuit.solve_amortized(&v, &mut cache)?;
/// for (a, b) in amortized.currents.iter().zip(&cold.currents) {
///     assert!((a - b).abs() <= 1e-6 * b.abs() + 1e-10);
/// }
/// // A second solve of the same input warm-starts from the converged
/// // point: zero Newton iterations, bit-identical currents.
/// let again = circuit.solve_amortized(&v, &mut cache)?;
/// assert_eq!(again.newton_iterations, 0);
/// assert_eq!(again.currents, amortized.currents);
/// # Ok(())
/// # }
/// ```
///
/// [`CrossbarCircuit::solve_amortized`]: crate::CrossbarCircuit::solve_amortized
/// [`CrossbarCircuit::solve_batch`]: crate::CrossbarCircuit::solve_batch
/// [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key
#[derive(Debug, Clone)]
pub struct SolverCache {
    key: store::Key,
    factorization: Arc<JacobianFactorization>,
    warm: Option<WarmState>,
    /// Per-cell internal-node voltages (series 1T1R cells), row-major,
    /// NaN = no guess yet. A pure performance hint for the per-cell
    /// scalar Newton: the converged internal voltage never depends on
    /// its starting guess, so this carries across samples — and even
    /// across re-keys it would merely be a bad guess, but it is cleared
    /// with the warm start for symmetry.
    internal: Vec<f64>,
}

/// The previous converged operating point and its linearization,
/// carried between amortized solves by [`SolverCache`]: everything
/// needed to restart Newton at `x` under *new* inputs without
/// re-evaluating a single device model. The inputs enter the KCL system
/// only through the driver source terms, so the stored residual is
/// updated to the new inputs in O(rows).
#[derive(Debug, Clone)]
pub(crate) struct WarmState {
    /// Converged node voltages — the next solve's Newton seed.
    pub(crate) x: Vec<f64>,
    /// The inputs the residual was evaluated under.
    pub(crate) v: Vec<f64>,
    /// KCL residual `F(x; v)` at the converged point.
    pub(crate) residual: Vec<f64>,
    /// Per-cell differential conductances at the converged point.
    pub(crate) gd: Vec<f64>,
    /// How many consecutive O(rows) driver-term adjustments this
    /// residual has absorbed without a full re-evaluation. Each
    /// adjustment adds one rounding at the driver nodes; solves that
    /// iterate re-evaluate the residual and reset the count, and the
    /// consumer forces a fresh evaluation past a small cap so the
    /// drift stays orders of magnitude below the solve tolerance.
    pub(crate) adjustments: u32,
}

impl SolverCache {
    /// Builds (or fetches from the process-wide registry) the
    /// factorization for `circuit` and returns a cache with no
    /// warm-start state.
    pub fn for_circuit(circuit: &CrossbarCircuit) -> Self {
        let key = circuit.solver_key();
        SolverCache {
            key,
            factorization: fetch_or_build(key, circuit),
            warm: None,
            internal: Vec::new(),
        }
    }

    /// The content key ([`CrossbarCircuit::solver_key`]) the cached
    /// factorization belongs to.
    ///
    /// [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key
    pub fn key(&self) -> store::Key {
        self.key
    }

    /// The cached frozen-Jacobian factorization.
    pub fn factorization(&self) -> &Arc<JacobianFactorization> {
        &self.factorization
    }

    /// The node voltages the next solve will warm-start from, if any.
    pub fn warm_start(&self) -> Option<&[f64]> {
        self.warm.as_ref().map(|w| w.x.as_slice())
    }

    /// Re-keys the cache if `circuit`'s content no longer matches,
    /// dropping the warm start in that case (it described a different
    /// circuit's operating point).
    pub(crate) fn ensure(&mut self, circuit: &CrossbarCircuit) {
        let key = circuit.solver_key();
        if key != self.key {
            if telemetry::enabled() {
                metrics().cache_rekeys.inc();
            }
            *self = SolverCache::for_circuit(circuit);
        }
    }

    pub(crate) fn set_warm(&mut self, warm: WarmState) {
        self.warm = Some(warm);
    }

    /// Takes the warm state out of the cache: the solve in flight owns
    /// it, and only a *successful* solve puts its converged state back
    /// — the failure-drops-warm-start rule.
    pub(crate) fn take_warm(&mut self) -> Option<WarmState> {
        self.warm.take()
    }

    /// Takes the per-cell internal-node voltages for a solve over
    /// `half = rows * cols` cells, handing out a fresh NaN-filled
    /// ("no guess") vector when none of the right shape is cached.
    pub(crate) fn take_internal(&mut self, half: usize) -> Vec<f64> {
        if self.internal.len() == half {
            std::mem::take(&mut self.internal)
        } else {
            vec![f64::NAN; half]
        }
    }

    pub(crate) fn set_internal(&mut self, u: Vec<f64>) {
        self.internal = u;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConductanceMatrix, CrossbarParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn circuit(seed: u64) -> CrossbarCircuit {
        let p = CrossbarParams::builder(5, 4).build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        CrossbarCircuit::new(&p, &g).unwrap()
    }

    #[test]
    fn solver_key_is_content_derived() {
        // Same content, different instances: same key. Different
        // conductances: different keys.
        let a = circuit(1);
        let b = circuit(1);
        let c = circuit(2);
        assert_eq!(a.solver_key(), b.solver_key());
        assert_ne!(a.solver_key(), c.solver_key());
    }

    #[test]
    fn registry_shares_factorizations_across_instances() {
        let a = circuit(7);
        let b = circuit(7);
        let cache_a = SolverCache::for_circuit(&a);
        let cache_b = SolverCache::for_circuit(&b);
        assert!(Arc::ptr_eq(
            cache_a.factorization(),
            cache_b.factorization()
        ));
    }

    #[test]
    fn rekey_on_circuit_change_drops_warm_start() {
        let a = circuit(3);
        let b = circuit(4);
        let mut cache = SolverCache::for_circuit(&a);
        let v = vec![0.2; 5];
        a.solve_amortized(&v, &mut cache).unwrap();
        assert!(cache.warm_start().is_some());
        // Handing the cache a different circuit re-keys and clears the
        // warm start before solving.
        let report = b.solve_amortized(&v, &mut cache).unwrap();
        assert!(!report.warm_start);
        assert_eq!(cache.key(), b.solver_key());
    }

    #[test]
    fn factorization_shape_accessors() {
        let a = circuit(9);
        let cache = SolverCache::for_circuit(&a);
        assert_eq!(cache.factorization().rows(), 5);
        assert_eq!(cache.factorization().cols(), 4);
    }
}
