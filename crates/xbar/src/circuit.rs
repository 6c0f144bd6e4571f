//! Nonlinear DC operating-point solver for the parasitic crossbar.
//!
//! # Circuit topology
//!
//! Each cell `(i, j)` contributes two nodes: a word-line segment node
//! `w(i,j)` and a bit-line segment node `b(i,j)`. Branches:
//!
//! ```text
//! V_i --Rsource-- w(i,0) --Rwire-- w(i,1) --Rwire-- ... w(i,C-1)
//!                    |                |                    |
//!                  cell             cell                 cell        (1T1R)
//!                    |                |                    |
//! b(0,j) --Rwire-- b(1,j) -- ... -- b(R-1,j) --Rsink-- GND (virtual)
//! ```
//!
//! The sensed output of column `j` is the current through its sink
//! resistor.
//!
//! # Numerics
//!
//! Damped Newton–Raphson on the KCL residual, run by one driver for
//! cold and amortized solves alike. One residual routine evaluates each
//! cell's current and `dI/dV` together, so every accepted iterate comes
//! with its exact Jacobian. Every Newton correction `J·dx = F` is
//! solved by one routine: block Gauss–Seidel over a
//! [`JacobianFactorization`]. Word lines only couple horizontally and
//! bit lines only vertically, so each half-system is a set of
//! independent tridiagonal chains; the factorization holds their Thomas
//! factors with reciprocal pivots, built once per linearization point,
//! and every sweep is multiply-only.

use crate::cache::{thomas_apply, thomas_factor, JacobianFactorization, SolverCache, WarmState};
use crate::conductance::ConductanceMatrix;
use crate::device::{
    AccessDevice, DeviceModel, FilamentaryRram, LinearMemristor, SeriesCell, SeriesLinearCell,
};
use crate::params::CrossbarParams;
use crate::XbarError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide tile id source: every programmed [`CrossbarCircuit`]
/// gets a distinct id so trace events from concurrent tile solves can
/// be told apart (clones keep the id — they model the same tile).
static NEXT_TILE_ID: AtomicU64 = AtomicU64::new(1);

/// Telemetry handles resolved once so the per-solve cost is a handful
/// of relaxed atomic ops (and just the enabled-flag load when off).
pub(crate) struct CircuitMetrics {
    solves: Arc<telemetry::Counter>,
    solve_time: Arc<telemetry::Timer>,
    newton_iterations: Arc<telemetry::Histogram>,
    dampings: Arc<telemetry::Histogram>,
    warm_starts: Arc<telemetry::Counter>,
    cold_starts: Arc<telemetry::Counter>,
    bgs_sweeps: Arc<telemetry::Histogram>,
    amortized_solves: Arc<telemetry::Counter>,
    amortized_fallbacks: Arc<telemetry::Counter>,
    pub(crate) cache_hits: Arc<telemetry::Counter>,
    pub(crate) cache_misses: Arc<telemetry::Counter>,
    pub(crate) cache_rekeys: Arc<telemetry::Counter>,
}

pub(crate) fn metrics() -> &'static CircuitMetrics {
    static METRICS: OnceLock<CircuitMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CircuitMetrics {
        solves: telemetry::counter("xbar.solves"),
        solve_time: telemetry::timer("xbar.solve_seconds"),
        newton_iterations: telemetry::histogram(
            "xbar.newton_iterations",
            &telemetry::linear_buckets(0.0, 1.0, 16),
        ),
        dampings: telemetry::histogram(
            "xbar.newton_dampings",
            &telemetry::linear_buckets(0.0, 1.0, 8),
        ),
        warm_starts: telemetry::counter("xbar.warm_starts"),
        cold_starts: telemetry::counter("xbar.cold_starts"),
        bgs_sweeps: telemetry::histogram(
            "xbar.bgs.sweeps",
            &telemetry::exponential_buckets(1.0, 2.0, 10),
        ),
        amortized_solves: telemetry::counter("xbar.amortized.solves"),
        amortized_fallbacks: telemetry::counter("xbar.amortized.fallbacks"),
        cache_hits: telemetry::counter("xbar.cache.hits"),
        cache_misses: telemetry::counter("xbar.cache.misses"),
        cache_rekeys: telemetry::counter("xbar.cache.rekeys"),
    })
}

/// Absolute KCL residual tolerance in amperes (infinity norm). The
/// enforced tolerance is this value floored by the f64 cancellation
/// noise of the circuit at hand — see
/// [`CrossbarCircuit::effective_tolerance`].
const ABS_TOLERANCE: f64 = 1e-13;
/// Maximum Newton iterations per run of the Newton driver.
const MAX_ITERATIONS: usize = 60;
/// Maximum step-halving attempts per Newton iteration.
const MAX_DAMPINGS: usize = 30;

/// Result of a crossbar operating-point solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Sensed bit-line currents, one per column (amperes).
    pub currents: Vec<f64>,
    /// All node voltages (word-line nodes first, then bit-line nodes).
    pub node_voltages: Vec<f64>,
    /// Newton iterations performed.
    pub newton_iterations: usize,
    /// Final KCL residual (infinity norm, amperes).
    pub residual_norm: f64,
    /// Total Newton step-halvings across all iterations.
    pub dampings: usize,
    /// Whether the solve was seeded from a previous operating point.
    pub warm_start: bool,
    /// Block Gauss–Seidel sweeps summed over the solve's Newton
    /// corrections (0 when no correction ran).
    pub bgs_sweeps: usize,
}

/// Where one run of the Newton driver ([`CrossbarCircuit::newton`])
/// starts, and what it carries between residual evaluations — the only
/// things that differ between a cold and an amortized solve.
#[derive(Default)]
struct NewtonStart<'a> {
    /// Initial node voltages: the driven guess, or a previous
    /// converged sample's operating point.
    x: Vec<f64>,
    /// Operator for the first correction: the cached frozen
    /// factorization (a chord step), or `None` for the exact Jacobian.
    first_operator: Option<&'a JacobianFactorization>,
    /// KCL residual and per-cell `dI/dV` at `x` when transferred from
    /// the previous sample; `None` evaluates them.
    linearization: Option<(Vec<f64>, Vec<f64>)>,
    /// Series cells' internal-node voltages carried between
    /// evaluations; `None` restarts every evaluation from the
    /// linear-divider estimate, so results depend on `(v, x)` only.
    internal: Option<&'a mut [f64]>,
}

impl NewtonStart<'_> {
    /// Exact Newton from `x`: exact first correction, evaluated
    /// residual, no carried internal state.
    fn exact(x: Vec<f64>) -> Self {
        NewtonStart {
            x,
            ..Default::default()
        }
    }
}

/// A converged Newton run: the operating point, its linearization, and
/// the effort spent.
struct NewtonRun {
    x: Vec<f64>,
    residual: Vec<f64>,
    gd: Vec<f64>,
    residual_norm: f64,
    iterations: usize,
    dampings: usize,
    bgs_sweeps: usize,
}

impl NewtonRun {
    fn into_report(self, circuit: &CrossbarCircuit, warm_start: bool) -> SolveReport {
        let (rows, cols) = (circuit.rows(), circuit.cols());
        let g_sink = 1.0 / circuit.params.r_sink;
        let currents = (0..cols)
            .map(|j| g_sink * self.x[circuit.b_idx(rows - 1, j)])
            .collect();
        SolveReport {
            currents,
            node_voltages: self.x,
            newton_iterations: self.iterations,
            residual_norm: self.residual_norm,
            dampings: self.dampings,
            warm_start,
            bgs_sweeps: self.bgs_sweeps,
        }
    }
}

/// A Newton run that stopped short of tolerance: why, and the best
/// iterate it reached (damped acceptance only ever lowers the
/// residual, so it is never worse than the start).
struct Stalled {
    error: XbarError,
    x: Vec<f64>,
}

/// The per-junction device, selected by [`crate::NonIdealityConfig`].
#[derive(Debug, Clone, Copy)]
enum Cell {
    Linear(LinearMemristor),
    Rram(FilamentaryRram),
    RramWithAccess(SeriesCell),
    LinearWithAccess(SeriesLinearCell),
}

impl Cell {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        match self {
            Cell::Linear(d) => d.current(v),
            Cell::Rram(d) => d.current(v),
            Cell::RramWithAccess(d) => d.current(v),
            Cell::LinearWithAccess(d) => d.current(v),
        }
    }

    /// Current and differential conductance from one device evaluation.
    /// Series cells start their internal-node solve from `u` (`None` or
    /// NaN = the linear-divider estimate) and write the converged
    /// voltage back; two-terminal cells have no internal node and
    /// ignore `u`. See `device::SeriesPair::current_and_didv_warm`.
    #[inline]
    fn current_and_didv(&self, v: f64, u: Option<&mut f64>) -> (f64, f64) {
        let mut fresh = f64::NAN;
        let u = u.unwrap_or(&mut fresh);
        match self {
            Cell::Linear(d) => d.current_and_didv(v),
            Cell::Rram(d) => d.current_and_didv(v),
            Cell::RramWithAccess(d) => d.current_and_didv_warm(v, u),
            Cell::LinearWithAccess(d) => d.current_and_didv_warm(v, u),
        }
    }
}

/// A programmed, non-ideal crossbar ready to solve MVM operating points.
///
/// Construction captures the conductance state `G`; [`solve`] evaluates
/// `I_non_ideal(V)` for input voltage vectors. This mirrors real
/// hardware: devices are programmed once, then many input vectors are
/// applied.
///
/// [`solve`]: CrossbarCircuit::solve
#[derive(Debug, Clone)]
pub struct CrossbarCircuit {
    params: CrossbarParams,
    cells: Vec<Cell>,
    /// The programmed conductances, retained verbatim for content
    /// keying ([`Self::solver_key`]) — `cells` holds the compensated
    /// device state, not the programmed values.
    g_values: Vec<f64>,
    /// Process-unique tile id keying this circuit's trace events.
    tile_id: u64,
}

impl CrossbarCircuit {
    /// Programs a crossbar with conductance state `g`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Shape`] if `g` does not match the
    /// dimensions in `params`.
    pub fn new(params: &CrossbarParams, g: &ConductanceMatrix) -> Result<Self, XbarError> {
        if g.rows() != params.rows || g.cols() != params.cols {
            return Err(XbarError::Shape(format!(
                "conductance matrix is {}x{} but crossbar is {}x{}",
                g.rows(),
                g.cols(),
                params.rows,
                params.cols
            )));
        }
        let cfg = params.nonideality;
        let dev = &params.device;
        // Programming is closed-loop in real arrays: a cell "programmed
        // to G" reads G *through* its access device at small signal.
        // When the access device is modelled, the memristor itself is
        // therefore programmed to the compensated conductance
        // g_m = G·g_acc / (g_acc - G), so the series small-signal
        // conductance equals G and the access device contributes only
        // its *nonlinearity* (plus large-signal compression).
        let compensate = |gij: f64| -> Result<f64, XbarError> {
            if gij >= dev.access_g {
                return Err(XbarError::InvalidParameter(format!(
                    "programmed conductance {gij} S is not reachable through \
                     an access device of {} S",
                    dev.access_g
                )));
            }
            Ok(gij * dev.access_g / (dev.access_g - gij))
        };
        let cells = g
            .as_slice()
            .iter()
            .map(|&gij| {
                Ok(match (cfg.device_nonlinearity, cfg.access_device) {
                    (false, false) => Cell::Linear(LinearMemristor::new(gij)),
                    (true, false) => Cell::Rram(FilamentaryRram::from_conductance(gij, dev)),
                    (true, true) => Cell::RramWithAccess(SeriesCell::new(
                        AccessDevice::new(dev.access_g, dev.access_v_sat),
                        FilamentaryRram::from_conductance(compensate(gij)?, dev),
                    )),
                    (false, true) => Cell::LinearWithAccess(SeriesLinearCell::new(
                        AccessDevice::new(dev.access_g, dev.access_v_sat),
                        LinearMemristor::new(compensate(gij)?),
                    )),
                })
            })
            .collect::<Result<Vec<_>, XbarError>>()?;
        Ok(CrossbarCircuit {
            params: params.clone(),
            cells,
            g_values: g.as_slice().to_vec(),
            tile_id: NEXT_TILE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Content key identifying everything the solver's cached state
    /// depends on: the design parameters (including device model and
    /// non-ideality configuration) and the programmed conductance
    /// matrix.
    ///
    /// Two circuits with equal keys are interchangeable for solving —
    /// [`SolverCache`]s key their factorizations and warm starts by
    /// this value, and the process-wide factorization registry shares
    /// entries across instances with matching keys. The `tile_id` is
    /// deliberately excluded: it identifies the *instance* for tracing,
    /// not the content.
    pub fn solver_key(&self) -> store::Key {
        let mut key = store::KeyBuilder::new(*b"solv");
        key.nested("params", &self.params)
            .f64_slice("g", &self.g_values);
        key.finish()
    }

    /// The design parameters this circuit was built with.
    pub fn params(&self) -> &CrossbarParams {
        &self.params
    }

    /// Process-unique id of this programmed tile; trace events from
    /// this circuit's solves carry it as the `tile` attribute.
    pub fn tile_id(&self) -> u64 {
        self.tile_id
    }

    #[inline]
    fn rows(&self) -> usize {
        self.params.rows
    }

    #[inline]
    fn cols(&self) -> usize {
        self.params.cols
    }

    #[inline]
    fn w_idx(&self, i: usize, j: usize) -> usize {
        i * self.cols() + j
    }

    #[inline]
    fn b_idx(&self, i: usize, j: usize) -> usize {
        self.rows() * self.cols() + i * self.cols() + j
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Cell {
        &self.cells[i * self.cols() + j]
    }

    /// Solves the DC operating point for input voltages `v`: exact
    /// damped Newton from the driven guess (word lines at their input
    /// voltage, bit lines at virtual ground).
    ///
    /// # Errors
    ///
    /// * [`XbarError::Shape`] if `v.len() != rows`.
    /// * [`XbarError::OutOfRange`] if `v` contains non-finite entries.
    /// * [`XbarError::NewtonDiverged`] if the Newton iteration fails
    ///   to reach tolerance.
    pub fn solve(&self, v: &[f64]) -> Result<SolveReport, XbarError> {
        self.check_inputs(v)?;
        let t_start = telemetry::enabled().then(Instant::now);
        let _trace = self.trace_solve("xbar.solve", false);
        let report = if self.params.nonideality.parasitics {
            self.newton(v, NewtonStart::exact(self.driven_guess(v)))
                .map_err(|stalled| stalled.error)?
                .into_report(self, false)
        } else {
            self.solve_without_parasitics(v)
        };
        self.record_solve(t_start, false, &report);
        Ok(report)
    }

    fn check_inputs(&self, v: &[f64]) -> Result<(), XbarError> {
        let rows = self.rows();
        if v.len() != rows {
            return Err(XbarError::Shape(format!(
                "{} input voltages for {rows} word lines",
                v.len()
            )));
        }
        if !v.iter().all(|x| x.is_finite()) {
            return Err(XbarError::OutOfRange("input voltage is non-finite".into()));
        }
        Ok(())
    }

    /// Opens the solve's trace span when tracing is on. A raw trace
    /// scope (not `telemetry::span`): solves run millions of times, so
    /// the per-solve path must not allocate span paths or register
    /// timers. The RAII guard also closes the span on every error
    /// return.
    fn trace_solve(&self, name: &str, warm: bool) -> Option<telemetry::TraceScope> {
        telemetry::trace_active().then(|| {
            telemetry::trace_scope(
                name,
                vec![
                    ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                    ("rows".to_string(), telemetry::Json::from(self.rows())),
                    ("cols".to_string(), telemetry::Json::from(self.cols())),
                    ("warm".to_string(), telemetry::Json::Bool(warm)),
                ],
            )
        })
    }

    /// Records a successful solve in the `xbar.*` metrics.
    fn record_solve(&self, t_start: Option<Instant>, amortized: bool, report: &SolveReport) {
        let Some(t) = t_start else { return };
        let m = metrics();
        m.solves.inc();
        if amortized {
            m.amortized_solves.inc();
        }
        m.solve_time.record(t.elapsed());
        m.newton_iterations.observe(report.newton_iterations as f64);
        if self.params.nonideality.parasitics {
            m.dampings.observe(report.dampings as f64);
            if report.warm_start {
                m.warm_starts.inc();
            } else {
                m.cold_starts.inc();
            }
        }
    }

    /// Node voltages with every word line at its driven input voltage
    /// and every bit line at virtual ground: the cold Newton start, and
    /// the exact operating point when parasitics are disabled.
    fn driven_guess(&self, v: &[f64]) -> Vec<f64> {
        let (rows, cols) = (self.rows(), self.cols());
        let mut x = vec![0.0; 2 * rows * cols];
        for (line, &vi) in x[..rows * cols].chunks_exact_mut(cols).zip(v) {
            line.fill(vi);
        }
        x
    }

    /// The one damped Newton loop behind every solve.
    ///
    /// Each iteration solves the correction `J·dx = F` by
    /// [`bgs_correction`](Self::bgs_correction), then halves the step
    /// until the true KCL residual shrinks; the run converges when the
    /// residual is within [`effective_tolerance`](Self::effective_tolerance).
    /// Every correction but a chord-started first one uses the exact
    /// Jacobian, factored from the `dI/dV` byproduct of the residual
    /// evaluation that accepted the current iterate. `start` says
    /// everything that differs between the cold and amortized paths.
    ///
    /// # Errors
    ///
    /// A [`Stalled`] run carrying [`XbarError::Numerical`] (the sweeps
    /// failed to contract) or [`XbarError::NewtonDiverged`] (no damped
    /// step lowered the residual, or the iteration cap was reached),
    /// plus the best iterate reached.
    fn newton(&self, v: &[f64], start: NewtonStart<'_>) -> Result<NewtonRun, Stalled> {
        let NewtonStart {
            mut x,
            first_operator,
            linearization,
            mut internal,
        } = start;
        let n = x.len();
        let (mut residual, mut gd) = linearization.unwrap_or_else(|| {
            let (mut residual, mut gd) = (vec![0.0; n], vec![0.0; n / 2]);
            self.kcl_residual(v, &x, &mut residual, &mut gd, internal.as_deref_mut());
            (residual, gd)
        });
        let mut res_norm = linalg::vec_ops::norm_inf(&residual);
        let tolerance = self.effective_tolerance(v);
        let tracing = telemetry::trace_active();

        let (mut trial, mut trial_res, mut trial_gd) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n / 2]);
        let mut iterations = 0;
        let mut dampings = 0usize;
        let mut bgs_sweeps = 0usize;
        while res_norm > tolerance && iterations < MAX_ITERATIONS {
            let correction = match first_operator.filter(|_| iterations == 0) {
                Some(frozen) => self.bgs_correction(frozen, &residual),
                None => self.bgs_correction(&self.factorize_at(gd.clone()), &residual),
            };
            let dx = match correction {
                Ok((dx, sweeps)) => {
                    bgs_sweeps += sweeps;
                    dx
                }
                Err(error) => return Err(Stalled { error, x }),
            };
            // Damped update: halve the step until the residual shrinks.
            let mut scale = 1.0;
            let mut accepted = false;
            for _ in 0..=MAX_DAMPINGS {
                for k in 0..n {
                    trial[k] = x[k] - scale * dx[k];
                }
                self.kcl_residual(
                    v,
                    &trial,
                    &mut trial_res,
                    &mut trial_gd,
                    internal.as_deref_mut(),
                );
                let trial_norm = linalg::vec_ops::norm_inf(&trial_res);
                if trial_norm < res_norm || trial_norm <= tolerance {
                    std::mem::swap(&mut x, &mut trial);
                    std::mem::swap(&mut residual, &mut trial_res);
                    std::mem::swap(&mut gd, &mut trial_gd);
                    res_norm = trial_norm;
                    accepted = true;
                    break;
                }
                scale *= 0.5;
                dampings += 1;
            }
            if !accepted {
                // No damped step lowers the residual: diverged.
                break;
            }
            iterations += 1;
            if tracing {
                // Per-iteration convergence trace: residual vs. iter,
                // keyed by tile, visible as instants under the solve
                // span.
                telemetry::trace_instant(
                    "xbar.newton_iter",
                    vec![
                        ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                        ("iter".to_string(), telemetry::Json::from(iterations)),
                        ("residual".to_string(), telemetry::Json::Num(res_norm)),
                    ],
                );
            }
        }

        if res_norm > tolerance {
            let error = XbarError::NewtonDiverged {
                iterations,
                residual_norm: res_norm,
            };
            return Err(Stalled { error, x });
        }
        Ok(NewtonRun {
            x,
            residual,
            gd,
            residual_norm: res_norm,
            iterations,
            dampings,
            bgs_sweeps,
        })
    }

    /// Fast path when parasitics are disabled: every cell sees exactly
    /// its row's input voltage, so columns decouple.
    fn solve_without_parasitics(&self, v: &[f64]) -> SolveReport {
        let (rows, cols) = (self.rows(), self.cols());
        let mut currents = vec![0.0; cols];
        for i in 0..rows {
            for j in 0..cols {
                currents[j] += self.cell(i, j).current(v[i]);
            }
        }
        SolveReport {
            currents,
            node_voltages: self.driven_guess(v),
            newton_iterations: 0,
            residual_norm: 0.0,
            dampings: 0,
            warm_start: false,
            bgs_sweeps: 0,
        }
    }

    /// The KCL residual tolerance (amperes, infinity norm) the Newton
    /// loop enforces for inputs `v`.
    ///
    /// The residual is a sum of branch currents of magnitude up to
    /// `g_max * v_max`, so f64 cancellation leaves a noise floor
    /// proportional to that scale; convergence is never demanded below
    /// it. Exposed so external checkers (the conformance suite) can
    /// hold a [`SolveReport`] to exactly the bound the solver promised.
    pub fn effective_tolerance(&self, v: &[f64]) -> f64 {
        let g_max = (1.0 / self.params.r_wire)
            .max(1.0 / self.params.r_source)
            .max(1.0 / self.params.r_sink);
        let v_max = v.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-6);
        ABS_TOLERANCE.max(64.0 * f64::EPSILON * g_max * v_max)
    }

    /// Recomputes the infinity-norm KCL residual of candidate node
    /// voltages `x` (layout as in [`SolveReport::node_voltages`]) under
    /// inputs `v`, independently of any solver bookkeeping.
    ///
    /// A converged [`SolveReport`] must satisfy
    /// `verify_kcl(v, &report.node_voltages) <= effective_tolerance(v)`.
    ///
    /// # Errors
    ///
    /// [`XbarError::Shape`] if `v.len() != rows` or
    /// `x.len() != 2 * rows * cols`.
    pub fn verify_kcl(&self, v: &[f64], x: &[f64]) -> Result<f64, XbarError> {
        self.check_operating_point(v, x)?;
        if !self.params.nonideality.parasitics {
            // No parasitic network: the operating point is closed-form
            // and the residual notion is vacuous.
            return Ok(0.0);
        }
        let (residual, _) = self.kcl_linearization(v, x)?;
        Ok(linalg::vec_ops::norm_inf(&residual))
    }

    /// The parasitic network's linearization at candidate node voltages
    /// `x` (layout as in [`SolveReport::node_voltages`]) under inputs
    /// `v`: the KCL residual `F(x)` (net current leaving each node) and
    /// every cell's differential conductance `dI/dV`, row-major.
    ///
    /// Together with the line resistances in [`Self::params`] this is
    /// the whole Newton system, so an independent solver can run its
    /// own iteration against the same physics — the conformance suite's
    /// dense-LU reference does exactly that.
    ///
    /// # Errors
    ///
    /// [`XbarError::Shape`] if `v.len() != rows` or
    /// `x.len() != 2 * rows * cols`.
    pub fn kcl_linearization(
        &self,
        v: &[f64],
        x: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), XbarError> {
        self.check_operating_point(v, x)?;
        let (mut residual, mut gd) = (vec![0.0; x.len()], vec![0.0; x.len() / 2]);
        self.kcl_residual(v, x, &mut residual, &mut gd, None);
        Ok((residual, gd))
    }

    fn check_operating_point(&self, v: &[f64], x: &[f64]) -> Result<(), XbarError> {
        let (rows, cols) = (self.rows(), self.cols());
        if v.len() != rows {
            return Err(XbarError::Shape(format!(
                "{} input voltages for {rows} word lines",
                v.len()
            )));
        }
        let n = 2 * rows * cols;
        if x.len() != n {
            return Err(XbarError::Shape(format!(
                "{} node voltages for {n} nodes",
                x.len()
            )));
        }
        Ok(())
    }

    /// KCL residual `F(x)` — the net current leaving each node — into
    /// `out`, and every cell's differential conductance `dI/dV` at `x`
    /// into `gd` (row-major). The conductance is a byproduct of the
    /// same device evaluation that produced the cell's current, so a
    /// Newton step gets its exact Jacobian without a second per-cell
    /// solve.
    ///
    /// `u` carries the series cells' internal-node voltages from one
    /// evaluation into the next (row-major, NaN = no guess), so each
    /// per-cell scalar Newton converges in 1–2 iterations across the
    /// amortized path's repeated evaluations and across consecutive
    /// batch samples. `None` starts every cell from its linear-divider
    /// estimate, which makes the result a pure function of `(v, x)`.
    /// The two agree to the device solver's tolerance.
    fn kcl_residual(
        &self,
        v: &[f64],
        x: &[f64],
        out: &mut [f64],
        gd: &mut [f64],
        mut u: Option<&mut [f64]>,
    ) {
        let (rows, cols) = (self.rows(), self.cols());
        let g_src = 1.0 / self.params.r_source;
        let g_snk = 1.0 / self.params.r_sink;
        let g_w = 1.0 / self.params.r_wire;
        out.fill(0.0);

        for i in 0..rows {
            // Source into the first word-line segment.
            let w0 = self.w_idx(i, 0);
            out[w0] += g_src * (x[w0] - v[i]);
            // Word-line wire segments.
            for j in 0..cols.saturating_sub(1) {
                let a = self.w_idx(i, j);
                let b = self.w_idx(i, j + 1);
                let iw = g_w * (x[a] - x[b]);
                out[a] += iw;
                out[b] -= iw;
            }
        }
        for j in 0..cols {
            // Bit-line wire segments.
            for i in 0..rows.saturating_sub(1) {
                let a = self.b_idx(i, j);
                let b = self.b_idx(i + 1, j);
                let iw = g_w * (x[a] - x[b]);
                out[a] += iw;
                out[b] -= iw;
            }
            // Sink from the last bit-line segment to virtual ground.
            let bl = self.b_idx(rows - 1, j);
            out[bl] += g_snk * x[bl];
        }
        // Cross-point devices.
        for i in 0..rows {
            for j in 0..cols {
                let wn = self.w_idx(i, j);
                let bn = self.b_idx(i, j);
                let k = i * cols + j;
                let uk = u.as_deref_mut().map(|u| &mut u[k]);
                let (idev, g) = self.cell(i, j).current_and_didv(x[wn] - x[bn], uk);
                out[wn] += idev;
                out[bn] -= idev;
                gd[k] = g;
            }
        }
    }

    /// Builds the frozen correction operator at zero bias: `dI/dV(0)`
    /// of a calibrated cell is its programmed small-signal conductance,
    /// independent of inputs. Called through
    /// [`SolverCache::for_circuit`] and the process-wide registry; not
    /// per solve.
    pub(crate) fn factorize(&self) -> JacobianFactorization {
        let at_zero = |cell: &Cell| cell.current_and_didv(0.0, None).1;
        self.factorize_at(self.cells.iter().map(at_zero).collect())
    }

    /// Builds the correction operator at the linearization point whose
    /// per-cell differential conductances are `gd` (row-major): the
    /// Thomas factors of every word-line and bit-line chain of the
    /// Jacobian's block form (see [`Self::bgs_correction`]).
    fn factorize_at(&self, gd: Vec<f64>) -> JacobianFactorization {
        let (rows, cols) = (self.rows(), self.cols());
        let half = rows * cols;
        let g_src = 1.0 / self.params.r_source;
        let g_snk = 1.0 / self.params.r_sink;
        let g_w = 1.0 / self.params.r_wire;
        let off = -g_w;
        let mut diag = vec![0.0; cols.max(rows)];

        // Word-line chains (off-diagonals all -g_w), row-major.
        let mut w_inv_denom = vec![0.0; half];
        let mut w_c_prime = vec![0.0; half];
        for i in 0..rows {
            let base = i * cols;
            for j in 0..cols {
                let mut d = gd[base + j];
                if j == 0 {
                    d += g_src;
                }
                if j > 0 {
                    d += g_w;
                }
                if j + 1 < cols {
                    d += g_w;
                }
                diag[j] = d;
            }
            thomas_factor(
                &diag[..cols],
                off,
                &mut w_inv_denom[base..base + cols],
                &mut w_c_prime[base..base + cols],
            );
        }
        // Bit-line chains run down a column, so their factors are
        // stored chain-major (`j * rows + i`) for contiguous access.
        let mut b_inv_denom = vec![0.0; half];
        let mut b_c_prime = vec![0.0; half];
        for j in 0..cols {
            let base = j * rows;
            for i in 0..rows {
                let mut d = gd[i * cols + j];
                if i == rows - 1 {
                    d += g_snk;
                }
                if i > 0 {
                    d += g_w;
                }
                if i + 1 < rows {
                    d += g_w;
                }
                diag[i] = d;
            }
            thomas_factor(
                &diag[..rows],
                off,
                &mut b_inv_denom[base..base + rows],
                &mut b_c_prime[base..base + rows],
            );
        }

        JacobianFactorization {
            rows,
            cols,
            gd,
            w_inv_denom,
            w_c_prime,
            b_inv_denom,
            b_c_prime,
        }
    }

    /// Solves the Newton correction system `J·dx = f` by block
    /// Gauss–Seidel over `fact`, returning `dx` and the sweeps used.
    ///
    /// The Jacobian has the 2x2 block form `[A, -D; -D, B]` where `D`
    /// is the diagonal of cell conductances, `A` decomposes into one
    /// independent tridiagonal chain per word line and `B` into one per
    /// bit line. Each half-solve is exact (prefactored Thomas, multiply
    /// only); the iteration `w <- A^{-1}(f_w + D b)`,
    /// `b <- B^{-1}(f_b + D w)` contracts because `A ⪰ D` and `B ⪰ D`
    /// in the PSD order.
    fn bgs_correction(
        &self,
        fact: &JacobianFactorization,
        f: &[f64],
    ) -> Result<(Vec<f64>, usize), XbarError> {
        let (rows, cols) = (self.rows(), self.cols());
        let half = rows * cols;
        let off = -1.0 / self.params.r_wire;
        let gd = &fact.gd;

        let mut dx = vec![0.0; 2 * half];
        let (dw, db) = dx.split_at_mut(half);
        let mut rhs = vec![0.0; cols.max(rows)];
        let mut sol = vec![0.0; cols.max(rows)];

        // Convergence is measured on the change in the iterate; the
        // outer Newton loop re-verifies the true KCL residual, so the
        // correction only needs inexact-Newton accuracy (relative to
        // the first sweep's step size).
        let max_sweeps = 500;
        let mut first_delta = 0.0f64;
        let mut sweeps = 0;
        loop {
            let mut delta: f64 = 0.0;
            // w-half: one tridiagonal apply per word line.
            for i in 0..rows {
                let base = i * cols;
                for j in 0..cols {
                    rhs[j] = f[self.w_idx(i, j)] + gd[base + j] * db[base + j];
                }
                thomas_apply(
                    &fact.w_inv_denom[base..base + cols],
                    &fact.w_c_prime[base..base + cols],
                    off,
                    &rhs[..cols],
                    &mut sol[..cols],
                );
                for j in 0..cols {
                    let idx = base + j;
                    delta = delta.max((sol[j] - dw[idx]).abs());
                    dw[idx] = sol[j];
                }
            }
            // b-half: one tridiagonal apply per bit line.
            for j in 0..cols {
                let base = j * rows;
                for i in 0..rows {
                    rhs[i] = f[self.b_idx(i, j)] + gd[i * cols + j] * dw[i * cols + j];
                }
                thomas_apply(
                    &fact.b_inv_denom[base..base + rows],
                    &fact.b_c_prime[base..base + rows],
                    off,
                    &rhs[..rows],
                    &mut sol[..rows],
                );
                for i in 0..rows {
                    let idx = i * cols + j;
                    delta = delta.max((sol[i] - db[idx]).abs());
                    db[idx] = sol[i];
                }
            }
            sweeps += 1;
            if sweeps == 1 {
                first_delta = delta;
            }
            // Inexact-Newton stop: the correction direction is accurate
            // enough once sweeps refine it below 1e-8 of its own scale
            // (absolute femtovolt floor for already-converged points).
            if delta < 1e-15 + 1e-8 * first_delta {
                break;
            }
            if sweeps == max_sweeps {
                return Err(XbarError::Numerical(
                    "block gauss-seidel failed to contract".into(),
                ));
            }
        }
        if telemetry::enabled() {
            metrics().bgs_sweeps.observe(sweeps as f64);
        }

        Ok((dx, sweeps))
    }

    /// Like [`solve`](Self::solve), amortizing the per-solve setup
    /// through `cache`: the iteration warm-starts from the previous
    /// converged sample's node voltages, transferring its residual to
    /// the new inputs in O(rows); a cold start's first correction
    /// reuses the cached frozen factorization; and series cells carry
    /// their internal-node voltages from one evaluation to the next.
    ///
    /// # Correctness contract
    ///
    /// The frozen operator only *proposes* correction directions; every
    /// step is damped and accepted against the **true** KCL residual,
    /// and convergence is declared by the same
    /// [`effective_tolerance`](Self::effective_tolerance) test as the
    /// cold path — so an accepted solve is exactly as converged as a
    /// cold one (the `oracle/amortized_vs_cold_solve` conformance law
    /// holds the two within solver tolerance; a warm start from an
    /// already-converged point returns bit-identically — see
    /// `oracle/warm_start_fixed_point`). If the chord iteration
    /// stalls — possible in principle far from zero bias, where the
    /// frozen linearization is a poor chord — the solve transparently
    /// reruns the Newton driver as exact Newton from the best iterate
    /// reached (counted by the telemetry counter
    /// `xbar.amortized.fallbacks`, observed never to fire on the
    /// paper's workloads).
    ///
    /// The cache re-keys itself if `self`'s content changed since it
    /// was built (see [`SolverCache`]); on any error the warm start is
    /// dropped so a failed sample cannot seed the next.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_amortized(
        &self,
        v: &[f64],
        cache: &mut SolverCache,
    ) -> Result<SolveReport, XbarError> {
        self.check_inputs(v)?;
        cache.ensure(self);
        let t_start = telemetry::enabled().then(Instant::now);
        let warm = cache.take_warm();
        let warm_started = warm.is_some();
        let _trace = self.trace_solve("xbar.solve_amortized", warm_started);
        if !self.params.nonideality.parasitics {
            let report = self.solve_without_parasitics(v);
            self.record_solve(t_start, true, &report);
            return Ok(report);
        }

        // A warm start needs no device evaluation at all: the inputs
        // enter `F` only through the driver source terms
        // `g_src (x - v_i)`, so the previous residual transfers to the
        // new inputs in O(rows), and its `gd` is exact at `x` — so even
        // the first step is a true Newton step rather than a chord step
        // (worth a whole outer iteration per sample). The adjustment
        // cap bounds accumulated driver-node rounding (each pass adds
        // ~1 ulp; 32 of them stay ~1e-17 A, five orders below the solve
        // tolerance); past it the residual is re-evaluated.
        let mut adjustments = 0u32;
        let (x, linearization) = match warm {
            Some(mut w) => {
                let transferred = (w.adjustments < 32).then(|| {
                    let g_src = 1.0 / self.params.r_source;
                    for (i, (&old, &new)) in w.v.iter().zip(v).enumerate() {
                        w.residual[self.w_idx(i, 0)] += g_src * (old - new);
                    }
                    adjustments = w.adjustments + 1;
                    (w.residual, w.gd)
                });
                (w.x, transferred)
            }
            None => (self.driven_guess(v), None),
        };

        let mut u = cache.take_internal(self.rows() * self.cols());
        let chord = self.newton(
            v,
            NewtonStart {
                x,
                // A cold start's first correction: the cached
                // input-independent frozen factorization (shared across
                // tiles, nothing to build).
                first_operator: linearization.is_none().then(|| &**cache.factorization()),
                linearization,
                internal: Some(&mut u),
            },
        );
        cache.set_internal(u);
        let mut run = match chord {
            Ok(run) => run,
            Err(stalled) => {
                // Correctness net: exact Newton seeded from the best
                // iterate the chord reached, which is never worse than
                // this solve's own start.
                if telemetry::enabled() {
                    metrics().amortized_fallbacks.inc();
                }
                self.newton(v, NewtonStart::exact(stalled.x))
                    .map_err(|stalled| stalled.error)?
            }
        };
        let next = WarmState {
            x: run.x.clone(),
            v: v.to_vec(),
            residual: std::mem::take(&mut run.residual),
            gd: std::mem::take(&mut run.gd),
            // A solve that iterated re-evaluated its residual from
            // scratch, so the adjustment chain restarts.
            adjustments: if run.iterations > 0 { 0 } else { adjustments },
        };
        let report = run.into_report(self, warm_started);
        self.record_solve(t_start, true, &report);
        cache.set_warm(next);
        Ok(report)
    }

    /// Solves a panel of input samples through one cached
    /// factorization, chaining warm starts sample to sample.
    ///
    /// `volts` is row-major `samples × rows`: sample `s` occupies
    /// `volts[s * rows .. (s + 1) * rows]` — the layout funcsim's
    /// batched GEMV path already carries, so a stream batch drives the
    /// solver without reshaping. Each sample runs
    /// [`solve_amortized`](Self::solve_amortized); the first inherits
    /// `cache`'s warm start (cold on a fresh cache), each subsequent
    /// one starts from its predecessor's converged node voltages.
    ///
    /// # Errors
    ///
    /// [`XbarError::Shape`] if `volts.len() != samples * rows`;
    /// otherwise as [`solve`](Self::solve), failing on the first
    /// diverging sample.
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
    /// // Three 4-input samples, row-major.
    /// let volts = vec![
    ///     0.25, 0.0, 0.25, 0.0, //
    ///     0.0, 0.25, 0.0, 0.25, //
    ///     0.25, 0.25, 0.25, 0.25,
    /// ];
    /// let reports = circuit.solve_batch(&volts, 3, &mut cache)?;
    /// assert_eq!(reports.len(), 3);
    /// assert!(!reports[0].warm_start && reports[1].warm_start);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_batch(
        &self,
        volts: &[f64],
        samples: usize,
        cache: &mut SolverCache,
    ) -> Result<Vec<SolveReport>, XbarError> {
        let rows = self.rows();
        if volts.len() != samples * rows {
            return Err(XbarError::Shape(format!(
                "{} panel voltages for {samples} samples of {rows} word lines",
                volts.len()
            )));
        }
        let _trace = telemetry::trace_active().then(|| {
            telemetry::trace_scope(
                "xbar.solve_batch",
                vec![
                    ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                    ("samples".to_string(), telemetry::Json::from(samples)),
                ],
            )
        });
        let mut reports = Vec::with_capacity(samples);
        for sample in volts.chunks_exact(rows) {
            reports.push(self.solve_amortized(sample, cache)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NonIdealityConfig;
    use crate::{ideal_mvm, CrossbarParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(rows: usize, cols: usize) -> CrossbarParams {
        CrossbarParams::builder(rows, cols).build().unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Factors `tridiag(off, diag, off)` and solves it for `rhs`
    /// through the reciprocal-pivot routine the BGS sweeps use.
    fn thomas(diag: &[f64], off: f64, rhs: &[f64]) -> Vec<f64> {
        let n = diag.len();
        let (mut inv_denom, mut c_prime, mut sol) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        thomas_factor(diag, off, &mut inv_denom, &mut c_prime);
        thomas_apply(&inv_denom, &c_prime, off, rhs, &mut sol);
        sol
    }

    #[test]
    fn thomas_factor_solves_small_system() {
        // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] x = [1, 0, 1], verified
        // by multiplying back.
        let sol = thomas(&[2.0; 3], -1.0, &[1.0, 0.0, 1.0]);
        let ax0 = 2.0 * sol[0] - sol[1];
        let ax1 = -sol[0] + 2.0 * sol[1] - sol[2];
        let ax2 = -sol[1] + 2.0 * sol[2];
        assert!((ax0 - 1.0).abs() < 1e-12);
        assert!(ax1.abs() < 1e-12);
        assert!((ax2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thomas_factor_scalar_case() {
        let sol = thomas(&[4.0], -1.0, &[2.0]);
        assert!((sol[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn no_parasitics_linear_matches_ideal() {
        let mut p = params(4, 4);
        p.nonideality = NonIdealityConfig::none();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25; 4];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (a, b) in report.currents.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn tiny_parasitics_approach_ideal() {
        // With microscopic parasitics the full solve must converge to
        // the ideal MVM.
        let mut p = CrossbarParams::builder(3, 3)
            .r_source(1e-3)
            .r_sink(1e-3)
            .r_wire(1e-3)
            .build()
            .unwrap();
        p.nonideality = NonIdealityConfig::linear_only();
        let g = ConductanceMatrix::uniform(3, 3, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.1, 0.2];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (a, b) in report.currents.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-5 * b.abs().max(1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn parasitics_reduce_current_linear_case() {
        let mut p = params(8, 8);
        p.nonideality = NonIdealityConfig::linear_only();
        let g = ConductanceMatrix::uniform(8, 8, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![p.v_supply; 8];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (ni, id) in report.currents.iter().zip(&ideal) {
            assert!(ni < id, "non-ideal {ni} should be below ideal {id}");
            assert!(*ni > 0.0);
        }
    }

    #[test]
    fn kcl_holds_at_solution() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.0, 0.125, 0.25, 0.0625, 0.1875];
        let report = circuit.solve(&v).unwrap();
        let (mut res, mut gd) = (vec![0.0; p.node_count()], vec![0.0; 30]);
        circuit.kcl_residual(&v, &report.node_voltages, &mut res, &mut gd, None);
        assert!(linalg::vec_ops::norm_inf(&res) <= 1e-13);
    }

    #[test]
    fn verify_kcl_matches_report_and_tolerance() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.125, 0.0, 0.1875, 0.0625, 0.25];
        let report = circuit.solve(&v).unwrap();
        let res = circuit.verify_kcl(&v, &report.node_voltages).unwrap();
        let tol = circuit.effective_tolerance(&v);
        assert!(res <= tol, "residual {res} above tolerance {tol}");
        // Perturbing a node voltage must break KCL.
        let mut bad = report.node_voltages.clone();
        bad[0] += 1e-3;
        assert!(circuit.verify_kcl(&v, &bad).unwrap() > tol);
        // Shape validation.
        assert!(circuit.verify_kcl(&v[..3], &report.node_voltages).is_err());
        assert!(circuit.verify_kcl(&v, &bad[..5]).is_err());
    }

    #[test]
    fn current_conservation_sources_equal_sinks() {
        // Total current injected by the sources equals total sensed at
        // the sinks (no other path to ground exists).
        let p = params(5, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let g = ConductanceMatrix::random_sparse(&p, 0.3, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v: Vec<f64> = (0..5).map(|i| 0.05 * i as f64).collect();
        let report = circuit.solve(&v).unwrap();
        let g_src = 1.0 / p.r_source;
        let injected: f64 = (0..5)
            .map(|i| g_src * (v[i] - report.node_voltages[circuit.w_idx(i, 0)]))
            .sum();
        let sensed: f64 = report.currents.iter().sum();
        assert!(
            (injected - sensed).abs() < 1e-12 * injected.abs().max(1e-12),
            "injected {injected} vs sensed {sensed}"
        );
    }

    #[test]
    fn bgs_sweeps_surface_in_report() {
        let p = params(6, 6);
        let mut rng = StdRng::seed_from_u64(8);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let v = vec![0.25, 0.125, 0.0, 0.25, 0.0625, 0.1875];
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();

        // Every Newton correction runs at least one sweep.
        let cold = circuit.solve(&v).unwrap();
        assert!(!cold.warm_start);
        assert!(cold.newton_iterations > 0);
        assert!(cold.bgs_sweeps >= cold.newton_iterations);

        // A second amortized solve warm-starts from the first one's
        // converged point: flagged, and no harder than the cold solve.
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        circuit.solve_amortized(&v, &mut cache).unwrap();
        let warm = circuit.solve_amortized(&v, &mut cache).unwrap();
        assert!(warm.warm_start);
        assert!(warm.newton_iterations <= cold.newton_iterations);
        assert!(warm.bgs_sweeps <= cold.bgs_sweeps);
    }

    #[test]
    fn no_parasitics_solve_runs_no_sweeps() {
        let mut p = params(4, 4);
        p.nonideality = NonIdealityConfig::none();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25; 4];
        assert_eq!(circuit.solve(&v).unwrap().bgs_sweeps, 0);
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        assert_eq!(
            circuit.solve_amortized(&v, &mut cache).unwrap().bgs_sweeps,
            0
        );
    }

    #[test]
    fn kcl_linearization_matches_residual_and_devices() {
        let p = params(3, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.0, 0.125];
        let x: Vec<f64> = (0..p.node_count()).map(|k| 0.01 * (k % 5) as f64).collect();
        let (f, gd) = circuit.kcl_linearization(&v, &x).unwrap();
        assert_eq!(f.len(), p.node_count());
        assert_eq!(gd.len(), 12);
        assert_eq!(
            linalg::vec_ops::norm_inf(&f),
            circuit.verify_kcl(&v, &x).unwrap()
        );
        let dv = x[circuit.w_idx(1, 2)] - x[circuit.b_idx(1, 2)];
        let Cell::RramWithAccess(device) = circuit.cell(1, 2) else {
            panic!("default parameters model 1T1R cells");
        };
        assert_eq!(gd[6], device.di_dv(dv));
        assert!(circuit.kcl_linearization(&v[..2], &x).is_err());
        assert!(circuit.kcl_linearization(&v, &x[..5]).is_err());
    }

    #[test]
    fn sinh_nonlinearity_boosts_current_at_high_voltage() {
        // At Vsupply = 0.5 V = 2*V0 the sinh devices carry more current
        // than linear ones; with mild parasitics the nonlinear crossbar
        // output must exceed the linear-model output (the mechanism
        // behind Fig. 7d of the paper).
        let base = CrossbarParams::builder(8, 8).v_supply(0.5);
        let mut p_nl = base.clone().build().unwrap();
        p_nl.nonideality = NonIdealityConfig {
            parasitics: true,
            device_nonlinearity: true,
            access_device: false,
        };
        let mut p_lin = base.build().unwrap();
        p_lin.nonideality = NonIdealityConfig::linear_only();

        let g = ConductanceMatrix::uniform(8, 8, p_nl.g_on());
        let v = vec![0.5; 8];
        let i_nl = CrossbarCircuit::new(&p_nl, &g).unwrap().solve(&v).unwrap();
        let i_lin = CrossbarCircuit::new(&p_lin, &g).unwrap().solve(&v).unwrap();
        for (nl, lin) in i_nl.currents.iter().zip(&i_lin.currents) {
            assert!(nl > lin, "nonlinear {nl} should exceed linear {lin}");
        }
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let p = params(4, 4);
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let report = circuit.solve(&[0.0; 4]).unwrap();
        for i in report.currents {
            assert!(i.abs() < 1e-15);
        }
    }

    #[test]
    fn shape_and_input_validation() {
        let p = params(4, 4);
        let g = ConductanceMatrix::uniform(4, 4, 1e-5);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        assert!(circuit.solve(&[0.1; 3]).is_err());
        assert!(circuit.solve(&[f64::NAN, 0.0, 0.0, 0.0]).is_err());

        let g_bad = ConductanceMatrix::uniform(3, 4, 1e-5);
        assert!(CrossbarCircuit::new(&p, &g_bad).is_err());
    }

    #[test]
    fn rectangular_crossbars_solve() {
        for (r, c) in [(1, 1), (1, 8), (8, 1), (3, 9), (9, 3)] {
            let p = params(r, c);
            let g = ConductanceMatrix::uniform(r, c, p.g_on());
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            let v = vec![0.2; r];
            let report = circuit.solve(&v).unwrap();
            assert_eq!(report.currents.len(), c);
            assert!(report.currents.iter().all(|&i| i > 0.0 && i.is_finite()));
        }
    }

    #[test]
    fn amortized_matches_cold_solve() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        let inputs = [
            vec![0.25, 0.0, 0.125, 0.25, 0.0625, 0.1875],
            vec![0.0, 0.25, 0.25, 0.0, 0.125, 0.0625],
            vec![0.25; 6],
        ];
        for v in &inputs {
            let cold = circuit.solve(v).unwrap();
            let amortized = circuit.solve_amortized(v, &mut cache).unwrap();
            // Both converged the same KCL system to the same tolerance.
            for (a, b) in amortized.currents.iter().zip(&cold.currents) {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs() + 1e-10,
                    "amortized {a} vs cold {b}"
                );
            }
            let res = circuit.verify_kcl(v, &amortized.node_voltages).unwrap();
            assert!(res <= circuit.effective_tolerance(v));
        }
    }

    #[test]
    fn amortized_warm_start_is_fixed_point() {
        let p = params(5, 5);
        let mut rng = StdRng::seed_from_u64(13);
        let g = ConductanceMatrix::random_sparse(&p, 0.6, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        let v = vec![0.25, 0.125, 0.0625, 0.1875, 0.25];
        let first = circuit.solve_amortized(&v, &mut cache).unwrap();
        assert!(!first.warm_start);
        // Re-solving the same input from the converged warm start is a
        // fixed point: zero iterations, bit-identical output.
        let second = circuit.solve_amortized(&v, &mut cache).unwrap();
        assert!(second.warm_start);
        assert_eq!(second.newton_iterations, 0);
        assert_eq!(second.currents, first.currents);
        assert_eq!(second.node_voltages, first.node_voltages);
    }

    #[test]
    fn solve_batch_matches_per_sample_solves() {
        let p = params(4, 6);
        let mut rng = StdRng::seed_from_u64(17);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        let volts = vec![
            0.25, 0.0, 0.125, 0.0625, //
            0.0, 0.25, 0.0, 0.1875, //
            0.125, 0.125, 0.25, 0.0,
        ];
        let reports = circuit.solve_batch(&volts, 3, &mut cache).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(!reports[0].warm_start);
        assert!(reports[1].warm_start && reports[2].warm_start);
        for (s, report) in reports.iter().enumerate() {
            let cold = circuit.solve(&volts[s * 4..(s + 1) * 4]).unwrap();
            for (a, b) in report.currents.iter().zip(&cold.currents) {
                assert!((a - b).abs() <= 1e-6 * b.abs() + 1e-10);
            }
        }
        // Shape validation.
        assert!(circuit.solve_batch(&volts[..10], 3, &mut cache).is_err());
    }

    #[test]
    fn amortized_handles_no_parasitics() {
        let mut p = params(4, 4);
        p.nonideality = NonIdealityConfig::none();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        let v = vec![0.25; 4];
        let amortized = circuit.solve_amortized(&v, &mut cache).unwrap();
        let cold = circuit.solve(&v).unwrap();
        assert_eq!(amortized.currents, cold.currents);
    }

    #[test]
    fn frozen_factorization_matches_fresh_bgs_direction() {
        // At the zero-bias linearization point the frozen operator and
        // one built from a fresh linearization are the same factors
        // under the same sweep routine: identical corrections.
        let p = params(5, 4);
        let mut rng = StdRng::seed_from_u64(29);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let fact = circuit.factorize();
        let x0 = vec![0.0; p.node_count()];
        let gd = circuit.kcl_linearization(&[0.0; 5], &x0).unwrap().1;
        let f: Vec<f64> = (0..p.node_count())
            .map(|k| 1e-6 * ((k % 7) as f64 - 3.0))
            .collect();
        let fresh = circuit
            .bgs_correction(&circuit.factorize_at(gd), &f)
            .unwrap();
        let frozen = circuit.bgs_correction(&fact, &f).unwrap();
        assert_eq!(frozen, fresh);
    }

    #[test]
    fn linear_circuits_take_one_path() {
        // With linear devices the frozen operator is the exact Jacobian
        // and the carried internal-node state is empty, so a fresh
        // cache's amortized solve runs the very iteration a cold solve
        // runs: same bits, same iteration count.
        for (n, seed) in [(6usize, 1u64), (16, 2), (33, 3), (64, 4)] {
            let mut p = params(n, n);
            p.nonideality = NonIdealityConfig::linear_only();
            let mut rng = StdRng::seed_from_u64(seed);
            let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            for sample in 0..5 {
                let v: Vec<f64> = (0..n)
                    .map(|i| p.v_supply * ((i * 7 + sample * 3) % 5) as f64 / 4.0)
                    .collect();
                let cold = circuit.solve(&v).unwrap();
                let mut cache = crate::SolverCache::for_circuit(&circuit);
                let amortized = circuit.solve_amortized(&v, &mut cache).unwrap();
                assert_eq!(
                    bits(&amortized.currents),
                    bits(&cold.currents),
                    "{n}² #{sample}"
                );
                assert_eq!(bits(&amortized.node_voltages), bits(&cold.node_voltages));
                assert_eq!(amortized.newton_iterations, cold.newton_iterations);
            }
        }
    }

    #[test]
    fn kcl_checks_are_pure_in_operating_point() {
        // `verify_kcl` and `kcl_linearization` must not read the
        // internal-node state an amortized solve carries: the same
        // (v, x) gives the same bits before and after a batch, on the
        // solving instance and on a clone.
        let p = params(6, 6);
        let mut rng = StdRng::seed_from_u64(31);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.125, 0.0, 0.1875, 0.0625, 0.25];
        let x = circuit.solve(&v).unwrap().node_voltages;
        let probe = |c: &CrossbarCircuit| {
            let (f, gd) = c.kcl_linearization(&v, &x).unwrap();
            (c.verify_kcl(&v, &x).unwrap().to_bits(), bits(&f), bits(&gd))
        };
        let before = probe(&circuit);
        let mut cache = crate::SolverCache::for_circuit(&circuit);
        let volts: Vec<f64> = (0..4 * 6).map(|k| 0.05 * (k % 6) as f64).collect();
        circuit.solve_batch(&volts, 4, &mut cache).unwrap();
        assert_eq!(probe(&circuit), before);
        assert_eq!(probe(&circuit.clone()), before);
    }

    #[test]
    fn bigger_crossbar_has_larger_relative_drop() {
        // The Fig. 2(b) trend: larger crossbars lose relatively more
        // current to parasitics.
        let mut rel_errors = Vec::new();
        for n in [4usize, 16, 32] {
            let mut p = params(n, n);
            p.nonideality = NonIdealityConfig::linear_only();
            let g = ConductanceMatrix::uniform(n, n, p.g_on());
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            let v = vec![p.v_supply; n];
            let report = circuit.solve(&v).unwrap();
            let ideal = ideal_mvm(&v, &g).unwrap();
            let rel = (ideal[n - 1] - report.currents[n - 1]) / ideal[n - 1];
            rel_errors.push(rel);
        }
        assert!(rel_errors[0] < rel_errors[1]);
        assert!(rel_errors[1] < rel_errors[2]);
    }
}
