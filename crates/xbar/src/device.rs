//! Device I-V models for the crossbar cross-points.
//!
//! The paper adopts the filamentary RRAM compact model of Guan et al.
//! (IEEE EDL 2012): `I(d, V) = I0 · exp(d/d0) · sinh(V/V0)`, with an
//! access transistor in series at every junction. We reproduce both and
//! expose them behind [`DeviceModel`] so the circuit solver is agnostic
//! to the device physics.
//!
//! # Conductance calibration
//!
//! A device "programmed to conductance G" means its *small-signal*
//! conductance at V → 0 equals G:
//!
//! ```text
//! I(V) = A · sinh(V / V0)       with  A = G · V0
//! ```
//!
//! so that `dI/dV |_(V=0) = A / V0 = G`. Under this calibration the
//! sinh non-linearity makes the device *super-linear*: at
//! `V = 2 · V0 = 0.5 V` it carries `sinh(2)/2 ≈ 1.81×` the current a
//! linear device would. This is the data-dependent effect GENIEx captures
//! and analytical models miss — IR drops lose current, the sinh boost
//! wins some of it back, and which effect dominates depends on the exact
//! (V, G) pattern.
//!
//! The equivalent filament gap is recoverable from the prefactor:
//! `d = d0 · ln(A / I0)` (negative gap offsets simply fold into the
//! calibration constant; the solver only ever needs `A`).

use crate::params::DeviceParams;

/// A two-terminal device model: current and differential conductance as
/// functions of the terminal voltage.
///
/// Implementations must be *strictly monotonic* (`di_dv > 0` for all
/// finite V) so the circuit Jacobian stays positive-definite; this is a
/// documented contract rather than an enforced one.
pub trait DeviceModel {
    /// Current through the device at terminal voltage `v` (odd in `v`).
    fn current(&self, v: f64) -> f64;

    /// Differential conductance `dI/dV` at terminal voltage `v`
    /// (strictly positive).
    fn di_dv(&self, v: f64) -> f64;

    /// Current and differential conductance together. Implementations
    /// that share transcendental evaluations between the two (sinh and
    /// cosh from one `exp`, tanh and sech² from one `tanh`) override
    /// this — it is the hot call inside the series-cell elimination.
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        (self.current(v), self.di_dv(v))
    }

    /// Small-signal conductance at the origin.
    fn small_signal_g(&self) -> f64 {
        self.di_dv(0.0)
    }
}

/// An ideal linear memristor: `I = G · V`.
///
/// Used by the analytical baseline (which models only linear
/// non-idealities) and as a control in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMemristor {
    g: f64,
}

impl LinearMemristor {
    /// Creates a linear device with conductance `g` (siemens).
    pub fn new(g: f64) -> Self {
        LinearMemristor { g }
    }
}

impl DeviceModel for LinearMemristor {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.g * v
    }

    #[inline]
    fn di_dv(&self, _v: f64) -> f64 {
        self.g
    }
}

/// The filamentary RRAM model `I(V) = A · sinh(V / V0)` with
/// `A = G · V0` (small-signal calibration, see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilamentaryRram {
    /// Current prefactor `A = I0 · exp(d/d0)` in amperes.
    prefactor: f64,
    /// Thermal-ish voltage scale of the sinh (volts).
    v0: f64,
}

impl FilamentaryRram {
    /// Creates a device programmed to small-signal conductance `g`
    /// under the given device parameters.
    pub fn from_conductance(g: f64, params: &DeviceParams) -> Self {
        FilamentaryRram {
            prefactor: g * params.v0,
            v0: params.v0,
        }
    }

    /// Creates a device directly from a filament gap `d` (nanometres),
    /// matching the paper's `I0 · exp(d/d0) · sinh(V/V0)` form.
    pub fn from_gap(d_nm: f64, params: &DeviceParams) -> Self {
        FilamentaryRram {
            prefactor: params.i0 * (d_nm / params.d0).exp(),
            v0: params.v0,
        }
    }

    /// The equivalent filament gap `d = d0 · ln(A / I0)` in nanometres.
    pub fn gap_nm(&self, params: &DeviceParams) -> f64 {
        params.d0 * (self.prefactor / params.i0).ln()
    }

    /// The current prefactor `A` (amperes).
    pub fn prefactor(&self) -> f64 {
        self.prefactor
    }
}

impl DeviceModel for FilamentaryRram {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.prefactor * (v / self.v0).sinh()
    }

    #[inline]
    fn di_dv(&self, v: f64) -> f64 {
        (self.prefactor / self.v0) * (v / self.v0).cosh()
    }

    #[inline]
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        // One exp yields both sinh and cosh.
        let e = (v / self.v0).exp();
        let inv = 1.0 / e;
        let sinh = 0.5 * (e - inv);
        let cosh = 0.5 * (e + inv);
        (self.prefactor * sinh, (self.prefactor / self.v0) * cosh)
    }
}

/// The access device (transistor/selector) in series with each RRAM.
///
/// Modelled as a smooth current-limiting element
/// `I(V) = G_acc · V_sat · tanh(V / V_sat)`: ohmic with conductance
/// `G_acc` near the origin, saturating toward `G_acc · V_sat` at large
/// bias — the compressive counterpart to the RRAM's expansive sinh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessDevice {
    g_acc: f64,
    v_sat: f64,
}

impl AccessDevice {
    /// Creates an access device with on-conductance `g_acc` (siemens)
    /// and saturation voltage `v_sat` (volts).
    pub fn new(g_acc: f64, v_sat: f64) -> Self {
        AccessDevice { g_acc, v_sat }
    }
}

impl DeviceModel for AccessDevice {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.g_acc * self.v_sat * (v / self.v_sat).tanh()
    }

    #[inline]
    fn di_dv(&self, v: f64) -> f64 {
        let t = (v / self.v_sat).tanh();
        // sech^2 = 1 - tanh^2; floor keeps the Jacobian SPD even deep in
        // saturation.
        (self.g_acc * (1.0 - t * t)).max(self.g_acc * 1e-9)
    }

    #[inline]
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        let t = (v / self.v_sat).tanh();
        (
            self.g_acc * self.v_sat * t,
            (self.g_acc * (1.0 - t * t)).max(self.g_acc * 1e-9),
        )
    }
}

/// A series combination of an access device and a memristor — the full
/// 1T1R cell the paper simulates at every junction.
///
/// The internal node between the two devices is eliminated on the fly
/// with a scalar Newton solve, so the network solver still sees a single
/// two-terminal element (keeping the system at two nodes per cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPair<M> {
    access: AccessDevice,
    inner: M,
}

/// The paper's 1T1R cell: access device in series with the sinh RRAM.
pub type SeriesCell = SeriesPair<FilamentaryRram>;

/// Access device in series with a *linear* memristor — the
/// "access-device non-linearity only" ablation configuration.
pub type SeriesLinearCell = SeriesPair<LinearMemristor>;

impl<M: DeviceModel> SeriesPair<M> {
    /// Builds a cell from its two constituent devices.
    pub fn new(access: AccessDevice, inner: M) -> Self {
        SeriesPair { access, inner }
    }

    /// Solves for the internal node voltage `u` such that the access
    /// device (spanning `v - u`) and the memristor (spanning `u`) carry
    /// the same current. Returns `(u, i, di_dv_series)`.
    ///
    /// The scalar Newton starts from `u0` — a warm start from the
    /// cell's previous internal-node voltage, clamped back into
    /// `(0, v)` — or, when `u0` is NaN, from the linear divider
    /// estimate. `f(u)` is strictly decreasing, so the converged `u`
    /// does not depend on the start; only the iteration count does.
    ///
    /// The tolerance targets nano-volt accuracy on `u`, which maps to
    /// current errors around `G · 1e-9 ≈ 1e-14 A` — far below both the
    /// circuit solver's residual tolerance and any ADC resolution.
    fn solve_internal(&self, v: f64, u0: f64) -> (f64, f64, f64) {
        if v == 0.0 {
            let ga = self.access.small_signal_g();
            let gr = self.inner.small_signal_g();
            return (0.0, 0.0, ga * gr / (ga + gr));
        }
        let ga0 = self.access.small_signal_g();
        let gr0 = self.inner.small_signal_g();
        let mut u = if u0.is_finite() {
            if v > 0.0 {
                u0.clamp(0.0, v)
            } else {
                u0.clamp(v, 0.0)
            }
        } else {
            v * ga0 / (ga0 + gr0)
        };
        let tol = 1e-12 + 1e-9 * v.abs();
        let mut g_series = ga0 * gr0 / (ga0 + gr0);
        for _ in 0..30 {
            let (i_acc, g_acc) = self.access.current_and_didv(v - u);
            let (i_inner, g_inner) = self.inner.current_and_didv(u);
            g_series = g_acc * g_inner / (g_acc + g_inner);
            let f = i_acc - i_inner;
            let step = f / (g_acc + g_inner);
            u += step;
            // Keep u inside (0, v) for v > 0 (and mirrored for v < 0):
            // both devices are passive so the divider can't overshoot.
            if v > 0.0 {
                u = u.clamp(0.0, v);
            } else {
                u = u.clamp(v, 0.0);
            }
            if step.abs() < tol {
                break;
            }
        }
        (u, self.inner.current(u), g_series)
    }

    /// Device current *and* differential conductance with a caller-held
    /// internal-node warm start: the scalar Newton starts from `*u`
    /// (NaN means "no guess yet") and writes the converged internal
    /// voltage back for the next call.
    ///
    /// Consecutive evaluations of the same cell at nearby biases — the
    /// amortized solve loop, and consecutive samples of a batch — then
    /// converge in 1–2 inner iterations instead of walking in from the
    /// linear-divider estimate every time. The converged value is the
    /// same either way (the series constraint is strictly monotone), so
    /// this changes cost, not results. The conductance is the same
    /// byproduct `current_and_didv` returns — handing it out here lets
    /// the circuit solver refresh its Jacobian without a second
    /// internal solve per cell.
    pub(crate) fn current_and_didv_warm(&self, v: f64, u: &mut f64) -> (f64, f64) {
        let (u_new, i, g) = self.solve_internal(v, *u);
        *u = u_new;
        (i, g)
    }
}

impl<M: DeviceModel> DeviceModel for SeriesPair<M> {
    fn current(&self, v: f64) -> f64 {
        self.solve_internal(v, f64::NAN).1
    }

    fn di_dv(&self, v: f64) -> f64 {
        // Implicit-function theorem on the series constraint:
        // 1/g_total = 1/g_acc(v-u) + 1/g_inner(u).
        self.solve_internal(v, f64::NAN).2
    }

    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        let (_, i, g) = self.solve_internal(v, f64::NAN);
        (i, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DeviceParams;
    use proptest::prelude::*;

    fn dev_params() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn linear_device_is_linear() {
        let d = LinearMemristor::new(1e-5);
        assert_eq!(d.current(0.5), 0.5e-5);
        assert_eq!(d.di_dv(123.0), 1e-5);
        assert_eq!(d.small_signal_g(), 1e-5);
    }

    #[test]
    fn rram_small_signal_matches_programmed_g() {
        let g = 1e-5;
        let d = FilamentaryRram::from_conductance(g, &dev_params());
        assert!((d.small_signal_g() - g).abs() < 1e-12 * g);
    }

    #[test]
    fn rram_superlinear_at_high_voltage() {
        let g = 1e-5;
        let p = dev_params();
        let d = FilamentaryRram::from_conductance(g, &p);
        let v = 2.0 * p.v0; // 0.5 V with default V0 = 0.25 V
        let linear = g * v;
        let actual = d.current(v);
        // sinh(2)/2 ≈ 1.8134
        assert!((actual / linear - 2.0f64.sinh() / 2.0).abs() < 1e-12);
        assert!(actual > linear);
    }

    #[test]
    fn rram_is_odd_function() {
        let d = FilamentaryRram::from_conductance(1e-5, &dev_params());
        assert!((d.current(0.3) + d.current(-0.3)).abs() < 1e-20);
    }

    #[test]
    fn rram_gap_round_trip() {
        let p = dev_params();
        let d = FilamentaryRram::from_gap(-1.2, &p);
        let gap = d.gap_nm(&p);
        assert!((gap - (-1.2)).abs() < 1e-12);

        let d2 = FilamentaryRram::from_conductance(1e-5, &p);
        let d3 = FilamentaryRram::from_gap(d2.gap_nm(&p), &p);
        assert!((d2.prefactor() - d3.prefactor()).abs() < 1e-18);
    }

    #[test]
    fn access_device_saturates() {
        let a = AccessDevice::new(1e-4, 0.3);
        // Near origin: ohmic.
        assert!((a.current(0.001) - 1e-4 * 0.001).abs() < 1e-10);
        // Deep saturation: bounded by g * v_sat.
        assert!(a.current(10.0) < 1e-4 * 0.3 * 1.0001);
        assert!(a.current(10.0) > 1e-4 * 0.3 * 0.999);
    }

    #[test]
    fn access_device_conductance_positive() {
        let a = AccessDevice::new(1e-4, 0.3);
        for v in [-5.0, -0.1, 0.0, 0.1, 5.0] {
            assert!(a.di_dv(v) > 0.0, "di_dv at {v}");
        }
    }

    #[test]
    fn series_cell_current_continuity() {
        let p = dev_params();
        let cell = SeriesCell::new(
            AccessDevice::new(1e-3, 0.5),
            FilamentaryRram::from_conductance(1e-5, &p),
        );
        // The current through the cell equals the access-device current
        // at the solved internal node.
        let v = 0.4;
        let (u, i, g) = cell.solve_internal(v, f64::NAN);
        assert!((cell.access.current(v - u) - i).abs() < 1e-12 * i.abs().max(1e-12));
        assert!(u > 0.0 && u < v);
        assert!(g > 0.0);
    }

    #[test]
    fn series_cell_small_signal_is_series_combination() {
        let p = dev_params();
        let ga = 1e-3;
        let gr = 1e-5;
        let cell = SeriesCell::new(
            AccessDevice::new(ga, 0.5),
            FilamentaryRram::from_conductance(gr, &p),
        );
        let expect = ga * gr / (ga + gr);
        assert!((cell.di_dv(0.0) - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn series_cell_zero_voltage() {
        let p = dev_params();
        let cell = SeriesCell::new(
            AccessDevice::new(1e-3, 0.5),
            FilamentaryRram::from_conductance(1e-5, &p),
        );
        assert_eq!(cell.current(0.0), 0.0);
    }

    #[test]
    fn series_cell_dominated_by_weaker_device() {
        // With a very strong access device the cell behaves like the
        // RRAM alone.
        let p = dev_params();
        let rram = FilamentaryRram::from_conductance(1e-5, &p);
        let cell = SeriesCell::new(AccessDevice::new(1.0, 10.0), rram);
        let v = 0.25;
        assert!((cell.current(v) - rram.current(v)).abs() < 1e-4 * rram.current(v));
    }

    proptest! {
        #[test]
        fn rram_monotonic(v1 in -0.6f64..0.6, dv in 1e-6f64..0.1) {
            let d = FilamentaryRram::from_conductance(1e-5, &dev_params());
            prop_assert!(d.current(v1 + dv) > d.current(v1));
            prop_assert!(d.di_dv(v1) > 0.0);
        }

        #[test]
        fn series_cell_monotonic_and_odd(v in 1e-4f64..0.6) {
            let p = dev_params();
            let cell = SeriesCell::new(
                AccessDevice::new(5e-4, 0.4),
                FilamentaryRram::from_conductance(2e-5, &p),
            );
            prop_assert!(cell.current(v) > 0.0);
            prop_assert!((cell.current(v) + cell.current(-v)).abs() < 1e-12 * cell.current(v).abs().max(1e-30));
            prop_assert!(cell.di_dv(v) > 0.0);
        }

        #[test]
        fn series_current_below_both_standalone(v in 1e-3f64..0.5) {
            // A series element can never carry more current than either
            // device alone at the full terminal voltage.
            let p = dev_params();
            let acc = AccessDevice::new(5e-4, 0.4);
            let rram = FilamentaryRram::from_conductance(2e-5, &p);
            let cell = SeriesCell::new(acc, rram);
            prop_assert!(cell.current(v) <= rram.current(v) + 1e-18);
            prop_assert!(cell.current(v) <= acc.current(v) + 1e-18);
        }
    }
}
