//! Analysis specifications and result containers.

use std::collections::HashMap;

use crate::complex::Complex;
use crate::error::SimError;
use crate::waveform::Waveform;

/// Time-integration method for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Backward Euler — L-stable, strongly damped, first order.
    BackwardEuler,
    /// Trapezoidal — second order, the SPICE default.
    #[default]
    Trapezoidal,
}

/// Configuration of a transient analysis, constructed through
/// [`TranConfig::builder`]:
///
/// ```
/// use analog::{Integration, TranConfig};
/// let cfg = TranConfig::builder(700e-6)
///     .max_step(8e-9)
///     .reltol(1e-3)
///     .max_newton(60)
///     .method(Integration::Trapezoidal)
///     .build();
/// assert_eq!(cfg.t_stop, 700e-6);
/// assert_eq!(cfg.max_step, Some(8e-9));
/// ```
#[derive(Debug, Clone)]
pub struct TranConfig {
    /// End time of the analysis in seconds.
    pub t_stop: f64,
    /// Upper bound on the internal time step; `None` lets the engine pick
    /// `t_stop / 50`.
    pub max_step: Option<f64>,
    /// Hard floor for the adaptive step; going below this aborts.
    pub min_step: f64,
    /// Relative convergence/LTE tolerance.
    pub reltol: f64,
    /// Absolute voltage tolerance in volts.
    pub vabstol: f64,
    /// Absolute current tolerance in amperes.
    pub iabstol: f64,
    /// Integration method.
    pub method: Integration,
    /// Enables local-truncation-error step control (in addition to
    /// Newton-failure backoff).
    pub lte_control: bool,
    /// Maximum Newton iterations per time point.
    pub max_newton: usize,
    /// Record branch currents (as `I(name)` traces) in addition to node
    /// voltages.
    pub record_currents: bool,
    /// Measure per-phase wall time (assemble / factorize / solve) in the
    /// run's [`crate::EngineStats`]. Off by default: the timestamps cost
    /// a few percent on small matrices. The reference engine ignores it.
    pub profile: bool,
}

impl TranConfig {
    /// Starts a builder for a transient run to `t_stop` seconds with
    /// SPICE-like defaults.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive.
    pub fn builder(t_stop: f64) -> TranConfigBuilder {
        assert!(t_stop > 0.0, "transient t_stop must be positive");
        TranConfigBuilder {
            cfg: TranConfig {
                t_stop,
                max_step: None,
                min_step: 1.0e-18,
                reltol: 1.0e-3,
                vabstol: 1.0e-6,
                iabstol: 1.0e-9,
                method: Integration::Trapezoidal,
                lte_control: true,
                max_newton: 60,
                record_currents: true,
                profile: false,
            },
        }
    }
}

/// Builds a [`TranConfig`] field by field:
/// `TranConfig::builder(t_stop).max_step(..).build()`.
#[derive(Debug, Clone)]
pub struct TranConfigBuilder {
    cfg: TranConfig,
}

impl TranConfigBuilder {
    /// Sets the maximum internal time step.
    pub fn max_step(mut self, max_step: f64) -> Self {
        self.cfg.max_step = Some(max_step);
        self
    }

    /// Sets the hard floor for the adaptive step.
    pub fn min_step(mut self, min_step: f64) -> Self {
        self.cfg.min_step = min_step;
        self
    }

    /// Sets the relative tolerance.
    pub fn reltol(mut self, reltol: f64) -> Self {
        self.cfg.reltol = reltol;
        self
    }

    /// Sets the absolute voltage tolerance.
    pub fn vabstol(mut self, vabstol: f64) -> Self {
        self.cfg.vabstol = vabstol;
        self
    }

    /// Sets the absolute current tolerance.
    pub fn iabstol(mut self, iabstol: f64) -> Self {
        self.cfg.iabstol = iabstol;
        self
    }

    /// Selects the integration method.
    pub fn method(mut self, method: Integration) -> Self {
        self.cfg.method = method;
        self
    }

    /// Enables or disables LTE-based step control.
    pub fn lte_control(mut self, on: bool) -> Self {
        self.cfg.lte_control = on;
        self
    }

    /// Sets the Newton iteration cap per time point.
    pub fn max_newton(mut self, max_newton: usize) -> Self {
        self.cfg.max_newton = max_newton;
        self
    }

    /// Enables or disables branch-current recording.
    pub fn record_currents(mut self, on: bool) -> Self {
        self.cfg.record_currents = on;
        self
    }

    /// Enables per-phase wall-time profiling in the run stats.
    pub fn profile(mut self, on: bool) -> Self {
        self.cfg.profile = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> TranConfig {
        self.cfg
    }
}

/// Configuration of a small-signal AC analysis: the frequency grid.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSpec {
    /// Analysis frequencies in hertz, ascending.
    pub frequencies: Vec<f64>,
}

impl AcSpec {
    /// Logarithmic sweep with `points_per_decade` points from `f_start` to
    /// `f_stop` (both inclusive).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f_start < f_stop` and `points_per_decade ≥ 1`.
    pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Self {
        assert!(f_start > 0.0 && f_stop > f_start, "need 0 < f_start < f_stop");
        assert!(points_per_decade >= 1);
        let decades = (f_stop / f_start).log10();
        let n = (decades * points_per_decade as f64).ceil() as usize + 1;
        let mut frequencies: Vec<f64> = (0..n)
            .map(|i| f_start * 10f64.powf(decades * i as f64 / (n - 1) as f64))
            .collect();
        if let Some(last) = frequencies.last_mut() {
            *last = f_stop;
        }
        AcSpec { frequencies }
    }

    /// Linear sweep of `n` points from `f_start` to `f_stop` inclusive.
    ///
    /// # Panics
    ///
    /// Panics unless `f_start < f_stop` and `n ≥ 2`.
    pub fn linear_sweep(f_start: f64, f_stop: f64, n: usize) -> Self {
        assert!(f_stop > f_start && n >= 2);
        let step = (f_stop - f_start) / (n - 1) as f64;
        AcSpec { frequencies: (0..n).map(|i| f_start + step * i as f64).collect() }
    }

    /// A single analysis frequency.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not positive.
    pub fn single(f: f64) -> Self {
        assert!(f > 0.0);
        AcSpec { frequencies: vec![f] }
    }
}

/// A DC operating point: node voltages and branch currents.
#[derive(Debug, Clone, Default)]
pub struct OpPoint {
    node_voltages: HashMap<String, f64>,
    branch_currents: HashMap<String, f64>,
}

impl OpPoint {
    pub(crate) fn new(
        node_voltages: HashMap<String, f64>,
        branch_currents: HashMap<String, f64>,
    ) -> Self {
        OpPoint { node_voltages, branch_currents }
    }

    /// Voltage of the named node.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if no such node was solved.
    pub fn voltage(&self, node: &str) -> Result<f64, SimError> {
        if node == "0" || node == "gnd" {
            return Ok(0.0);
        }
        self.node_voltages
            .get(node)
            .copied()
            .ok_or_else(|| SimError::NotFound(format!("node `{node}`")))
    }

    /// Current through the named branch device (voltage source, VCVS or
    /// inductor), positive from its first to its second terminal.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if the device has no branch current.
    pub fn current(&self, device: &str) -> Result<f64, SimError> {
        self.branch_currents
            .get(device)
            .copied()
            .ok_or_else(|| SimError::NotFound(format!("branch current of `{device}`")))
    }

    /// Iterates over all `(node, voltage)` pairs in unspecified order.
    pub fn voltages(&self) -> impl Iterator<Item = (&str, f64)> {
        self.node_voltages.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates over all `(device, current)` pairs in unspecified order.
    pub fn currents(&self) -> impl Iterator<Item = (&str, f64)> {
        self.branch_currents.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Result of a transient analysis: a shared time axis plus one sample
/// series per recorded signal.
///
/// Node voltages are recorded under their node names; branch currents
/// under `I(device)`.
#[derive(Debug, Clone)]
pub struct TransientResult {
    time: Vec<f64>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    data: Vec<Vec<f64>>,
    accepted_steps: usize,
    rejected_steps: usize,
    total_newton_iterations: usize,
}

impl TransientResult {
    pub(crate) fn new(names: Vec<String>) -> Self {
        let index = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let data = names.iter().map(|_| Vec::new()).collect();
        TransientResult {
            time: Vec::new(),
            names,
            index,
            data,
            accepted_steps: 0,
            rejected_steps: 0,
            total_newton_iterations: 0,
        }
    }

    pub(crate) fn push_sample(&mut self, t: f64, values: &[f64]) {
        debug_assert_eq!(values.len(), self.data.len());
        self.time.push(t);
        for (series, &v) in self.data.iter_mut().zip(values) {
            series.push(v);
        }
    }

    pub(crate) fn record_stats(&mut self, accepted: usize, rejected: usize, newton: usize) {
        self.accepted_steps = accepted;
        self.rejected_steps = rejected;
        self.total_newton_iterations = newton;
    }

    /// The shared time axis.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True when no samples were stored.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Names of all recorded signals.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Raw samples of a signal, if recorded.
    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.index.get(name).map(|&i| self.data[i].as_slice())
    }

    /// The signal as an owned [`Waveform`] (node name, or `I(device)`).
    pub fn trace(&self, name: &str) -> Option<Waveform> {
        self.samples(name).map(|s| Waveform::new(self.time.clone(), s.to_vec()))
    }

    /// Branch-current trace of a device; sugar for `trace("I(name)")`.
    pub fn current_trace(&self, device: &str) -> Option<Waveform> {
        self.trace(&format!("I({device})"))
    }

    /// Writes every recorded signal as CSV (`time` column first) to any
    /// writer — the bridge to external plotting tools.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        write!(writer, "time")?;
        for name in &self.names {
            write!(writer, ",{name}")?;
        }
        writeln!(writer)?;
        for (k, &t) in self.time.iter().enumerate() {
            write!(writer, "{t}")?;
            for series in &self.data {
                write!(writer, ",{}", series[k])?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }

    /// `(accepted, rejected)` step counts of the adaptive integrator.
    pub fn step_counts(&self) -> (usize, usize) {
        (self.accepted_steps, self.rejected_steps)
    }

    /// Total Newton iterations spent across all accepted and rejected steps.
    pub fn newton_iterations(&self) -> usize {
        self.total_newton_iterations
    }
}

/// Result of an AC analysis: complex phasors per signal per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    frequencies: Vec<f64>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    data: Vec<Vec<Complex>>,
}

impl AcResult {
    pub(crate) fn new(frequencies: Vec<f64>, names: Vec<String>) -> Self {
        let index = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let data = names.iter().map(|_| Vec::new()).collect();
        AcResult { frequencies, names, index, data }
    }

    pub(crate) fn push_point(&mut self, values: &[Complex]) {
        for (series, &v) in self.data.iter_mut().zip(values) {
            series.push(v);
        }
    }

    /// The frequency grid in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Names of all recorded signals.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Phasor series of a signal.
    pub fn phasors(&self, name: &str) -> Option<&[Complex]> {
        self.index.get(name).map(|&i| self.data[i].as_slice())
    }

    /// Magnitude series (in dB) of a signal.
    pub fn magnitude_db(&self, name: &str) -> Option<Vec<f64>> {
        self.phasors(name).map(|p| p.iter().map(|z| z.db()).collect())
    }

    /// Phase series (in degrees) of a signal.
    pub fn phase_degrees(&self, name: &str) -> Option<Vec<f64>> {
        self.phasors(name).map(|p| p.iter().map(|z| z.phase_degrees()).collect())
    }

    /// Finds the −3 dB frequency of a signal relative to its value at the
    /// first grid point, by linear interpolation on dB magnitude.
    pub fn corner_frequency(&self, name: &str) -> Option<f64> {
        let mags = self.magnitude_db(name)?;
        let reference = *mags.first()?;
        let target = reference - 3.0;
        for w in 0..mags.len().saturating_sub(1) {
            let (m0, m1) = (mags[w], mags[w + 1]);
            if (m0 - target) * (m1 - target) <= 0.0 && m0 != m1 {
                let frac = (target - m0) / (m1 - m0);
                let (f0, f1) = (self.frequencies[w], self.frequencies[w + 1]);
                // Interpolate in log-frequency for log sweeps.
                return Some(f0 * (f1 / f0).powf(frac));
            }
        }
        None
    }
}

/// Result of a DC sweep: the swept values and the operating point at each.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    values: Vec<f64>,
    ops: Vec<OpPoint>,
}

impl DcSweepResult {
    pub(crate) fn new(values: Vec<f64>) -> Self {
        DcSweepResult { values, ops: Vec::new() }
    }

    pub(crate) fn push(&mut self, op: OpPoint) {
        self.ops.push(op);
    }

    /// The swept source values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Operating points, one per swept value.
    pub fn points(&self) -> &[OpPoint] {
        &self.ops
    }

    /// Voltage of `node` across the sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if the node is unknown.
    pub fn voltage_series(&self, node: &str) -> Result<Vec<f64>, SimError> {
        self.ops.iter().map(|op| op.voltage(node)).collect()
    }

    /// Branch current of `device` across the sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if the device has no branch current.
    pub fn current_series(&self, device: &str) -> Result<Vec<f64>, SimError> {
        self.ops.iter().map(|op| op.current(device)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sweep_endpoints() {
        let spec = AcSpec::log_sweep(10.0, 1.0e6, 10);
        assert_eq!(*spec.frequencies.first().unwrap(), 10.0);
        assert_eq!(*spec.frequencies.last().unwrap(), 1.0e6);
        assert!(spec.frequencies.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn linear_sweep_spacing() {
        let spec = AcSpec::linear_sweep(0.0, 10.0, 11);
        assert_eq!(spec.frequencies.len(), 11);
        assert!((spec.frequencies[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn transient_result_round_trip() {
        let mut r = TransientResult::new(vec!["a".into(), "I(V1)".into()]);
        r.push_sample(0.0, &[1.0, 2.0]);
        r.push_sample(1.0, &[3.0, 4.0]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.samples("a").unwrap(), &[1.0, 3.0]);
        assert_eq!(r.current_trace("V1").unwrap().values(), &[2.0, 4.0]);
        assert!(r.trace("missing").is_none());
    }

    #[test]
    fn op_point_lookup() {
        let op = OpPoint::new(
            [("a".to_string(), 1.5)].into_iter().collect(),
            [("V1".to_string(), -0.1)].into_iter().collect(),
        );
        assert_eq!(op.voltage("a").unwrap(), 1.5);
        assert_eq!(op.voltage("gnd").unwrap(), 0.0);
        assert!(op.voltage("zz").is_err());
        assert_eq!(op.current("V1").unwrap(), -0.1);
    }

    #[test]
    fn tran_config_builder_sets_every_field() {
        let cfg = TranConfig::builder(1.0e-3)
            .max_step(1.0e-6)
            .min_step(1.0e-15)
            .reltol(1.0e-4)
            .vabstol(1.0e-7)
            .iabstol(1.0e-10)
            .method(Integration::BackwardEuler)
            .lte_control(false)
            .max_newton(40)
            .record_currents(false)
            .profile(true)
            .build();
        assert_eq!(cfg.t_stop, 1.0e-3);
        assert_eq!(cfg.max_step, Some(1.0e-6));
        assert_eq!(cfg.min_step, 1.0e-15);
        assert_eq!(cfg.reltol, 1.0e-4);
        assert_eq!(cfg.vabstol, 1.0e-7);
        assert_eq!(cfg.iabstol, 1.0e-10);
        assert_eq!(cfg.method, Integration::BackwardEuler);
        assert!(!cfg.lte_control);
        assert_eq!(cfg.max_newton, 40);
        assert!(!cfg.record_currents);
        assert!(cfg.profile);
    }

    #[test]
    #[should_panic(expected = "t_stop must be positive")]
    fn tran_config_builder_validates() {
        let _ = TranConfig::builder(-1.0);
    }
}
