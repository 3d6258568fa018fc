//! Boundary-waveform exchange: the sampled signals domains trade at
//! their coupling ports.
//!
//! An [`ExchangeBuffer`] is a strictly-ordered sampled waveform with
//! linear interpolation — deliberately the same semantics as
//! [`analog::Waveform`], but growable: committed history followed by a
//! pending tail holding the current macro-step's latest proposal. The
//! [`Exchange`] is the bus: a name → buffer map every domain reads its
//! inputs from. Its one write path is [`Exchange::propose`], which
//! replaces a port's pending tail and scores the change; once a window
//! converges, [`Exchange::settle`] makes every tail committed history.
//! Buffers are seeded with an explicit initial sample, so the first
//! relaxation iterate of the first macro-step starts from a defined
//! value rather than an empty read — end-clamped sampling then doubles
//! as the constant extrapolation that opens every subsequent
//! macro-step.

use crate::error::CosimError;
use analog::Waveform;
use std::collections::BTreeMap;

/// One domain's proposed output segment for a macro-step: a named batch
/// of `(time, value)` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name on the exchange bus.
    pub name: String,
    /// Sample times, strictly increasing, all inside the macro-step.
    pub times: Vec<f64>,
    /// Sample values, one per time.
    pub values: Vec<f64>,
}

impl Port {
    /// An empty port proposal.
    pub fn new(name: impl Into<String>) -> Self {
        Port { name: name.into(), times: Vec::new(), values: Vec::new() }
    }

    /// Appends a sample; times must arrive strictly increasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t > last, "port `{}` samples must be strictly increasing", self.name);
        }
        self.times.push(t);
        self.values.push(v);
    }
}

/// A growable sampled waveform with linear interpolation and
/// end-clamping: committed history followed by the current window's
/// pending tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeBuffer {
    times: Vec<f64>,
    values: Vec<f64>,
    /// Samples before this index are committed; the rest is pending.
    committed: usize,
    tol_scale: f64,
}

impl ExchangeBuffer {
    /// A buffer seeded with one committed sample at `t0`.
    pub fn seeded(t0: f64, value: f64, tol_scale: f64) -> Self {
        assert!(tol_scale > 0.0 && tol_scale.is_finite(), "tol_scale must be positive");
        ExchangeBuffer { times: vec![t0], values: vec![value], committed: 1, tol_scale }
    }

    /// Linear interpolation at `t` over committed history and the
    /// pending tail, clamped to the first/last sample outside the
    /// covered span. Reading past the end is how the scheduler
    /// extrapolates the previous macro-step into the next.
    pub fn sample(&self, t: f64) -> f64 {
        let n = self.times.len();
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= self.times[n - 1] {
            return self.values[n - 1];
        }
        // partition_point: first index with time > t, so `hi ∈ [1, n-1]`.
        let hi = self.times.partition_point(|&x| x <= t);
        let (t0, t1) = (self.times[hi - 1], self.times[hi]);
        let (v0, v1) = (self.values[hi - 1], self.values[hi]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Replaces the pending tail with `port`'s samples (which must
    /// continue past the committed end) and returns the proposal's
    /// scaled residual against the buffer it replaces — the previous
    /// iterate, or end-clamped history on a window's first proposal:
    /// the maximum of `|proposed − previous| / tol_scale` over the
    /// proposal's samples.
    pub fn propose(&mut self, port: &Port) -> f64 {
        let mut worst = 0.0f64;
        for (&t, &v) in port.times.iter().zip(&port.values) {
            worst = worst.max((v - self.sample(t)).abs() / self.tol_scale);
        }
        self.times.truncate(self.committed);
        self.values.truncate(self.committed);
        let mut last = self.end_time();
        for (&t, &v) in port.times.iter().zip(&port.values) {
            assert!(t > last, "port `{}` rewinds the exchange buffer", port.name);
            self.times.push(t);
            self.values.push(v);
            last = t;
        }
        worst
    }

    /// Makes the pending tail committed history.
    fn settle(&mut self) {
        self.committed = self.times.len();
    }

    /// Time of the last committed sample.
    pub fn end_time(&self) -> f64 {
        self.times[self.committed - 1]
    }

    /// The committed history as an immutable [`Waveform`].
    pub fn waveform(&self) -> Waveform {
        Waveform::new(
            self.times[..self.committed].to_vec(),
            self.values[..self.committed].to_vec(),
        )
    }
}

/// The exchange bus: every boundary port's committed history plus the
/// current window's pending proposals.
#[derive(Debug, Default)]
pub struct Exchange {
    ports: BTreeMap<String, ExchangeBuffer>,
}

impl Exchange {
    /// An empty bus.
    pub fn new() -> Self {
        Exchange { ports: BTreeMap::new() }
    }

    /// Seeds a port with its initial value at `t0`; every port must be
    /// seeded before the scheduler runs.
    pub fn seed(&mut self, name: impl Into<String>, t0: f64, value: f64, tol_scale: f64) {
        let name = name.into();
        assert!(
            self.ports
                .insert(name.clone(), ExchangeBuffer::seeded(t0, value, tol_scale))
                .is_none(),
            "port `{name}` seeded twice"
        );
    }

    /// The buffer behind `name`, or a structured wiring error.
    ///
    /// # Errors
    ///
    /// [`CosimError::MissingPort`] when no such port exists.
    pub fn reader(&self, name: &str) -> Result<&ExchangeBuffer, CosimError> {
        self.ports.get(name).ok_or_else(|| CosimError::MissingPort(name.to_string()))
    }

    /// Port names on the bus, in sorted order.
    pub fn port_names(&self) -> impl Iterator<Item = &str> {
        self.ports.keys().map(String::as_str)
    }

    /// The committed history of a port as a [`Waveform`].
    pub fn waveform(&self, name: &str) -> Option<Waveform> {
        self.ports.get(name).map(ExchangeBuffer::waveform)
    }

    /// Replaces a port's pending tail with a proposal and returns its
    /// scaled residual against the previous iterate (see
    /// [`ExchangeBuffer::propose`]).
    ///
    /// # Errors
    ///
    /// [`CosimError::MissingPort`] when the proposal names an unseeded
    /// port.
    pub fn propose(&mut self, port: &Port) -> Result<f64, CosimError> {
        match self.ports.get_mut(&port.name) {
            Some(buffer) => Ok(buffer.propose(port)),
            None => Err(CosimError::MissingPort(port.name.clone())),
        }
    }

    /// Makes every port's pending tail committed history.
    pub fn settle(&mut self) {
        self.ports.values_mut().for_each(ExchangeBuffer::settle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(name: &str, samples: &[(f64, f64)]) -> Port {
        let mut port = Port::new(name);
        for &(t, v) in samples {
            port.push(t, v);
        }
        port
    }

    #[test]
    fn sampling_interpolates_and_clamps() {
        let mut buf = ExchangeBuffer::seeded(0.0, 1.0, 1.0);
        buf.propose(&port("x", &[(1.0, 3.0), (2.0, 3.0)]));
        assert_eq!(buf.sample(-1.0), 1.0, "clamps before the seed");
        assert_eq!(buf.sample(0.5), 2.0, "linear between samples");
        assert_eq!(buf.sample(9.0), 3.0, "clamps past the end");
    }

    #[test]
    #[should_panic(expected = "rewinds")]
    fn proposing_into_the_past_panics() {
        let mut buf = ExchangeBuffer::seeded(1.0, 0.0, 1.0);
        buf.propose(&port("x", &[(0.5, 1.0)]));
    }

    #[test]
    fn residual_is_scaled_per_port() {
        let mut bus = Exchange::new();
        bus.seed("i", 0.0, 0.0, 0.025);
        let r = bus.propose(&port("i", &[(1.0, 1.0e-3)])).unwrap();
        assert!((r - 0.04).abs() < 1e-12, "1 mA / 25 mS = 40 mV-equivalent, got {r}");
        assert!(matches!(
            bus.propose(&Port::new("missing")),
            Err(CosimError::MissingPort(_))
        ));
    }

    #[test]
    fn reproposing_replaces_the_pending_tail() {
        let mut bus = Exchange::new();
        bus.seed("v", 0.0, 2.0, 0.5);
        bus.propose(&port("v", &[(1.0, 2.5)])).unwrap();
        bus.settle();
        let committed = bus.waveform("v").unwrap();
        // First iterate of the next window: scored against the
        // end-clamped committed value.
        let r = bus.propose(&port("v", &[(1.5, 2.7), (2.0, 2.9)])).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "|2.9 − 2.5| / 0.5, got {r}");
        // Second iterate: scored against the first, which it replaces
        // rather than extends.
        let r = bus.propose(&port("v", &[(2.0, 3.0)])).unwrap();
        assert!((r - 0.2).abs() < 1e-12, "|3.0 − 2.9| / 0.5, got {r}");
        let buf = bus.reader("v").unwrap();
        assert_eq!(buf.sample(1.5), 2.75, "the replaced iterate's samples are gone");
        assert_eq!(buf.sample(2.0), 3.0);
        // Pending samples never reach the committed view.
        assert_eq!(bus.waveform("v").unwrap(), committed, "committed history moved");
        assert_eq!(buf.end_time(), 1.0);
    }

    #[test]
    fn settle_extends_the_waveform_view() {
        let mut bus = Exchange::new();
        bus.seed("v", 0.0, 2.0, 1.0);
        bus.propose(&port("v", &[(1.0e-6, 2.5)])).unwrap();
        bus.settle();
        let w = bus.waveform("v").unwrap();
        assert_eq!(w.value_at(0.5e-6), 2.25);
        assert_eq!(bus.reader("v").unwrap().end_time(), 1.0e-6);
        assert_eq!(bus.port_names().collect::<Vec<_>>(), vec!["v"]);
    }
}
