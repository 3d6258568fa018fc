//! A domain that plays a fixed schedule onto one port.
//!
//! Some boundary signals are pure functions of time — an uplink
//! shorting schedule, a gate drive, a test stimulus. Wrapping them as a
//! [`SchedulePort`] keeps the scheduler uniform (every port has exactly
//! one producing domain) without writing a bespoke domain per signal.

use crate::domain::Domain;
use crate::error::CosimError;
use crate::exchange::{Exchange, Port};
use analog::source::Pwl;

/// A [`Domain`] that emits samples of a piecewise-linear schedule on a
/// single port: envelope-rate samples plus the schedule's own corner
/// times, so consumers see crisp transitions wherever they fall.
pub struct SchedulePort {
    name: &'static str,
    wave: Pwl,
    dt: f64,
}

impl SchedulePort {
    /// A schedule domain emitting `wave` on port `name`, sampled no
    /// coarser than `dt`.
    pub fn new(name: &'static str, wave: Pwl, dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "sampling step must be positive");
        SchedulePort { name, wave, dt }
    }
}

impl Domain for SchedulePort {
    fn advance(&self, t0: f64, t1: f64, _bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let n = (((t1 - t0) / self.dt) - 1.0e-9).ceil().max(1.0) as usize;
        let h = (t1 - t0) / n as f64;
        let mut times: Vec<f64> = (1..=n)
            .map(|k| if k == n { t1 } else { t0 + k as f64 * h })
            .collect();
        times.extend(self.wave.corner_times().filter(|&t| t > t0 && t < t1));
        times.sort_by(f64::total_cmp);
        times.dedup();
        let mut port = Port::new(self.name);
        for &t in &times {
            port.push(t, self.wave.eval(t));
        }
        Ok(vec![port])
    }

    fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_emits_grid_and_corner_samples() {
        let wave = Pwl::new(vec![(0.0, 0.0), (1.5e-6, 0.0), (1.6e-6, 1.0), (5.0e-6, 1.0)]);
        let dom = SchedulePort::new("sched", wave, 1.0e-6);
        let bus = Exchange::new();
        let ports = dom.advance(0.0, 3.0e-6, &bus).unwrap();
        let p = &ports[0];
        assert_eq!(p.name, "sched");
        // Grid samples at 1, 2, 3 µs plus corners at 1.5 and 1.6 µs.
        assert_eq!(p.times.len(), 5);
        assert!(p.times.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let at = |t: f64| {
            let i = p.times.iter().position(|&x| (x - t).abs() < 1e-15).unwrap();
            p.values[i]
        };
        assert_eq!(at(1.5e-6), 0.0);
        assert_eq!(at(1.6e-6), 1.0);
        assert_eq!(at(3.0e-6), 1.0);
    }
}
