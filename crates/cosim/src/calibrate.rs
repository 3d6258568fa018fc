//! Calibration fan-out: the only place a co-simulation uses the pool.
//!
//! Envelope-rate surrogates are built from carrier-rate probes of the
//! real netlist. The probes are independent of each other, so they run
//! concurrently on a [`Pool`]; the relaxation loop that consumes the
//! resulting tables is serial (see [`crate::scheduler`]).

use crate::error::CosimError;
use analog::SimError;
use runtime::{Batch, JobOutcome, Pool};

/// Runs `probe` over every point on `pool` as batch `name` and returns
/// the measurements in point order, whatever the worker count.
///
/// # Errors
///
/// The first failing probe, in point order, as [`CosimError::Domain`]
/// attributed to `domain`, or as [`CosimError::Panicked`] when it
/// panicked.
pub fn probe_all<P, T, F>(
    pool: &Pool,
    name: &str,
    domain: &'static str,
    points: &[P],
    probe: F,
) -> Result<Vec<T>, CosimError>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> Result<T, SimError> + Sync,
{
    let batch = Batch::builder(name).trials(points.len()).build();
    let run = pool.run(&batch, |ctx| probe(&points[ctx.index]));
    run.results
        .into_iter()
        .map(|result| match result.outcome {
            JobOutcome::Ok(measured) => {
                measured.map_err(|source| CosimError::Domain { domain, source })
            }
            JobOutcome::Panicked(message) => {
                Err(CosimError::Panicked { domain: domain.to_string(), message })
            }
        })
        .collect()
}

/// Clamped linear interpolation on a sorted grid.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let n = xs.len();
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[n - 1] {
        return ys[n - 1];
    }
    let hi = xs.partition_point(|&g| g <= x);
    let w = (x - xs[hi - 1]) / (xs[hi] - xs[hi - 1]);
    ys[hi - 1] + w * (ys[hi] - ys[hi - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_failures_become_structured_errors_in_point_order() {
        let points = [0u8, 1, 2];
        let err = probe_all(&Pool::new(2), "t", "link", &points, |&p| match p {
            0 => Ok(()),
            1 => Err(SimError::NotFound("probe".into())),
            _ => panic!("probe blew up"),
        })
        .unwrap_err();
        assert!(matches!(err, CosimError::Domain { domain: "link", .. }), "{err:?}");
        let err = probe_all(&Pool::new(2), "t", "link", &points, |&p| match p {
            1 => panic!("probe blew up"),
            _ => Ok(()),
        })
        .unwrap_err();
        assert_eq!(
            err,
            CosimError::Panicked { domain: "link".into(), message: "probe blew up".into() }
        );
    }
}
