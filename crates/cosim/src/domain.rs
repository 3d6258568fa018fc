//! The domain abstraction: one rate-partitioned piece of the power
//! chain, coupled to its neighbours only through exchange ports.

use crate::error::CosimError;
use crate::exchange::{Exchange, Port};

/// One co-simulated domain.
///
/// The scheduler runs a Gauss–Seidel waveform relaxation: every
/// iteration, each domain in turn [`advance`](Domain::advance)s over
/// the same macro-step reading the live bus — committed history plus
/// the latest proposal of every port, including the ones earlier
/// domains made this iteration. Once the boundary residual converges,
/// the scheduler settles the window into committed history and calls
/// [`commit`](Domain::commit) so the domain can roll its internal state
/// forward from the converged inputs.
///
/// `advance` must therefore be a pure function of the committed state
/// and the bus, and must not mutate anything observable before
/// `commit`.
pub trait Domain {
    /// Proposes boundary outputs over `[t0, t1]` from the committed
    /// state, reading coupled inputs from `bus`.
    ///
    /// # Errors
    ///
    /// Domain-internal solver failures and bus wiring errors.
    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError>;

    /// Rolls internal state forward over the converged window. `bus`
    /// already contains the committed `[t0, t1]` segment of every port.
    ///
    /// # Errors
    ///
    /// Bus wiring errors.
    fn commit(&mut self, t0: f64, t1: f64, bus: &Exchange) -> Result<(), CosimError>;
}
