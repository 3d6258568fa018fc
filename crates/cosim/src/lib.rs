//! Partitioned multi-rate co-simulation of the implant power chain.
//!
//! The monolithic Fig. 11 transient integrates everything — PA/link,
//! rectifier, PMU and comms — on the carrier grid (10 ns steps at
//! 5 MHz), even though only the link front-end has carrier-rate
//! dynamics. This crate splits the chain into coupled [`Domain`]s that
//! each run at their natural rate:
//!
//! * **link** — the PA + inductive link + rectifier front-end, reduced
//!   to an envelope-rate surrogate calibrated by short carrier-rate
//!   probes of the real transistor netlist (see [`fig11::RectifierTable`]);
//! * **pmu** — the storage capacitor and load, an envelope-rate ODE;
//! * **comms** — bit-rate demodulation decisions;
//! * **schedule ports** — pure functions of time such as the uplink LSK
//!   shorting schedule (see [`SchedulePort`]).
//!
//! Domains exchange boundary waveforms (carrier envelope and charging
//! current out of the link, storage voltage back from the PMU,
//! demodulator output from comms, the LSK state from its schedule)
//! over an [`Exchange`] bus, reconciled by a bounded
//! Gauss–Seidel waveform-relaxation loop per macro-step (see [`Cosim`]).
//! The loop is serial, so results are bit-identical at any
//! `IMPLANT_WORKERS`; [`runtime::Pool`] runs only the independent
//! calibration probes ([`calibrate::probe_all`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod domain;
pub mod error;
pub mod exchange;
pub mod fig11;
pub mod schedule;
pub mod scheduler;

pub use domain::Domain;
pub use error::CosimError;
pub use exchange::{Exchange, ExchangeBuffer, Port};
pub use fig11::{run_fig11, Fig11CosimRun, Fig11CosimSpec, RectifierTable};
pub use schedule::SchedulePort;
pub use scheduler::{Cosim, CosimStats, RatePlan};
